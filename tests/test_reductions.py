import random

import pytest

from budgeted_contracts import (
    Additive,
    Instance,
    InputError,
    PreconditionError,
    SolverContractError,
    brute_force_max,
    brute_solver,
    equivalence_pipeline,
    light_agents,
    payment,
    reduce_from_mrl,
    reduce_to_mrl,
    scale_instance,
    value,
)
from budgeted_contracts.core import XosClauses
from budgeted_contracts.corpora import random_xos_instance, submodular_corpus, xos_corpus
from budgeted_contracts.objectives import PROFIT, REWARD, WELFARE

ALL3 = 0b111


def test_scale_instance_examples(separation):
    same = scale_instance(separation, 1.0, 1.0)
    assert same.agents == (0, 1, 2)
    assert same.scale == 1.0
    assert same.instance.costs == separation.costs

    half = scale_instance(separation, 1.0, 0.5)
    assert half.instance.costs == pytest.approx((0.1, 0.1, 0.0))
    for team in range(8):
        assert value(half.instance.reward, team) == value(separation.reward, team)

    heavy = Instance(1, (0.9,), Additive((1.0,)))
    empty = scale_instance(heavy, 1.0, 0.5)
    assert empty.instance is None and empty.agents == ()


def test_scale_round_trip_exact_on_dyadic_budgets(separation):
    for b, bp in [(1.0, 0.5), (0.5, 0.25), (1.0, 0.25), (0.5, 1.0)]:
        once = scale_instance(separation, b, bp)
        light = [separation.costs[i] for i in once.agents]
        back = [c * (b / bp) for c in once.instance.costs]
        assert back == light  # exact, not approximate


def test_scale_validates_budgets(separation):
    with pytest.raises(InputError):
        scale_instance(separation, 0.0, 0.5)
    with pytest.raises(InputError):
        scale_instance(separation, 0.5, 1.5)


def test_reduce_to_mrl_example(separation):
    hub = brute_force_max(REWARD, separation, 1.0, light_only=True)
    out = reduce_to_mrl(separation, 1.0, PROFIT, hub.optimum)
    assert out.candidate == 0b100  # the free agent maximizes profit
    assert out.candidate_value == pytest.approx(2 / 5)
    assert out.guarantee_factor == 41.0
    assert out.budget_used <= 1.0 + 1e-9
    opt = brute_force_max(PROFIT, separation, 1.0).value
    assert out.guarantee_factor * out.candidate_value >= opt - 1e-9


def test_reduce_to_mrl_submodular_path(uniform4):
    hub = brute_force_max(REWARD, uniform4, 1.0, light_only=True)
    out = reduce_to_mrl(uniform4, 1.0, WELFARE, hub.optimum, path="submodular")
    assert out.guarantee_factor == 7.0
    opt = brute_force_max(WELFARE, uniform4, 1.0).value
    assert 7 * out.candidate_value >= opt - 1e-9


def test_reduce_to_mrl_single_agent(single_agent):
    out = reduce_to_mrl(single_agent, 1.0, PROFIT, 0b1)
    assert out.candidate in (0, 0b1)
    assert out.candidate_value == pytest.approx(0.5)


def test_reduce_to_mrl_preconditions(separation):
    heavy_team = Instance(2, (0.45, 0.9), Additive((0.5, 0.5)))
    with pytest.raises(PreconditionError):
        reduce_to_mrl(heavy_team, 1.0, PROFIT, 0b10)  # heavy member
    with pytest.raises(PreconditionError):
        reduce_to_mrl(separation, 0.25, PROFIT, ALL3)  # over budget


def test_reduce_from_mrl_example(separation):
    out = reduce_from_mrl(separation, 1.0, 1.0, PROFIT, brute_solver)
    hub = brute_force_max(REWARD, separation, 1.0, light_only=True).value
    assert 20 * out.candidate_value >= hub - 1e-9
    assert out.budget_used <= 1.0 + 1e-9
    assert out.guarantee_factor == 20.0


def test_reduce_from_mrl_no_light_agents():
    heavy = Instance(1, (0.9,), Additive((1.0,)))
    out = reduce_from_mrl(heavy, 1.0, 0.5, PROFIT, brute_solver)
    assert out.candidate == 0
    assert out.candidate_value == 0.0


def test_reduce_from_mrl_solver_contract():
    # both agents are light, but the pair costs 1.0, over the scaled budget
    inst = Instance(2, (0.25, 0.25), Additive((0.5, 0.5)))

    def cheater(scaled, budget, obj):
        return (1 << scaled.n) - 1  # ignores the budget entirely

    with pytest.raises(SolverContractError):
        reduce_from_mrl(inst, 0.5, 0.5, PROFIT, cheater)


def test_pipeline_example(separation):
    out = equivalence_pipeline(separation, WELFARE, 1.0, PROFIT, 0.5, brute_solver)
    assert out.guarantee_factor == pytest.approx(801.0)
    assert out.guarantee_factor <= 820.0
    opt = brute_force_max(WELFARE, separation, 1.0).value
    assert out.guarantee_factor * out.candidate_value >= opt - 1e-9
    assert out.budget_used <= 1.0 + 1e-9


def test_pipeline_identity_settings(separation):
    out = equivalence_pipeline(separation, PROFIT, 1.0, PROFIT, 1.0, brute_solver)
    opt = brute_force_max(PROFIT, separation, 1.0).value
    assert out.guarantee_factor * out.candidate_value >= opt - 1e-9


def test_pipeline_single_light_agent():
    inst = Instance(2, (0.1, 0.9), Additive((0.5, 0.5)))
    assert light_agents(inst) == 0b01
    out = equivalence_pipeline(inst, REWARD, 1.0, REWARD, 1.0, brute_solver)
    assert out.candidate == 0b01


def test_reduction_grid_on_corpora():
    for inst in xos_corpus(15, seed=701, n_hi=8):
        for budget in (0.25, 0.5, 1.0):
            hub = brute_force_max(REWARD, inst, budget, light_only=True)
            for obj in (REWARD, PROFIT, WELFARE):
                out = reduce_to_mrl(inst, budget, obj, hub.optimum)
                opt = brute_force_max(obj, inst, budget).value
                assert 41 * out.candidate_value >= opt - 1e-9
                assert out.budget_used <= budget + 1e-9
                back = reduce_from_mrl(inst, budget, 0.5, obj, brute_solver)
                assert 20 * back.candidate_value >= hub.value - 1e-9
                assert back.budget_used <= budget + 1e-9


def test_reduction_grid_submodular_constants():
    for inst in submodular_corpus(15, seed=702, n_hi=8):
        for budget in (0.5, 1.0):
            hub = brute_force_max(REWARD, inst, budget, light_only=True)
            for obj in (PROFIT, WELFARE):
                out = reduce_to_mrl(inst, budget, obj, hub.optimum, path="submodular")
                opt = brute_force_max(obj, inst, budget).value
                assert 7 * out.candidate_value >= opt - 1e-9
                back = reduce_from_mrl(
                    inst, budget, 1.0, obj, brute_solver, path="submodular"
                )
                assert 6 * back.candidate_value >= hub.value - 1e-9


def test_every_outcome_is_feasible_at_original_budget():
    for inst in xos_corpus(10, seed=703, n_hi=7):
        out = equivalence_pipeline(inst, PROFIT, 0.5, WELFARE, 1.0, brute_solver)
        assert payment(inst, out.candidate) <= 0.5 + 1e-9


def test_candidate_value_is_the_score_it_was_picked_by(uniform4, table_queries):
    # each pool member is scored once and the winner keeps its score: 9
    # queries check the hub input (light agents, p(S)), 10 downsize it, 17
    # score the pool (the empty team, the piece {0, 1} and 4 singletons) and
    # 3 pay for the winner; the feasible singletons are found from the
    # singleton payments the light scan took, with no query of their own
    out = reduce_to_mrl(uniform4, 1.0, PROFIT, 0b1111, path="submodular")
    assert (out.candidate, out.candidate_value, out.budget_used) == (0b0011, 0.25, 0.5)
    assert len(table_queries) == 39


def test_pipeline_scans_singletons_once(monkeypatch):
    # 77 clause-oracle queries before the singleton payments were kept on the
    # instance: the light scan ran in scale_instance and again in
    # reduce_to_mrl (7 each), and the two pool filters took 5 light and 7
    # singleton payments anew
    calls = []
    xos_value = XosClauses.value

    def counting(self, team):
        calls.append(team)
        return xos_value(self, team)

    inst = random_xos_instance(random.Random(3), 7, 3)
    monkeypatch.setattr(XosClauses, "value", counting)
    out = equivalence_pipeline(inst, PROFIT, 0.5, REWARD, 0.5, brute_solver)
    assert (out.candidate, out.candidate_value) == (0b1000000, 0.0732421875)
    assert calls[:7] == [1 << i for i in range(7)]  # the one scan
    assert len(calls) == 77 - 7 - 5 - 7 == 58
    assert light_agents(inst) == 0b1001111 and len(calls) == 58
