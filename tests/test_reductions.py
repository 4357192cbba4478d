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
from budgeted_contracts.core import EPS, Table, XosClauses
from budgeted_contracts.corpora import (
    additive_corpus,
    random_xos_instance,
    submodular_corpus,
    xos_corpus,
)
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


@pytest.mark.parametrize("team", [1 << 3, -1], ids=["past-n", "negative"])
def test_reduce_from_mrl_rejects_a_team_outside_the_scaled_instance(team):
    # agent 2 is heavy, so the scaled instance has agents 0, 1 and 3 only
    inst = Instance(4, (0.1, 0.1, 0.9, 0.1), Additive((0.25, 0.25, 0.25, 0.25)))
    assert scale_instance(inst, 0.5, 0.5).instance.n == 3
    with pytest.raises(InputError):
        reduce_from_mrl(inst, 0.5, 0.5, PROFIT, lambda scaled, budget, obj: team)


def test_reduce_from_mrl_pays_the_solver_team_as_payment_does():
    # both payments come from the mapped team's marginals on the original
    # instance: each equals payment() on its own instance bit for bit
    rng = random.Random(47)
    insts = submodular_corpus(10, seed=47, n_lo=2, n_hi=7)
    insts += xos_corpus(10, seed=48, n_lo=2, n_hi=7)
    insts += additive_corpus(5, 6, seed=49) + additive_corpus(5, 9, seed=50)
    seen = {"over": 0, "picked": 0}
    for inst in insts:
        for budget, budget_prime in ((0.5, 0.5), (1.0, 0.25), (0.3, 0.9)):
            scaled = scale_instance(inst, budget, budget_prime)
            if scaled.instance is None:
                continue
            team = rng.randrange(1 << scaled.instance.n)
            pay_scaled = payment(scaled.instance, team)
            mapped = scaled.to_original(team)

            def solver(scaled_inst, b, obj):
                return team

            if pay_scaled > budget_prime + EPS:
                with pytest.raises(SolverContractError):
                    reduce_from_mrl(inst, budget, budget_prime, REWARD, solver)
                seen["over"] += 1
                continue
            out = reduce_from_mrl(inst, budget, budget_prime, REWARD, solver)
            if out.candidate == mapped:
                assert out.budget_used == payment(inst, mapped)
                seen["picked"] += mapped.bit_count() > 1
    assert min(seen.values()) > 0, seen


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
    # each pool member is scored once and the winner keeps its score. The
    # 12 queries and why each is made: the light scan asks f({i}) of the 4
    # agents (4); the downsizing of the hub input asks f(S) and its 4 drops
    # for the shares (5), which give p(S), the feasibility check, and
    # psi(S) = f(S); the bag test values the piece {0, 1} (1); and p({0, 1})
    # asks its 2 drops (2). The pool asks nothing: f({}) is the table's
    # entry 0, each singleton's f({i}) and payment come from the light scan,
    # and the piece's f(S) and p(S) from its downsizing; the winner's
    # payment is the one its pool kept
    out = reduce_to_mrl(uniform4, 1.0, PROFIT, 0b1111, path="submodular")
    assert (out.candidate, out.candidate_value, out.budget_used) == (0b0011, 0.25, 0.5)
    assert table_queries == [0b0001, 0b0010, 0b0100, 0b1000, 0b1111, 0b1110,
                             0b1101, 0b1011, 0b0111, 0b0011, 0b0010, 0b0001]
    assert len(table_queries) == 12


def test_pipeline_scans_singletons_once(monkeypatch):
    # the 13 clause queries and why each is made: the light scan asks f({i})
    # of the 7 agents (7), which the instance keeps for both pools'
    # singletons and for downsize_xos's outlier test; the hub solver's team
    # {1, 3} is paid at B' and at B from one pass of f(S) and its 2 drops
    # (3); and downsize_xos asks that pass again for its shares (3), since
    # reduce_to_mrl is handed the team alone. The piece it returns, the
    # outlier {3}, takes f({3}) from the scan, and its drop f({}) is asked
    # of no oracle. The pools ask nothing: each member is scored from the
    # f(S) and p(S) held
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
    assert calls[7:] == [0b1010, 0b1000, 0b0010] * 2
    assert len(calls) == 13
    assert light_agents(inst) == 0b1001111 and len(calls) == 13


def test_pools_admit_singletons_by_their_team_payment():
    # with f({}) > 0 agent i alone is paid c_i / (f({i}) - f({})), above the
    # c_i / f({i}) that decides lightness: pools that admitted singletons by
    # the latter handed the hub an infeasible team, or returned one
    rng = random.Random(29)
    for inst in submodular_corpus(30, seed=29, n_lo=1, n_hi=6):
        base = rng.uniform(0.0, 0.3) or 0.3  # f({}) in (0, 0.3]
        shifted = Instance(
            inst.n, inst.costs, Table(base + (1 - base) * inst.reward.values)
        )
        for path in ("xos", "submodular"):
            for obj, budget in ((REWARD, 0.3), (PROFIT, 0.5), (WELFARE, 1.0)):
                out = equivalence_pipeline(
                    shifted, obj, budget, REWARD, budget, brute_solver, path=path
                )
                assert out.budget_used <= budget + EPS
                assert out.budget_used == payment(shifted, out.candidate)


@pytest.mark.parametrize("path", ["xos", "submodular"])
def test_reduce_to_mrl_takes_the_hub_payment_from_its_downsizing(uniform4, path):
    # p(S) = 1 at budget 0.5, and an infinite p(S) (no member has a marginal)
    overlap = Instance(2, (0.1, 0.1), Table((0.0, 0.5, 0.5, 0.5)))
    for inst, team in ((uniform4, 0b1111), (overlap, 0b11)):
        assert payment(inst, team) > 0.5
        with pytest.raises(PreconditionError, match="^hub input is not budget-feasible$"):
            reduce_to_mrl(inst, 0.5, PROFIT, team, path=path)
