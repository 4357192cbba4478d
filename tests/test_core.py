import functools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import budgeted_contracts
from budgeted_contracts import (
    Additive,
    Contract,
    Coverage,
    Instance,
    InputError,
    InfeasibleSetError,
    SizeCapError,
    Table,
    XosClauses,
    bits,
    brute_force_max,
    check_best_conditions,
    classify,
    demand,
    enumerate_equilibria,
    gen_additive_lb,
    gen_profit_lb_two,
    gen_subadditive_lb,
    is_nash_equilibrium,
    key_property_gap,
    light_agents,
    marginal,
    mask_of,
    optimal_contract_for,
    payment,
    profit,
    restrict,
    singleton_payment,
    to_table,
    value,
    value_payment_curve,
)
from budgeted_contracts import core, corpora
from budgeted_contracts.core import (
    EPS,
    _best_team,
    _margins,
    _same_instance,
    _paid,
    ceil_tol,
    is_submodular,
    team_table,
)
from budgeted_contracts.corpora import (
    random_submodular_instance,
    random_xos_instance,
    submodular_corpus,
    xos_corpus,
)
from budgeted_contracts.objectives import PROFIT, REWARD, WELFARE, evaluate_all

ALL3 = 0b111
ALL4 = 0b1111


# ---------------------------------------------------------------------------
# value / marginal oracles
# ---------------------------------------------------------------------------


def test_value_xos_separation(separation):
    assert value(separation.reward, ALL3) == pytest.approx(1.0)
    assert value(separation.reward, 0) == 0.0
    assert value(separation.reward, 0b110) == pytest.approx(3 / 5)


def test_empty_team_value_is_float():
    for f in (Additive((0.25, 0.5)), XosClauses(((0.25, 0.5), (0.5, 0.0)))):
        assert type(value(f, 0)) is float


def test_marginal_examples(separation, uniform4):
    assert marginal(separation.reward, ALL3, 2) == pytest.approx(1 / 5)
    add = Additive((0.3, 0.2))
    assert marginal(add, 0b11, 1) == pytest.approx(0.2)
    assert marginal(uniform4.reward, ALL4, 0) == pytest.approx(1 / 4)


def test_marginal_requires_membership(separation):
    with pytest.raises(InputError):
        marginal(separation.reward, 0b011, 2)


def test_team_out_of_range(separation):
    with pytest.raises(InputError):
        value(separation.reward, 1 << 3)


def test_team_out_of_range_names_its_highest_stray_agent(separation):
    # the message names one agent, not the mask: it stays short for any team
    with pytest.raises(InputError, match=r"^team has agent 10000 outside 0\.\.2$"):
        value(separation.reward, 1 << 10000 | 1 << 5 | 1)
    with pytest.raises(InputError, match=r"^a team mask cannot be negative$"):
        value(separation.reward, -(1 << 10000))


# ---------------------------------------------------------------------------
# payment / profit / contracts
# ---------------------------------------------------------------------------


def test_payment_examples(uniform4):
    assert payment(uniform4, ALL4) == pytest.approx(1.0)
    assert payment(uniform4, 0) == 0.0
    two = gen_profit_lb_two(0.4, 1.0, 0.1)
    assert two.reward.values == pytest.approx((0.5, 0.3))
    assert two.costs == pytest.approx((0.2, 0.009))
    assert payment(two, 0b01) == pytest.approx(2 / 5)


def test_payment_conventions():
    plateau = Table((0.0, 0.5, 0.5, 0.5))  # both marginals vanish inside {0,1}
    free = Instance(2, (0.0, 0.0), plateau)
    assert payment(free, 0b11) == 0.0  # 0/0 terms contribute nothing
    costly = Instance(2, (0.0, 0.3), plateau)
    assert payment(costly, 0b11) == math.inf  # positive cost, zero marginal
    assert payment(costly, 0b10) == pytest.approx(0.3 / 0.5)


def test_profit_examples(single_agent):
    assert profit(single_agent, 0b1) == pytest.approx(0.5)
    assert profit(single_agent, 0) == 0.0
    inst = Instance(2, (0.1, 0.1), Additive((0.5, 0.5)))
    assert profit(inst, 0b11) == pytest.approx(0.6)


def test_profit_sentinels():
    inst = Instance(2, (0.0, 0.2), Table((0.0, 0.5, 0.0, 0.5)))
    # positive reward but agent 1 is costly with zero marginal: ranks last
    assert profit(inst, 0b11) == -math.inf
    zero = Instance(1, (0.4,), Additive((0.0,)))
    assert profit(zero, 0b1) == 0.0


def test_profit_asks_each_drop_once(additive_queries):
    # f(S) and p(S) come from one pass over S, which asks S and each
    # S - {i} once (5)
    inst = Instance(4, (1 / 32,) * 4, Additive((0.25,) * 4))
    assert profit(inst, ALL4) == 0.5
    assert additive_queries == [ALL4, 0b1110, 0b1101, 0b1011, 0b0111]


def test_optimal_contract_examples(single_agent, uniform4):
    assert optimal_contract_for(single_agent, 0b1).alpha == (0.5,)
    assert optimal_contract_for(single_agent, 0).alpha == (0.0,)
    assert optimal_contract_for(uniform4, ALL4).alpha == pytest.approx((0.25,) * 4)


def test_contract_total_sums_in_order():
    # sum() compensates rounding on Python >= 3.12 and would give 1.0
    assert Contract((0.1,) * 10).total() == 0.9999999999999999


def test_shares_are_payment_and_contract_terms(nondyadic):
    for team in range(1 << nondyadic.n):
        f_team, marg = _margins(nondyadic.reward, team)
        assert f_team == value(nondyadic.reward, team)
        share, pay = _paid(nondyadic, marg)
        assert list(share) == list(marg) == list(bits(team))
        total = 0.0
        for s in share.values():
            total += s
        assert total == pay == payment(nondyadic, team)
        alpha = [0.0] * nondyadic.n
        for i, s in share.items():
            alpha[i] = s
        assert optimal_contract_for(nondyadic, team).alpha == tuple(alpha)


def test_optimal_contract_infeasible():
    inst = Instance(1, (0.4,), Additive((0.0,)))
    with pytest.raises(InfeasibleSetError):
        optimal_contract_for(inst, 0b1)


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------


def test_nash_examples(single_agent):
    assert is_nash_equilibrium(single_agent, Contract((0.5,)), 0b1)
    assert is_nash_equilibrium(single_agent, Contract((0.5,)), 0)
    assert not is_nash_equilibrium(single_agent, Contract((0.4,)), 0b1)


def test_enumerate_equilibria(single_agent):
    assert enumerate_equilibria(single_agent, Contract((0.5,))) == [0, 1]
    assert enumerate_equilibria(single_agent, Contract((0.6,))) == [1]
    inst = Instance(2, (0.1, 0.2), Additive((0.5, 0.5)))
    assert enumerate_equilibria(inst, Contract((0.0, 0.0))) == [0]


def test_enumeration_cap(additive21):
    with pytest.raises(SizeCapError):
        enumerate_equilibria(additive21, Contract((0.0,) * 21))


def test_below_threshold_contracts_have_unique_idle_equilibrium(single_agent):
    # any payment strictly below cost/f({i}) leaves shirking as the only
    # equilibrium, so the principal earns nothing
    for k in range(0, 50):
        alpha = 0.499 * k / 49
        assert enumerate_equilibria(single_agent, Contract((alpha,))) == [0]


def test_optimal_contract_is_equilibrium_on_corpus():
    for inst in submodular_corpus(15, seed=301, n_hi=7):
        for team in range(1 << inst.n):
            if payment(inst, team) == math.inf:
                continue
            contract = optimal_contract_for(inst, team)
            assert is_nash_equilibrium(inst, contract, team)


# ---------------------------------------------------------------------------
# demand oracle
# ---------------------------------------------------------------------------


def test_demand_examples(separation):
    assert demand(separation.reward, [0.1, 0.1, 0.1]) == ALL3
    assert demand(separation.reward, [0.9, 0.9, 0.9]) == 0
    assert demand(Additive((0.5, 0.5)), [0.2, 0.6]) == 0b01


def test_demand_rejects_negative_prices(separation):
    with pytest.raises(InputError):
        demand(separation.reward, [0.1, -0.1, 0.1])


@pytest.mark.parametrize("form", ["additive", "xos", "table"])
def test_demand_rejects_nan_prices(form):
    f = Additive((0.25, 0.5))
    f = {"additive": f, "xos": XosClauses((f.values,)), "table": to_table(f)}[form]
    with pytest.raises(InputError):
        demand(f, [math.nan, 0.1])
    # an infinite price stays valid in every form: never buy that agent
    assert demand(f, [math.inf, 0.1]) == 0b10


def test_demand_matches_table_scan():
    import random

    rng = random.Random(9)
    for inst in xos_corpus(20, seed=302, n_lo=4, n_hi=9):
        table = to_table(inst.reward)
        for _ in range(8):
            q = [rng.randrange(0, 17) / 16 for _ in range(inst.n)]
            assert demand(inst.reward, q) == demand(table, q)


# ---------------------------------------------------------------------------
# the tie rule for team lists
# ---------------------------------------------------------------------------


def test_best_team_takes_the_smallest_top_scorer_once():
    scores = {0b000: 0.0, 0b011: 0.5, 0b101: 0.5, 0b110: 0.25}
    calls = []

    def score(team):
        calls.append(team)
        return scores[team]

    # duplicates are scored once, in ascending order; the tie goes to 0b011
    assert _best_team([0b110, 0b101, 0b011, 0b101, 0, 0b110], score) == (0b011, 0.5)
    assert calls == [0, 0b011, 0b101, 0b110]
    rng = random.Random(5)
    teams = list(scores)
    for _ in range(20):
        rng.shuffle(teams)
        assert _best_team(teams, scores.__getitem__) == (0b011, 0.5)


def test_best_team_ties_at_minus_inf_and_signed_zero():
    assert _best_team([6, 4, 2], lambda team: -math.inf) == (2, -math.inf)
    # 0.0 == -0.0: the smaller team wins, with its own score
    for low, high in ((-0.0, 0.0), (0.0, -0.0)):
        team, s = _best_team([3, 1], {1: low, 3: high}.__getitem__)
        assert team == 1 and math.copysign(1.0, s) == math.copysign(1.0, low)


# ---------------------------------------------------------------------------
# light agents
# ---------------------------------------------------------------------------


def test_light_agents(separation, single_agent):
    assert light_agents(separation) == ALL3
    assert light_agents(single_agent) == 0b1  # boundary payment of exactly 1/2
    free = Instance(3, (0.0, 0.0, 0.0), Additive((0.2, 0.2, 0.2)))
    assert light_agents(free) == ALL3
    heavy = Instance(1, (0.9,), Additive((1.0,)))
    assert light_agents(heavy) == 0


def test_feasible_teams_have_at_most_one_heavy_agent():
    for inst in xos_corpus(20, seed=303, n_hi=8):
        light = light_agents(inst)
        for team in range(1 << inst.n):
            if payment(inst, team) <= 1.0 + 1e-9:
                assert (team & ~light).bit_count() <= 1


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_additive():
    got = classify(Additive((0.2, 0.3, 0.1)))
    assert got.is_monotone and got.is_submodular and got.is_subadditive


def test_classify_subadditive_not_submodular():
    inst = gen_subadditive_lb(4, 0.9, 1.0)
    got = classify(inst.reward)
    assert got.is_monotone and got.is_subadditive and not got.is_submodular


def test_classify_subadditivity_violation():
    t = Table((0.0, 0.2, 0.2, 0.9))  # f({0,1}) > f({0}) + f({1})
    assert not classify(t).is_subadditive


def test_classify_additive_without_tabulating(monkeypatch):
    def no_table(f):
        raise AssertionError("classify tabulated an additive reward")

    monkeypatch.setattr(core, "_value_array", no_table)
    for n in (4, 16):
        got = classify(Additive((1 / (3 * n),) * n))
        assert got.is_monotone and got.is_submodular and got.is_subadditive


def test_classify_cap():
    with pytest.raises(SizeCapError):
        classify(Table((0.0,) * (1 << 17)))
    assert classify(Additive((0.001,) * 30)).is_submodular


# ---------------------------------------------------------------------------
# subadditivity kernel against references kept here
# ---------------------------------------------------------------------------


def _disjoint_reference(t, n):
    """t[A | B] <= t[A] + t[B] + EPS over the 3^n disjoint pairs, one by one."""
    vals = t.tolist()
    for a in range(1 << n):
        rest = ((1 << n) - 1) & ~a
        b = rest
        while True:
            if vals[a | b] > vals[a] + vals[b] + EPS:
                return False
            if b == 0:
                break
            b = (b - 1) & rest
    return True


def _all_pairs_reference(t, n):
    """The same inequality over all 4^n pairs, overlapping ones included."""
    masks = np.arange(1 << n)
    return all(np.all(t[masks | m] <= t[m] + t + EPS) for m in range(1 << n))


def _seeded_tables(n, seed):
    """Named tables over n agents: rewards (coverage, XOS, sorted, convex,
    concave, random), exact ties at the EPS boundary on additive sums, and the
    profit (with -inf) and welfare of seeded instances."""
    rng = random.Random(seed)
    noise = np.random.default_rng(seed)
    size = np.array([m.bit_count() for m in range(1 << n)])

    def tie(values, steps):
        sums = core._subset_sums(values, n)
        return sums + EPS * noise.choice(steps, sums.size)

    coverage = random_submodular_instance(rng, n)
    xos = random_xos_instance(rng, n, rng.randrange(1, 4))
    dyadic = [rng.randrange(1, 65) / 512 for _ in range(n)]
    flat = [v if rng.random() < 0.7 else 0.0 for v in dyadic]  # zero agents
    square = (size / n) ** 2
    yield "coverage", np.asarray(coverage.reward.values)
    yield "xos", core._value_array(xos.reward)
    yield "sorted", np.sort(noise.random(1 << n))
    yield "square", square
    yield "square-tie", square + EPS * noise.choice((-1.0, 0.0, 1.0), 1 << n)
    yield "concave", np.sqrt(size / n)
    yield "random", noise.random(1 << n)
    yield "tie-up", tie(dyadic, (0.0, 1.0))
    yield "tie-both", tie(dyadic, (-1.0, -0.5, 0.0, 0.5, 1.0))
    yield "tie-flat", tie(flat, (0.0, 1.0))
    for inst in (coverage, xos):
        yield "profit", evaluate_all(PROFIT, inst)
        yield "welfare", evaluate_all(WELFARE, inst)


def test_subadditivity_kernel_matches_references():
    outcomes = set()
    for n in range(1, 10):
        for seed in range(3):
            for kind, t in _seeded_tables(n, 100 * n + seed):
                want = _disjoint_reference(t, n)
                assert core._table_is_subadditive(t, n) == want, (kind, n, seed)
                outcomes.add(want)
                if np.all(np.isfinite(t)) and t.min() >= 0 and t.max() <= 1:
                    got = classify(Table(tuple(t.tolist()))).is_subadditive
                    assert got == _all_pairs_reference(t, n), (kind, n, seed)
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", [11, 12])
def test_subadditivity_kernel_past_one_vector(n):
    # n > 9 runs the loop over the pairs of the high agents
    for kind, t in _seeded_tables(n, n):
        if kind in ("coverage", "xos", "concave", "tie-up", "random", "profit"):
            want = _disjoint_reference(t, n)
            assert core._table_is_subadditive(t, n) == want, kind
    t = np.sqrt(np.array([m.bit_count() for m in range(1 << n)]))
    t[(1 << n) - 1] += 1.0  # only pairs splitting the full team fail
    assert core._table_is_subadditive(t, n) is False
    t[(1 << n) - 1] -= 1.0
    assert core._table_is_subadditive(t, n) is True


def test_classify_checks_overlapping_pairs_when_not_monotone():
    # passes every disjoint pair but fails ({0,1}, {1,2}): .5 > .1 + .1
    t = Table((0, 0.5, 0.5, 0.1, 0.5, 0.1, 0.1, 0.5))
    values = np.asarray(t.values)
    assert core._table_is_subadditive(values, 3)
    assert not _all_pairs_reference(values, 3)
    got = classify(t)
    assert not got.is_monotone and not got.is_subadditive
    # monotone within EPS but not exactly, so still not decided by disjoint
    # pairs: ({0,1}, {1,2}) fails because f({1,2}) < f({2})
    t = Table((0, 0.5, 0.5, 0.4999999995, 0.5, 0.4999999995, 0.4999999995,
               1.0000000004))
    assert core._table_is_subadditive(np.asarray(t.values), 3)
    got = classify(t)
    assert got.is_monotone and not got.is_subadditive


# ---------------------------------------------------------------------------
# the class audits against references kept here: the fancy-index gathers of
# monotonicity and submodularity, and the agent-by-agent drop condition


def _monotone_reference(t, n, slack):
    masks = np.arange(1 << n)
    return all(np.all(t[masks | (1 << i)] >= t - slack) for i in range(n))


def _submodular_reference(t, n, slack=EPS):
    masks = np.arange(1 << n)
    for i in range(n):
        for j in range(i + 1, n):
            bi, bj = 1 << i, 1 << j
            base = masks[(masks & (bi | bj)) == 0]
            if not np.all(
                t[base | bi] + t[base | bj] >= t[base | bi | bj] + t[base] - slack
            ):
                return False
    return True


def _drop_reference(phi, f, n):
    """The drop condition agent by agent, as check_best_conditions ran it
    before the audits gathered."""
    for i in range(n):
        split_phi = phi.reshape(-1, 2, 1 << i)
        split_f = f.reshape(-1, 2, 1 << i)
        if not np.all(split_phi[:, 1] <= split_f[:, 0] + phi[1 << i] + EPS):
            return False
    return True


#: n = 1 .. GATHER_CAP + 2: sizes at which the audits loop and at which they gather
GATHER_SIZES = range(1, core.GATHER_CAP + 3)


def _agents_gather(n):
    return core._gather_gate(n, core._AGENTS_GATHER_FROM)


def _pairs_gather(n):
    return core._gather_gate(n, core._PAIRS_GATHER_FROM)


def test_class_kernels_match_gather_references():
    # the tie tables put the terms of both checks EPS apart, either way; both
    # answers of each check are seen where it loops and where it gathers
    outcomes = {}
    for n in GATHER_SIZES:
        for seed in range(2):
            for kind, t in _seeded_tables(n, 10 * n + seed):
                for slack, key in ((EPS, "monotone"), (0.0, "exact")):
                    want = _monotone_reference(t, n, slack)
                    assert core._table_is_monotone(t, n, slack) == want, (kind, n, key)
                    outcomes.setdefault((key, _agents_gather(n)), set()).add(want)
                want = _submodular_reference(t, n)
                assert core._table_is_submodular(t, n) == want, (kind, n, seed)
                outcomes.setdefault(("submodular", _pairs_gather(n)), set()).add(want)
                want = _submodular_reference(t, n, 0.0)
                assert core._table_is_submodular(t, n, 0.0) == want, (kind, n, seed)
                outcomes.setdefault(("exact-sub", _pairs_gather(n)), set()).add(want)
    assert len(outcomes) == 8
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


def _drop_tie_table(n, rng, noise):
    """Dyadic additive sums within [0, 1] plus {-1, 0, 1} EPS at each team:
    f(S) - f(S - {i}) - f({i}) is exactly 0 before the noise, so the drop
    condition of the reward holds or fails by the noise alone."""
    sums = core._subset_sums([rng.randrange(1, 65) / (64 * n) for _ in range(n)], n)
    return sums + EPS * noise.choice((-1.0, 0.0, 1.0), sums.size)


def test_drop_condition_matches_agent_loop():
    # the drop test alone, on every seeded table (profit ones hold -inf)
    # against a coverage reward
    outcomes = {}
    for n in GATHER_SIZES:
        rng = random.Random(n)
        noise = np.random.default_rng(n)
        f = np.asarray(random_submodular_instance(rng, n).reward.values)
        tables = [*_seeded_tables(n, 20 * n), ("drop-tie", _drop_tie_table(n, rng, noise))]
        for kind, phi in tables:
            for g in (f, phi):
                want = _drop_reference(phi, g, n)
                assert core._drop_condition(phi, g, n) == want, (kind, n)
                outcomes.setdefault(_agents_gather(n), set()).add(want)
    assert outcomes == {True: {True, False}, False: {True, False}}


def test_best_conditions_match_agent_loop():
    # check_best_conditions against the sandwich and the agent-by-agent drop
    # loop, for every named objective, on the seeded rewards and on +-EPS drop
    # ties; each objective's drop test is seen both ways where it loops and
    # where it gathers
    drops = {}
    for n in GATHER_SIZES:
        for seed in range(2):
            rng = random.Random(30 * n + seed)
            noise = np.random.default_rng(30 * n + seed)
            tables = [
                t for _, t in _seeded_tables(n, 30 * n + seed)
                if -EPS <= t.min() and t.max() <= 1.0 + EPS
            ]
            tables += [_drop_tie_table(n, rng, noise) for _ in range(3)]
            for t in tables:
                costs = [rng.choice((0.0, rng.random() / (4 * n))) for _ in range(n)]
                inst = Instance(n, costs, Table(t))
                f, _ = team_table(inst)
                for obj in (REWARD, PROFIT, WELFARE):
                    phi = evaluate_all(obj, inst)
                    sandwich = bool(np.all(evaluate_all(PROFIT, inst) <= phi + EPS)
                                    and np.all(phi <= f + EPS))
                    drop = _drop_reference(phi, f, n)
                    assert check_best_conditions(obj, inst) == (sandwich and drop), (obj, n)
                    if sandwich:
                        drops.setdefault((obj.name, _agents_gather(n)), set()).add(drop)
    assert len(drops) == 6
    assert all(seen == {True, False} for seen in drops.values()), drops


def test_gathered_faces_follow_the_loops():
    # the cached faces are the loops' faces after their first agent or pair,
    # in the loops' order, as int32 masks
    for n in range(2, core.GATHER_CAP + 1):
        up, down, single = core._agent_faces(n)
        want = [(a | 1 << i, a, 1 << i)
                for i in range(1, n) for a in range(1 << n) if not a >> i & 1]
        got = zip(up.ravel().tolist(), down.ravel().tolist(),
                  np.broadcast_to(single, up.shape).ravel().tolist())
        assert list(got) == want, n
        faces = core._pair_faces(n)
        want = [(a | 1 << i, a | 1 << j, a | 1 << i | 1 << j, a)
                for i in range(n) for j in range(i + 1, n) if (i, j) != (0, 1)
                for a in range(1 << n) if not (a >> i & 1 or a >> j & 1)]
        assert list(zip(*(x.ravel().tolist() for x in faces))) == want, n
        assert {x.dtype for x in (up, down, single, *faces)} == {np.dtype(np.int32)}


def test_audits_build_faces_only_within_the_gather_range():
    # each audit builds the faces of the sizes it gathers at, from its
    # smallest n up to GATHER_CAP, and of no other size
    for builder in (core._agent_faces, core._pair_faces):
        builder.cache_clear()
    for n in GATHER_SIZES:
        # concave in the mask: monotone, passes every drop and pair (0, 1)
        t = np.sqrt(np.arange(1 << n))
        assert core._table_is_monotone(t, n, 0.0)
        assert core._drop_condition(t, t, n)
        core._submodular_pairs(t, n, 0.0)
    for builder, smallest in ((core._agent_faces, core._AGENTS_GATHER_FROM),
                              (core._pair_faces, core._PAIRS_GATHER_FROM)):
        built = range(smallest, core.GATHER_CAP + 1)
        assert builder.cache_info().currsize == len(built)
        hits = builder.cache_info().hits
        for n in built:
            builder(n)
        assert builder.cache_info().hits == hits + len(built)


# ---------------------------------------------------------------------------
# the near-modular certificate against the pair kernel it skips


def _near_modular_cases(n, seed):
    """The additive-lb family over a b-grid; seeded additive tables in [0, 1],
    and each perturbed by +-EPS/16 .. 4 EPS at one entry and at all; XOS,
    coverage and subadd-lb tables; additive tables reaching past [0, 2]."""
    rng = random.Random(seed)
    noise = np.random.default_rng(seed)
    for b in (0.1, 0.2, 0.3, 0.5, 0.9):  # 2 to n heads; b = 0.05, 0.7 repeat them
        yield "additive-lb", np.asarray(gen_additive_lb(n, b, 1.0).reward.values)
    if n > 10:
        return
    weights = [rng.random() for _ in range(n)]
    additive = core._subset_sums(weights, n) / sum(weights)
    for kind, t in (("additive", additive), ("additive-offset", 0.25 + additive / 2)):
        yield kind, t
        for delta in (EPS / 16, EPS / 8, EPS / 4, EPS / 2, EPS, 2 * EPS, 4 * EPS):
            one = t.copy()
            one[rng.randrange(1 << n)] += rng.choice((-delta, delta))
            yield kind + "-one", one
            yield kind + "-all", t + delta * noise.choice((-1.0, 1.0), 1 << n)
    yield "xos", core._value_array(random_xos_instance(rng, n, 3).reward)
    yield "coverage", np.asarray(random_submodular_instance(rng, n).reward.values)
    if n >= 4 and n % 2 == 0:
        yield "subadd-lb", np.asarray(gen_subadditive_lb(n, 0.5, 1.0).reward.values)
    for kind, t in (("x3", 3 * additive), ("below", additive - 0.5)):
        assert not core._near_modular(t, n)  # outside [0, 2]: declined
        yield kind, t


def test_near_modular_certificate_matches_pair_kernel():
    fired = {}
    for n in range(1, 17):
        for kind, t in _near_modular_cases(n, 50 * n):
            want = _submodular_reference(t, n)
            assert core._table_is_submodular(t, n) == want, (kind, n)
            got = core._table_is_submodular(t, n, 0.0)
            assert got == _submodular_reference(t, n, 0.0), (kind, n)
            certified = core._near_modular(t, n)
            assert want or not certified, (kind, n)
            if n >= 3:  # on fewer agents XOS and coverage can be modular
                fired.setdefault(kind, set()).add(certified)
    assert fired["additive-lb"] == fired["additive"] == {True}
    for kind in ("additive-one", "additive-offset-one"):
        assert fired[kind] == {True, False}, kind  # EPS/16 passes, 4 EPS not
    for kind in ("xos", "coverage", "subadd-lb", "x3", "below"):
        assert fired[kind] == {False}, kind


# ---------------------------------------------------------------------------
# classify against the pair kernels it skips where the class hierarchy decides


def _classify_reference(f):
    """``classify`` with a pair kernel on every table, as before the
    hierarchy shortcut: disjoint pairs on exactly monotone tables, else all
    pairs."""
    t, n = core._value_array(f), f.n
    exact = _monotone_reference(t, n, 0.0)
    pairs = core._table_is_subadditive if exact else _all_pairs_reference
    return core.FunctionClasses(
        _monotone_reference(t, n, EPS), _submodular_reference(t, n), pairs(t, n)
    )


def _classify_cases(n, seed):
    """The finite seeded tables, shifted below 0, scaled past 2, and made
    non-monotone; XOS rewards with dyadic, off-grid and huge clause values."""
    rng = random.Random(seed)
    size = np.array([m.bit_count() for m in range(1 << n)])
    for kind, t in _seeded_tables(n, seed):
        if np.all(np.isfinite(t)):
            yield kind, Table(t)
            yield kind + "-below", Table(t - 0.25)
            yield kind + "-x3", Table(3 * t)
    cut = size * (n - size) / (n * n)  # submodular, not monotone, within [0, 2]
    yield "cut", Table(cut)
    yield "cut-x9", Table(9 * cut)
    coverage = np.asarray(random_submodular_instance(rng, n).reward.values)
    minus = core._subset_sums([rng.random() / n for _ in range(n)], n)
    yield "coverage-minus-modular", Table(coverage - minus + 1.0)
    xos = random_xos_instance(rng, n, rng.randrange(1, 4)).reward
    off_grid = XosClauses(
        tuple(tuple(rng.random() / n for _ in range(n)) for _ in range(3))
    )
    yield "xos", xos
    yield "xos-off-grid", off_grid
    for kind, g, scale in (("xos-x1e6", xos, 1e6), ("xos-off-grid-x3", off_grid, 3)):
        yield kind, XosClauses(tuple(tuple(scale * v for v in r) for r in g.clauses))


def test_classify_matches_pair_kernel_reference():
    outcomes = set()
    for n in (*range(1, 11), 12):
        for seed in range(2 if n <= 10 else 1):
            for kind, f in _classify_cases(n, 1000 * n + seed):
                got = classify(f)
                assert got == _classify_reference(f), (kind, n, seed)
                outcomes.add(got)
    assert {got.is_subadditive for got in outcomes} == {True, False}
    assert {got.is_submodular for got in outcomes} == {True, False}


def _count_pair_kernels(monkeypatch):
    calls = []
    for name in ("_table_is_subadditive", "_all_pairs_subadditive"):
        kernel = getattr(core, name)
        monkeypatch.setattr(
            core, name, lambda t, n, k=kernel, name=name: calls.append(name) or k(t, n)
        )
    return calls


def test_classify_skips_pair_kernels_within_the_hierarchy(monkeypatch):
    calls = _count_pair_kernels(monkeypatch)
    rng = random.Random(5)
    for n in (3, 8, 12):
        coverage = np.asarray(random_submodular_instance(rng, n).reward.values)
        xos = random_xos_instance(rng, n, 3).reward
        for f in (Table(coverage), xos):
            assert classify(f).is_subadditive
        assert calls == []
        # scaled so that the largest value is 3: a pair kernel decides
        scale = 3 / coverage.max()
        assert classify(Table(scale * coverage)).is_subadditive
        assert calls == ["_table_is_subadditive"]
        scale = 3 / max(sum(row) for row in xos.clauses)
        rows = tuple(tuple(scale * v for v in row) for row in xos.clauses)
        assert classify(XosClauses(rows)).is_subadditive
        assert calls == ["_table_is_subadditive"] * 2
        calls.clear()
    # subadditive but not submodular, as a table: a pair kernel decides
    got = classify(gen_subadditive_lb(4, 0.9, 1.0).reward)
    assert got.is_subadditive and not got.is_submodular
    assert calls == ["_table_is_subadditive"]


# ---------------------------------------------------------------------------
# the team table against the per-agent payment loop kept here


def _tabulate_reference(inst):
    """``team_table`` with one payment pass for every agent, free ones too."""
    f = core._value_array(inst.reward)
    pay = np.zeros(f.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, cost in enumerate(inst.costs):
            split = f.reshape(-1, 2, 1 << i)
            margin = split[:, 1] - split[:, 0]
            term = cost / margin
            term[margin <= 0.0] = 0.0 if cost <= 0.0 else math.inf
            pay.reshape(-1, 2, 1 << i)[:, 1] += term
    return f, pay


_PLANTED = (0.0, -0.0, 5e-324)


def _team_table_cases(n, seed):
    """Seeded instances over n agents: a coverage table (monotone, with a
    planted f({})), a random table (not monotone), XOS clauses and additive
    values, with 0.0, -0.0 and 5e-324 planted among the values; each once
    with free agents (costs 0.0 and -0.0) and once without (every cost
    positive, 5e-324 among them)."""
    rng = random.Random(seed)
    noise = np.random.default_rng(seed)

    def plant(xs):
        xs = list(xs)
        for k in rng.sample(range(len(xs)), min(len(xs), 3)):
            xs[k] = rng.choice(_PLANTED)
        return xs

    coverage = np.array(random_submodular_instance(rng, n).reward.values)
    coverage[0] = rng.choice(_PLANTED)
    clauses = random_xos_instance(rng, n, rng.randrange(1, 4)).reward.clauses
    additive = corpora.random_additive_instance(rng, n).reward.values
    rewards = {
        "coverage": Table(coverage),
        "random": Table(plant(noise.random(1 << n))),
        "xos": XosClauses(tuple(plant(row) for row in clauses)),
        "additive": Additive(plant(additive)),
    }
    for kind, reward in rewards.items():
        costs = [rng.uniform(0.01, 0.3) for _ in range(n)]
        paid = list(costs)
        paid[rng.randrange(n)] = 5e-324
        yield kind + "-paid", Instance(n, paid, reward)
        free = list(costs)
        zeros = rng.sample((0.0, -0.0), 2)
        for k, zero in zip(rng.sample(range(n), min(n, 2)), zeros):
            free[k] = zero
        yield kind + "-free", Instance(n, free, reward)


def test_team_table_equals_the_per_agent_loop_byte_for_byte():
    # bytes, not ==, which cannot tell -0.0 from 0.0
    sizes = [*range(1, 13), 16]
    free_at, monotone, infinite = set(), set(), set()
    for n in sizes:
        for kind, inst in _team_table_cases(n, 60 * n):
            got, want = team_table(inst), _tabulate_reference(inst)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes(), (kind, n)
                assert not a.flags.writeable
            free_at.add((n, any(c == 0.0 for c in inst.costs)))
            monotone.add(core._table_is_monotone(got[0], n, 0.0))
            infinite.add(bool(np.isinf(got[1]).any()))
    assert free_at == {(n, free) for n in sizes for free in (True, False)}
    assert monotone == infinite == {True, False}


# ---------------------------------------------------------------------------
# size caps raise before allocating
# ---------------------------------------------------------------------------


def _xos(n):
    rows = ((0.01,) * n, (0.02,) + (0.0,) * (n - 1))
    return Instance(n, (0.0,) * n, XosClauses(rows))


def _assert_cap_without_allocating(call):
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


_TABLE_CALLS = {
    "to_table": lambda inst: to_table(inst.reward),
    "team_table": team_table,
    "brute_force_max": lambda inst: brute_force_max(REWARD, inst, 1.0),
    "check_best_conditions": lambda inst: check_best_conditions(REWARD, inst),
    "value_payment_curve": lambda inst: value_payment_curve(inst, REWARD),
    "key_property_gap": lambda inst: key_property_gap(REWARD, inst, 1.0),
}


@pytest.mark.parametrize("call", list(_TABLE_CALLS))
@pytest.mark.parametrize("reward", ["additive", "xos"])
def test_table_cap_raises_before_allocating(additive21, call, reward):
    inst = additive21 if reward == "additive" else _xos(21)
    _assert_cap_without_allocating(lambda: _TABLE_CALLS[call](inst))


@pytest.mark.parametrize(
    "check, n", [(classify, 17), (is_submodular, 21)], ids=["classify", "is_submodular"]
)
def test_class_cap_raises_before_allocating(check, n):
    # classify stops at CLASSIFY_CAP; submodularity is checked wherever the
    # reward tabulates, so is_submodular stops at ENUM_CAP
    f = _xos(n).reward
    _assert_cap_without_allocating(lambda: check(f))


def test_random_submodular_generator_cap():
    _assert_cap_without_allocating(
        lambda: random_submodular_instance(random.Random(0), 21)
    )
    for n in (0, -1):
        with pytest.raises(InputError):
            random_submodular_instance(random.Random(0), n)


_RANDOM_GENERATORS = {
    "submodular": lambda rng, n: random_submodular_instance(rng, n),
    "xos": lambda rng, n: random_xos_instance(rng, n, 3),
    "additive": lambda rng, n: corpora.random_additive_instance(rng, n),
}


@pytest.mark.parametrize("n", [2.5, True, 0, -1])
@pytest.mark.parametrize("family", list(_RANDOM_GENERATORS))
def test_random_generators_reject_bad_agent_counts(family, n):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InputError, match="positive integer agent count"):
        _RANDOM_GENERATORS[family](rng, n)
    assert rng.getstate() == state  # rejected before any draw


@pytest.mark.parametrize("n", [21, 10**9])
def test_table_backed_generators_and_equilibria_cap(n):
    size_only = SimpleNamespace(n=n)  # the gate must come before any other read
    _assert_cap_without_allocating(
        lambda: random_submodular_instance(random.Random(0), n)
    )
    _assert_cap_without_allocating(lambda: gen_additive_lb(n, 0.4, 1.0))
    _assert_cap_without_allocating(lambda: gen_subadditive_lb(n + n % 2, 0.4, 1.0))
    _assert_cap_without_allocating(lambda: enumerate_equilibria(size_only, None))


# ---------------------------------------------------------------------------
# table-backed generators against their per-mask Python tabulations
# ---------------------------------------------------------------------------


def _coverage_reference(seed, n):
    """random_submodular_instance as one Python loop over the team masks."""
    rng = random.Random(seed)
    universe = 2 * n
    weights = [rng.randrange(1, 9) for _ in range(universe)]
    covers = []
    for _ in range(n):
        size = rng.randrange(1, max(2, universe // 2))
        covers.append(mask_of(rng.sample(range(universe), size)))
    norm = corpora._pow2_at_least(float(sum(weights)))
    vals = [0.0] * (1 << n)
    covered = [0] * (1 << n)
    for team in range(1, 1 << n):
        low = team & -team
        covered[team] = covered[team ^ low] | covers[low.bit_length() - 1]
    cache = {0: 0.0}
    for team in range(1, 1 << n):
        cov = covered[team]
        if cov not in cache:
            cache[cov] = sum(weights[u] for u in range(universe) if (cov >> u) & 1)
        vals[team] = cache[cov] / norm
    singles = [vals[1 << i] for i in range(n)]
    return Instance(n, corpora._costs_for(rng, singles), Table(tuple(vals)))


def _additive_lb_reference(n, b, B):
    m_heads = min(ceil_tol(2 * B / b) - 1, n)
    front = (1 << m_heads) - 1
    return Table(tuple((mask & front).bit_count() / m_heads for mask in range(1 << n)))


def _subadditive_lb_reference(n):
    root = math.sqrt(n)
    peak = 2 / root + 0.5
    rho = min(1.0, 1.0 / peak)

    def raw(size):
        if size == 0:
            return 0.0
        if size <= n // 2:
            return rho * (1 / root + size / n)
        return rho * peak

    by_size = [raw(k) for k in range(n + 1)]
    return Table(tuple(by_size[mask.bit_count()] for mask in range(1 << n)))


def _bits_of(t):
    return [float(v).hex() for v in t.values]


@pytest.mark.parametrize("n", range(1, 13))
def test_generator_tables_match_python_tabulations(n):
    for seed in range(5):
        got = random_submodular_instance(random.Random(seed), n)
        want = _coverage_reference(seed, n)
        assert got == want and _bits_of(got.reward) == _bits_of(want.reward)
    for B in (0.5, 0.8, 1.0):
        for b in (0.05, 0.1, 0.15, 1 / 3, 0.4, 0.45):
            if b >= B:
                continue
            got = gen_additive_lb(n, b, B).reward
            assert _bits_of(got) == _bits_of(_additive_lb_reference(n, b, B))
            if n >= 4 and n % 2 == 0 and B <= n * b / 2:
                got = gen_subadditive_lb(n, b, B).reward
                assert _bits_of(got) == _bits_of(_subadditive_lb_reference(n))


# ---------------------------------------------------------------------------
# coverage rewards: the superset-sum table against a per-element reference
# ---------------------------------------------------------------------------


def _coverage_per_element(weights, covers, scale):
    """f over every team mask, one integer array pass per element."""
    masks = np.arange(1 << len(covers))
    total = np.zeros(1 << len(covers), np.int64)
    for u, w in enumerate(weights):
        covering = mask_of(i for i, c in enumerate(covers) if u in c)
        total += w * ((masks & covering) != 0)
    return Table(total / scale)


#: Hand-built coverage rewards: name -> (weights, covers, scale).
HAND_COVERAGES = {
    "zero-weights": ([0, 3, 0, 5], [[0, 1], [2], [1, 3]], 8.0),
    "empty-covers": ([2, 2, 4], [[], [0, 2], []], 8.0),
    "uncovered-elements": ([1, 7, 3, 5], [[0], [0, 2]], 16.0),
    "no-elements": ([], [[], []], 1.0),
    "one-agent": ([3], [[0]], 4.0),
    "repeats-and-order": ([1, 2, 4], [[2, 0, 2], [1]], 8.0),
    "all-zero": ([0, 0], [[0], [1], [0, 1]], 2.0),
    "integer-scale": ([1, 1], [[0], [1]], 2),
}


@pytest.mark.parametrize("parts", HAND_COVERAGES.values(), ids=HAND_COVERAGES)
def test_coverage_hand_built_tables(parts):
    weights, covers, scale = parts
    f = Coverage(weights, covers, scale)
    assert _bits_of(f) == _bits_of(_coverage_per_element(weights, covers, scale))
    assert f.weights == tuple(weights) and type(f.scale) is float
    assert f.covers == tuple(tuple(sorted(set(c))) for c in covers)
    assert f == Table(f.values) and not f.values.flags.writeable
    assert core._empty_value(f) == 0.0 and f.n == len(covers)


@pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 12, 17])
def test_coverage_table_matches_per_element_sums(n):
    # across the six bits of the matrix product, the passes above them and,
    # at n = 17, two 1024-row blocks of the product; weights near 2^53 / m
    # keep every sum exact only if each one is added without rounding
    rng = random.Random(n)
    for top in (8, 2**53 // (2 * n + 3)):
        m = rng.randrange(2 * n + 3)
        weights = [rng.randrange(top) for _ in range(m)]
        covers = [rng.sample(range(m), rng.randrange(m + 1)) for _ in range(n)]
        scale = 2.0 ** rng.randrange(-3, 60)
        f = Coverage(weights, covers, scale)
        assert _bits_of(f) == _bits_of(_coverage_per_element(weights, covers, scale))


def test_coverage_weight_sum_boundary():
    top = Coverage([2**53 - 1], [[0]], 2.0**53)
    assert top.values.tolist() == [0.0, (2**53 - 1) / 2**53]
    with pytest.raises(InputError, match="below 2"):
        Coverage([2**52, 2**52], [[0]], 2.0**53)


@pytest.mark.parametrize("parts", [
    ([True], [[0]], 1.0),
    ([-1], [[0]], 1.0),
    ([1.0], [[0]], 1.0),
    (["1"], [[0]], 1.0),
    ([1], [[-1]], 1.0),
    ([1], [[1]], 1.0),
    ([1], [[True]], 1.0),
    ([1], [[0.0]], 1.0),
    ([1], [[0]], 3.0),
    ([1], [[0]], 0.0),
    ([1], [[0]], -2.0),
    ([1], [[0]], math.inf),
    ([1], [[0]], math.nan),
    ([1], [[0]], True),
    ([1], [[0]], 10**400),
    ([1], [[0]], "2"),
], ids=["weight-bool", "weight-negative", "weight-float", "weight-string",
        "element-negative", "element-past-end", "element-bool", "element-float",
        "scale-3", "scale-0", "scale-negative", "scale-inf", "scale-nan", "scale-bool",
        "scale-huge-int", "scale-string"])
def test_coverage_rejects_bad_parts(parts):
    with pytest.raises(InputError):
        Coverage(*parts)


def test_coverage_scale_may_be_any_power_of_two():
    assert Coverage([1], [[0]], 2.0**-1000).values.tolist() == [0.0, 2.0**1000]
    assert Coverage([1], [[0]], 2.0**1023).values.tolist() == [0.0, 2.0**-1023]
    assert Coverage([0], [[0]], 5e-324).scale == 2.0**-1074  # the least subnormal
    with pytest.raises(InputError, match="finite"):  # 1 / 2^-1074 overflows
        Coverage([1], [[0]], 5e-324)


def test_coverage_cap_raises_before_allocating():
    _assert_cap_without_allocating(lambda: Coverage([1], [[0]] * 21, 1.0))


def _coverage_cases():
    for name, parts in HAND_COVERAGES.items():
        yield name, Coverage(*parts)
    for n in range(1, 10):
        for seed in range(3):
            yield f"random-{n}-{seed}", random_submodular_instance(random.Random(seed), n).reward


def test_coverage_classes_are_the_kernels_answers(monkeypatch):
    cases = list(_coverage_cases())
    want = {name: (classify(Table(f.values)), is_submodular(Table(f.values)))
            for name, f in cases}
    for kernel in ("_table_is_monotone", "_table_is_submodular", "_table_is_subadditive",
                   "_all_pairs_subadditive"):
        monkeypatch.setattr(core, kernel, None)  # a certificate runs none of them
    for name, f in cases:
        assert (classify(f), is_submodular(f)) == want[name], name
        assert want[name] == (core.FunctionClasses(True, True, True), True), name


def test_coverage_classify_keeps_its_cap():
    f = Coverage([1], [[0]] * 17, 2.0)
    assert is_submodular(f)
    with pytest.raises(SizeCapError):
        classify(f)


def test_superset_matrix_is_built_on_first_use():
    src = str(Path(budgeted_contracts.__file__).resolve().parent.parent)
    code = ("import budgeted_contracts.cli\n"
            "from budgeted_contracts import core\n"
            "assert core._superset_matrix.cache_info().currsize == 0\n"
            "core.Coverage([1], [[0]], 2.0)\n"
            "assert core._superset_matrix.cache_info().currsize == 1\n")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_table_owns_a_fresh_array_without_a_copy():
    vals = np.array([0.0, 0.5, 0.25, 0.75])
    t = Table._owning(vals)
    assert type(t) is Table and t.values is vals and not vals.flags.writeable
    for bad in (np.zeros(3), np.zeros((2, 2)), np.array([0.0, math.nan])):
        with pytest.raises(InputError):
            Table._owning(bad)
    copied = np.array([0.0, 0.5])
    assert Table(copied).values is not copied and copied.flags.writeable


@pytest.mark.parametrize("n, build, bound", [
    (14, lambda: gen_additive_lb(14, 0.3, 1.0), 2.0),
    (14, lambda: gen_subadditive_lb(14, 0.3, 1.0), 2.0),
    (14, lambda: to_table(Additive((1 / 16,) * 14)), 2.0),
    (14, functools.partial(restrict, to_table(Additive((1 / 16,) * 15)), range(14)), 2.5),
    (18, lambda: random_submodular_instance(random.Random(0), 18), 1.5),
], ids=["additive-lb", "subadd-lb", "to_table", "restrict", "coverage"])
def test_table_builders_hold_one_table(n, build, bound):
    # each hands the 2^n floats it builds to its table without a copy, so
    # its peak stays below two tables (restrict also holds the int64 index
    # of the kept masks); a coverage table is built in place
    build()  # first-use caches, such as the superset matrix
    tracemalloc.start()
    try:
        built = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built is not None and peak < bound * (8 << n), peak / (8 << n)


# ---------------------------------------------------------------------------
# instance validation
# ---------------------------------------------------------------------------


def test_instance_validation():
    with pytest.raises(InputError):
        Instance(2, (0.1,), Additive((0.2, 0.2)))
    with pytest.raises(InputError):
        Instance(2, (-0.1, 0.0), Additive((0.2, 0.2)))
    with pytest.raises(InputError):
        Instance(2, (0.1, 0.1), Additive((0.8, 0.8)))  # reward above 1
    with pytest.raises(InputError):
        Instance(0, (), Additive(()))
    with pytest.raises(InputError):
        Contract((-0.1,))


@pytest.mark.parametrize("seed", range(5))
def test_value_range_top_is_the_full_team_value(seed):
    # off-grid values: a sum that rounds in another order would differ
    rng = random.Random(seed)
    n = 9

    def row():
        return tuple(rng.uniform(0, 1 / n) for _ in range(n))

    for f in (Additive(row()), XosClauses(tuple(row() for _ in range(4)))):
        assert core._value_range(f)[1] == f.value((1 << n) - 1)


def _drop_value_cases(rng):
    """Seeded additive rows for the drop kernel: n = 1-63, off-grid values
    with 0.0, -0.0 and 5e-324 planted, and rows whose total is near 1."""
    for n in list(range(1, 64)) * 4:
        row = [rng.uniform(0, 2 / n) for _ in range(n)]
        for _ in range(rng.randrange(n // 3 + 1)):
            row[rng.randrange(n)] = rng.choice((0.0, -0.0, 5e-324))
        if rng.random() < 0.5:  # scale so that the team sums sit next to 1
            total = math.fsum(row) or 1.0
            row = [v / total * (1 - rng.choice((0.0, 1e-16, 2e-16))) for v in row]
        yield row


def _hex(xs):
    return [x.hex() for x in xs]


def test_drop_values_equal_the_per_query_sums():
    # the reference sums each f(S - {i}) from 0.0 over the members in order,
    # as value() does; hex compares bits, so -0.0 against 0.0 is caught
    rng = random.Random(22)
    for row in _drop_value_cases(rng):
        n, f = len(row), Additive(row)
        sizes = {0, 1, n, rng.randint(0, n)} if n < 63 else range(64)
        for size in sizes:
            team = mask_of(rng.sample(range(n), size))
            f_team, drops = f.drop_values(team)
            expect = [core._sum_over(row, bits(team & ~(1 << i))) for i in bits(team)]
            assert f_team.hex() == core._sum_over(row, bits(team)).hex()
            assert _hex(drops) == _hex(expect), (n, team)
            assert f_team.hex() == f.value(team).hex()


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_additive_rejects_non_finite_values(bad):
    with pytest.raises(InputError, match="finite"):
        Additive((bad, 0.1))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_xos_rejects_non_finite_values(bad):
    with pytest.raises(InputError, match="finite"):
        XosClauses(((0.1, 0.2), (bad, 0.2)))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_table_rejects_non_finite_values(bad):
    with pytest.raises(InputError, match="finite"):
        Table((0.0, bad, 0.5, 0.6))
    with pytest.raises(InputError):
        Instance(2, (0.1, 0.1), Table((0.0, bad, 0.5, 0.6)))


@pytest.mark.parametrize("n", [2.0, True, 0, -1])
def test_instance_rejects_bad_agent_counts(n):
    with pytest.raises(InputError, match="positive integer agent count"):
        Instance(n, (0.1,) * 2, Additive((0.5, 0.25)))


def test_instance_rejects_a_foreign_reward_type():
    # a lookalike with n, values and value would be tabulated as additive
    inner = Table((0.0, 0.25, 0.5, 0.75))
    duck = SimpleNamespace(n=inner.n, values=inner.values, value=inner.value)
    with pytest.raises(InputError, match="reward must be"):
        Instance(2, (0.1, 0.1), duck)


# ---------------------------------------------------------------------------
# Table holds a read-only float64 array


def test_table_values_are_a_read_only_copy():
    src = np.array([0.0, 0.25, 0.5, 1.0])
    t = Table(src)
    src[1] = 0.75  # the table copied its input
    assert t.values.dtype == np.float64 and t.values.tolist() == [0.0, 0.25, 0.5, 1.0]
    with pytest.raises(ValueError):
        t.values[1] = 0.75
    assert Table((0, 1)).values.dtype == np.float64  # ints convert


def test_table_equality_is_array_equality():
    t = Table((0.0, 0.25, 0.5, 1.0))
    assert t == Table(np.array([0.0, 0.25, 0.5, 1.0]))
    assert not t == Table((0.0, 0.25, 0.5, 0.75))
    assert t != Table((0.0, 0.25))
    assert t.__eq__((0.0, 0.25, 0.5, 1.0)) is NotImplemented
    assert t != (0.0, 0.25, 0.5, 1.0)
    with pytest.raises(TypeError):
        hash(t)


@pytest.mark.parametrize("values", [
    pytest.param((0.0, 0.5, 0.25), id="length-3"),
    pytest.param((), id="empty"),
    pytest.param(np.zeros((2, 2)), id="2-d"),
    pytest.param(np.float64(0.5), id="0-d"),
])
def test_table_rejects_bad_shapes(values):
    with pytest.raises(InputError, match="power of two"):
        Table(values)


def test_table_value_is_a_python_float():
    t = Table((0.0, 0.25, 0.5, 1.0))
    assert type(t.value(3)) is float and t.value(3) == 1.0
    assert type(value(t, 2)) is float and type(marginal(t, 3, 0)) is float


def test_to_table_values_equal_value_array_bit_for_bit():
    nondyadic = XosClauses(((0.13, 0.07, 0.21, 0.11), (0.05, 0.19, 0.02, 0.14)))
    coverage = random_submodular_instance(random.Random(7), 6).reward
    for f in (nondyadic, Additive(nondyadic.clauses[0]), coverage):
        want = core._value_array(f)
        assert to_table(f).values.tobytes() == want.tobytes()
    assert to_table(coverage) is coverage  # a table is its own table


def test_payment_monotone_for_submodular():
    for inst in submodular_corpus(10, seed=304, n_hi=7):
        for team in range(1, 1 << inst.n):
            p_team = payment(inst, team)
            for i in bits(team):
                assert payment(inst, team & ~(1 << i)) <= p_team + 1e-9


# ---------------------------------------------------------------------------
# property tests (dyadic inputs keep float arithmetic exact)
# ---------------------------------------------------------------------------

values_strategy = st.lists(
    st.integers(1, 10).map(lambda k: k / 64), min_size=1, max_size=6
)
cost_scale = st.integers(0, 24).map(lambda k: k / 16)


@st.composite
def additive_instances(draw):
    vals = draw(values_strategy)
    scales = draw(
        st.lists(cost_scale, min_size=len(vals), max_size=len(vals))
    )
    costs = tuple(s * v for s, v in zip(scales, vals))
    return Instance(len(vals), costs, Additive(tuple(vals)))


@given(additive_instances())
@settings(max_examples=120, deadline=None)
def test_additive_equals_single_clause_xos(inst):
    mirrored = Instance(inst.n, inst.costs, XosClauses((inst.reward.values,)))
    for team in range(1 << inst.n):
        assert value(inst.reward, team) == value(mirrored.reward, team)
        assert payment(inst, team) == payment(mirrored, team)
        assert profit(inst, team) == profit(mirrored, team)
        for i in bits(team):
            assert marginal(inst.reward, team, i) == marginal(
                mirrored.reward, team, i
            )


@given(additive_instances())
@settings(max_examples=120, deadline=None)
def test_payment_dominates_each_share(inst):
    full = (1 << inst.n) - 1
    for team in range(full + 1):
        pay = payment(inst, team)
        assert pay >= -1e-12
        f_team = value(inst.reward, team)
        for i in bits(team):
            m = f_team - value(inst.reward, team & ~(1 << i))
            share = 0.0 if (inst.costs[i] == 0 and m <= 0) else (
                math.inf if m <= 0 else inst.costs[i] / m
            )
            assert pay >= share - 1e-12


@given(additive_instances(), st.integers(0, 63))
@settings(max_examples=120, deadline=None)
def test_singleton_payment_consistency(inst, raw):
    i = raw % inst.n
    assert singleton_payment(inst, i) == payment(inst, 1 << i)


def test_singleton_team_payment_is_the_one_agent_payment():
    rng = random.Random(41)
    for inst in (*xos_corpus(5, seed=41, n_hi=6), *submodular_corpus(5, seed=41, n_hi=6)):
        base = rng.uniform(0.0, 0.3)
        reward = Table(base + (1 - base) * core._value_array(inst.reward))
        shifted = Instance(inst.n, inst.costs, reward)
        for i in range(inst.n):
            got = core.singleton_team_payment(inst, i)
            assert got == singleton_payment(inst, i) == payment(inst, 1 << i)
            got = core.singleton_team_payment(shifted, i)
            assert got == payment(shifted, 1 << i) >= singleton_payment(shifted, i)


def test_singleton_team_payment_keeps_the_sign_of_zero():
    # a free agent's share is -0.0 at cost -0.0, and p(S) sums shares from
    # 0.0, so the one-agent team pays +0.0: equal values are not enough
    rng = random.Random(43)
    signs = set()
    for inst in (*xos_corpus(6, seed=43, n_hi=6), *submodular_corpus(6, seed=43, n_hi=6),
                 *corpora.additive_corpus(6, 6, 43)):
        costs = [rng.choice((0.0, -0.0, c)) for c in inst.costs]
        for reward in (inst.reward, Table(0.25 + 0.75 * core._value_array(inst.reward))):
            free = Instance(inst.n, costs, reward)
            for i in range(inst.n):
                got = core.singleton_team_payment(free, i)
                want = payment(free, 1 << i)
                assert got == want and math.copysign(1, got) == math.copysign(1, want)
                if costs[i] == 0.0:
                    signs.add(math.copysign(1, costs[i]))
    assert signs == {1.0, -1.0}


@given(
    st.lists(st.integers(0, 8), min_size=2, max_size=5),
    st.lists(st.integers(0, 8), min_size=2, max_size=5),
    st.lists(st.integers(0, 16), min_size=2, max_size=5),
)
@settings(max_examples=120, deadline=None)
def test_demand_clause_scan_equals_exhaustive(row1, row2, prices):
    n = min(len(row1), len(row2), len(prices))
    f = XosClauses(
        (
            tuple(v / 32 for v in row1[:n]),
            tuple(v / 32 for v in row2[:n]),
        )
    )
    q = [p / 32 for p in prices[:n]]
    assert demand(f, q) == demand(to_table(f), q)


def test_to_table_matches_direct_queries():
    # tables add agents in the oracle's order, so they agree bit for bit
    # even where float sums depend on that order (the non-dyadic clauses)
    nondyadic = XosClauses(
        (
            (0.13, 0.07, 0.21, 0.11, 0.03, 0.17, 0.09),
            (0.05, 0.19, 0.02, 0.14, 0.23, 0.06, 0.12),
        )
    )
    rewards = [inst.reward for inst in xos_corpus(10, seed=305, n_hi=8)]
    for f in rewards + [nondyadic, Additive(nondyadic.clauses[0])]:
        table = to_table(f)
        for team in range(1 << f.n):
            assert table.values[team] == value(f, team)


def test_restrict_matches_subtable(separation):
    sub = to_table(separation.reward)
    restricted = to_table(restrict(separation.reward, [0, 2]))
    assert restricted.values.tolist() == [
        sub.values[mask_of([0, 2][j] for j in bits(m))] for m in range(4)
    ]


def test_same_instance_compares_bits_not_values():
    # -0.0 == 0.0, so instances equal under == can still differ in a bit;
    # only a bit-for-bit equal instance may stand in for a built one
    base = Instance(2, (0.25, 0.0), Table([0.0, 0.5, 0.25, 0.75]))
    twin = Instance(2, (0.25, 0.0), Table([0.0, 0.5, 0.25, 0.75]))
    assert _same_instance(base, twin) and _same_instance(base, base)
    neg_cost = Instance(2, (0.25, -0.0), Table([0.0, 0.5, 0.25, 0.75]))
    neg_value = Instance(2, (0.25, 0.0), Table([-0.0, 0.5, 0.25, 0.75]))
    for other in (neg_cost, neg_value):
        assert other == base
        assert not _same_instance(base, other) and not _same_instance(other, base)
    # the same values in another representation are another instance
    add = Instance(2, (0.25, 0.0), Additive((0.5, 0.25)))
    xos = Instance(2, (0.25, 0.0), XosClauses(((0.5, 0.25),)))
    assert not _same_instance(add, xos) and not _same_instance(add, base)
    assert _same_instance(add, Instance(2, (0.25, 0.0), Additive((0.5, 0.25))))
    assert not _same_instance(add, Instance(2, (0.25, 0.0), Additive((0.5, -0.0))))
    assert not _same_instance(xos, Instance(2, (0.25, 0.0), XosClauses(((0.5, 0.25),) * 2)))
    assert not _same_instance(add, Instance(3, (0.25, 0.0, 0.0), Additive((0.5, 0.25, 0.0))))
