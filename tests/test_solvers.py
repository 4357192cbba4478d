import math
import random
import tracemalloc

import numpy as np
import pytest

from budgeted_contracts import (
    Additive,
    Instance,
    InputError,
    PreconditionError,
    SizeCapError,
    brute_force_max,
    build_rounded_table,
    fptas_additive_profit,
    knapsack_fptas,
    payment,
    value,
)
from budgeted_contracts import solvers
from budgeted_contracts.core import (
    EPS,
    LEVEL_CAP,
    _best_team,
    _level_gate,
    ceil_tol,
    floor_tol,
    profit,
)
from budgeted_contracts.corpora import (
    additive_corpus,
    random_additive_instance,
    submodular_corpus,
)
from budgeted_contracts.objectives import PROFIT, REWARD, WELFARE
from budgeted_contracts.solvers import PAY_TOL, SolveResult

ALL3 = 0b111


def test_brute_force_examples(separation):
    top = brute_force_max(REWARD, separation, 1.0)
    assert (top.optimum, top.value) == (ALL3, pytest.approx(1.0))
    low = brute_force_max(REWARD, separation, 0.49)
    assert (low.optimum, low.value) == (0b100, pytest.approx(2 / 5))
    tiny = brute_force_max(
        REWARD, Instance(2, (0.2, 0.2), Additive((0.4, 0.4))), 1e-6
    )
    assert (tiny.optimum, tiny.value) == (0, 0.0)


def test_brute_force_contract(separation):
    res = brute_force_max(PROFIT, separation, 1.0)
    assert res.payment <= 1.0 + 1e-9
    assert res.enumerated == 8
    assert res.value == pytest.approx(2 / 5)  # the free agent alone


def test_brute_force_cap_and_budget(separation, additive21):
    with pytest.raises(SizeCapError):
        brute_force_max(REWARD, additive21, 1.0)
    for budget in (0.0, 1.5, math.nan):
        with pytest.raises(InputError):
            brute_force_max(REWARD, separation, budget)


def test_light_only_never_beats_unrestricted():
    for inst in submodular_corpus(12, seed=601, n_hi=8):
        for budget in (0.25, 0.5, 1.0):
            full = brute_force_max(REWARD, inst, budget).value
            light = brute_force_max(REWARD, inst, budget, light_only=True).value
            assert light <= full + 1e-12


def test_optimum_monotone_in_budget():
    for inst in submodular_corpus(12, seed=602, n_hi=8):
        for obj in (REWARD, PROFIT, WELFARE):
            prev = -math.inf
            for budget in (0.1, 0.3, 0.6, 1.0):
                cur = brute_force_max(obj, inst, budget).value
                assert cur >= prev - 1e-12
                prev = cur


# ---------------------------------------------------------------------------
# rounded-reward table
# ---------------------------------------------------------------------------


def _check_rounded_table(budget):
    inst = Instance(3, (0.05, 0.1, 0.02), Additive((0.5, 0.25, 0.125)))
    table = build_rounded_table(inst, epsilon=0.3, anchor=0.5, budget=budget)
    assert table.grid == 0.3 / 3 * 0.5
    assert table.n_levels == ceil_tol(9 / 0.3)
    assert len(table.payments) == table.n_levels + 1
    finite = [p for p in table.payments if p < math.inf]
    assert all(b >= a - 1e-12 for a, b in zip(finite, finite[1:]))
    assert math.inf not in table.payments[: len(finite)]

    # exhaustive oracle: cheapest team within the budget whose rounded
    # reward reaches level k
    grid = table.grid
    for k in range(table.n_levels + 1):
        best = math.inf
        for team in range(8):
            lvl = sum(
                min(math.floor(value(inst.reward, 1 << i) / grid + 1e-9), table.n_levels)
                for i in range(3)
                if (team >> i) & 1
            )
            if lvl >= k and payment(inst, team) <= budget + PAY_TOL:
                best = min(best, payment(inst, team))
        assert table.payments[k] == pytest.approx(best) or (
            best == math.inf and table.payments[k] == math.inf
        )
        if table.payments[k] < math.inf:
            got = table.team(k)
            assert payment(inst, got) == pytest.approx(table.payments[k])


def test_rounded_table_invariants():
    # the weights c_i / f({i}) are 0.1, 0.4 and 0.16 and sum to 0.66
    _check_rounded_table(1.0)


def test_rounded_table_binding_budget():
    # every team with agent 1 costs 0.4 or more: its levels are cut off
    _check_rounded_table(0.3)


def test_rounded_table_requires_additive(uniform4):
    with pytest.raises(PreconditionError):
        build_rounded_table(uniform4, 0.1, 0.25, 1.0)


@pytest.mark.parametrize("anchor", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_rounded_table_rejects_bad_anchor(anchor):
    inst = Instance(2, (0.1, 0.1), Additive((0.5, 0.5)))
    with pytest.raises(InputError, match="anchor must be positive and finite"):
        build_rounded_table(inst, 0.1, anchor, 0.5)


def test_rounded_table_checks_budget():
    inst = Instance(2, (0.1, 0.1), Additive((0.5, 0.5)))
    for budget in (0.0, 1.5, math.nan):
        with pytest.raises(InputError):
            build_rounded_table(inst, 0.1, 0.5, budget)


# ---------------------------------------------------------------------------
# profit FPTAS
# ---------------------------------------------------------------------------


def test_fptas_two_agent_example():
    inst = Instance(2, (0.1, 0.1), Additive((0.5, 0.5)))
    res = fptas_additive_profit(inst, 1.0, 0.1)
    assert res.value >= 0.54
    assert res.optimum == 0b11
    assert res.payment <= 1.0 + 1e-12


def test_fptas_single_agent_exact():
    inst = Instance(1, (0.2,), Additive((0.8,)))
    for eps in (0.5, 0.1, 0.01):
        res = fptas_additive_profit(inst, 1.0, eps)
        assert res.value == pytest.approx(0.6)  # (1 - 0.25) * 0.8
        assert res.optimum == 0b1


def test_fptas_ratio_on_corpus():
    # the acceptance sweep pins n = 12; this covers the larger teams too
    for inst in additive_corpus(6, n=14, seed=603):
        opt = brute_force_max(PROFIT, inst, 0.8).value
        for eps in (0.3, 0.1, 0.02):
            res = fptas_additive_profit(inst, 0.8, eps)
            assert res.value >= (1 - eps) * opt - 1e-9
            assert res.payment <= 0.8 + 1e-9


def test_fptas_example_batch():
    for inst in additive_corpus(12, n=12, seed=605):
        opt = brute_force_max(PROFIT, inst, 1.0).value
        res = fptas_additive_profit(inst, 1.0, 0.05)
        assert res.value >= 0.95 * opt - 1e-9


def test_fptas_preconditions(uniform4):
    inst = Instance(2, (0.1, 0.1), Additive((0.5, 0.5)))
    with pytest.raises(PreconditionError):
        fptas_additive_profit(uniform4, 1.0, 0.1)  # table-backed reward
    for budget, eps in ((1.0, 0.0), (1.0, math.nan), (1.5, 0.1), (math.nan, 0.1)):
        with pytest.raises(InputError):
            fptas_additive_profit(inst, budget, eps)


def test_fptas_ratio_on_tiny_values():
    # the anchors' grids would underflow without the lift; profits of
    # subnormal values round to multiples of the smallest one, 5e-324
    rng = random.Random(606)
    instances = [_subnormal_instance(rng, rng.randint(1, 5)) for _ in range(6)]
    instances += [
        Instance(1, (0.0,), Additive((5e-324,))),
        Instance(2, (5e-324, 0.0), Additive((1e-323, 1.5e-323))),
        Instance(2, (0.0, 0.0), Additive((5e-324, 1e-310))),
        Instance(3, (0.0, 1e-320, 0.0), Additive((5e-324, 2e-320, 2.0**-1060))),
    ]
    optima = []
    for inst in instances:
        for budget in (0.2, 1.0):
            opt = brute_force_max(PROFIT, inst, budget).value
            optima.append(opt)
            for eps in (0.3, 0.1):
                res = fptas_additive_profit(inst, budget, eps)
                assert (1 - eps) * opt - 5e-324 <= res.value <= opt
    assert min(optima) == 0.0 < max(optima) < 1e-300


def _fptas_peak_bytes(n, epsilon):
    inst = random_additive_instance(random.Random(n), n)
    tracemalloc.start()
    try:
        fptas_additive_profit(inst, 0.5, epsilon)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_fptas_memory_stays_small():
    # only the Pareto steps of each anchor's row are kept, 0.15 MiB here; a
    # take matrix of one byte per (item, level) peaked at 5.2 MiB, and a
    # float64 table per stage above 50 MB
    assert _fptas_peak_bytes(40, 0.02) < 4 * 2**20


def test_fptas_memory_stays_small_at_n100():
    # 0.6 MiB; one anchor's budget-cut take matrix at a time peaked at
    # 12.5 MiB here, and the full-width table at 22 MiB
    assert _fptas_peak_bytes(100, 0.1) < 4 * 2**20


def test_fptas_memory_stays_small_at_n400():
    # 2.8 MiB; one budget-cut take matrix at a time peaked at 612 MiB here
    assert _fptas_peak_bytes(400, 0.1) < 16 * 2**20


def test_fptas_zero_values():
    inst = Instance(2, (0.1, 0.0), Additive((0.0, 0.0)))
    res = fptas_additive_profit(inst, 1.0, 0.1)
    assert res.optimum == 0 and res.value == 0.0


# ---------------------------------------------------------------------------
# knapsack FPTAS for reward / welfare
# ---------------------------------------------------------------------------


def test_knapsack_examples():
    family = Instance(4, (1 / 16,) * 4, Additive((0.25,) * 4))
    res = knapsack_fptas(family, 1.0, 0.1, REWARD)
    assert res.value >= 0.9
    assert res.payment <= 1.0 + 1e-9

    # every item's weight c_i / f({i}) exceeds the budget: nothing fits
    nothing = Instance(2, (0.5, 0.5), Additive((0.25, 0.25)))
    assert knapsack_fptas(nothing, 1.0, 0.1, REWARD).optimum == 0

    free = Instance(3, (0.0, 0.0, 0.0), Additive((0.2, 0.3, 0.4)))
    res = knapsack_fptas(free, 0.5, 0.2, WELFARE)
    assert res.optimum == ALL3
    assert res.value == pytest.approx(0.9)


def test_knapsack_exact_when_rounding_lossless():
    # all values are multiples of the rounding grid eps * vmax / n_items
    inst = Instance(3, (0.2, 0.05, 0.05), Additive((0.5, 0.25, 0.25)))
    res = knapsack_fptas(inst, 0.5, 0.5, REWARD)
    opt = brute_force_max(REWARD, inst, 0.5)
    assert res.value == opt.value


def test_knapsack_ratio_on_corpus():
    for inst in additive_corpus(10, n=10, seed=604):
        for obj in (REWARD, WELFARE):
            opt = brute_force_max(obj, inst, 0.6).value
            res = knapsack_fptas(inst, 0.6, 0.1, obj)
            assert res.value >= (1 - 0.1) * opt - 1e-9


def test_knapsack_preconditions():
    inst = Instance(2, (0.1, 0.1), Additive((0.5, 0.5)))
    with pytest.raises(PreconditionError):
        knapsack_fptas(inst, 1.0, 0.1, PROFIT)
    for budget, eps in ((1.0, 1.0), (1.0, math.nan), (5.0, 0.1), (math.nan, 0.1)):
        with pytest.raises(InputError):
            knapsack_fptas(inst, budget, eps, REWARD)


# ---------------------------------------------------------------------------
# the level-count gate: an epsilon too small for the DP's size is rejected
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 40, 4095])
def test_level_gate_boundary(n):
    # the validator alone, at the largest accepted epsilon and the next below
    edge = n * n / LEVEL_CAP
    while n * n / edge > LEVEL_CAP:
        edge = math.nextafter(edge, 1.0)
    if edge < 1:
        _level_gate(n, edge)
    with pytest.raises(SizeCapError, match=f"capped at {LEVEL_CAP}"):
        _level_gate(n, math.nextafter(edge, 0.0))
    for eps in (5e-324, 1e-320, 1e-300):
        with pytest.raises(SizeCapError):
            _level_gate(n, eps)


@pytest.mark.parametrize("solve", ["profit", "knapsack", "table"])
@pytest.mark.parametrize("epsilon", [1e-300, 1e-320, 5e-324, 2.0**-25])
def test_tiny_epsilon_is_rejected_before_any_allocation(solve, epsilon):
    inst = Instance(1, (0.1,), Additive((0.5,)))
    calls = {
        "profit": lambda: fptas_additive_profit(inst, 0.5, epsilon),
        "knapsack": lambda: knapsack_fptas(inst, 0.5, epsilon, REWARD),
        "table": lambda: build_rounded_table(inst, epsilon, 0.5, 0.5),
    }
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError):
            calls[solve]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


# ---------------------------------------------------------------------------
# both level DPs are exact: the same results as full-width dense tables
# ---------------------------------------------------------------------------


def _full_width_levels(items, n_levels, cap):
    """Reference exact-level DP, no budget cut: every item fills every level."""
    cur = np.full(n_levels + 1, math.inf)
    cur[0] = 0.0
    cand = np.empty_like(cur)
    take = np.empty((len(items), n_levels + 1), dtype=bool)
    for s, (_, lev, weight) in enumerate(items):
        np.add(cur[: n_levels + 1 - lev], weight, out=cand[lev:])
        cand[:lev] = math.inf
        np.less(cand, cur, out=take[s])
        np.minimum(cur, cand, out=cur)
    return cur, take


def _dense_anchor_choices(inst, budget, epsilon):
    """Reference profit FPTAS choices, one anchor at a time on dense rows.

    Per anchor: a full-width at-least level DP with a take matrix, the proxy
    at every level within the budget, and a walk back from its first
    maximum. The anchor, its grid and the values are lifted by the power of
    two that puts the anchor in [0.5, 1]. Levels are capped at n_levels,
    and so is a lifted value or a quotient that overflows. Returns the
    chosen level and team per anchor, and the number of levels over all
    anchors.
    """
    values = inst.reward.values
    anchors = sorted({v for v in values if v > 0})
    n = inst.n
    delta = epsilon / n
    n_levels = ceil_tol(n / delta)
    cap = budget + PAY_TOL
    levels, teams = [], []
    for anchor in anchors:
        shift = max(-math.frexp(anchor)[1], 0)
        grid = delta * math.ldexp(anchor, shift)
        items = [
            (i, _lifted_level(v, shift, grid, n_levels), inst.costs[i] / v)
            for i, v in enumerate(values)
            if v > 0
        ]
        cur = np.full(n_levels + 1, math.inf)
        cur[0] = 0.0
        take = np.empty((len(items), n_levels + 1), dtype=bool)
        for s, (_, lev, weight) in enumerate(items):
            cand = np.empty_like(cur)
            cand[lev:] = cur[: n_levels + 1 - lev] + weight
            cand[:lev] = cur[0] + weight
            take[s] = cand < cur
            np.minimum(cur, cand, out=cur)
        pay = cur[: np.searchsorted(cur, cap, side="right")]
        proxy = (1.0 - pay) * np.arange(len(pay)) * grid
        k = int(np.argmax(proxy))
        if proxy[k] <= 0.0:
            k = 0
        levels.append(k)
        team = 0
        for s in range(len(items) - 1, -1, -1):
            if take[s][k]:
                agent, lev, _ = items[s]
                team |= 1 << agent
                k = max(k - lev, 0)
        teams.append(team)
    return levels, teams, len(anchors) * (n_levels + 1)


def _lifted_level(v, shift, grid, top):
    try:
        return floor_tol(min(math.ldexp(v, shift) / grid, top))
    except OverflowError:  # the lifted value
        return top


def _dense_profit_fptas(inst, budget, epsilon):
    """Reference profit FPTAS: the best dense anchor choice by true profit."""
    levels, teams, examined = _dense_anchor_choices(inst, budget, epsilon)
    if not levels:
        return SolveResult(0, profit(inst, 0), 0.0, 1)
    team, value = _best_team([0, *teams], lambda t: profit(inst, t))
    return SolveResult(team, value, payment(inst, team), examined)


def _pareto_anchor_choices(inst, budget, epsilon):
    values = inst.reward.values
    anchors = sorted({v for v in values if v > 0})
    grids, steps = solvers._rounded_steps(inst, values, epsilon, anchors, budget)
    levels = solvers._proxy_levels(steps, grids)
    return levels.tolist(), steps.teams(levels)


def _non_dyadic_instance(rng, n):
    values = [rng.random() for _ in range(n)]
    total = sum(values) * (1 + rng.random())
    values = [v / total for v in values]
    costs = [rng.random() * v * rng.choice((0.05, 0.2, 0.6)) for v in values]
    return Instance(n, tuple(costs), Additive(tuple(values)))


def _with_free_agents(rng, inst):
    """The instance with some costs set to zero (and one value, if n > 1)."""
    costs, values = list(inst.costs), list(inst.reward.values)
    for i in rng.sample(range(inst.n), (inst.n + 1) // 2):
        costs[i] = 0.0
    if inst.n > 1:
        values[rng.randrange(inst.n)] = 0.0
    return Instance(inst.n, tuple(costs), Additive(tuple(values)))


def _subnormal_instance(rng, n):
    # values a few dozen multiples of the smallest subnormal: without the
    # lift the grid would be subnormal too, and the proxy would tie on
    # neighbouring levels of one step
    values = [5e-324 * rng.randint(20, 100) for _ in range(n)]
    costs = [v * rng.choice((0.1, 0.3, 0.7)) for v in values]
    return Instance(n, tuple(costs), Additive(tuple(values)))


def _exactness_instances():
    instances = []
    for seed in range(4):
        rng = random.Random(700 + seed)
        n = rng.randint(5, 12)
        instances.append(random_additive_instance(rng, n))
        instances.append(_non_dyadic_instance(rng, n))
        instances.append(_with_free_agents(rng, _non_dyadic_instance(rng, n)))
        instances.append(_subnormal_instance(rng, rng.randint(2, 5)))
    rng = random.Random(710)
    for _ in range(2):
        instances.append(random_additive_instance(rng, 1))
        instances.append(_non_dyadic_instance(rng, 1))
        instances.append(_with_free_agents(rng, _non_dyadic_instance(rng, 1)))
    return instances


def test_budget_cut_matches_full_width_dp(monkeypatch):
    budgets, epsilons = (0.05, 0.2, 0.5, 1.0), (0.3, 0.1, 0.05)
    instances = _exactness_instances()
    for inst in instances:
        for budget in budgets:
            for eps in epsilons:
                dense = _dense_anchor_choices(inst, budget, eps)
                if dense[0]:
                    assert _pareto_anchor_choices(inst, budget, eps) == dense[:2]
                got = fptas_additive_profit(inst, budget, eps)
                assert got == _dense_profit_fptas(inst, budget, eps)

    def knapsacks():
        return [
            knapsack_fptas(inst, budget, eps, obj)
            for inst in instances
            for budget in budgets
            for eps in epsilons
            for obj in (REWARD, WELFARE)
        ]

    cut = knapsacks()
    monkeypatch.setattr(solvers, "_cheapest_per_level", _full_width_levels)
    assert cut == knapsacks()


def test_floor_levels_match_floor_tol():
    top = 50
    rng = random.Random(720)
    xs = [rng.uniform(0, 60) for _ in range(500)]
    offsets = (0.0, 0.5, -EPS, EPS, -2 * EPS, 2 * EPS)
    xs += [k + d for k in range(top + 2) for d in offsets]
    xs += [k + 0.5 for k in range(-1, top + 1)]
    xs = [x for x in xs if x >= 0]
    got = solvers._floor_levels(np.array(xs), top)
    assert got.dtype == np.int64
    assert got.tolist() == [min(floor_tol(x), top) for x in xs]
    huge = solvers._floor_levels(np.array([math.inf, 1e300]), top)
    assert huge.tolist() == [top, top]
