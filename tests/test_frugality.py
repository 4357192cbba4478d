import math

import pytest

from budgeted_contracts import (
    Additive,
    Instance,
    InputError,
    PreconditionError,
    PofQuery,
    SizeCapError,
    Table,
    XosClauses,
    brute_force_max,
    classify,
    gen_additive_lb,
    gen_profit_lb_k,
    gen_profit_lb_two,
    gen_subadditive_lb,
    gen_xos_separation,
    light_agents,
    payment,
    pof,
    pof_bound,
    pof_bound_kind,
    singleton_payment,
    value,
    value_payment_curve,
)
from budgeted_contracts import cli, core
from budgeted_contracts.corpora import submodular_corpus, xos_corpus
from budgeted_contracts.frugality import best_head_count
from budgeted_contracts.objectives import PROFIT, REWARD, WELFARE


# ---------------------------------------------------------------------------
# pof and pof_bound
# ---------------------------------------------------------------------------


def test_pof_example_family():
    inst = gen_additive_lb(10, 0.4, 1.0)
    rep = pof(inst, PofQuery(b=0.4, B=1.0, objective=REWARD))
    assert rep.ratio == pytest.approx(4.0)
    assert rep.bound_kind == "submodular-exact"
    assert rep.theoretical_bound == 4.0


def test_pof_on_additive_lb_runs_no_submodularity_pair_kernel(monkeypatch):
    calls = []
    kernel = core._submodular_pairs
    monkeypatch.setattr(
        core, "_submodular_pairs", lambda t, n, s: calls.append(n) or kernel(t, n, s)
    )
    for n, b in ((6, 0.3), (13, 0.1), (16, 0.1)):
        rep = pof(gen_additive_lb(n, b, 1.0), PofQuery(b=b, B=1.0))
        assert rep.bound_kind == "submodular-exact"
        assert rep.ratio == rep.theoretical_bound
    assert calls == []  # the near-modular certificate decides
    rep = pof(gen_subadditive_lb(8, 0.3, 1.0), PofQuery(b=0.3, B=1.0))
    assert rep.bound_kind == "xos-asymptotic"
    assert calls == [8]


@pytest.mark.parametrize("n, bound", [(17, 17.0), (20, 19.0)])
def test_pof_on_additive_lb_past_the_classify_cap(n, bound):
    # submodularity is checked at every size the team table holds, so the
    # exact bound applies past CLASSIFY_CAP and is met
    rep = pof(gen_additive_lb(n, 0.1, 1.0), PofQuery(b=0.1, B=1.0))
    assert rep.bound_kind == "submodular-exact"
    assert rep.ratio == rep.theoretical_bound == bound


def test_pof_equal_budgets(separation):
    rep = pof(separation, PofQuery(b=1.0, B=1.0))
    assert rep.ratio == pytest.approx(1.0)
    assert rep.theoretical_bound == 1.0


def test_pof_near_budget_separation():
    inst = gen_xos_separation(0.99, 1.0)
    rep = pof(inst, PofQuery(b=0.99, B=1.0, singletons_feasible_at_b=True))
    assert rep.ratio >= 2.5 - 1e-9


def test_pof_precondition_flag(separation):
    with pytest.raises(PreconditionError):
        pof(separation, PofQuery(b=0.3, B=1.0, singletons_feasible_at_b=True))


def test_pof_undefined_marker():
    inst = Instance(1, (0.4,), Additive((0.5,)))  # singleton costs 0.8
    rep = pof(inst, PofQuery(b=0.5, B=1.0))
    assert rep.ratio is None
    assert rep.max_at_b == 0.0


def test_pof_query_validation():
    with pytest.raises(InputError):
        PofQuery(b=0.0, B=1.0)
    with pytest.raises(InputError):
        PofQuery(b=0.5, B=1.2)
    with pytest.raises(InputError):
        PofQuery(b=0.7, B=0.5)


def test_pof_bound_values():
    assert pof_bound(0.4, 1.0, 10, "submodular-exact") == 4.0
    assert pof_bound(1 / 3, 1.0, 5, "profit-lower") == pytest.approx(1.8)
    for kind in ("submodular-exact", "xos-asymptotic", "profit-upper", "profit-lower"):
        assert pof_bound(0.5, 0.5, 4, kind) == 1.0
    assert pof_bound(0.25, 1.0, 3, "xos-asymptotic") == pytest.approx(3.0)
    assert pof_bound(0.25, 1.0, 30, "xos-asymptotic") == pytest.approx(4.0)
    assert pof_bound(0.5, 1.0, 8, "profit-upper") == 3.0


def test_pof_bound_kind_mapping():
    assert pof_bound_kind("reward", "submodular") == "submodular-exact"
    assert pof_bound_kind("welfare", "additive") == "submodular-exact"
    assert pof_bound_kind("profit", "submodular") == "profit-upper"
    assert pof_bound_kind("reward", "xos") == "xos-asymptotic"
    assert pof_bound_kind("convex", "submodular") == "xos-asymptotic"


def test_pof_bound_validation():
    with pytest.raises(InputError):
        pof_bound(0.0, 1.0, 4, "submodular-exact")
    with pytest.raises(InputError):
        pof_bound(0.5, 1.1, 4, "submodular-exact")
    for name in ("reward", "profit", "submodular"):  # names, not bound kinds
        with pytest.raises(InputError, match="unknown bound kind"):
            pof_bound(0.5, 1.0, 4, name)
    for n in (math.nan, 2.5, 0, -1):
        with pytest.raises(InputError):
            pof_bound(0.5, 1.0, n, "xos-asymptotic")
    for b, B in ((math.nan, 1.0), (0.5, math.nan), (0.6, 0.5)):
        with pytest.raises(InputError):
            pof_bound(b, B, 4, "profit-lower")
        with pytest.raises(InputError):
            PofQuery(b=b, B=B)


def test_pof_bound_staircase_breakpoints():
    # the exact submodular bound steps down at b = 2/M: value M - 1 on the
    # closed left end of each interval (2/(M+1), 2/M]
    for m in (3, 4, 5, 8):
        at = pof_bound(2 / m, 1.0, 20, "submodular-exact")
        assert at == m - 1
        below = pof_bound(2 / m - 1e-6, 1.0, 20, "submodular-exact")
        assert below == m
    assert pof_bound(2 / 10, 1.0, 5, "submodular-exact") == 5  # n binds


def test_best_head_count():
    assert best_head_count(1 / 3, 1.0, 50) == 3
    assert best_head_count(0.3, 1.0, 50) == 3  # the 1/b + 1/2 term binds
    assert best_head_count(0.4, 0.5, 50) == 2  # the 2B/b term binds
    assert best_head_count(0.05, 1.0, 8) == 8  # n binds
    for b, B, n in ((0, 1.0, 5), (math.nan, 1.0, 5), (0.5, 0.4, 5), (0.5, 0.5, 5),
                    (0.5, 1.1, 5), (0.3, 1.0, 0), (0.3, 1.0, -2), (0.3, 1.0, 2.5)):
        with pytest.raises(InputError):
            best_head_count(b, B, n)


def test_head_counts_hold_for_every_positive_small_budget():
    # 2B/b and 1/b overflow to infinity at a subnormal b; n binds there
    for b in (1e-320, 5e-324):
        assert best_head_count(b, 1.0, 5) == 5
        assert pof_bound(b, 1.0, 5, "submodular-exact") == 5.0
        assert pof_bound(b, 1.0, 5, "profit-upper") == 5.0
        assert pof_bound(b, 1.0, 5, "profit-lower") == max(2 - b, 5 * (2 - 5 * b) / (2 - b))
        assert gen_additive_lb(5, b, 1.0).costs == (b / 5,) * 5
    # and at a normal b every count is the unclamped one
    bs = [k / 1000 for k in range(1, 1000)] + [2 / m for m in range(3, 60)]
    bs += [2 / m + d for m in range(3, 60) for d in (-1e-12, 1e-12)]
    for b in bs:
        for B in (0.25, 0.5, 1.0):
            if not b < B:
                continue
            for n in (1, 2, 3, 7, 50):
                heads = min(core.ceil_tol(2 * B / b) - 1, n)
                best = min(core.floor_tol(1 / b + 0.5), heads)
                assert best_head_count(b, B, n) == best
                assert pof_bound(b, B, n, "submodular-exact") == heads


def test_profit_lower_bound_crossover():
    # the linear term 2 - b overtakes the k-head curve past (sqrt(33)-5)/2
    cross = (math.sqrt(33) - 5) / 2
    for b in (0.05, 0.15, 0.25, 0.35):
        k = min(math.floor(1 / b + 0.5), math.ceil(2 / b) - 1, 50)
        expected = max(2 - b, k * (2 - k * b) / (2 - b))
        got = pof_bound(b, 1.0, 50, "profit-lower")
        assert got == pytest.approx(expected)
        if b < cross and k > 2:
            assert got > 2 - b
    for b in (0.4, 0.6, 0.8):
        assert pof_bound(b, 1.0, 50, "profit-lower") == pytest.approx(2 - b)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_gen_additive_lb_shape():
    inst = gen_additive_lb(10, 0.4, 1.0)
    assert inst.n == 10
    assert inst.costs[:4] == (1 / 16,) * 4
    assert inst.costs[4:] == (0.0,) * 6
    assert isinstance(inst.reward, Table)
    assert value(inst.reward, 0b1111) == pytest.approx(1.0)
    assert all(singleton_payment(inst, i) <= 0.4 + 1e-12 for i in range(10))


def test_gen_additive_lb_degenerate_and_steep():
    single = gen_additive_lb(1, 0.3, 1.0)
    assert single.n == 1
    rep = pof(single, PofQuery(b=0.3, B=1.0))
    assert rep.ratio == pytest.approx(1.0)

    steep = gen_additive_lb(10, 0.2, 1.0)  # M = 9
    rep = pof(steep, PofQuery(b=0.2, B=1.0))
    assert rep.ratio == pytest.approx(9.0)


def test_gen_additive_lb_validation():
    with pytest.raises(InputError):
        gen_additive_lb(4, 0.5, 0.5)
    with pytest.raises(SizeCapError):
        gen_additive_lb(30, 0.4, 1.0)


def test_gen_xos_separation_properties(separation):
    assert payment(separation, 0b100) == 0.0
    assert brute_force_max(REWARD, separation, 0.5).value == pytest.approx(2 / 5)
    assert light_agents(separation) == 0b111
    # generator clamps the large budget to 2b
    clamped = gen_xos_separation(0.2, 1.0)
    assert clamped.costs[0] == pytest.approx(0.4 / 5)
    assert isinstance(clamped.reward, XosClauses)


def test_gen_subadditive_lb_values():
    inst = gen_subadditive_lb(16, 0.9, 1.0)
    assert value(inst.reward, 0) == 0.0
    nine = (1 << 9) - 1
    assert value(inst.reward, nine) == pytest.approx(1.0)
    assert payment(inst, nine) == pytest.approx(1.0)
    rep = pof(inst, PofQuery(b=0.9, B=1.0, singletons_feasible_at_b=True))
    assert rep.ratio >= (2 / 4 + 0.5) / (2 / 4) - 1e-9

    got = classify(gen_subadditive_lb(8, 0.9, 1.0).reward)
    assert got.is_monotone and got.is_subadditive and not got.is_submodular


def test_gen_subadditive_lb_sampled_triples_at_16():
    # the jump from size n/2 to n/2+1 raises the marginal, violating the
    # pairwise diminishing-returns inequality at |T| = n/2 - 1
    inst = gen_subadditive_lb(16, 0.9, 1.0)
    t = (1 << 7) - 1
    i, j = 7, 8
    lhs = value(inst.reward, t | 1 << i) + value(inst.reward, t | 1 << j)
    rhs = value(inst.reward, t | 1 << i | 1 << j) + value(inst.reward, t)
    assert lhs < rhs - 1e-9


def test_gen_subadditive_lb_validation():
    with pytest.raises(InputError):
        gen_subadditive_lb(5, 0.5, 1.0)
    with pytest.raises(InputError):
        gen_subadditive_lb(4, 0.1, 1.0)  # needs B <= n b / 2


def test_gen_profit_two():
    inst = gen_profit_lb_two(0.4, 1.0, 0.1)
    assert singleton_payment(inst, 0) == pytest.approx(0.4)
    assert brute_force_max(PROFIT, inst, 0.4).value == pytest.approx(0.3)
    rep = pof(inst, PofQuery(b=0.4, B=1.0, objective=PROFIT))
    assert rep.ratio >= (1 - 0.05) * 1.6 - 1e-9
    with pytest.raises(InputError):
        gen_profit_lb_two(0.4, 1.0, 0.7)
    with pytest.raises(InputError, match="0 < eps"):
        gen_profit_lb_two(0.4, 1.0, 0.0)


def test_gen_profit_k():
    inst = gen_profit_lb_k(1 / 3, 1.0, 3, 0.05)
    assert inst.n == 3
    assert all(
        singleton_payment(inst, i) == pytest.approx(1 / 6 + 0.025) for i in range(3)
    )
    rep = pof(inst, PofQuery(b=1 / 3, B=1.0, objective=PROFIT))
    floor = (2 - 3 * (1 / 3 + 0.05)) * 3 / (2 - 1 / 3 - 0.05)
    assert rep.ratio >= floor - 1e-9

    single = gen_profit_lb_k(0.4, 1.0, 1, 0.01)
    rep1 = pof(single, PofQuery(b=0.4, B=1.0, objective=PROFIT))
    assert rep1.ratio == pytest.approx(1.0)

    with pytest.raises(InputError):
        gen_profit_lb_k(0.5, 1.0, 4, 0.01)  # k >= 2B/b
    with pytest.raises(InputError):
        gen_profit_lb_k(0.5, 1.0, 3, 0.5)  # eps >= 2B/k - b
    with pytest.raises(InputError, match="0 < eps"):
        gen_profit_lb_k(1 / 3, 1.0, 3, 0.0)


# ---------------------------------------------------------------------------
# relations between realized ratios and bounds
# ---------------------------------------------------------------------------


def _feasible_small_budget(inst):
    worst = max(singleton_payment(inst, i) for i in range(inst.n))
    return max(worst, 0.25)


def test_profit_pof_dominated_by_reward_pof():
    for inst in submodular_corpus(12, seed=801, n_hi=8) + xos_corpus(
        12, seed=802, n_hi=8
    ):
        b = _feasible_small_budget(inst)
        if b >= 1.0:
            continue
        reward_rep = pof(inst, PofQuery(b=b, B=1.0, objective=REWARD))
        profit_rep = pof(inst, PofQuery(b=b, B=1.0, objective=PROFIT))
        if reward_rep.ratio is None or profit_rep.ratio is None:
            continue
        assert profit_rep.ratio <= reward_rep.ratio + 1e-9


def test_submodular_realized_below_exact_bound():
    for inst in submodular_corpus(12, seed=803, n_hi=8):
        b = _feasible_small_budget(inst)
        if b >= 1.0:
            continue
        rep = pof(
            inst, PofQuery(b=b, B=1.0, objective=REWARD, singletons_feasible_at_b=True)
        )
        assert rep.bound_kind == "submodular-exact"
        assert rep.ratio <= pof_bound(b, 1.0, inst.n, "submodular-exact") + 1e-9


def test_xos_realized_below_asymptotic_envelope():
    for inst in xos_corpus(12, seed=804, n_hi=8):
        b = _feasible_small_budget(inst)
        if b >= 1.0:
            continue
        for obj in (REWARD, PROFIT, WELFARE):
            rep = pof(inst, PofQuery(b=b, B=1.0, objective=obj))
            if rep.ratio is None:
                continue
            assert rep.ratio <= 32 * min(1.0 / b, 2 * inst.n) + 1e-9


def test_subadditive_growth_with_scale():
    # realized ratio by exhaustive search at small n, by size symmetry at 36
    realized = {}
    for n in (4, 16):
        rep = pof(gen_subadditive_lb(n, 0.9, 1.0), PofQuery(b=0.9, B=1.0))
        realized[n] = rep.ratio
    realized[36] = _subadditive_ratio_by_size(36, 0.9, 1.0)
    assert realized[4] <= realized[16] <= realized[36]
    for n, ratio in realized.items():
        assert ratio >= 0.5 * math.sqrt(n) - 1e-9


def _subadditive_ratio_by_size(n, small, large):
    # the construction is symmetric, so optima depend only on team size
    root = math.sqrt(n)
    cost = large / ((n / 2 + 1) * root)

    def val(size):
        if size == 0:
            return 0.0
        if size <= n // 2:
            return 1 / root + size / n
        return 2 / root + 0.5

    def pay(size):
        if size == 0:
            return 0.0
        margin = val(size) - val(size - 1)
        return math.inf if margin <= 0 else size * cost / margin

    def best(budget):
        return max(val(k) for k in range(n + 1) if pay(k) <= budget + 1e-9)

    return best(large) / best(small)


def test_value_payment_curve(separation):
    curve = value_payment_curve(separation, REWARD)
    pays = [p for p, _ in curve]
    vals = [v for _, v in curve]
    assert pays == sorted(pays)
    assert vals == sorted(vals)
    assert curve[0] == (0.0, pytest.approx(2 / 5))  # the free agent
    assert curve[-1][1] == pytest.approx(1.0)
    assert curve[-1][0] == pytest.approx(1.0)


def test_pof_optima_equal_brute_force_bit_for_bit():
    for inst in submodular_corpus(6, seed=805, n_hi=8) + xos_corpus(6, seed=806, n_hi=8):
        for obj in (REWARD, PROFIT, WELFARE):
            rep = pof(inst, PofQuery(b=0.3, B=0.8, objective=obj))
            assert rep.max_at_b == brute_force_max(obj, inst, 0.3).value
            assert rep.max_at_B == brute_force_max(obj, inst, 0.8).value


def test_pof_builds_one_team_table_per_cell(monkeypatch, capsys):
    # one build, and one submodularity audit, per distinct instance: a sweep
    # whose next cell is bit for bit the last one's runs on the one it holds
    builds, audits = [], []

    def counting(inst):
        builds.append(inst.n)
        return tabulate(inst)

    tabulate, audit = core._tabulate, core.is_submodular
    monkeypatch.setattr(core, "_tabulate", counting)
    monkeypatch.setattr(core, "is_submodular", lambda f: audits.append(f.n) or audit(f))
    inst = gen_additive_lb(6, 0.3, 1.0)
    pof(inst, PofQuery(b=0.3, B=1.0, objective=PROFIT))
    pof(inst, PofQuery(b=0.3, B=1.0, objective=REWARD))
    assert len(builds) == len(audits) == 1
    cases = [
        # four cells with four head counts, each with its report, reward
        # curve and welfare curve
        (["--family", "additive-lb", "--n", "6", "--grid", "b=0.2:0.8:0.2"], 4),
        (["--family", "additive-lb", "--n", "6", "--grid", "b=0.2:0.8:0.2",
          "--emit-curve"], 4),
        # the family ignores b: three cells, one instance
        (["--family", "subadd-lb", "--n", "8", "--grid", "b=0.3:0.9:0.3"], 1),
        # head counts 3, 3, 2, 2, 2, and each head costs B / 4 from b = 0.7
        (["--family", "additive-lb", "--n", "6", "--grid", "b=0.5:0.9:0.1"], 2),
    ]
    for argv, distinct in cases:
        builds.clear()
        audits.clear()
        assert cli.main(["pof", *argv]) == 0
        assert len(builds) == len(audits) == distinct, argv
    capsys.readouterr()
