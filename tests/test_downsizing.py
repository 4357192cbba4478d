import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgeted_contracts import (
    Additive,
    DownsizeResult,
    Instance,
    InputError,
    PreconditionError,
    SizeCapError,
    Table,
    XosClauses,
    bits,
    downsize_submodular,
    downsize_xos,
    gen_additive_lb,
    marginal,
    payment,
    recover_marginals_xos,
    to_table,
    value,
)
from budgeted_contracts.core import _pay_term
from budgeted_contracts.corpora import (
    random_additive_instance,
    random_xos_instance,
    submodular_corpus,
    xos_corpus,
)
from budgeted_contracts.objectives import PROFIT, REWARD, WELFARE, evaluate

ALL3 = 0b111
ALL4 = 0b1111


def test_params_validation(uniform4):
    for m in (2, 3.0):  # 3.0 fails too: m must be a true integer
        with pytest.raises(InputError):
            downsize_submodular(uniform4, ALL4, m)
        with pytest.raises(InputError):
            downsize_xos(uniform4, ALL4, m)


def test_bag_trace_uniform_family(uniform4):
    # shares are 1/4 each, no outliers; the first bag closes at {0, 1}
    res = downsize_submodular(uniform4, ALL4, 4)
    assert res.subset == 0b0011
    assert res.payment_after == pytest.approx(0.5)
    assert res.objective_after == pytest.approx(0.5)
    assert res.objective_after >= res.objective_before / 3 - 1e-9
    assert not res.singleton_exit

    res3 = downsize_submodular(uniform4, ALL4, 3)
    assert res3.subset == 0b0011
    assert res3.payment_after <= (2 / 3) * res3.payment_before + 1e-9
    assert res3.objective_after >= res3.objective_before / 2 - 1e-9


def test_singleton_team_returned_unchanged(uniform4):
    res = downsize_submodular(uniform4, 0b0100, 5)
    assert res.subset == 0b0100
    assert res.payment_after == res.payment_before


def test_empty_team_rejected(uniform4):
    with pytest.raises(InputError):
        downsize_submodular(uniform4, 0, 3)
    with pytest.raises(InputError):
        downsize_xos(uniform4, 0, 3)


def test_outlier_fold_regression():
    # shares (0.4, 0.44, 0.44) at M=3 put both expensive agents past the
    # threshold; neither alone preserves half the value, so the cheapest
    # one must be folded into the remainder.
    inst = Instance(3, (0.1, 0.11, 0.11), Additive((0.25, 0.25, 0.25)))
    res = downsize_submodular(inst, ALL3, 3)
    assert res.subset == 0b011
    assert res.objective_after >= res.objective_before / 2 - 1e-9
    assert res.payment_after <= (2 / 3) * res.payment_before + 1e-9
    assert not res.singleton_exit


def test_debug_checks():
    not_submodular = Instance(2, (0.1, 0.1), Table((0.0, 0.1, 0.1, 0.5)))
    with pytest.raises(PreconditionError):
        downsize_submodular(not_submodular, 0b11, 3, check=True)
    ok = Instance(2, (0.1, 0.1), Additive((0.25, 0.25)))
    res = downsize_submodular(ok, 0b11, 3, WELFARE, check=True)
    assert res.subset
    # the disjoint-pair subadditivity check of psi runs up to CLASSIFY_CAP
    mid = Instance(11, (0.01,) * 11, Additive((0.05,) * 11))
    assert downsize_submodular(mid, 0b11, 3, WELFARE, check=True).subset
    big = Instance(17, (0.01,) * 17, Additive((0.05,) * 17))
    with pytest.raises(SizeCapError):
        downsize_submodular(big, 0b11, 3, WELFARE, check=True)


def test_recover_marginals_examples(separation):
    assert recover_marginals_xos(separation, ALL3, ALL3) == ALL3
    assert recover_marginals_xos(separation, 0, ALL3) == 0
    with pytest.raises(InputError):
        recover_marginals_xos(separation, 0b1000 | 1, ALL3)

    # halved version of the two-clause marginal example: the second agent's
    # pruned marginal 0.1 still clears half its team marginal 0.05
    inst = Instance(2, (0.0, 0.0), XosClauses(((0.5, 0.0), (0.3, 0.3))))
    kept = recover_marginals_xos(inst, 0b11, 0b11)
    assert kept == 0b11
    assert marginal(inst.reward, 0b11, 1) == pytest.approx(0.1)


def test_recover_marginals_guarantee_on_corpus():
    rng = random.Random(13)
    for inst in xos_corpus(25, seed=401, n_hi=8):
        full = (1 << inst.n) - 1
        for _ in range(12):
            team = rng.randrange(1, full + 1)
            kept = team & rng.randrange(0, full + 1)
            out = recover_marginals_xos(inst, kept, team)
            assert out & ~kept == 0
            assert value(inst.reward, out) >= value(inst.reward, kept) / 2 - 1e-9
            for i in bits(out):
                assert (
                    marginal(inst.reward, out, i)
                    >= marginal(inst.reward, team, i) / 2 - 1e-9
                )


def test_xos_trace_separation(separation):
    # both paying agents are outliers at M=5 and agent 0 already preserves
    # a quarter of the value, so the singleton branch fires
    res = downsize_xos(separation, ALL3, 5)
    assert res.subset == 0b001
    assert res.singleton_exit
    assert res.payment_after == pytest.approx(0.5)
    assert res.objective_after == pytest.approx(0.4)
    assert res.objective_after >= res.objective_before / 8 - 1e-9


def test_xos_on_additive_special_case(uniform4):
    res = downsize_xos(uniform4, ALL4, 4)
    assert res.objective_after >= res.objective_before / 6 - 1e-9
    assert (
        res.payment_after <= res.payment_before + 1e-9
    )  # never worse than the input
    single = downsize_xos(uniform4, 0b1000, 3)
    assert single.subset == 0b1000


def test_submodular_guarantee_with_welfare_psi():
    kept = 0
    for inst in submodular_corpus(25, seed=402, n_hi=7):
        full = (1 << inst.n) - 1
        welfare_vals = [evaluate(WELFARE, inst, t) for t in range(full + 1)]
        if min(welfare_vals) < 0:
            continue  # the preserved objective must be non-negative
        kept += 1
        for team in range(1, full + 1):
            if payment(inst, team) == math.inf:
                continue
            for m in (3, 4):
                res = downsize_submodular(inst, team, m, WELFARE)
                assert res.objective_after >= res.objective_before / (m - 1) - 1e-9
                assert (
                    res.payment_after <= (2 / m) * res.payment_before + 1e-9
                    or res.subset.bit_count() == 1
                )
    assert kept >= 3


def test_downsizing_is_optimal_on_hard_family():
    # On the equal-value family no multi-agent subset can beat the payment
    # bound while preserving the value floor (brute-force witness, M <= 6).
    for m in (3, 4, 5, 6):
        b = 2 / (m + 0.5)
        inst = gen_additive_lb(m, b, 1.0)
        team = (1 << m) - 1
        p_team = payment(inst, team)
        f_team = value(inst.reward, team)
        best = math.inf
        for sub in range(1, team + 1):
            if sub.bit_count() < 2:
                continue
            if value(inst.reward, sub) >= f_team / (m - 1) - 1e-9:
                best = min(best, payment(inst, sub))
        assert best >= (2 / m) * p_team - 1e-9


def test_bag_stage_query_budget(uniform4, table_queries):
    # the bag stage needs O(n + M) value queries: n + 1 for the shares, which
    # give psi(S) = f(S), at most M for the pieces tested, and at most n for
    # p(T), whose f(T) the piece's test took
    m = 5
    downsize_submodular(uniform4, ALL4, m)
    assert len(table_queries) <= 2 * (uniform4.n + 1) + m + 1


def test_downsizing_reuses_what_it_holds(uniform4, table_queries):
    # p(S) and psi(S) = f(S) come from the shares, and psi of the returned
    # piece from its test, which p({0}) reuses as f({0}): 5 queries for the
    # shares and 1 for psi of the first outlier; p({0}) takes f({}) from the
    # table's entry 0, not from the oracle
    res = downsize_submodular(uniform4, ALL4, 5)
    assert res.singleton_exit and res.subset == 0b0001
    assert table_queries == [0b1111, 0b1110, 0b1101, 0b1011, 0b0111, 0b0001]


def test_before_fields_equal_the_oracles():
    rng = random.Random(21)
    insts = submodular_corpus(12, seed=23, n_lo=3, n_hi=7)
    insts += xos_corpus(12, seed=24, n_lo=3, n_hi=7)
    for inst in insts:
        for team in ((1 << inst.n) - 1, rng.randrange(1, 1 << inst.n)):
            for m in (3, 5):
                for psi in (REWARD, PROFIT, WELFARE):
                    res = downsize_submodular(inst, team, m, psi)
                    assert res.payment_before == payment(inst, team)
                    assert res.objective_before == evaluate(psi, inst, team)
                    assert res.payment_after == payment(inst, res.subset)
                    assert res.objective_after == evaluate(psi, inst, res.subset)
                res = downsize_xos(inst, team, m)
                assert res.payment_before == payment(inst, team)
                assert res.objective_before == value(inst.reward, team)


def test_result_fields(uniform4):
    res = downsize_submodular(uniform4, ALL4, 4)
    assert isinstance(res, DownsizeResult)
    assert res.payment_before == pytest.approx(payment(uniform4, ALL4))
    assert res.payment_after == pytest.approx(payment(uniform4, res.subset))
    assert res.objective_before == pytest.approx(1.0)


@st.composite
def additive_downsize_cases(draw):
    n = draw(st.integers(2, 7))
    # per-agent values capped at 9/64 so any seven of them sum below 1
    values = tuple(draw(st.integers(1, 9)) / 64 for _ in range(n))
    scales = tuple(draw(st.integers(0, 24)) / 16 for _ in range(n))
    inst = Instance(n, tuple(s * v for s, v in zip(scales, values)), Additive(values))
    team = draw(st.integers(1, (1 << n) - 1))
    m = draw(st.sampled_from((3, 4, 5, 8)))
    return inst, team, m


@given(additive_downsize_cases())
@settings(max_examples=200, deadline=None)
def test_downsizing_guarantee_property(case):
    # additive rewards are submodular, so both guarantee clauses must hold
    inst, team, m = case
    pay_team = payment(inst, team)
    val_team = value(inst.reward, team)
    res = downsize_submodular(inst, team, m)
    assert res.subset and (res.subset & ~team) == 0
    assert res.objective_after >= val_team / (m - 1) - 1e-9
    assert (
        res.payment_after <= (2 / m) * pay_team + 1e-9
        or res.subset.bit_count() == 1
    )
    composed = downsize_xos(inst, team, m)
    assert composed.objective_after >= val_team / (2 * m - 2) - 1e-9
    assert (
        composed.payment_after <= (4 / m) * pay_team + 1e-9
        or composed.subset.bit_count() == 1
    )


# Reference oracles: the downsizings as they were before their two stages
# shared queries, asking every f(S) and f(S - {i}) of ``value`` one query at
# a time (the additive drop kernel included), so the shared and one-pass
# forms are checked against the plain oracle definitions.


def _ref_payment(inst, team):
    f, total = inst.reward, 0.0
    f_team = f.value(team)
    for i in bits(team):
        total += _pay_term(inst.costs[i], f_team - f.value(team & ~(1 << i)))
        if total == math.inf:
            return math.inf
    return total


def _ref_evaluate(psi, inst, team):
    if psi is not PROFIT:
        return evaluate(psi, inst, team)
    f_team = inst.reward.value(team)
    if f_team == 0.0:
        return 0.0
    pay = _ref_payment(inst, team)
    return -math.inf if pay == math.inf else (1.0 - pay) * f_team


def _ref_downsize_submodular(inst, team, m, psi=REWARD):
    f = inst.reward
    f_team = f.value(team)
    share = {
        i: _pay_term(inst.costs[i], f_team - f.value(team & ~(1 << i)))
        for i in bits(team)
    }
    pay_team = 0.0
    for i in bits(team):
        pay_team += share[i]
    threshold = pay_team / m
    psi_team = _ref_evaluate(psi, inst, team)
    floor = psi_team / (m - 1)

    def exit_with(after, psi_after, singleton=False):
        return DownsizeResult(
            after, pay_team, _ref_payment(inst, after), psi_team, psi_after, singleton
        )

    outliers = [i for i in bits(team) if share[i] > threshold]
    for i in outliers:
        psi_single = _ref_evaluate(psi, inst, 1 << i)
        if psi_single >= floor:
            return exit_with(1 << i, psi_single, singleton=True)
    queue = [i for i in bits(team) if share[i] <= threshold]
    pos = 0
    for _ in range(m - len(outliers) - 2):
        bag, bag_sum = 0, 0.0
        while pos < len(queue) and bag_sum <= threshold:
            i = queue[pos]
            pos += 1
            bag |= 1 << i
            bag_sum += share[i]
        psi_bag = _ref_evaluate(psi, inst, bag)
        if psi_bag >= floor:
            return exit_with(bag, psi_bag)
    remainder = 0
    for i in queue[pos:]:
        remainder |= 1 << i
    if len(outliers) >= m - 1:
        remainder |= 1 << min(outliers, key=lambda i: (share[i], i))
    return exit_with(remainder, _ref_evaluate(psi, inst, remainder))


def _ref_recover_marginals_xos(inst, kept, team):
    f = inst.reward
    f_team = f.value(team)
    team_marg = {i: f_team - f.value(team & ~(1 << i)) for i in bits(kept)}
    current = kept
    while True:
        f_cur = f.value(current)
        worst, worst_ratio = None, math.inf
        violated = False
        for i in bits(current):
            target = team_marg[i]
            if target <= 0.0:
                continue
            own = f_cur - f.value(current & ~(1 << i))
            if own < 0.5 * target:
                violated = True
            ratio = own / target
            if ratio < worst_ratio:
                worst, worst_ratio = i, ratio
        if not violated:
            return current
        current &= ~(1 << worst)


def _ref_downsize_xos(inst, team, m):
    inner = _ref_downsize_submodular(inst, team, m)
    recovered = _ref_recover_marginals_xos(inst, inner.subset, team)
    return replace(
        inner,
        subset=recovered,
        payment_after=_ref_payment(inst, recovered),
        objective_after=inst.reward.value(recovered),
    )


def _off_grid_row(rng, n):
    row = [rng.uniform(0, 1 / n) for _ in range(n)]  # every sum stays below 1
    if rng.random() < 0.2:
        row[rng.randrange(n)] = 0.0  # a free or an unpayable agent
    return row


def _off_grid_costs(rng, row):
    return tuple(rng.choice((0.0, 0.1, 0.5, 1.0)) * rng.uniform(0.2, 1) * max(v, 0.01)
                 for v in row)


def _reference_cases(rng):
    """(instance, team) pairs on additive, XOS and table rewards, dyadic and
    off-grid, n = 2-63 for the oracle forms and 2-8 for tables."""
    for _ in range(20):
        n = rng.randint(2, 63)
        row = _off_grid_row(rng, n)
        yield random_additive_instance(rng, n)
        yield Instance(n, _off_grid_costs(rng, row), Additive(row))
        n = rng.randint(2, 30)
        clauses = [_off_grid_row(rng, n) for _ in range(rng.randint(1, 5))]
        yield random_xos_instance(rng, n, rng.randint(1, 5))
        yield Instance(n, _off_grid_costs(rng, clauses[0]), XosClauses(clauses))
        n = rng.randint(2, 8)
        yield submodular_corpus(1, rng.randrange(1 << 30), n, n)[0]
        off = Instance(n, _off_grid_costs(rng, [0.1] * n),
                       XosClauses([_off_grid_row(rng, n) for _ in range(3)]))
        yield Instance(n, off.costs, to_table(off.reward))


def test_downsizings_equal_their_reference_oracles():
    # repr() compares floats bit for bit (-0.0, inf), within the dataclass
    rng = random.Random(2207)
    cases = 0
    for inst in _reference_cases(rng):
        full = (1 << inst.n) - 1
        for team in {full, rng.randrange(1, full + 1), rng.randrange(1, full + 1)}:
            for m in (3, 5, 8):
                for psi in (REWARD, PROFIT, WELFARE):
                    got = downsize_submodular(inst, team, m, psi)
                    assert repr(got) == repr(_ref_downsize_submodular(inst, team, m, psi))
                got = downsize_xos(inst, team, m)
                assert repr(got) == repr(_ref_downsize_xos(inst, team, m))
                cases += 1
            kept = team & rng.randrange(0, full + 1)
            assert recover_marginals_xos(inst, kept, team) == (
                _ref_recover_marginals_xos(inst, kept, team)
            )
    assert cases >= 900


def test_downsize_xos_asks_each_drop_once(additive_queries):
    # one pass over S gives the shares, psi(S) and recovery's team marginals
    # (5); the bag test values the first bag {0, 1} (1); and recovery's one
    # round over it takes that value and asks its two drops (2), which also
    # give the payment and the value of the set it keeps
    inst = Instance(4, (1 / 16,) * 4, Additive((0.25,) * 4))
    res = downsize_xos(inst, ALL4, 4)
    assert (res.subset, res.payment_after, res.objective_after) == (0b0011, 0.5, 0.5)
    assert additive_queries == [ALL4, 0b1110, 0b1101, 0b1011, 0b0111, 0b0011,
                                0b0010, 0b0001]


def test_small_additive_team_asks_per_member_queries(monkeypatch, additive_queries):
    # at three members or fewer downsize_xos asks f(S) and each f(S - {i})
    # one query at a time, as payment does, and takes no drop_values pass
    passes = []
    drop_values = Additive.drop_values

    def counting(self, team):
        passes.append(team)
        return drop_values(self, team)

    monkeypatch.setattr(Additive, "drop_values", counting)
    inst = Instance(3, (1 / 16,) * 3, Additive((0.25,) * 3))
    res = downsize_xos(inst, ALL3, 3)
    assert res.payment_before == payment(inst, ALL3)
    assert passes == []
    assert additive_queries[:4] == [ALL3, 0b110, 0b101, 0b011]
