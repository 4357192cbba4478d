import math
import random

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
    value,
)
from budgeted_contracts.corpora import submodular_corpus, xos_corpus
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
    # the bag stage needs O(n + M) value queries: n + 1 for the shares, one
    # for psi(S), at most M for the pieces tested, n + 1 for p(T)
    m = 5
    downsize_submodular(uniform4, ALL4, m)
    assert len(table_queries) <= 2 * (uniform4.n + 1) + m + 1


def test_downsizing_reuses_what_it_holds(uniform4, table_queries):
    # p(S) comes from the shares and psi of the returned piece from its test:
    # 5 queries for the shares, 1 for psi(S), 1 for psi of the first outlier
    # and 2 for p({0})
    res = downsize_submodular(uniform4, ALL4, 5)
    assert res.singleton_exit and res.subset == 0b0001
    assert len(table_queries) == 9


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
