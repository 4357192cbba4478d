"""Acceptance suite: one test per criterion, pinned sizes and tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every expected value is either computed by an independent
brute-force oracle inside the test or asserted against the frozen
construction constants.
"""

import math
import random
import time

import pytest

from budgeted_contracts import (
    Additive,
    Contract,
    Instance,
    PofQuery,
    bits,
    brute_force_max,
    brute_solver,
    contract_profit,
    demand,
    downsize_submodular,
    downsize_xos,
    enumerate_equilibria,
    fptas_additive_profit,
    gen_additive_lb,
    gen_profit_lb_k,
    gen_profit_lb_two,
    gen_subadditive_lb,
    gen_xos_separation,
    marginal,
    payment,
    pof,
    profit,
    recover_marginals_xos,
    reduce_from_mrl,
    reduce_to_mrl,
    singleton_payment,
    to_table,
    value,
)
from budgeted_contracts.core import ceil_tol
from budgeted_contracts.corpora import (
    additive_corpus,
    submodular_corpus,
    xos_corpus,
)
from budgeted_contracts.objectives import PROFIT, REWARD, WELFARE

TOL = 1e-9


def _report(name, detail):
    print(f"[acceptance] {name}: PASS  ({detail})")


def test_criterion_01_submodular_downsizing_guarantee():
    start = time.perf_counter()
    instances = submodular_corpus(200, seed=1001, n_lo=4, n_hi=10)
    runs = violations = 0
    for inst in instances:
        for team in range(1, 1 << inst.n):
            pay_team = payment(inst, team)
            if pay_team == math.inf:
                continue
            val_team = value(inst.reward, team)
            for m in (3, 4, 5, 8):
                runs += 1
                res = downsize_submodular(inst, team, m)
                ok = (
                    res.subset != 0
                    and (res.subset & ~team) == 0
                    and res.objective_after >= val_team / (m - 1) - TOL
                    and (
                        res.payment_after <= (2 / m) * pay_team + TOL
                        or res.subset.bit_count() == 1
                    )
                )
                if not ok:
                    violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 60.0
    _report(
        "criterion 1 (submodular downsizing)",
        f"{len(instances)} instances, {runs} runs, {elapsed:.1f}s",
    )


def test_criterion_02_xos_downsizing_guarantee():
    start = time.perf_counter()
    instances = xos_corpus(200, seed=1002, n_lo=4, n_hi=10, max_clauses=5)
    rng = random.Random(1003)
    runs = violations = 0
    for inst in instances:
        full = (1 << inst.n) - 1
        teams = {full} | {rng.randrange(1, full + 1) for _ in range(25)}
        for team in teams:
            pay_team = payment(inst, team)
            if pay_team == math.inf:
                continue
            val_team = value(inst.reward, team)
            for m in (3, 4, 5, 8):
                runs += 1
                res = downsize_xos(inst, team, m)
                ok = (
                    (res.subset & ~team) == 0
                    and res.objective_after >= val_team / (2 * m - 2) - TOL
                    and (
                        res.payment_after <= (4 / m) * pay_team + TOL
                        or res.subset.bit_count() == 1
                    )
                )
                if not ok:
                    violations += 1
            # marginal recovery on random nested pairs
            for _ in range(4):
                runs += 1
                kept = team & rng.randrange(0, full + 1)
                out = recover_marginals_xos(inst, kept, team)
                ok = value(inst.reward, out) >= value(inst.reward, kept) / 2 - TOL
                for i in bits(out):
                    ok = ok and (
                        marginal(inst.reward, out, i)
                        >= marginal(inst.reward, team, i) / 2 - TOL
                    )
                if not ok:
                    violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 60.0
    _report(
        "criterion 2 (XOS recovery + downsizing)",
        f"{len(instances)} instances, {runs} runs, {elapsed:.1f}s",
    )


def test_criterion_03_reduction_constants():
    start = time.perf_counter()
    budgets = (0.25, 0.5, 1.0)
    objectives = (REWARD, PROFIT, WELFARE)
    checks = violations = 0

    for inst in xos_corpus(60, seed=1004, n_lo=4, n_hi=8):
        for budget in budgets:
            hub = brute_force_max(REWARD, inst, budget, light_only=True)
            for obj in objectives:
                checks += 2
                opt = brute_force_max(obj, inst, budget).value
                fwd = reduce_to_mrl(inst, budget, obj, hub.optimum, gamma=1.0)
                if 41 * fwd.candidate_value < opt - TOL or fwd.budget_used > budget + TOL:
                    violations += 1
                back = reduce_from_mrl(inst, budget, 0.5, obj, brute_solver, gamma=1.0)
                if 20 * back.candidate_value < hub.value - TOL or back.budget_used > budget + TOL:
                    violations += 1

    for inst in submodular_corpus(60, seed=1005, n_lo=4, n_hi=8):
        for budget in budgets:
            hub = brute_force_max(REWARD, inst, budget, light_only=True)
            for obj in objectives:
                checks += 2
                opt = brute_force_max(obj, inst, budget).value
                fwd = reduce_to_mrl(
                    inst, budget, obj, hub.optimum, gamma=1.0, path="submodular"
                )
                if 7 * fwd.candidate_value < opt - TOL or fwd.budget_used > budget + TOL:
                    violations += 1
                back = reduce_from_mrl(
                    inst, budget, 0.5, obj, brute_solver, gamma=1.0, path="submodular"
                )
                if 6 * back.candidate_value < hub.value - TOL or back.budget_used > budget + TOL:
                    violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    _report(
        "criterion 3 (reduction constants 41/20 and 7/6)",
        f"{checks} reduction checks, {elapsed:.1f}s",
    )


def test_criterion_04_fptas():
    start = time.perf_counter()
    instances = additive_corpus(50, n=12, seed=1006)
    budget = 0.75
    for inst in instances:
        opt = brute_force_max(PROFIT, inst, budget).value
        n_anchors = len({v for v in inst.reward.values if v > 0})
        for eps in (0.3, 0.1, 0.02):
            res = fptas_additive_profit(inst, budget, eps)
            assert res.value >= (1 - eps) * opt - TOL
            assert res.payment <= budget + TOL
            table_cells = ceil_tol(inst.n * inst.n / eps) + 1
            assert res.enumerated == n_anchors * table_cells
            assert table_cells <= ceil_tol(144 / eps) + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        "criterion 4 (profit FPTAS ratio + table size)",
        f"{len(instances)} instances x 3 epsilons, {elapsed:.1f}s",
    )


def test_criterion_05_submodular_pof_tightness():
    cells = 0
    for big in (0.5, 1.0):
        for tenth in range(1, 10):
            small = tenth / 10
            if small >= big:
                continue
            for n in (4, 8, 10):
                inst = gen_additive_lb(n, small, big)
                expected = float(min(ceil_tol(2 * big / small) - 1, n))
                for obj in (REWARD, WELFARE):
                    rep = pof(inst, PofQuery(b=small, B=big, objective=obj))
                    assert rep.ratio is not None
                    assert abs(rep.ratio - expected) <= TOL, (small, big, n, rep)
                    cells += 1
    _report("criterion 5 (exact submodular PoF)", f"{cells} grid cells, all exact")


def test_criterion_06_xos_separation():
    rep = pof(gen_xos_separation(0.5, 1.0), PofQuery(b=0.5, B=1.0, objective=REWARD))
    assert rep.ratio == pytest.approx(2.5, abs=TOL)
    _report("criterion 6 (XOS separation)", f"realized reward ratio {rep.ratio}")


def test_criterion_07_subadditive_growth():
    ratios = {}
    for n in (4, 16):
        start = time.perf_counter()
        inst = gen_subadditive_lb(n, 0.9, 1.0)
        rep = pof(inst, PofQuery(b=0.9, B=1.0, singletons_feasible_at_b=True))
        elapsed = time.perf_counter() - start
        if n == 16:
            assert elapsed < 10.0
        floor = (2 / math.sqrt(n) + 0.5) / (2 / math.sqrt(n))
        assert rep.ratio >= floor - TOL
        ratios[n] = rep.ratio
    assert ratios[4] <= ratios[16] + TOL  # non-decreasing in sqrt(n)
    _report(
        "criterion 7 (subadditive growth)",
        f"ratios n=4: {ratios[4]:.3f}, n=16: {ratios[16]:.3f}",
    )


def test_criterion_08_profit_pof_bounds():
    checked = 0
    for inst in submodular_corpus(25, seed=1007, n_hi=8) + xos_corpus(
        25, seed=1008, n_hi=8
    ):
        small = max(max(singleton_payment(inst, i) for i in range(inst.n)), 0.25)
        if small >= 1.0:
            continue
        reward_rep = pof(inst, PofQuery(b=small, B=1.0, objective=REWARD))
        profit_rep = pof(inst, PofQuery(b=small, B=1.0, objective=PROFIT))
        if reward_rep.ratio is None or profit_rep.ratio is None:
            continue
        assert profit_rep.ratio <= reward_rep.ratio + TOL
        checked += 1
    assert checked >= 30

    two = pof(
        gen_profit_lb_two(0.4, 1.0, 1e-3),
        PofQuery(b=0.4, B=1.0, objective=PROFIT),
    )
    assert two.ratio >= 1.598
    many = pof(
        gen_profit_lb_k(1 / 3, 1.0, 3, 1e-3),
        PofQuery(b=1 / 3, B=1.0, objective=PROFIT),
    )
    assert many.ratio >= 1.795
    _report(
        "criterion 8 (profit PoF)",
        f"{checked} dominance checks; two-agent {two.ratio:.4f}, k-agent {many.ratio:.4f}",
    )


def test_criterion_09_bad_equilibria():
    inst = Instance(1, (0.5,), Additive((1.0,)))
    assert enumerate_equilibria(inst, Contract((0.5,))) == [0, 0b1]
    # at the half-reward contract, effort earns the principal 1/2
    assert profit(inst, 0b1) == pytest.approx(0.5)
    swept = 0
    for k in range(0, 501):
        alpha = k * 1e-3  # budget-feasible: alpha <= 1/2
        contract = Contract((alpha,))
        equilibria = enumerate_equilibria(inst, contract)
        assert any(
            abs(contract_profit(inst, contract, team)) <= 1e-12
            for team in equilibria
        )
        swept += 1
    _report("criterion 9 (bad equilibria)", f"{swept} contracts swept, step 1e-3")


def test_criterion_10_demand_oracle_equivalence():
    rng = random.Random(1009)
    instances = xos_corpus(50, seed=1010, n_lo=6, n_hi=12)
    pairs = 0
    for inst in instances:
        table = to_table(inst.reward)
        for _ in range(10):
            prices = [rng.randrange(0, 33) / 32 for _ in range(inst.n)]
            assert demand(inst.reward, prices) == demand(table, prices)
            pairs += 1
    assert pairs == 500
    _report("criterion 10 (demand oracle equivalence)", f"{pairs} exact matches")
