"""Price of frugality: realized ratios, theoretical bounds, hard instances.

The price of frugality at budgets b < B is the ratio between the best
objective value achievable at the large budget and at the small one,

    PoF(b, B) = MaxObjective(B) / MaxObjective(b),

meaningful on instances where every singleton is already affordable at b.
This module computes realized ratios by exhaustive search, evaluates the
matching theoretical formulas, and generates the worst-case instance
families that make the bounds (near-)tight:

* ``gen_additive_lb``: M equally valuable agents priced so that exactly one
  fits at b and all M fit at B; reward and welfare ratios equal
  min(ceil(2B/b) - 1, n) exactly.
* ``gen_xos_separation``: a three-agent clause instance whose reward ratio
  is 5/2 even with b arbitrarily close to B.
* ``gen_subadditive_lb``: a threshold construction whose reward ratio grows
  like sqrt(n), beating every budget-proportional bound.
* ``gen_profit_lb_two`` / ``gen_profit_lb_k``: additive instances whose
  profit ratios approach 2 - b and k (2 - k b) / (2 - b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .core import (
    EPS,
    Additive,
    Instance,
    InputError,
    PreconditionError,
    Table,
    XosClauses,
    _best,
    _check_agent_count,
    _enum_gate,
    _subset_sums,
    ceil_tol,
    floor_tol,
    singleton_payment,
    team_table,
)
from .objectives import REWARD, Objective, evaluate_all

BoundKind = Literal[
    "submodular-exact", "xos-asymptotic", "profit-upper", "profit-lower"
]


@dataclass(frozen=True)
class PofQuery:
    """Budgets b < B, the objective, and the singleton-feasibility flag."""

    b: float
    B: float
    objective: Objective = REWARD
    singletons_feasible_at_b: bool = False

    def __post_init__(self):
        _check_budgets(self.b, self.B)


@dataclass(frozen=True)
class PofReport:
    """Realized optima and ratio next to the applicable theoretical bound.

    ``ratio`` is None when the small-budget optimum is zero (possible only
    without the singleton-feasibility flag). The asymptotic bound kind is
    an envelope up to constants and presumes an XOS reward; the other kinds
    are hard bounds.
    """

    b: float
    B: float
    objective: str
    max_at_B: float
    max_at_b: float
    ratio: float | None
    theoretical_bound: float
    bound_kind: BoundKind


def pof(inst: Instance, query: PofQuery) -> PofReport:
    """Realized price of frugality of one instance via exhaustive optima."""
    if query.singletons_feasible_at_b:
        worst = max(singleton_payment(inst, i) for i in range(inst.n))
        if worst > query.b + EPS:
            raise PreconditionError(
                "singletons_feasible_at_b set but some singleton exceeds b"
            )
    _, pay = team_table(inst)
    vals = evaluate_all(query.objective, inst)
    hi = float(vals[_best(vals, pay, query.B)])
    lo = float(vals[_best(vals, pay, query.b)])
    if lo <= 0.0:
        if query.singletons_feasible_at_b:
            raise PreconditionError(
                "small-budget optimum is zero; the ratio is undefined"
            )
        ratio = None
    else:
        ratio = hi / lo
    func_class = "submodular" if inst._submodular else "xos"
    kind = pof_bound_kind(query.objective.name, func_class)
    return PofReport(
        b=query.b,
        B=query.B,
        objective=query.objective.name,
        max_at_B=hi,
        max_at_b=lo,
        ratio=ratio,
        theoretical_bound=pof_bound(query.b, query.B, inst.n, kind),
        bound_kind=kind,
    )


def pof_bound_kind(objective: str, func_class: str) -> BoundKind:
    """The bound that applies to a named objective over a function class."""
    if func_class in ("submodular", "additive"):
        if objective in ("reward", "welfare"):
            return "submodular-exact"
        if objective == "profit":
            return "profit-upper"
    return "xos-asymptotic"


def _head_count(b: float, B: float, n: int) -> int:
    """min(ceil(2B/b) - 1, n), clamped first: 2B/b overflows at a subnormal b."""
    return ceil_tol(min(2 * B / b, n + 1)) - 1


def best_head_count(b: float, B: float, n: int) -> int:
    """Head count k of the profit lower-bound curve: the best k fitting under b."""
    _check_budget_pair(b, B)
    _check_agent_count(n)
    return min(floor_tol(min(1 / b + 0.5, n)), _head_count(b, B, n))


def pof_bound(b: float, B: float, n: int, kind: BoundKind) -> float:
    """Theoretical price-of-frugality formula of one bound kind.

    ``submodular-exact`` (submodular reward/welfare): exactly
    min(ceil(2B/b) - 1, n). ``profit-upper``: the same expression as an
    upper bound on submodular profit. ``profit-lower``: the lower-bound
    curve max(2 - b, k (2 - k b) / (2 - b)) with k = ``best_head_count``.
    ``xos-asymptotic``: the envelope min(B/b, n). Equal budgets give 1 for
    every kind.
    """
    _check_budgets(b, B)
    _check_agent_count(n)
    if kind not in get_args(BoundKind):
        raise InputError(f"unknown bound kind {kind!r}")
    if b == B:
        return 1.0
    if kind in ("submodular-exact", "profit-upper"):
        return float(_head_count(b, B, n))
    if kind == "xos-asymptotic":
        return min(B / b, float(n))
    k = best_head_count(b, B, n)
    return max(2.0 - b, k * (2.0 - k * b) / (2.0 - b))


# ---------------------------------------------------------------------------
# lower-bound instance generators (0-based agent indexing throughout)
# ---------------------------------------------------------------------------


def gen_additive_lb(n: int, b: float, B: float) -> Instance:
    """Additive-valued family whose reward and welfare ratios hit the bound.

    The first M = min(ceil(2B/b) - 1, n) agents each contribute 1/M; their
    common cost makes a single agent affordable at b, any pair unaffordable
    at b, and the full head group cost exactly at most B. Agents beyond M
    are free and worthless, so every singleton stays affordable. The reward
    is emitted as an explicit table so class checkers can audit it.
    """
    _check_budget_pair(b, B)
    _check_agent_count(n)
    _enum_gate(n)
    m_heads = _head_count(b, B, n)
    # B / M^2 is the scale of the head costs; when n itself is the binding
    # head count it can exceed b / M, which would break singleton
    # feasibility at b, so the cost is capped there.
    head_cost = min(B / (m_heads * m_heads), b / m_heads)
    costs = [head_cost] * m_heads + [0.0] * (n - m_heads)
    heads = _subset_sums(np.array([1] * m_heads + [0] * (n - m_heads), np.uint8), n)
    return Instance(n=n, costs=tuple(costs), reward=Table._owning(heads / m_heads))


def gen_xos_separation(b: float, B: float) -> Instance:
    """Three-agent clause instance with reward ratio 5/2 at nearby budgets.

    Valid for B <= 2b; larger B is clamped to 2b (the ratio only grows with
    B, so proving it at the clamped budget suffices). Agents 0 and 1 carry
    value 2/5 on the main clause and cost B/5; agent 2 is free, worth 1/5
    on the main clause but 2/5 on its own clause. Every pair or triple
    costs exactly B while each singleton costs at most B/2 <= b.
    """
    _check_budget_pair(b, B)
    eff = min(B, 2 * b)
    clauses = ((0.4, 0.4, 0.2), (0.0, 0.0, 0.4))
    return Instance(
        n=3, costs=(eff / 5, eff / 5, 0.0), reward=XosClauses(clauses)
    )


def gen_subadditive_lb(n: int, b: float, B: float) -> Instance:
    """Threshold construction with reward ratio on the order of sqrt(n).

    Teams up to half the agents are worth 1/sqrt(n) + |S|/n; larger teams
    jump to 2/sqrt(n) + 1/2, and the uniform cost prices the jump team at
    exactly B. The function is subadditive but not submodular (the jump
    marginal exceeds the mid-range marginal). For n < 16 the raw values
    exceed 1, so rewards and costs are scaled jointly, which changes no
    payment and no ratio. Requires B <= n b / 2.
    """
    _check_budget_pair(b, B)
    if n < 4 or n % 2:
        raise InputError("need an even agent count of at least 4")
    _enum_gate(n)
    if B > n * b / 2 + EPS:
        raise InputError("requires B <= n * b / 2")
    root = math.sqrt(n)
    peak = 2 / root + 0.5
    rho = min(1.0, 1.0 / peak)
    cost = rho * B / ((n / 2 + 1) * root)
    half = [rho * (1 / root + size / n) for size in range(1, n // 2 + 1)]
    by_size = np.array([0.0, *half] + [rho * peak] * (n // 2))
    vals = by_size[_subset_sums(np.ones(n, np.uint8), n)]
    return Instance(n=n, costs=(cost,) * n, reward=Table._owning(vals))


def gen_profit_lb_two(b: float, B: float, eps: float) -> Instance:
    """Two-agent additive instance with profit ratio near 2 - b.

    Agent 0 is worth 1/2 at singleton price exactly b; agent 1 is worth
    1/2 - b/2 at a vanishing price. Together they are affordable at B but
    not at b, and the ratio approaches 2 - b as eps shrinks.
    """
    _check_budget_pair(b, B)
    if not 0 < eps < B - b:
        raise InputError("requires 0 < eps < B - b")
    tail = 0.5 - b / 2
    return Instance(
        n=2,
        costs=(b / 2, eps * tail * tail),
        reward=Additive((0.5, tail)),
    )


def gen_profit_lb_k(b: float, B: float, k: int, eps: float) -> Instance:
    """k-agent uniform additive instance with profit ratio near the k-curve.

    Each agent is worth 1/k at singleton price (b + eps)/2, so only
    singletons fit at b while the whole team fits at B; the ratio
    approaches k (2 - k b) / (2 - b) as eps shrinks.
    """
    _check_budget_pair(b, B)
    if not isinstance(k, int) or k < 1:
        raise InputError("k must be a positive integer")
    if k * b >= 2 * B - EPS:
        raise InputError("requires k < 2B / b")
    if not 0 < eps < 2 * B / k - b:
        raise InputError("requires 0 < eps < 2B/k - b")
    return Instance(
        n=k,
        costs=((b / 2 + eps / 2) / k,) * k,
        reward=Additive((1.0 / k,) * k),
    )


def value_payment_curve(inst: Instance, obj: Objective) -> list[tuple[float, float]]:
    """Breakpoints of the step function p -> best objective at budget p.

    Returns (payment, value) vertices sorted by payment, keeping only
    points where the running maximum increases; plot-ready step data.
    """
    _, pay = team_table(inst)
    finite = pay != math.inf
    pay, vals = pay[finite], evaluate_all(obj, inst)[finite]
    order = np.lexsort((vals, pay))
    pay, vals = pay[order], vals[order]
    # vertices: strict new running maxima, the last one at each payment
    new = vals > np.concatenate(([-math.inf], np.maximum.accumulate(vals)[:-1]))
    pay, vals = pay[new], vals[new]
    last = np.append(pay[1:] != pay[:-1], True)
    return list(zip(pay[last].tolist(), vals[last].tolist()))


def _check_budgets(b: float, B: float) -> None:
    if not 0 < b <= B <= 1:
        raise InputError("budgets must satisfy 0 < b <= B <= 1")


def _check_budget_pair(b: float, B: float) -> None:
    if not 0 < b < B <= 1:
        raise InputError("budgets must satisfy 0 < b < B <= 1")
