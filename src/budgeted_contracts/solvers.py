"""Exact and approximate solvers for budget-feasible team selection.

``brute_force_max`` enumerates every budget-feasible team at desk scale and
is the oracle against which everything else is judged. For additive rewards
two polynomial schemes are provided: a profit FPTAS built on a rounded-reward
table (guess the largest singleton value in the optimum, round all rewards to
multiples of a delta grid, then tabulate the cheapest team per rounded-reward
level), and a classic value-rounding knapsack FPTAS for reward and welfare,
which for additive rewards are plain knapsack problems with item weights
c_i / f({i}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ENUM_CAP,
    EPS,
    Additive,
    Instance,
    InputError,
    PreconditionError,
    SizeCapError,
    ceil_tol,
    floor_tol,
    light_agents,
    payment,
    profit,
    team_table,
)
from .objectives import Objective, Reward, Welfare, evaluate, evaluate_all

#: Payment comparisons inside the dynamic programs use a tighter tolerance
#: than the general checker tolerance to avoid drift across table cells.
PAY_TOL = 1e-12


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a maximization: team, its value and payment, work done."""

    optimum: int
    value: float
    payment: float
    enumerated: int


def brute_force_max(
    obj: Objective,
    inst: Instance,
    budget: float,
    light_only: bool = False,
    cap: int = ENUM_CAP,
) -> SolveResult:
    """Exhaustive maximum of an objective over budget-feasible teams.

    With ``light_only`` the search is restricted to teams of light agents.
    Ties break toward the smaller bitmask; the empty team is always feasible,
    so the result is never worse than incentivizing nobody.
    """
    if inst.n > cap:
        raise SizeCapError(f"brute force capped at n <= {cap}")
    if budget <= 0:
        raise InputError("budget must be positive")
    f, pay = team_table(inst)
    allowed = ~(pay > budget + EPS)
    light = (1 << inst.n) - 1
    if light_only:
        light = light_agents(inst)
        allowed &= (np.arange(1 << inst.n) & ~light) == 0
    # the empty team is allowed and has a finite value, so the first
    # maximum below is an allowed team: the smallest bitmask among ties
    vals = evaluate_all(obj, inst, f, pay)
    best = int(np.argmax(np.where(allowed, vals, -math.inf)))
    examined = 1 << light.bit_count()
    return SolveResult(best, float(vals[best]), float(pay[best]), examined)


# ---------------------------------------------------------------------------
# rounded-reward table and the profit FPTAS (additive rewards)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FptasParams:
    """Accuracy epsilon, the guessed anchor value, and delta = epsilon / n."""

    epsilon: float
    anchor: float
    delta: float

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise InputError("epsilon must lie in (0, 1)")
        if self.anchor <= 0:
            raise InputError("anchor must be positive")


@dataclass(frozen=True, eq=False)
class RoundedTable:
    """Cheapest team per rounded-reward level.

    Level k holds the minimum of sum_i c_i / f({i}) over teams whose rounded
    reward reaches k * delta * anchor; rounded rewards are exact multiples of
    delta * anchor, so levels are exact integers. Unreachable levels carry an
    infinite payment. Teams are reconstructed on demand from the retained
    dynamic-programming stages.
    """

    params: FptasParams
    n_levels: int
    payments: tuple[float, ...]
    _stages: np.ndarray = field(repr=False)
    _items: tuple[tuple[int, int, float], ...] = field(repr=False)

    def team(self, level: int) -> int:
        """Reconstruct the stored team for a level (inf level raises)."""
        if not 0 <= level <= self.n_levels:
            raise InputError("level out of range")
        if self.payments[level] == math.inf:
            raise InputError("level is unreachable")
        team, k = 0, level
        for stage in range(len(self._items), 0, -1):
            agent, lev, weight = self._items[stage - 1]
            if self._stages[stage][k] == self._stages[stage - 1][k]:
                continue
            team |= 1 << agent
            k = max(k - lev, 0)
        return team


def build_rounded_table(inst: Instance, epsilon: float, anchor: float) -> RoundedTable:
    """Tabulate minimal payments per rounded-reward level for one anchor."""
    values = _additive_values(inst)
    n = inst.n
    params = FptasParams(epsilon=epsilon, anchor=anchor, delta=epsilon / n)
    grid = params.delta * anchor
    n_levels = ceil_tol(n / params.delta)

    items = []
    for i, v in enumerate(values):
        if v <= 0:
            continue  # contributes no reward; never lowers a level's payment
        items.append((i, min(floor_tol(v / grid), n_levels), inst.costs[i] / v))

    stages = np.full((len(items) + 1, n_levels + 1), math.inf)
    stages[0][0] = 0.0
    for s, (_, lev, weight) in enumerate(items, start=1):
        prev = stages[s - 1]
        shifted = prev[np.maximum(np.arange(n_levels + 1) - lev, 0)]
        stages[s] = np.minimum(prev, shifted + weight)
    return RoundedTable(
        params=params,
        n_levels=n_levels,
        payments=tuple(float(p) for p in stages[-1]),
        _stages=stages,
        _items=tuple(items),
    )


def fptas_additive_profit(inst: Instance, budget: float, epsilon: float) -> SolveResult:
    """(1 - epsilon)-approximate profit maximization for additive rewards.

    For each candidate anchor (a distinct positive singleton value), build
    the rounded table and keep the budget-feasible level maximizing the
    proxy profit (1 - payment) * level * delta * anchor, preferring lower
    levels on ties; the best candidate team across anchors is returned with
    its true profit.
    """
    values = _additive_values(inst)
    if not 0 < budget <= 1:
        raise InputError("budget must lie in (0, 1]")
    if not 0 < epsilon < 1:
        raise InputError("epsilon must lie in (0, 1)")
    anchors = sorted({v for v in values if v > 0})
    if not anchors:
        return SolveResult(0, profit(inst, 0), 0.0, 1)

    candidates = []
    examined = 0
    for anchor in anchors:
        table = build_rounded_table(inst, epsilon, anchor)
        examined += table.n_levels + 1
        grid = table.params.delta * anchor
        best_level, best_proxy = 0, 0.0
        for k, pay in enumerate(table.payments):
            if pay > budget + PAY_TOL:
                continue
            proxy = (1.0 - pay) * k * grid
            if proxy > best_proxy:
                best_level, best_proxy = k, proxy
        candidates.append(table.team(best_level))

    best_team, best_profit = 0, profit(inst, 0)
    for team in candidates:
        val = profit(inst, team)
        if val > best_profit or (val == best_profit and team < best_team):
            best_team, best_profit = team, val
    return SolveResult(best_team, best_profit, payment(inst, best_team), examined)


def knapsack_fptas(
    inst: Instance, budget: float, epsilon: float, obj: Objective
) -> SolveResult:
    """Value-rounding knapsack FPTAS for additive reward or welfare.

    Items are agents with weight c_i / f({i}) and value phi({i}); values are
    rounded down on a grid of epsilon * max_value / n so the table stays
    polynomial, and the returned team is (1 - epsilon)-optimal.
    """
    values = _additive_values(inst)
    if not isinstance(obj, (Reward, Welfare)):
        raise PreconditionError("knapsack reduction applies to reward or welfare only")
    if not 0 < budget <= 1:
        raise InputError("budget must lie in (0, 1]")
    if not 0 < epsilon < 1:
        raise InputError("epsilon must lie in (0, 1)")

    items = []
    for i, v in enumerate(values):
        worth = v if isinstance(obj, Reward) else v - inst.costs[i]
        if worth <= 0 or v <= 0:
            continue
        weight = inst.costs[i] / v
        if weight > budget + PAY_TOL:
            continue
        items.append((i, weight, worth))
    if not items:
        return SolveResult(0, evaluate(obj, inst, 0), 0.0, 1)

    scale = epsilon * max(w for _, _, w in items) / len(items)
    levels = [max(floor_tol(w / scale), 0) for _, _, w in items]
    total = sum(levels)
    stages = np.full((len(items) + 1, total + 1), math.inf)
    stages[0][0] = 0.0
    for s, ((_, weight, _), lev) in enumerate(zip(items, levels), start=1):
        prev = stages[s - 1]
        stages[s] = prev.copy()
        if lev == 0:
            # zero rounded value never helps the value side
            continue
        stages[s][lev:] = np.minimum(prev[lev:], prev[:-lev] + weight)
    feasible = np.nonzero(stages[-1] <= budget + PAY_TOL)[0]
    best_level = int(feasible.max())

    team, k = 0, best_level
    for s in range(len(items), 0, -1):
        if stages[s][k] == stages[s - 1][k]:
            continue
        team |= 1 << items[s - 1][0]
        k -= levels[s - 1]
    return SolveResult(
        team, evaluate(obj, inst, team), payment(inst, team), total + 1
    )


def _additive_values(inst: Instance) -> tuple[float, ...]:
    if not isinstance(inst.reward, Additive):
        raise PreconditionError("this solver requires an additive reward")
    return inst.reward.values
