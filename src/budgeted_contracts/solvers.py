"""Exact and approximate solvers for budget-feasible team selection.

``brute_force_max`` enumerates every budget-feasible team at desk scale and
is the oracle against which everything else is judged. For additive rewards
two polynomial schemes are provided: a profit FPTAS built on a rounded-reward
table (guess the largest singleton value in the optimum, round all rewards to
multiples of a delta grid, then tabulate the cheapest team per rounded-reward
level), and a classic value-rounding knapsack FPTAS for reward and welfare,
which for additive rewards are plain knapsack problems with item weights
c_i / f({i}). Both schemes run one 0/1 dynamic program over rounded levels
(Ibarra-Kim 1975, Lawler 1979): a single payment row updated in place per
item, plus a boolean take matrix from which teams are reconstructed. The
program is bounded by the budget: weights are non-negative, so each item step
fills only the levels a team within the budget can reach, and both the row
and the take rows stop at that frontier.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Additive,
    Instance,
    InputError,
    PreconditionError,
    _best,
    _best_team,
    ceil_tol,
    check_budget,
    check_epsilon,
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
) -> SolveResult:
    """Exhaustive maximum of an objective over budget-feasible teams.

    With ``light_only`` the search is restricted to teams of light agents.
    Ties break toward the smaller bitmask; the empty team is always feasible,
    so the result is never worse than incentivizing nobody.
    """
    check_budget(budget)
    f, pay = team_table(inst)
    light = (1 << inst.n) - 1
    allowed = None
    if light_only:
        light = light_agents(inst)
        allowed = (np.arange(1 << inst.n) & ~light) == 0
    vals = evaluate_all(obj, inst, f, pay)
    best = _best(vals, pay, budget, allowed)
    examined = 1 << light.bit_count()
    return SolveResult(best, float(vals[best]), float(pay[best]), examined)


# ---------------------------------------------------------------------------
# the cheapest-payment-per-level dynamic program shared by both FPTAS
# ---------------------------------------------------------------------------

#: An item of the level DP: (agent, rounded level, payment weight).
Item = tuple[int, int, float]


def _cheapest_per_level(
    items: Sequence[Item], n_levels: int, at_least: bool, cap: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Minimal payment at most ``cap`` per level over 0/1 choices of items.

    Returns the final payment row (level 0 costs nothing; a level no team
    within ``cap`` reaches is infinite) and a ragged take matrix, one bool
    row per item: ``take[s][k]`` is True exactly where item s lowered level
    k's payment. With ``at_least`` a level counts teams whose level sum
    reaches it (an item lifts every level below its own, the clamp at 0);
    otherwise the sum must hit the level exactly and an item leaves levels
    below its own alone.

    ``front`` is the last level whose payment is at most ``cap``. Weights
    are non-negative, so a payment above ``cap`` never leads to one within
    it: each item step fills only levels up to ``front + lev``, and on every
    cell within ``cap`` the row and the take bits equal those of the
    full-width table. Reconstruction visits only such cells.
    """
    cur = np.full(n_levels + 1, math.inf)
    cur[0] = 0.0
    cand = np.empty_like(cur)
    take = []
    front = 0
    for _, lev, weight in items:
        width = min(n_levels, front + lev) + 1
        row, new = cur[:width], cand[:width]
        np.add(cur[: width - lev], weight, out=new[lev:])
        new[:lev] = cur[0] + weight if at_least else math.inf
        take.append(new < row)
        np.minimum(row, new, out=row)
        (within,) = (row[front + 1 :] <= cap).nonzero()
        if within.size:
            front += int(within[-1]) + 1
    cur[front + 1 :] = math.inf
    return cur, take


def _walk_back(take: Sequence[np.ndarray], items: Sequence[Item], level: int) -> int:
    """Reconstruct the team behind ``level`` from a take matrix.

    An exact-level table never takes an item below its own level, so the
    clamp at 0 acts only on at-least tables.
    """
    team, k = 0, level
    for s in range(len(items) - 1, -1, -1):
        if take[s][k]:
            agent, lev, _ = items[s]
            team |= 1 << agent
            k = max(k - lev, 0)
    return team


# ---------------------------------------------------------------------------
# rounded-reward table and the profit FPTAS (additive rewards)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RoundedTable:
    """Cheapest team per rounded-reward level.

    Level k holds the minimum of sum_i c_i / f({i}) over teams whose rounded
    reward reaches k * grid, where grid = (epsilon / n) * anchor; rounded
    rewards are exact multiples of grid, so levels are exact integers.
    ``payments`` is the read-only float64 row of these minima; a level that
    no team within the budget reaches carries an infinite payment, so the
    finite levels are a prefix. Teams are reconstructed on demand from a
    boolean take matrix, one row per item as wide as the levels that item
    step filled, that records where each item lowered a level's payment.
    """

    grid: float
    n_levels: int
    payments: np.ndarray
    _take: list[np.ndarray] = field(repr=False)
    _items: tuple[Item, ...] = field(repr=False)

    def team(self, level: int) -> int:
        """Reconstruct the stored team for a level (inf level raises)."""
        if not 0 <= level <= self.n_levels:
            raise InputError("level out of range")
        if self.payments[level] == math.inf:
            raise InputError("level is unreachable")
        return _walk_back(self._take, self._items, level)


def build_rounded_table(
    inst: Instance, epsilon: float, anchor: float, budget: float
) -> RoundedTable:
    """Tabulate minimal payments per rounded-reward level for one anchor.

    Only payments within ``budget`` are kept; every level that no team
    within the budget reaches reads infinite.
    """
    values = _additive_values(inst)
    check_epsilon(epsilon)
    check_budget(budget)
    if not 0 < anchor < math.inf:  # NaN fails every comparison
        raise InputError(f"anchor must be positive and finite, got {anchor!r}")
    n = inst.n
    delta = epsilon / n
    grid = delta * anchor
    n_levels = ceil_tol(n / delta)

    items = []
    for i, v in enumerate(values):
        if v <= 0:
            continue  # contributes no reward; never lowers a level's payment
        items.append((i, min(floor_tol(v / grid), n_levels), inst.costs[i] / v))

    payments, take = _cheapest_per_level(
        items, n_levels, at_least=True, cap=budget + PAY_TOL
    )
    payments.flags.writeable = False
    return RoundedTable(
        grid=grid,
        n_levels=n_levels,
        payments=payments,
        _take=take,
        _items=tuple(items),
    )


def fptas_additive_profit(inst: Instance, budget: float, epsilon: float) -> SolveResult:
    """(1 - epsilon)-approximate profit maximization for additive rewards.

    For each candidate anchor (a distinct positive singleton value), build
    the rounded table and keep the budget-feasible level maximizing the
    proxy profit (1 - payment) * level * grid, preferring lower levels on
    ties; the best candidate team across anchors is returned with its true
    profit. One table is alive at a time.
    """
    values = _additive_values(inst)
    check_budget(budget)
    check_epsilon(epsilon)
    anchors = sorted({v for v in values if v > 0})
    if not anchors:
        return SolveResult(0, profit(inst, 0), 0.0, 1)

    candidates = []
    examined = 0
    for anchor in anchors:
        table = build_rounded_table(inst, epsilon, anchor, budget)
        examined += table.n_levels + 1
        # an at-least row is non-decreasing, so the levels within the budget
        # are a prefix; argmax takes the lowest level among ties, and level 0
        # (payment 0.0) stands unless some proxy is positive
        pay = table.payments
        pay = pay[: np.searchsorted(pay, budget + PAY_TOL, side="right")]
        proxy = (1.0 - pay) * np.arange(len(pay)) * table.grid
        best_level = int(np.argmax(proxy))
        if proxy[best_level] <= 0.0:
            best_level = 0
        candidates.append(table.team(best_level))
        del table, pay  # free this table before the next anchor's is built

    best_team, best_profit = _best_team([0, *candidates], lambda t: profit(inst, t))
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
    check_budget(budget)
    check_epsilon(epsilon)

    items = []
    for i, v in enumerate(values):
        worth = evaluate(obj, inst, 1 << i)
        if worth <= 0 or v <= 0:
            continue
        weight = inst.costs[i] / v
        if weight > budget + PAY_TOL:
            continue
        items.append((i, weight, worth))
    if not items:
        return SolveResult(0, evaluate(obj, inst, 0), 0.0, 1)

    scale = epsilon * max(w for _, _, w in items) / len(items)
    dp_items = [
        (i, max(floor_tol(worth / scale), 0), weight) for i, weight, worth in items
    ]
    total = sum(lev for _, lev, _ in dp_items)
    cap = budget + PAY_TOL
    payments, take = _cheapest_per_level(dp_items, total, at_least=False, cap=cap)
    best_level = int(np.nonzero(payments <= cap)[0].max())
    team = _walk_back(take, dp_items, best_level)
    return SolveResult(
        team, evaluate(obj, inst, team), payment(inst, team), total + 1
    )


def _additive_values(inst: Instance) -> tuple[float, ...]:
    if not isinstance(inst.reward, Additive):
        raise PreconditionError("this solver requires an additive reward")
    return inst.reward.values
