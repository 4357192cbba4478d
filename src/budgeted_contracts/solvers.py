"""Exact and approximate solvers for budget-feasible team selection.

``brute_force_max`` enumerates every budget-feasible team at desk scale and
is the oracle against which everything else is judged. For additive rewards
two polynomial schemes are provided, both 0/1 dynamic programs over rounded
levels with item weights c_i / f({i}) (Ibarra-Kim 1975, Lawler 1979):

- The profit FPTAS guesses the largest singleton value in the optimum (the
  anchor), rounds every reward down to a multiple of a delta grid set by
  that anchor, and finds the cheapest team per rounded-reward level. All
  anchors run in one program. For each anchor the cheapest payment per
  at-least level never falls as the level rises, so within the budget it
  is a step function; the program keeps only its steps, the Pareto points
  (level, payment) (Nemhauser-Ullmann 1969), and advances every anchor's
  points with one sort per item. Teams are rebuilt from the points kept
  after each item.
- The knapsack FPTAS for reward and welfare, which for additive rewards are
  plain knapsack problems, rounds values down on one grid and keeps a
  single payment row over exact levels, updated in place per item, plus a
  boolean take matrix from which the team is rebuilt. Each item step fills
  only the levels a team within the budget can reach.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EPS,
    Additive,
    Instance,
    InputError,
    PreconditionError,
    _best,
    _best_team,
    _level_gate,
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
# the exact-level dynamic program of the knapsack FPTAS
# ---------------------------------------------------------------------------

#: An item of the level DP: (agent, rounded level, payment weight).
Item = tuple[int, int, float]


def _cheapest_per_level(
    items: Sequence[Item], n_levels: int, cap: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Minimal payment at most ``cap`` per exact level over 0/1 item choices.

    Returns the final payment row (level 0 costs nothing; a level no team
    within ``cap`` hits is infinite) and a ragged take matrix, one bool row
    per item: ``take[s][k]`` is True exactly where item s lowered level k's
    payment.

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
        new[:lev] = math.inf
        take.append(new < row)
        np.minimum(row, new, out=row)
        (within,) = (row[front + 1 :] <= cap).nonzero()
        if within.size:
            front += int(within[-1]) + 1
    cur[front + 1 :] = math.inf
    return cur, take


def _walk_back(take: Sequence[np.ndarray], items: Sequence[Item], level: int) -> int:
    """Reconstruct the team behind ``level`` from a take matrix."""
    team, k = 0, level
    for s in range(len(items) - 1, -1, -1):
        if take[s][k]:
            agent, lev, _ = items[s]
            team |= 1 << agent
            k -= lev
    return team


# ---------------------------------------------------------------------------
# Pareto steps of the at-least level DP and the profit FPTAS (additive rewards)
# ---------------------------------------------------------------------------


def _floor_levels(x: np.ndarray, top: int) -> np.ndarray:
    """``min(floor_tol(x), top)`` per entry, as int64.

    Clamping before flooring is exact, since ``floor_tol`` maps every
    x >= top to top or more; it also maps an infinite x to ``top``.
    ``np.rint`` rounds half to even, as ``round`` does.
    """
    x = np.minimum(x, top)
    nearest = np.rint(x)
    return np.where(np.abs(x - nearest) <= EPS, nearest, np.floor(x)).astype(np.int64)


@dataclass(frozen=True, eq=False)
class _LevelSteps:
    """Cheapest payment per at-least level, for many anchors, as Pareto steps.

    Anchor a's row after s items is row_s(a, k): the least payment, at most
    the cap, over teams of the first s items whose levels ``lev[a]`` sum to
    k or more (levels are capped at ``n_levels``). The row never falls as k
    rises, so it is stored as its steps: ``stages[s]`` holds two sorted
    arrays, ``key = a * (n_levels + 1) + level`` and ``payment``, and within
    an anchor both strictly increase. row_s(a, k) is the payment of the
    first point of anchor a at or above level k, or infinite if there is
    none: the float a budget-cut dense row holds in the same cell.
    """

    n: int
    n_levels: int
    lev: np.ndarray
    agents: np.ndarray
    weights: np.ndarray
    stages: list[tuple[np.ndarray, np.ndarray]]

    @classmethod
    def fill(cls, n, n_levels, lev, agents, weights, cap) -> _LevelSteps:
        """Run the DP: one sort per item advances every anchor's points.

        Each point moves to (min(level + lev, n_levels), payment + w); moved
        points above ``cap`` are dropped, since weights are non-negative and
        such a point never leads back within the cap. Sorting by anchor,
        payment up and level down, a point survives if its key is above
        every key before it, that is, if no point at least as cheap reaches
        its level.
        """
        width = n_levels + 1
        key = np.arange(len(lev), dtype=np.int64) * width
        pay = np.zeros(len(lev))
        stages = [(key, pay)]
        for s, weight in enumerate(weights):
            moved = pay + weight
            fits = moved <= cap
            anchor, level = np.divmod(key[fits], width)
            level = np.minimum(level + lev[anchor, s], n_levels)
            key = np.concatenate((key, anchor * width + level))
            pay = np.concatenate((pay, moved[fits]))
            order = np.lexsort((-key, pay, key // width))
            key, pay = key[order], pay[order]
            keep = np.empty(len(key), dtype=bool)
            keep[0] = True
            np.greater(key[1:], np.maximum.accumulate(key)[:-1], out=keep[1:])
            key, pay = key[keep], pay[keep]
            stages.append((key, pay))
        return cls(n, n_levels, lev, agents, weights, stages)

    def row(self, s: int, anchors: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """row_s(anchors[j], levels[j]) for every j."""
        key, pay = self.stages[s]
        base = anchors * (self.n_levels + 1)
        at = np.searchsorted(key, base + levels)
        hit = np.minimum(at, len(key) - 1)
        same = (at < len(key)) & (key[hit] <= base + self.n_levels)
        return np.where(same, pay[hit], math.inf)

    def teams(self, levels: np.ndarray) -> list[int]:
        """The team behind ``levels[a]`` for every anchor a, as bitmasks.

        Walking back, item s is taken at level k exactly where it lowered
        the dense row: row_s(max(k - lev, 0)) + w < row_s(k), row_s being
        the row before item s.
        """
        k = np.asarray(levels, dtype=np.int64)
        anchors = np.arange(len(k))
        member = np.zeros((len(k), self.n), dtype=bool)
        for s in range(len(self.weights) - 1, -1, -1):
            lower = np.maximum(k - self.lev[:, s], 0)
            new = self.row(s, anchors, lower) + self.weights[s]
            take = new < self.row(s, anchors, k)
            member[take, self.agents[s]] = True
            k = np.where(take, lower, k)
        packed = np.packbits(member, axis=1, bitorder="little")
        return [int.from_bytes(bits.tobytes(), "little") for bits in packed]


def _rounded_steps(
    inst: Instance,
    values: Sequence[float],
    epsilon: float,
    anchors: Sequence[float],
    budget: float,
) -> tuple[np.ndarray, _LevelSteps]:
    """Lifted grid per anchor and the Pareto steps of its rounded-reward table.

    An agent with value 0 never lowers a level's payment, nor does one whose
    weight c_i / f({i}) alone exceeds the budget: neither is an item.

    An anchor's grid and the values divided by it are lifted by the power
    of two that puts the anchor in [0.5, 1]: the grid of a tiny anchor then
    does not underflow, and wherever it did not underflow before, every
    quotient value / grid is unchanged. A lifted value that overflows, like
    a quotient that does, is level top.
    """
    n = inst.n
    _level_gate(n, epsilon)
    delta = epsilon / n
    n_levels = ceil_tol(n / delta)
    anchors = np.asarray(anchors, dtype=np.float64)
    shifts = np.maximum(-np.frexp(anchors)[1], 0)
    grids = delta * np.ldexp(anchors, shifts)
    cap = budget + PAY_TOL
    agents = [i for i, v in enumerate(values) if v > 0 and inst.costs[i] / v <= cap]
    weights = np.array([inst.costs[i] / values[i] for i in agents], dtype=np.float64)
    item_values = np.array([values[i] for i in agents], dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        lifted = np.ldexp(item_values, shifts[:, None])
        lev = _floor_levels(lifted / grids[:, None], n_levels)
    steps = _LevelSteps.fill(
        n, n_levels, lev, np.array(agents, dtype=np.intp), weights, cap
    )
    return grids, steps


@dataclass(frozen=True, eq=False)
class RoundedTable:
    """Cheapest team per rounded-reward level.

    Level k holds the minimum of sum_i c_i / f({i}) over teams whose rounded
    reward reaches k * grid, where grid = (epsilon / n) * anchor; rounded
    rewards are exact multiples of grid, so levels are exact integers. They
    are counted on the grid lifted by a power of two, so an anchor whose
    grid underflows still has them. ``payments`` is the read-only float64
    row of these minima; a level that no team within the budget reaches
    carries an infinite payment, so the finite levels are a prefix. Teams
    are reconstructed on demand from the Pareto steps the row was expanded
    from.
    """

    grid: float
    n_levels: int
    payments: np.ndarray
    _steps: _LevelSteps = field(repr=False)

    def team(self, level: int) -> int:
        """Reconstruct the stored team for a level (inf level raises)."""
        if not 0 <= level <= self.n_levels:
            raise InputError("level out of range")
        if self.payments[level] == math.inf:
            raise InputError("level is unreachable")
        return self._steps.teams(np.array([level]))[0]


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
    _, steps = _rounded_steps(inst, values, epsilon, [anchor], budget)
    levels = np.arange(steps.n_levels + 1)
    payments = steps.row(len(steps.weights), np.zeros_like(levels), levels)
    payments.flags.writeable = False
    return RoundedTable(epsilon / inst.n * anchor, steps.n_levels, payments, steps)


def _proxy_levels(steps: _LevelSteps, grids: np.ndarray) -> np.ndarray:
    """Per anchor, the level within the budget maximizing the proxy profit.

    The proxy (1 - payment) * level * grid is that of the dense row, whose
    first maximum wins; level 0 stands unless some proxy is positive. On a
    step, where the payment is constant, a positive proxy rises strictly
    with the level, so the first maximum is the first step top holding it:
    the lifted grid is at least epsilon / 2n, a positive 1 - payment is at
    least 2^-54, and two levels below 2^50 then never round to one proxy.
    """
    key, pay = steps.stages[-1]
    anchor, level = np.divmod(key, steps.n_levels + 1)
    proxy = (1.0 - pay) * level * grids[anchor]
    starts = np.flatnonzero(np.diff(anchor, prepend=-1))
    best = np.maximum.reduceat(proxy, starts)
    (hits,) = (proxy == best[anchor]).nonzero()
    first = hits[np.searchsorted(anchor[hits], np.arange(len(grids)))]
    return np.where(best > 0.0, level[first], 0)


def fptas_additive_profit(inst: Instance, budget: float, epsilon: float) -> SolveResult:
    """(1 - epsilon)-approximate profit maximization for additive rewards.

    For each candidate anchor (a distinct positive singleton value), build
    the rounded table and keep the budget-feasible level maximizing the
    proxy profit (1 - payment) * level * grid, preferring lower levels on
    ties; the best candidate team across anchors is returned with its true
    profit. All anchors' tables are filled by one DP over Pareto steps.
    """
    values = _additive_values(inst)
    check_budget(budget)
    check_epsilon(epsilon)
    anchors = sorted({v for v in values if v > 0})
    if not anchors:
        return SolveResult(0, profit(inst, 0), 0.0, 1)

    grids, steps = _rounded_steps(inst, values, epsilon, anchors, budget)
    candidates = steps.teams(_proxy_levels(steps, grids))
    examined = len(anchors) * (steps.n_levels + 1)
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
    _level_gate(inst.n, epsilon)

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

    # Worths are lifted by one power of two so that the largest lies in
    # [0.5, 1]: a tiny worth's grid then does not underflow, and wherever it
    # did not underflow before, every quotient worth / scale is unchanged.
    top = max(w for _, _, w in items)
    shift = max(-math.frexp(top)[1], 0)
    scale = epsilon * math.ldexp(top, shift) / len(items)
    dp_items = [
        (i, max(floor_tol(math.ldexp(worth, shift) / scale), 0), weight)
        for i, weight, worth in items
    ]
    total = sum(lev for _, lev, _ in dp_items)
    cap = budget + PAY_TOL
    payments, take = _cheapest_per_level(dp_items, total, cap)
    best_level = int(np.nonzero(payments <= cap)[0].max())
    team = _walk_back(take, dp_items, best_level)
    return SolveResult(
        team, evaluate(obj, inst, team), payment(inst, team), total + 1
    )


def _additive_values(inst: Instance) -> tuple[float, ...]:
    if not isinstance(inst.reward, Additive):
        raise PreconditionError("this solver requires an additive reward")
    return inst.reward.values
