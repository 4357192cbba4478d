"""Exact and approximate solvers for budget-feasible team selection.

``brute_force_max`` enumerates every budget-feasible team at desk scale and
is the oracle against which everything else is judged. For additive rewards
two polynomial schemes are provided, both 0/1 dynamic programs over one
item set (``_items``, weights c_i / f({i})) and values rounded to levels
by ``_floor_levels`` (Ibarra-Kim 1975, Lawler 1979):

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
  only the levels a team within the budget can reach; the last is the best.
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
    _, pay = team_table(inst)
    light = (1 << inst.n) - 1
    allowed = None
    if light_only:
        light = light_agents(inst)
        allowed = (np.arange(1 << inst.n) & ~light) == 0
    vals = evaluate_all(obj, inst)
    best = _best(vals, pay, budget, allowed)
    examined = 1 << light.bit_count()
    return SolveResult(best, float(vals[best]), float(pay[best]), examined)


# ---------------------------------------------------------------------------
# the items of both FPTAS and the exact-level dynamic program of the knapsack
# ---------------------------------------------------------------------------


def _items(
    inst: Instance, budget: float, epsilon: float
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray, np.ndarray]:
    """The one set-up of every level DP: its values, its cap, and its items,
    the agents ascending, with their weights and their costs.

    It checks, in this order, that the reward is additive, the budget, the
    epsilon and the level gate, so a DP is never set up past its size. The
    cap is ``budget + PAY_TOL``. An item's weight is its payment alone,
    c_i / f({i}). An agent with value 0 never lowers a level's payment, nor
    does one whose weight exceeds the cap: neither is an item.
    """
    if not isinstance(inst.reward, Additive):
        raise PreconditionError("this solver requires an additive reward")
    check_budget(budget)
    check_epsilon(epsilon)
    _level_gate(inst.n, epsilon)
    values = np.asarray(inst.reward.values, dtype=np.float64)
    costs = np.asarray(inst.costs, dtype=np.float64)
    cap = budget + PAY_TOL
    with np.errstate(all="ignore"):  # a zero or subnormal value
        weights = costs / values
    (agents,) = ((values > 0) & (weights <= cap)).nonzero()
    return values, cap, agents, weights[agents], costs[agents]


def _cheapest_per_level(
    lev: np.ndarray, weights: np.ndarray, n_levels: int, cap: float
) -> tuple[int, list[np.ndarray]]:
    """Best level within ``cap`` over 0/1 item choices, and the take matrix.

    Item s has level ``lev[s]`` and weight ``weights[s]``; a team sits at
    the sum of its items' levels. One row keeps the least payment per level,
    and ``take[s][k]`` is True exactly where item s lowered level k's payment.

    The level returned, ``front``, is the last whose payment is at most
    ``cap``. Weights are non-negative, so a payment above ``cap`` never leads
    to one within it: each item step fills only levels up to ``front + lev``,
    and on every cell within ``cap`` the row and the take bits equal those of
    the full-width table. Reconstruction visits only such cells.
    """
    cur = np.full(n_levels + 1, math.inf)
    cur[0] = 0.0
    cand = np.empty_like(cur)
    take = []
    front = 0
    for step, weight in zip(lev.tolist(), weights.tolist()):
        width = min(n_levels, front + step) + 1
        row, new = cur[:width], cand[:width]
        np.add(cur[: width - step], weight, out=new[step:])
        new[:step] = math.inf
        take.append(new < row)
        np.minimum(row, new, out=row)
        (within,) = (row[front + 1 :] <= cap).nonzero()
        if within.size:
            front += int(within[-1]) + 1
    return front, take


def _walk_back(
    take: Sequence[np.ndarray], lev: np.ndarray, agents: np.ndarray, level: int
) -> int:
    """Reconstruct the team behind ``level`` from a take matrix."""
    team, k = 0, level
    for row, step, agent in zip(take[::-1], lev[::-1].tolist(), agents[::-1].tolist()):
        if row[k]:
            team |= 1 << agent
            k -= step
    return team


# ---------------------------------------------------------------------------
# Pareto steps of the at-least level DP and the profit FPTAS (additive rewards)
# ---------------------------------------------------------------------------


def _floor_levels(x: np.ndarray, top: float) -> np.ndarray:
    """``min(floor_tol(x), top)`` per entry, as int64.

    Clamping before flooring is exact, since ``floor_tol`` maps every
    x >= top to top or more; it also maps an infinite x to ``top``. An
    infinite ``top`` clamps nothing. ``np.rint`` rounds half to even, as
    ``round`` does.
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
    arrays, ``key = a * (n_levels + 2) + level`` and ``payment``, and within
    an anchor both strictly increase. Each anchor's steps end in a sentinel
    at level ``n_levels + 1`` with an infinite payment, the highest key of
    the anchor. row_s(a, k) is the payment of the first point at or above
    key ``a * (n_levels + 2) + k``: for k <= n_levels the sentinel keeps
    that point within anchor a, so no lookup needs an anchor-boundary mask,
    and it reads infinite exactly where no finite step reaches k, the float
    a budget-cut dense row holds in the same cell.
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
        such a point never leads back within the cap. A sentinel, at payment
        inf, never moves. Sorting by anchor, payment up and level down, a
        point survives if its key is above every key before it, that is, if
        no point at least as cheap reaches its level; a sentinel sorts last
        in its anchor at its highest key, so it always survives and changes
        no other point's fate. Each point carries its anchor id in the
        smallest unsigned type that holds it, which the sort takes fastest.
        """
        ids = np.arange(len(lev), dtype=np.int64)
        base = ids * (n_levels + 2)
        tops = base + n_levels
        key = np.stack((base, tops + 1), axis=1).ravel()  # level 0, sentinel
        pay = np.tile([0.0, math.inf], len(lev))
        anchor = ids.astype(np.min_scalar_type(len(lev))).repeat(2)
        item_lev = np.ascontiguousarray(lev.T)  # row s: item s's level per anchor
        stages = [(key, pay)]
        for s, weight in enumerate(weights):
            moved = pay + weight
            fits = moved <= cap
            a = anchor[fits]
            clamped = np.minimum(key[fits] + item_lev[s].take(a), tops.take(a))
            key = np.concatenate((key, clamped))
            pay = np.concatenate((pay, moved[fits]))
            anchor = np.concatenate((anchor, a))
            order = np.lexsort((-key, pay, anchor))
            key = key[order]
            keep = np.empty(len(key), dtype=bool)
            keep[0] = True
            np.greater(key[1:], np.maximum.accumulate(key)[:-1], out=keep[1:])
            kept = order[keep]
            key, pay, anchor = key[keep], pay[kept], anchor[kept]
            stages.append((key, pay))
        return cls(n, n_levels, lev, agents, weights, stages)

    def row(self, s: int, anchors: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """row_s(anchors[j], levels[j]) for every j, levels at most n_levels."""
        key, pay = self.stages[s]
        return pay[np.searchsorted(key, anchors * (self.n_levels + 2) + levels)]

    def teams(self, levels: np.ndarray) -> list[int]:
        """The team behind ``levels[a]`` for every anchor a, as bitmasks.

        Walking back, item s is taken at level k exactly where it lowered
        the dense row: row_s(max(k - lev, 0)) + w < row_s(k), row_s being
        the row before item s. The walk holds each anchor's key, and one
        lookup per item reads both rows for every anchor.
        """
        count = len(levels)
        base = np.arange(count, dtype=np.int64) * (self.n_levels + 2)
        at = base + np.asarray(levels, dtype=np.int64)
        taken = np.empty((len(self.weights), count), dtype=bool)
        for s in range(len(self.weights) - 1, -1, -1):
            key, pay = self.stages[s]
            lower = np.maximum(at - self.lev[:, s], base)
            rows = pay[np.searchsorted(key, np.concatenate((lower, at)))]
            take = np.less(rows[:count] + self.weights[s], rows[count:], out=taken[s])
            at = np.where(take, lower, at)
        member = np.zeros((count, self.n), dtype=bool)
        member[:, self.agents] = taken.T
        packed = np.packbits(member, axis=1, bitorder="little")
        return [int.from_bytes(bits.tobytes(), "little") for bits in packed]


def _rounded_steps(
    inst: Instance, items: tuple, epsilon: float, anchors: Sequence[float]
) -> tuple[np.ndarray, _LevelSteps]:
    """Lifted grid per anchor and the Pareto steps of its rounded-reward table,
    from the set-up ``items`` that ``_items`` returned for this epsilon.

    An anchor's grid and the values divided by it are lifted by the power
    of two that puts the anchor in [0.5, 1]: the grid of a tiny anchor then
    does not underflow, and wherever it did not underflow before, every
    quotient value / grid is unchanged. A lifted value that overflows, like
    a quotient that does, is level top.
    """
    values, cap, agents, weights, _ = items
    n = inst.n
    delta = epsilon / n
    n_levels = ceil_tol(n / delta)
    anchors = np.asarray(anchors, dtype=np.float64)
    shifts = np.maximum(-np.frexp(anchors)[1], 0)
    grids = delta * np.ldexp(anchors, shifts)
    with np.errstate(divide="ignore", over="ignore"):
        lifted = np.ldexp(values[agents], shifts[:, None])
        lev = _floor_levels(lifted / grids[:, None], n_levels)
    steps = _LevelSteps.fill(n, n_levels, lev, agents, weights, cap)
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
    items = _items(inst, budget, epsilon)
    if not 0 < anchor < math.inf:  # NaN fails every comparison
        raise InputError(f"anchor must be positive and finite, got {anchor!r}")
    _, steps = _rounded_steps(inst, items, epsilon, [anchor])
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
    A sentinel's proxy is -inf, and every anchor keeps a point at payment 0,
    whose proxy is 0 or more, so no sentinel's level is returned.
    """
    key, pay = steps.stages[-1]
    anchor, level = np.divmod(key, steps.n_levels + 2)
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
    items = _items(inst, budget, epsilon)
    values = items[0]
    anchors = sorted(set(values[values > 0].tolist()))
    if not anchors:
        return SolveResult(0, profit(inst, 0), 0.0, 1)

    grids, steps = _rounded_steps(inst, items, epsilon, anchors)
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
    if not isinstance(obj, (Reward, Welfare)):
        raise PreconditionError("knapsack reduction applies to reward or welfare only")
    values, cap, agents, weights, costs = _items(inst, budget, epsilon)
    # phi({i}) from the values held: evaluate's (0.0 + v) - (0.0 + c) is
    # v - c bit for bit, as every item's v is positive
    worths = values[agents]
    if isinstance(obj, Welfare):
        worths = worths - costs
    valued = worths > 0
    agents, weights, worths = agents[valued], weights[valued], worths[valued]
    if not agents.size:
        return SolveResult(0, evaluate(obj, inst, 0), 0.0, 1)

    # Worths are lifted by one power of two so that the largest lies in
    # [0.5, 1]: a tiny worth's grid then does not underflow, and wherever it
    # did not underflow before, every quotient worth / scale is unchanged.
    top = float(worths.max())
    shift = max(-math.frexp(top)[1], 0)
    scale = epsilon * math.ldexp(top, shift) / agents.size
    lev = _floor_levels(np.ldexp(worths, shift) / scale, math.inf)
    total = int(lev.sum())
    best_level, take = _cheapest_per_level(lev, weights, total, cap)
    team = _walk_back(take, lev, agents, best_level)
    return SolveResult(team, evaluate(obj, inst, team), payment(inst, team), total + 1)

