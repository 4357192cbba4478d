"""Objective evaluators and the sandwiched-objective verification checks.

The three named objectives are reward f(S), profit (1 - p(S)) * f(S), and
welfare f(S) - c(S); convex combinations of objectives are objectives again.
An objective is "well-behaved" for the reduction machinery when it is
sandwiched between profit and reward and loses at most one agent's own
singleton value when that agent is dropped from a team:

    g(S) <= phi(S) <= f(S)          and
    phi(S) <= f(S - {i}) + phi({i})   for every i in S.

Both conditions can be verified exhaustively at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .core import (
    EPS,
    Instance,
    InputError,
    _drop_condition,
    _empty_value,
    _profit,
    _subset_sums,
    _sum_over,
    bits,
    is_submodular,
    profit,
    team_table,
    value,
)

#: Convex weights must sum to one within this tolerance.
WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class Reward:
    name: ClassVar[str] = "reward"


@dataclass(frozen=True)
class Profit:
    name: ClassVar[str] = "profit"


@dataclass(frozen=True)
class Welfare:
    name: ClassVar[str] = "welfare"


@dataclass(frozen=True)
class Convex:
    """Weighted mix of objectives; weights are positive and sum to one."""

    name: ClassVar[str] = "convex"
    components: tuple["Objective", ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.components) != len(self.weights) or not self.components:
            raise InputError("components and weights must align and be non-empty")
        if any(w <= 0 for w in self.weights):
            raise InputError("convex weights must be strictly positive")
        if abs(sum(self.weights) - 1.0) > WEIGHT_TOL:
            raise InputError("convex weights must sum to 1")


Objective = Union[Reward, Profit, Welfare, Convex]

REWARD = Reward()
PROFIT = Profit()
WELFARE = Welfare()

#: The named objectives by name, in the order ``check`` reports them.
OBJECTIVES: dict[str, Objective] = {o.name: o for o in (REWARD, PROFIT, WELFARE)}


def _value(inst: Instance, team: int) -> float:
    return value(inst.reward, team) if team else _empty_value(inst.reward)


def evaluate(
    obj: Objective,
    inst: Instance,
    team: int,
    f_team: float | None = None,
    pay: float | None = None,
) -> float:
    """Evaluate an objective on a team. Welfare is returned unclamped.

    A caller that already holds f(S) passes it as ``f_team``, and p(S) as
    ``pay``, each equal to ``value`` and ``payment`` bit for bit, so the
    oracle is not asked again; profit uses them only when given both.
    f({}) is asked of no oracle: it is ``core._empty_value``.
    """
    if isinstance(obj, Reward):
        return _value(inst, team) if f_team is None else f_team
    if isinstance(obj, Profit):
        if f_team is None or pay is None:
            return profit(inst, team)
        return _profit(f_team, pay)
    if isinstance(obj, Welfare):
        if f_team is None:
            f_team = _value(inst, team)
        return f_team - _sum_over(inst.costs, bits(team))
    total = 0.0  # not sum(): see core._sum_over
    for c, w in zip(obj.components, obj.weights):
        total += w * evaluate(c, inst, team, f_team, pay)
    return total


def evaluate_all(obj: Objective, inst: Instance) -> np.ndarray:
    """``evaluate`` on every team mask, bit for bit, from ``core.team_table``.

    Reward and profit are the read-only arrays the instance keeps, so every
    caller shares one profit table per instance.
    """
    f, _ = team_table(inst)
    if isinstance(obj, Reward):
        return f
    if isinstance(obj, Profit):
        return inst._profit_table
    if isinstance(obj, Welfare):
        return f - _subset_sums(inst.costs, inst.n)
    return sum(w * evaluate_all(c, inst) for c, w in zip(obj.components, obj.weights))


def check_best_conditions(obj: Objective, inst: Instance) -> bool:
    """Exhaustively verify the sandwich and single-agent-drop conditions.

    The profit of every team, the sandwich's floor, is built once and kept on
    the instance beside its team table, so the objectives ``check`` verifies
    share it, and it is phi itself for the profit objective.
    """
    f, _ = team_table(inst)
    floor, phi = evaluate_all(PROFIT, inst), evaluate_all(obj, inst)
    if not ((floor <= phi + EPS).all() and (phi <= f + EPS).all()):
        return False
    return _drop_condition(phi, f, inst.n)


def key_property_gap(
    obj: Objective, inst: Instance, budget: float
) -> tuple[float, float]:
    """Gap check behind the heavy/light split of the reduction machinery.

    Returns (lhs, rhs) with lhs the exact budget-feasible optimum of the
    objective and rhs = k * MaxRewardLight(budget) + max_i phi({i}), where
    k is 1 for submodular rewards and 2 otherwise. Callers assert lhs <= rhs.
    """
    from .solvers import brute_force_max

    lhs = brute_force_max(obj, inst, budget).value
    mrl = brute_force_max(REWARD, inst, budget, light_only=True).value
    coeff = 1.0 if is_submodular(inst.reward) else 2.0
    best_single = max(evaluate(obj, inst, 1 << i) for i in range(inst.n))
    return lhs, coeff * mrl + best_single
