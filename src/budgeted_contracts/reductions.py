"""Constant-factor reductions between budgeted objectives.

The hub problem is MaxRewardLight(B): maximize reward over budget-feasible
teams of light agents. Any well-behaved (sandwiched) objective at any budget
reduces to it and back:

* to the hub: downsize a gamma-approximate light team with M = 5 (XOS path)
  or M = 3 (submodular path), then return the best of the downsized team and
  every budget-feasible singleton under the target objective. Factors:
  40 * gamma + 1 (XOS), 6 * gamma + 1 (submodular).

* from the hub: restrict the instance to light agents, scale costs by
  B'/B, solve the target objective there with any gamma-approximate solver,
  and return the best by reward of the solver's team and every light
  budget-feasible singleton. Factors: 20 * gamma (XOS), 6 * gamma
  (submodular).

Composing the two yields the equivalence of all (objective, budget) pairs,
with the overall factor the composition of the per-stage constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Literal

from .core import (
    EPS,
    Instance,
    InputError,
    PreconditionError,
    SolverContractError,
    _best_team,
    _check_team,
    _empty_value,
    _margins,
    _pay,
    bits,
    check_budget,
    light_agents,
    mask_of,
    restrict,
    singleton_team_payment,
)
from .downsizing import downsize_submodular, downsize_xos
from .objectives import REWARD, Objective, evaluate
from .solvers import brute_force_max

Path = Literal["xos", "submodular"]

#: A solver takes (instance, budget, objective) and returns a team mask that
#: is budget-feasible and gamma-approximate for the objective.
Solver = Callable[[Instance, float, Objective], int]


@dataclass(frozen=True)
class ReductionOutcome:
    candidate: int
    candidate_value: float
    guarantee_factor: float
    budget_used: float
    path: Path


@dataclass(frozen=True)
class ScaledInstance:
    """Restriction to light agents with costs scaled by B'/B.

    ``instance`` is None when there are no light agents at all.
    """

    instance: Instance | None
    agents: tuple[int, ...]
    scale: float

    def to_original(self, team: int) -> int:
        return mask_of(self.agents[j] for j in bits(team))


def scale_instance(inst: Instance, budget: float, budget_prime: float) -> ScaledInstance:
    """Build the light-restricted instance with costs scaled by B'/B."""
    check_budget(budget)
    check_budget(budget_prime)
    scale = budget_prime / budget
    if not math.isfinite(scale):  # B' / B overflows when B is tiny
        raise InputError(
            f"budget ratio B'/B = {budget_prime!r} / {budget!r} is not finite"
        )
    agents = tuple(bits(light_agents(inst)))
    if not agents:
        return ScaledInstance(instance=None, agents=(), scale=scale)
    scaled = Instance(
        n=len(agents),
        costs=tuple(inst.costs[i] * scale for i in agents),
        reward=restrict(inst.reward, agents),
    )
    return ScaledInstance(instance=scaled, agents=agents, scale=scale)


def reduce_to_mrl(
    inst: Instance,
    budget: float,
    obj: Objective,
    mrl_team: int,
    gamma: float = 1.0,
    path: Path = "xos",
) -> ReductionOutcome:
    """Turn a gamma-approximate light-reward team into an objective candidate.

    ``mrl_team`` must be a budget-feasible team of light agents. The pool is
    its downsized version plus every budget-feasible singleton (and the empty
    team); the pool member maximizing the objective is returned.
    """
    check_budget(budget)
    light = light_agents(inst)
    if mrl_team & ~light:
        raise PreconditionError("hub input must contain only light agents")

    # the empty team is paid nothing, so it is always feasible
    pool = {0: (_empty_value(inst.reward), 0.0)}
    if mrl_team:
        if path == "xos":
            piece = downsize_xos(inst, mrl_team, 5)
        else:
            piece = downsize_submodular(inst, mrl_team, 3)
        if piece.payment_before > budget + EPS:  # p(S), bit for bit
            raise PreconditionError("hub input is not budget-feasible")
        # both downsizings value the piece by the reward: f(T) is its psi
        pool[piece.subset] = (piece.objective_after, piece.payment_after)
    _add_singletons(inst, pool, range(inst.n), budget)
    factor = 40.0 * gamma + 1.0 if path == "xos" else 6.0 * gamma + 1.0
    return _pick(inst, pool, obj, factor, path)


def reduce_from_mrl(
    inst: Instance,
    budget: float,
    budget_prime: float,
    obj: Objective,
    solver: Solver,
    gamma: float = 1.0,
    path: Path = "xos",
) -> ReductionOutcome:
    """Approximate the light-reward hub via a solver for obj at budget B'.

    The solver runs on the scaled light instance; its team (mapped back to
    original indices) competes by reward against every light singleton that
    is budget-feasible at B. Every pool member is re-checked feasible at B.
    """
    scaled = scale_instance(inst, budget, budget_prime)
    pool = {0: (_empty_value(inst.reward), 0.0)}
    if scaled.agents:
        team_scaled = solver(scaled.instance, budget_prime, obj)
        _check_team(team_scaled, scaled.instance.n)
        mapped = scaled.to_original(team_scaled)
        # ``restrict`` keeps each agent's oracle values and the mapping keeps
        # member order, so the mapped team's marginals give both payments
        # bit for bit: at B' over the scaled costs, and at B
        f_mapped, marg = _margins(inst.reward, mapped)
        scaled_marg = dict(zip(bits(team_scaled), marg.values()))
        if _pay(scaled.instance, scaled_marg) > budget_prime + EPS:
            raise SolverContractError("solver output exceeds the scaled budget")
        pay_mapped = _pay(inst, marg)
        if pay_mapped <= budget + EPS:
            pool[mapped] = (f_mapped, pay_mapped)
        _add_singletons(inst, pool, scaled.agents, budget)
    factor = 20.0 * gamma if path == "xos" else 6.0 * gamma
    return _pick(inst, pool, REWARD, factor, path)


def _add_singletons(
    inst: Instance,
    pool: dict[int, tuple[float, float]],
    agents: Iterable[int],
    budget: float,
) -> None:
    """Add each one-agent team among ``agents`` paid within ``budget``."""
    for i in agents:
        pay = singleton_team_payment(inst, i)
        if pay <= budget + EPS:
            pool[1 << i] = (inst._singleton_values[i], pay)


def _pick(
    inst: Instance,
    pool: dict[int, tuple[float, float]],
    obj: Objective,
    factor: float,
    path: Path,
) -> ReductionOutcome:
    """The pool member scoring highest under ``obj`` (ties to the smallest
    bitmask), valued at the score it was picked by. ``pool`` maps each member
    to its f(S) and p(S), equal to ``value`` and ``payment`` bit for bit, so
    each member is scored, and the winner paid, without asking the oracle."""
    candidate, candidate_value = _best_team(
        pool, lambda team: evaluate(obj, inst, team, *pool[team])
    )
    return ReductionOutcome(
        candidate, candidate_value, factor, pool[candidate][1], path
    )


def equivalence_pipeline(
    inst: Instance,
    obj_from: Objective,
    budget_from: float,
    obj_to: Objective,
    budget_to: float,
    solver_to: Solver,
    gamma: float = 1.0,
    path: Path = "xos",
) -> ReductionOutcome:
    """Solve Max-obj_from(B) given a solver for Max-obj_to(B').

    Stage one turns the solver into a hub approximation, stage two turns the
    hub team into a candidate for the source objective. The reported factor
    composes the per-stage constants (801 on the XOS path with an exact
    inner solver).
    """
    hub = reduce_from_mrl(
        inst, budget_from, budget_to, obj_to, solver_to, gamma=gamma, path=path
    )
    return reduce_to_mrl(
        inst,
        budget_from,
        obj_from,
        hub.candidate,
        gamma=hub.guarantee_factor,
        path=path,
    )


def brute_solver(inst: Instance, budget: float, obj: Objective) -> int:
    """Exact (gamma = 1) solver endpoint backed by exhaustive search."""
    return brute_force_max(obj, inst, budget).optimum


SOLVERS: dict[str, Solver] = {"brute": brute_solver}

