"""Instance model, set-function oracles, payments, and equilibrium checks.

A project is delegated to n binary-action agents. A set function f maps
each team (the agents exerting effort) to the project's success probability,
and each agent i has an effort cost c_i. Incentivizing a team S costs the
principal p(S) = sum_{i in S} c_i / f_S(i), where f_S(i) is i's marginal
contribution to S; her profit is g(S) = (1 - p(S)) * f(S).

Teams are encoded as integer bitmasks over agent indices 0..n-1 (agent i
present iff bit i is set). Everything in this module is a pure function of
immutable inputs, so instances and set functions are safe to share across
threads; the team table an instance keeps is read-only, and a build that
races another gives the same arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

#: Absolute tolerance for feasibility / equilibrium / class checkers.
EPS = 1e-9

#: Cap on n for exhaustive subset enumeration (equilibria, brute force).
ENUM_CAP = 20

#: Cap on n for exhaustive function-class verification.
CLASSIFY_CAP = 16

#: Cap on the level count n^2 / epsilon of an FPTAS's rounded DP. The
#: knapsack's dense row then holds at most 128 MiB, and the profit DP's keys
#: anchor * (levels + 1) + level stay below 2^37 (anchors <= n < 2^12). The
#: golden cases and the benchmark workloads reach 80,000 levels (n = 40,
#: epsilon = 0.02); n = 400 fits down to epsilon = 0.01.
LEVEL_CAP = 2**24


class ContractsError(Exception):
    """Base class for all library errors."""


class InputError(ContractsError):
    """Malformed argument: bad subset, negative price, shape mismatch."""


class SizeCapError(ContractsError):
    """Exhaustive operation requested above its enumeration cap."""


class PreconditionError(ContractsError):
    """A documented precondition of an operation does not hold."""


class InfeasibleSetError(ContractsError):
    """The requested team cannot be incentivized with finite payment."""


class SolverContractError(ContractsError):
    """A supplied solver returned output violating its contract."""


# ---------------------------------------------------------------------------
# bitmask helpers
# ---------------------------------------------------------------------------


def bits(team: int) -> Iterator[int]:
    """Yield the agent indices present in a team mask, ascending."""
    while team:
        low = team & -team
        yield low.bit_length() - 1
        team ^= low


def mask_of(agents: Sequence[int]) -> int:
    """Build a team mask from an iterable of agent indices."""
    team = 0
    for i in agents:
        team |= 1 << i
    return team


def _check_team(team: int, n: int) -> None:
    if team < 0 or team >> n:
        raise InputError(f"team {team:#b} has agents outside 0..{n - 1}")


def _check_agent_count(n: int) -> None:
    """Reject an agent count that is not an int >= 1; a ``bool`` is no count."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError(f"need a positive integer agent count, got {n!r}")


def check_budget(budget: float) -> None:
    """Reject a budget outside (0, 1]; NaN fails every comparison."""
    if not 0 < budget <= 1:
        raise InputError(f"budget must lie in (0, 1], got {budget!r}")


def check_epsilon(epsilon: float) -> None:
    """Reject an accuracy outside (0, 1); NaN fails every comparison."""
    if not 0 < epsilon < 1:
        raise InputError(f"epsilon must lie in (0, 1), got {epsilon!r}")


def ceil_tol(x: float) -> int:
    """Ceiling that snaps to the nearest integer first.

    Guards quantities like 2B/b that are integral in exact arithmetic but
    land an ulp off in floats; a raw ceil would then be off by one.
    """
    nearest = round(x)
    if abs(x - nearest) <= EPS:
        return int(nearest)
    return math.ceil(x)


def floor_tol(x: float) -> int:
    """Floor with the same snap-to-integer guard as :func:`ceil_tol`."""
    nearest = round(x)
    if abs(x - nearest) <= EPS:
        return int(nearest)
    return math.floor(x)


def _sum_over(v: Sequence[float], agents: Iterable[int]) -> float:
    """Sum of v[i] from 0.0 in the order given: unlike ``sum()`` on Python
    >= 3.12, it rounds exactly as the team tables below do."""
    total = 0.0
    for i in agents:
        total += v[i]
    return total


def _subset_sums(v: Sequence[float], n: int) -> np.ndarray:
    """Sum of v over every team mask, adding agents in ascending order: the
    masks [2^i, 2^(i+1)) are the masks [0, 2^i) plus agent i."""
    v = np.asarray(v)
    t = np.zeros(1 << n, v.dtype)
    for i in range(n):
        t[1 << i : 2 << i] = t[: 1 << i] + v[i]
    return t


# ---------------------------------------------------------------------------
# set-function representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Additive:
    """f(S) = sum of per-agent values over S."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not all(0 <= v < math.inf for v in self.values):
            raise InputError("additive values must be finite and non-negative")

    @property
    def n(self) -> int:
        return len(self.values)

    def value(self, team: int) -> float:
        return _sum_over(self.values, bits(team))


@dataclass(frozen=True)
class XosClauses:
    """f(S) = max over clauses of the clause's additive sum on S.

    Every function of this form is fractionally subadditive (XOS); an
    additive function is the one-clause special case.
    """

    clauses: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in row) for row in self.clauses)
        object.__setattr__(self, "clauses", rows)
        if not rows:
            raise InputError("XOS representation needs at least one clause")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise InputError("all clauses must have the same width")
        if not all(0 <= v < math.inf for row in rows for v in row):
            raise InputError("clause values must be finite and non-negative")

    @property
    def n(self) -> int:
        return len(self.clauses[0])

    def value(self, team: int) -> float:
        idx = list(bits(team))
        return max(_sum_over(row, idx) for row in self.clauses)


@dataclass(frozen=True, eq=False)
class Table:
    """Explicit value table indexed by team bitmask (length 2^n).

    ``values`` is a read-only float64 array, copied from the input, so a
    table can be handed to array code without a conversion; tables compare
    equal when their arrays do, and are unhashable like the arrays.
    ``value`` returns a Python float.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, np.float64)
        size = vals.size
        if vals.ndim != 1 or size == 0 or size & (size - 1):
            raise InputError("table length must be a power of two")
        if not np.isfinite(vals).all():
            raise InputError("table values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        if not isinstance(other, Table):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    __hash__ = None

    @property
    def n(self) -> int:
        return (len(self.values) - 1).bit_length()

    def value(self, team: int) -> float:
        return self.values.item(team)


SetFunction = Union[Additive, XosClauses, Table]


def value(f: SetFunction, team: int) -> float:
    """Value-oracle query: return f(team)."""
    _check_team(team, f.n)
    return f.value(team)


def marginal(f: SetFunction, team: int, agent: int) -> float:
    """Marginal contribution f(S) - f(S minus {agent}); requires agent in S."""
    _check_team(team, f.n)
    if not (team >> agent) & 1:
        raise InputError(f"agent {agent} is not in the team")
    return f.value(team) - f.value(team & ~(1 << agent))


def _enum_gate(n: int) -> None:
    """The one ENUM_CAP gate: raise before any 2^n table or scan is built."""
    if n > ENUM_CAP:
        raise SizeCapError(f"exhaustive tables capped at n <= {ENUM_CAP}")


def _level_gate(n: int, epsilon: float) -> None:
    """The one LEVEL_CAP gate: raise before an FPTAS builds its level DP.

    Both FPTAS round values on a grid of epsilon / n times the largest, so a
    row holds up to about n^2 / epsilon levels; an epsilon so small that the
    count overflows to infinity fails the test as well.
    """
    if n * n / epsilon > LEVEL_CAP:
        raise SizeCapError(
            f"FPTAS level count n^2 / epsilon capped at {LEVEL_CAP}, "
            f"got n = {n}, epsilon = {epsilon!r}"
        )


def _value_array(f: SetFunction) -> np.ndarray:
    """f over every team mask, bit for bit as the oracle; a table's own
    read-only array, not a copy."""
    _enum_gate(f.n)
    if isinstance(f, Table):
        return f.values
    rows = f.clauses if isinstance(f, XosClauses) else (f.values,)
    acc = _subset_sums(rows[0], f.n)
    for row in rows[1:]:
        np.maximum(acc, _subset_sums(row, f.n), out=acc)
    return acc


def to_table(f: SetFunction) -> Table:
    """Materialize any representation as an explicit table."""
    if isinstance(f, Table):
        return f
    return Table(_value_array(f))


def restrict(f: SetFunction, agents: Sequence[int]) -> SetFunction:
    """Restrict f to a sub-list of agents, re-indexed to 0..len(agents)-1."""
    agents = list(agents)
    if len(set(agents)) != len(agents):
        raise InputError("duplicate agents in restriction")
    for i in agents:
        if not 0 <= i < f.n:
            raise InputError(f"agent {i} out of range")
    if isinstance(f, Additive):
        return Additive(tuple(f.values[i] for i in agents))
    if isinstance(f, XosClauses):
        return XosClauses(tuple(tuple(row[i] for i in agents) for row in f.clauses))
    masks = _subset_sums(np.array([1 << i for i in agents], np.int64), len(agents))
    return Table(f.values[masks])


def demand(f: SetFunction, prices: Sequence[float]) -> int:
    """Demand-oracle query: a team maximizing f(S) - sum of prices over S.

    For clause representations each clause j contributes the candidate
    S_j = {i : clause_j[i] > q_i} (price ties excluded); the surplus optimum
    is attained at one of these, so scoring the candidates under the true f
    is exact. Ties break toward the lexicographically smallest bitmask, which
    matches an ascending exhaustive scan.
    """
    prices = [float(q) for q in prices]
    if len(prices) != f.n:
        raise InputError("price vector length must equal the agent count")
    if not all(q >= 0 for q in prices):  # NaN fails every comparison
        raise InputError("prices must be non-negative")
    if isinstance(f, Additive):
        return mask_of(i for i, v in enumerate(f.values) if v > prices[i])
    if isinstance(f, XosClauses):
        cands = (
            mask_of(i for i, v in enumerate(row) if v > prices[i]) for row in f.clauses
        )
        return _best_team(cands, lambda t: f.value(t) - _sum_over(prices, bits(t)))[0]
    return int(np.argmax(f.values - _subset_sums(prices, f.n)))


# ---------------------------------------------------------------------------
# instances and contracts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """A contract-design instance: agent count, effort costs, reward function.

    Reward values are success probabilities, so they must lie in [0, 1];
    costs are non-negative and measured in fractions of the unit reward.
    """

    n: int
    costs: tuple[float, ...]
    reward: SetFunction

    def __post_init__(self):
        _check_agent_count(self.n)
        object.__setattr__(self, "costs", tuple(float(c) for c in self.costs))
        if len(self.costs) != self.n:
            raise InputError("cost vector length must equal the agent count")
        if any(c < 0 or not math.isfinite(c) for c in self.costs):
            raise InputError("costs must be finite and non-negative")
        if not isinstance(self.reward, (Additive, XosClauses, Table)):
            raise InputError("reward must be an Additive, XosClauses or Table")
        if self.reward.n != self.n:
            raise InputError("reward function is over the wrong agent count")
        lo, hi = _value_range(self.reward)
        if lo < -EPS or hi > 1.0 + EPS:
            raise InputError("reward values must lie in [0, 1]")

    @functools.cached_property
    def _team_table(self) -> tuple[np.ndarray, np.ndarray]:
        return _tabulate(self)

    @functools.cached_property
    def _singleton_payments(self) -> tuple[float, ...]:
        f = self.reward
        return tuple(_pay_term(c, f.value(1 << i)) for i, c in enumerate(self.costs))


def _value_range(f: SetFunction) -> tuple[float, float]:
    if isinstance(f, Additive):
        return 0.0, sum(f.values)
    if isinstance(f, XosClauses):
        return 0.0, max(sum(row) for row in f.clauses)
    return f.values.min(), f.values.max()


@dataclass(frozen=True)
class Contract:
    """Per-agent payments on project success."""

    alpha: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if any(a < 0 or not math.isfinite(a) for a in self.alpha):
            raise InputError("contract payments must be finite and non-negative")

    def total(self) -> float:
        return _sum_over(self.alpha, range(len(self.alpha)))


def _pay_term(cost: float, margin: float) -> float:
    # Convention: 0/0 -> 0, positive/0 -> +inf. A non-positive margin with
    # positive cost means the agent cannot be incentivized in this team.
    if margin <= 0.0:
        return 0.0 if cost <= 0.0 else math.inf
    return cost / margin


def _shares(inst: Instance, team: int) -> Iterator[tuple[int, float]]:
    """(agent, payment share c_i / f_S(i)) for each member, agents ascending."""
    f = inst.reward
    f_team = f.value(team)
    for i in bits(team):
        yield i, _pay_term(inst.costs[i], f_team - f.value(team & ~(1 << i)))


def payment(inst: Instance, team: int) -> float:
    """Minimum total payment incentivizing exactly this team (may be +inf)."""
    _check_team(team, inst.n)
    total = 0.0
    for _, share in _shares(inst, team):
        total += share
        if total == math.inf:
            return math.inf
    return total


def team_table(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Reward and payment of every team mask, as two read-only arrays of
    length 2^n.

    Entries equal ``value`` and ``payment`` bit for bit. The pair is built on
    the first call and kept on the instance, which is immutable, so callers
    asking again about one instance (a ``pof`` cell and its curves, the three
    objectives ``check`` verifies) share one build; it lives as long as the
    instance does.
    """
    return inst._team_table


def _tabulate(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """``team_table`` built afresh. Payments take one pass per agent, so no
    n x 2^n array is built."""
    f = _value_array(inst.reward)
    pay = np.zeros(f.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, cost in enumerate(inst.costs):
            # axis 1 splits teams by agent i: [:, 1] holds it, [:, 0] not
            split = f.reshape(-1, 2, 1 << i)
            margin = split[:, 1] - split[:, 0]
            term = cost / margin
            term[margin <= 0.0] = 0.0 if cost <= 0.0 else math.inf
            pay.reshape(-1, 2, 1 << i)[:, 1] += term
    f.flags.writeable = pay.flags.writeable = False
    return f, pay


# ---------------------------------------------------------------------------
# the one tie rule: a pick goes to the smallest bitmask among the best
# ---------------------------------------------------------------------------


def _best_team(
    teams: Iterable[int], score: Callable[[int], float]
) -> tuple[int, float]:
    """The smallest team scoring highest among the distinct ``teams``, and
    its score: each team is scored once, in ascending order, and replaces
    the pick only on a strictly higher score."""
    best_team, best_score = None, None
    for team in sorted(set(teams)):
        s = score(team)
        if best_score is None or s > best_score:
            best_team, best_score = team, s
    return best_team, best_score


def _best(
    vals: np.ndarray, pay: np.ndarray, budget: float, allowed: np.ndarray | None = None
) -> int:
    """The smallest team mask maximizing ``vals`` among the teams paid within
    ``budget`` (and ``allowed``, where given), from ``team_table``."""
    within = ~(pay > budget + EPS)
    if allowed is not None:
        within &= allowed
    # the empty team is allowed and has a finite value, so the first
    # maximum below is an allowed team: the smallest bitmask among ties
    return int(np.argmax(np.where(within, vals, -math.inf)))


def singleton_payment(inst: Instance, agent: int) -> float:
    """Payment needed to incentivize agent i alone: c_i / f({i}).

    Every agent's figure is taken on the first call and kept on the
    instance, which is immutable, so the light-agent scan and the reduction
    pools ask the oracle n times per instance in all.
    """
    if not 0 <= agent < inst.n:
        raise InputError(f"agent {agent} out of range")
    return inst._singleton_payments[agent]


def profit(inst: Instance, team: int) -> float:
    """Principal's expected utility (1 - p(S)) * f(S).

    An unincentivizable team with positive reward maps to -inf so solvers
    rank it last; if f(S) = 0 the profit is 0 regardless of payment.
    """
    _check_team(team, inst.n)
    f_team = inst.reward.value(team)
    if f_team == 0.0:
        return 0.0
    pay = payment(inst, team)
    if pay == math.inf:
        return -math.inf
    return (1.0 - pay) * f_team


def optimal_contract_for(inst: Instance, team: int) -> Contract:
    """Cheapest contract making this team an equilibrium: alpha_i = c_i / f_S(i)."""
    _check_team(team, inst.n)
    alpha = [0.0] * inst.n
    for i, share in _shares(inst, team):
        if share == math.inf:
            raise InfeasibleSetError(
                f"agent {i} has zero marginal but positive cost in this team"
            )
        alpha[i] = share
    return Contract(tuple(alpha))


def is_nash_equilibrium(inst: Instance, contract: Contract, team: int) -> bool:
    """Check the pure-equilibrium conditions of a contract for a team.

    Team members must not gain by shirking, and outsiders must not gain by
    exerting effort, under success-contingent payments alpha.
    """
    _check_team(team, inst.n)
    if len(contract.alpha) != inst.n:
        raise InputError("contract length must equal the agent count")
    f = inst.reward
    f_team = f.value(team)
    for i in range(inst.n):
        a = contract.alpha[i]
        bit = 1 << i
        if team & bit:
            if a * f_team - inst.costs[i] < a * f.value(team & ~bit) - EPS:
                return False
        else:
            if a * f_team < a * f.value(team | bit) - inst.costs[i] - EPS:
                return False
    return True


def enumerate_equilibria(inst: Instance, contract: Contract) -> list[int]:
    """All equilibrium teams of a contract, in ascending bitmask order."""
    _enum_gate(inst.n)
    return [
        team
        for team in range(1 << inst.n)
        if is_nash_equilibrium(inst, contract, team)
    ]


def contract_profit(inst: Instance, contract: Contract, team: int) -> float:
    """Principal's realized utility when a given contract induces a team."""
    _check_team(team, inst.n)
    return (1.0 - contract.total()) * inst.reward.value(team)


def light_agents(inst: Instance) -> int:
    """Mask of agents incentivizable alone for at most half the reward."""
    return mask_of(
        i for i, pay in enumerate(inst._singleton_payments) if pay <= 0.5 + EPS
    )


# ---------------------------------------------------------------------------
# function-class verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionClasses:
    is_monotone: bool
    is_submodular: bool
    is_subadditive: bool


def classify(f: SetFunction) -> FunctionClasses:
    """Exhaustively verify monotonicity, submodularity, and subadditivity.

    Submodularity is checked through the equivalent pairwise
    diminishing-returns condition f(T+i) - f(T) >= f(T+i+j) - f(T+j),
    which needs O(2^n n^2) comparisons instead of quantifying over all
    nested set pairs. Subadditivity follows from the XOS form or from exact
    submodularity where rounding provably cannot change the answer; other
    tables go through a pair kernel. Additive functions are classified
    analytically at any size; other representations raise above the cap.
    """
    if isinstance(f, Additive):
        return FunctionClasses(True, True, True)
    _class_gate(f.n)
    t, n = _value_array(f), f.n
    # Each kernel runs exactly (slack 0) first: fl(y - EPS) <= y, so a table
    # that passes exactly passes with EPS too, and the EPS pass runs only
    # when the exact one fails.
    monotone = _table_is_monotone(t, n, 0.0)
    submodular = _table_is_submodular(t, n, 0.0)
    # On an exactly monotone table f(B - A) <= f(B) and float addition rounds
    # monotonically, so a pair (A, B) fails only if the disjoint pair
    # (A, B - A) does: the disjoint kernel is exact. Others need all 4^n pairs.
    # Neither runs where the class hierarchy (submodular and XOS functions
    # are subadditive) decides the answer and, with every value in [0, 2]
    # and n <= 16, rounding cannot move it by EPS (u = 2^-53, V = 2 the
    # largest value). A clause sum of non-negative terms is within 2n u V of
    # its exact value, so f(A | B) - f(A) - f(B) is within 6n u V < 3e-14 of
    # an exactly XOS function's, which is at most 0. On an exactly
    # submodular table f(A | B) - f(A) - f(B) + f(A & B) telescopes into at
    # most 64 faces f(T+i) + f(T+j) - f(T+i+j) - f(T), each at least -4 u V
    # (6e-14 in all), and f(A & B) >= 0 covers overlapping pairs as well as
    # disjoint ones.
    hierarchy = isinstance(f, XosClauses) or submodular
    if hierarchy and 0.0 <= t.min() and t.max() <= 2.0:
        subadditive = True
    elif monotone:
        subadditive = _table_is_subadditive(t, n)
    else:
        subadditive = _all_pairs_subadditive(t, n)
    return FunctionClasses(
        monotone or _table_is_monotone(t, n, EPS),
        submodular or _table_is_submodular(t, n, EPS),
        subadditive,
    )


def is_submodular(f: SetFunction) -> bool:
    """Submodularity check alone; additive functions pass at any size."""
    if isinstance(f, Additive):
        return True
    _class_gate(f.n)
    return _table_is_submodular(_value_array(f), f.n)


def _within_class_cap(n: int) -> bool:
    """Whether a class can be verified on a 2^n table: the one CLASSIFY_CAP test."""
    return n <= CLASSIFY_CAP


def _class_verifiable(f: SetFunction) -> bool:
    """Whether f's class can be verified: analytically if additive, else by table."""
    return isinstance(f, Additive) or _within_class_cap(f.n)


def _class_gate(n: int) -> None:
    """Raise unless a class can be verified on a 2^n table."""
    if not _within_class_cap(n):
        raise SizeCapError(f"class verification capped at n <= {CLASSIFY_CAP}")


def _table_is_monotone(t: np.ndarray, n: int, slack: float) -> bool:
    """t[A + i] >= t[A] - slack for every team A and agent i not in it."""
    for i in range(n):
        split = t.reshape(-1, 2, 1 << i)  # [:, 1] holds agent i, [:, 0] not
        if not np.all(split[:, 1] >= split[:, 0] - slack):
            return False
    return True


def _table_is_submodular(t: np.ndarray, n: int, slack: float = EPS) -> bool:
    """t[A+i] + t[A+j] >= t[A+i+j] + t[A] - slack for every A and i < j not in A."""
    for i in range(n):
        for j in range(i + 1, n):
            # axis 1 splits teams by agent j, axis 3 by agent i
            q = t.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)
            with_i, with_j = q[:, 0, :, 1], q[:, 1, :, 0]
            if not np.all(with_i + with_j >= q[:, 1, :, 1] + q[:, 0, :, 0] - slack):
                return False
    return True


def _all_pairs_subadditive(t: np.ndarray, n: int) -> bool:
    masks = np.arange(1 << n)
    return all(np.all(t[masks | m] <= t[m] + t + EPS) for m in range(1 << n))


def _disjoint_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """All 3^k pairs (A, B) of disjoint masks over agents 0..k-1."""
    a = b = np.zeros(1, np.int64)
    for i in range(k):  # agent i joins A, joins B, or neither
        a, b = np.concatenate((a, a | 1 << i, a)), np.concatenate((b, b, b | 1 << i))
    return a, b


def _table_is_subadditive(t: np.ndarray, n: int) -> bool:
    """t[A | B] <= t[A] + t[B] + EPS for every disjoint pair (A, B): one vector
    over the pairs of the low agents, a loop over the pairs of the rest."""
    low = min(n, 9)  # 10 agents: no faster at n = 16, 2.3 MiB peak, not 0.9
    a, b = _disjoint_pairs(low)
    rows = t.reshape(-1, 1 << low)  # row h: the teams whose high agents are h
    for ha, hb in zip(*(h.tolist() for h in _disjoint_pairs(n - low))):
        if not np.all(rows[ha | hb][a | b] <= rows[ha][a] + rows[hb][b] + EPS):
            return False
    return True
