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
import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

#: Absolute tolerance for feasibility / equilibrium / class checkers.
EPS = 1e-9

#: Cap on n for exhaustive subset enumeration (equilibria, brute force).
ENUM_CAP = 20

#: Cap on n for the subadditivity kernels of class verification (3^n and 4^n
#: steps); submodularity is checked wherever a reward tabulates.
CLASSIFY_CAP = 16

#: Cap on n for the class audits that gather their faces (monotonicity, the
#: submodular pairs, the drop condition of BEST objectives): up to it, from
#: a size set per audit, each audit checks its first agent or pair alone and
#: then every other face in one gather over index arrays cached per n; above
#: it, one pass per agent or pair, since from n = 11 on a fresh process
#: spends more building the indices and their temporaries than the gather
#: saves.
GATHER_CAP = 10

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
    if team < 0:
        raise InputError("a team mask cannot be negative")
    if team >> n:
        raise InputError(f"team has agent {team.bit_length() - 1} outside 0..{n - 1}")


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
class XosClauses:
    """f(S) = max over clauses of the clause's additive sum on S.

    Every function of this form is fractionally subadditive (XOS); an
    additive function is the one-clause subclass ``Additive``.
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


@dataclass(frozen=True)
class Additive(XosClauses):
    """f(S) = sum of per-agent values over S: the one-clause XOS form, its
    ``clauses`` the derived row ``(values,)``, compared and shown by ``values``."""

    clauses: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "clauses", (values,))
        if not all(0 <= v < math.inf for v in values):
            raise InputError("additive values must be finite and non-negative")

    def value(self, team: int) -> float:
        return _sum_over(self.values, bits(team))

    def drop_values(self, team: int) -> tuple[float, list[float]]:
        """f(S) and f(S - {i}) for each member i of S, ascending, in one pass.

        Each equals ``value`` bit for bit. With members a_0 < a_1 < ...,
        the sum over S - {a_j} first adds a_0 .. a_(j-1), which is the
        prefix sum P_j, and then the values after a_j in order; ``reduce``
        repeats exactly those additions. That is O(|S|^2) additions in C
        against |S| + 1 walks of ``value``.
        """
        xs = list(map(self.values.__getitem__, bits(team)))
        total, drops = 0.0, []
        for j, x in enumerate(xs, 1):
            drops.append(functools.reduce(operator.add, xs[j:], total))
            total += x
        return total, drops


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
        self._take(np.array(self.values, np.float64))

    @classmethod
    def _owning(cls, vals: np.ndarray) -> Table:
        """A table holding ``vals`` itself, checked as a copied input is: for
        a fresh float64 array that its caller drops, so a 2^n table is not
        built twice."""
        table = object.__new__(cls)
        table._take(vals)
        return table

    def _take(self, vals: np.ndarray) -> None:
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


def _pass_order(i: int) -> str:
    """The ufunc iteration order of a pass over bit i of a 2^n table seen as
    (-1, 2, 2^i): "F" on bits 1 and 2, whose rows hold only 2 or 4 masks, so
    the inner loop runs down the long axis; "K" (memory order) elsewhere."""
    return "F" if 1 <= i <= 2 else "K"


def _superset_sums(h: np.ndarray, n: int) -> None:
    """Replace each h[A], over the 2^n masks, by the sum of h[B] over the
    supersets B of A, in place, one add per bit. On integer entries whose
    total is below 2^53 every partial sum is an integer below 2^53, so each
    sum is exact in any order of addition.
    """
    for i in range(n):
        split = h.reshape(-1, 2, 1 << i)  # [:, 1] holds bit i, [:, 0] not
        np.add(split[:, 0], split[:, 1], out=split[:, 0], order=_pass_order(i))


@dataclass(frozen=True, eq=False)
class Coverage(Table):
    """Weighted coverage: f(S) is the weight of the elements that some member
    of S covers, divided by ``scale``.

    ``weights`` are non-negative integers summing below 2^53, ``covers[i]``
    holds the element indices agent i covers (kept sorted, without repeats),
    and ``scale`` is a power of two, so each f(S) is an exact integer
    divided by a power of two: one rounding, whatever the order of addition.
    The table is built once, at construction: with h[A] the weight of the
    elements that exactly the agents in A leave uncovered, the superset sums
    g[T] of h weigh what T leaves uncovered, and f(T) = (W - g[T]) / scale
    for the total weight W. Queries, equality and every table-reading path
    are a ``Table``'s. A non-negative coverage function is monotone,
    submodular and subadditive, so ``classify`` and ``is_submodular``
    answer without a kernel.
    """

    values: np.ndarray = field(init=False, repr=False)
    weights: tuple[int, ...]
    covers: tuple[tuple[int, ...], ...]
    scale: float

    def __post_init__(self):
        weights = tuple(self.weights)
        if not all(type(w) is int and w >= 0 for w in weights):
            raise InputError("coverage weights must be non-negative integers")
        total = sum(weights)
        if total >= 1 << 53:
            raise InputError("coverage weights must sum below 2^53")
        covers = tuple(map(tuple, self.covers))
        n = len(covers)
        _enum_gate(n)
        missed = [(1 << n) - 1] * len(weights)  # the agents not covering u
        for i, c in enumerate(covers):
            for u in c:
                if type(u) is not int or not 0 <= u < len(weights):
                    raise InputError(
                        f"cover elements must be integers in 0..{len(weights) - 1}"
                    )
                missed[u] &= ~(1 << i)
        scale = self.scale
        if type(scale) not in (float, int) or not (
            0 < scale <= sys.float_info.max and math.frexp(scale)[0] == 0.5
        ):
            raise InputError(f"coverage scale must be a power of two, got {scale!r}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "covers", tuple(tuple(sorted(set(c))) for c in covers))
        object.__setattr__(self, "scale", float(scale))
        h = np.bincount(
            np.array(missed, np.int64),
            weights=np.array(weights, np.float64),
            minlength=1 << n,
        ).astype(np.float64, copy=False)  # counts of no elements come as int64
        _superset_sums(h, n)  # h[T]: the weight no member of T covers
        np.subtract(float(total), h, out=h)
        with np.errstate(over="ignore"):  # an overflow fails as not finite
            h /= scale
        self._take(h)


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
    acc = _subset_sums(f.clauses[0], f.n)
    for row in f.clauses[1:]:
        np.maximum(acc, _subset_sums(row, f.n), out=acc)
    return acc


def to_table(f: SetFunction) -> Table:
    """Materialize any representation as an explicit table."""
    if isinstance(f, Table):
        return f
    return Table._owning(_value_array(f))


def restrict(f: SetFunction, agents: Sequence[int]) -> SetFunction:
    """Restrict f to a sub-list of agents, re-indexed to 0..len(agents)-1."""
    agents = list(agents)
    if len(set(agents)) != len(agents):
        raise InputError("duplicate agents in restriction")
    for i in agents:
        if not 0 <= i < f.n:
            raise InputError(f"agent {i} out of range")
    if isinstance(f, Table):
        masks = _subset_sums(np.array([1 << i for i in agents], np.int64), len(agents))
        return Table._owning(f.values[masks])
    rows = tuple(tuple(row[i] for i in agents) for row in f.clauses)
    return Additive(rows[0]) if isinstance(f, Additive) else XosClauses(rows)


def demand(f: SetFunction, prices: Sequence[float]) -> int:
    """Demand-oracle query: a team maximizing f(S) - sum of prices over S.

    For clause representations each clause j contributes the candidate
    S_j = {i : clause_j[i] > q_i} (price ties excluded); the surplus optimum
    is attained at one of these, so scoring the candidates under the true f
    is exact, and a lone candidate is returned unscored. Ties break toward
    the lexicographically smallest bitmask, as an ascending exhaustive scan.
    """
    prices = [float(q) for q in prices]
    if len(prices) != f.n:
        raise InputError("price vector length must equal the agent count")
    if not all(q >= 0 for q in prices):  # NaN fails every comparison
        raise InputError("prices must be non-negative")
    if isinstance(f, Table):
        return int(np.argmax(f.values - _subset_sums(prices, f.n)))
    cands = {
        mask_of(i for i, v in enumerate(row) if v > prices[i]) for row in f.clauses
    }
    if len(cands) == 1:
        return cands.pop()
    return _best_team(cands, lambda t: f.value(t) - _sum_over(prices, bits(t)))[0]


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
        if not isinstance(self.reward, (XosClauses, Table)):
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
    def _profit_table(self) -> np.ndarray:
        earned = _profits(*self._team_table)
        earned.flags.writeable = False
        return earned

    @functools.cached_property
    def _submodular(self) -> bool:
        return is_submodular(self.reward)

    @functools.cached_property
    def _singleton_values(self) -> tuple[float, ...]:
        f = self.reward
        return tuple(f.value(1 << i) for i in range(self.n))

    @functools.cached_property
    def _singleton_payments(self) -> tuple[float, ...]:
        return tuple(map(_pay_term, self.costs, self._singleton_values))


def _same_instance(a: Instance, b: Instance) -> bool:
    """Whether two instances are equal bit for bit: the same n, the same cost
    bits, and the same reward representation with the same value bits. Unlike
    ``==``, -0.0 and 0.0 differ, so an instance found the same as one already
    built can stand in for it, with the team table and class flag it keeps."""
    fa, fb = a.reward, b.reward
    # costs that differ as floats differ in their bits too, and the float
    # test is the cheaper one where they do
    if a.n != b.n or type(fa) is not type(fb) or a.costs != b.costs:
        return False
    pairs = ((a.costs, b.costs), (_reward_floats(fa), _reward_floats(fb)))
    return all(
        np.array_equal(
            np.asarray(x, np.float64).view(np.uint64),
            np.asarray(y, np.float64).view(np.uint64),
        )
        for x, y in pairs
    )


def _reward_floats(f: SetFunction):
    return f.values if isinstance(f, Table) else f.clauses


def _empty_value(f: SetFunction) -> float:
    """f({}): 0 for the additive and XOS forms, asked of no oracle."""
    return f.values.item(0) if isinstance(f, Table) else 0.0


def _value_range(f: SetFunction) -> tuple[float, float]:
    if isinstance(f, Table):
        return f.values.min(), f.values.max()
    return 0.0, max(_sum_over(row, range(f.n)) for row in f.clauses)


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


def _margins(
    f: SetFunction, team: int, f_team: float | None = None
) -> tuple[float, dict[int, float]]:
    """f(S) and each member's marginal f(S) - f(S - {i}), members ascending:
    the one path by which payments, profits, contracts and both downsizings
    ask a team's drops.

    An additive team of four or more gives f(S) and every f(S - {i}) in one
    ``drop_values`` pass; at three members or fewer the queries below take
    less time. Other teams are asked f(S), unless the caller already holds
    it as ``f_team``, and then f(S - {i}) for each member, every one even
    where a share turns out infinite, which leaves a sum of shares as it was
    (inf + x = inf). f({}) is asked of no oracle: it is ``_empty_value``,
    both as f(S) of the empty team and as the drop of a one-member team.
    """
    if isinstance(f, Additive) and team.bit_count() > 3:
        f_team, drops = f.drop_values(team)
        return f_team, {i: f_team - drop for i, drop in zip(bits(team), drops)}
    if f_team is None:
        f_team = f.value(team) if team else _empty_value(f)
    if team.bit_count() == 1:
        return f_team, {team.bit_length() - 1: f_team - _empty_value(f)}
    marg = {}
    for i in bits(team):  # a loop, not a comprehension: faster on a small team
        marg[i] = f_team - f.value(team & ~(1 << i))
    return f_team, marg


def _pay(inst: Instance, marg: dict[int, float]) -> float:
    """p(S) from the members' marginals: their shares summed in member order."""
    total = 0.0
    for i, mg in marg.items():
        total += _pay_term(inst.costs[i], mg)
    return total


def _paid(inst: Instance, marg: dict[int, float]) -> tuple[dict[int, float], float]:
    """Each member's payment share c_i / f_S(i), from its marginal, and p(S),
    their sum, which equals ``payment`` bit for bit."""
    share = {i: _pay_term(inst.costs[i], mg) for i, mg in marg.items()}
    return share, _sum_over(share, share)


def payment(inst: Instance, team: int) -> float:
    """Minimum total payment incentivizing exactly this team (may be +inf)."""
    _check_team(team, inst.n)
    return _pay(inst, _margins(inst.reward, team)[1])


def team_table(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Reward and payment of every team mask, as two read-only arrays of
    length 2^n.

    Entries equal ``value`` and ``payment`` bit for bit, although a free
    agent (cost 0.0 or -0.0) adds nothing to the payments: its share is
    +-0.0 in every team, and adding +-0.0 leaves each payment, +0.0, positive
    or inf, with the same bits. The pair is built on the first call and kept
    on the instance, which is immutable, so callers asking again about one
    instance (a ``pof`` cell and its curves, the ``pof`` cells whose instance
    is bit for bit the last cell's, the three objectives ``check`` verifies)
    share one build; it lives as long as the instance does.
    """
    return inst._team_table


def _tabulate(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """``team_table`` built afresh. Payments take one pass per agent with a
    positive cost, so no n x 2^n array is built.

    A free agent's pass is skipped, which is exact: its share is 0/m = +-0.0
    on a positive margin and 0 by the 0/0 convention otherwise, and the
    payments start at +0.0 and gain only shares that are +0.0, positive or
    inf, so adding +-0.0 to any of them changes no bit. With every cost left
    positive, a margin <= 0 gives a share of +-inf, so its teams sum to +-inf
    or nan, and one pass after the loop makes each of those payments inf.
    """
    f = _value_array(inst.reward)
    pay = np.zeros(f.shape)
    term = np.empty(len(f) // 2)  # a pass's margins, then its shares
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, cost in enumerate(inst.costs):
            if cost == 0.0:  # -0.0 too
                continue
            # axis 1 splits teams by agent i: [:, 1] holds it, [:, 0] not
            split, order = f.reshape(-1, 2, 1 << i), _pass_order(i)
            rows = term.reshape(-1, 1 << i)
            np.subtract(split[:, 1], split[:, 0], out=rows, order=order)
            np.maximum(term, 0.0, out=term)  # a margin <= 0 divides to +-inf
            np.divide(cost, term, out=term)
            paid = pay.reshape(-1, 2, 1 << i)[:, 1]
            np.add(paid, rows, out=paid, order=order)
        pay[~(pay >= 0.0)] = math.inf  # -inf or nan: a member's margin was <= 0
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


def singleton_team_payment(inst: Instance, agent: int) -> float:
    """Payment of the one-agent team {i}: c_i / (f({i}) - f({})).

    It is ``payment(inst, 1 << agent)`` bit for bit, from the singleton
    values the instance keeps, and equals ``singleton_payment`` wherever
    f({}) = 0.
    """
    if not 0 <= agent < inst.n:
        raise InputError(f"agent {agent} out of range")
    margin = inst._singleton_values[agent] - _empty_value(inst.reward)
    # p(S) sums the shares from 0.0, so a free agent's -0.0 share pays +0.0
    return 0.0 + _pay_term(inst.costs[agent], margin)


def profit(inst: Instance, team: int) -> float:
    """Principal's expected utility (1 - p(S)) * f(S).

    An unincentivizable team with positive reward maps to -inf so solvers
    rank it last; if f(S) = 0 the profit is 0 regardless of payment.
    """
    _check_team(team, inst.n)
    f_team, marg = _margins(inst.reward, team)
    return _profit(f_team, _pay(inst, marg))


def _profit(f_team: float, pay: float) -> float:
    """``profit`` of a team from its f(S) and p(S)."""
    if f_team == 0.0:
        return 0.0
    if pay == math.inf:
        return -math.inf
    return (1.0 - pay) * f_team


def _profits(f: np.ndarray, pay: np.ndarray) -> np.ndarray:
    """``_profit`` of every team, bit for bit, from a team table's f and p."""
    earned = np.subtract(1.0, pay)
    with np.errstate(invalid="ignore"):  # (1 - inf) * 0.0
        np.multiply(earned, f, out=earned)
    np.copyto(earned, -math.inf, where=pay == math.inf)
    np.copyto(earned, 0.0, where=f == 0.0)
    return earned


def optimal_contract_for(inst: Instance, team: int) -> Contract:
    """Cheapest contract making this team an equilibrium: alpha_i = c_i / f_S(i)."""
    _check_team(team, inst.n)
    alpha = [0.0] * inst.n
    for i, share in _paid(inst, _margins(inst.reward, team)[1])[0].items():
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
    analytically at any size; other representations raise above the cap,
    where a coverage function is then in all three classes by construction.
    """
    if isinstance(f, Additive):
        return FunctionClasses(True, True, True)
    _class_gate(f.n)
    if isinstance(f, Coverage):
        return FunctionClasses(True, True, True)
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
    """Submodularity check alone; additive functions pass at any size and
    coverage functions by construction, others are checked wherever they
    tabulate (n <= ENUM_CAP)."""
    if isinstance(f, (Additive, Coverage)):
        return True
    return _table_is_submodular(_value_array(f), f.n)


def _class_gate(n: int) -> None:
    """The one CLASSIFY_CAP gate: raise before a subadditivity kernel, which
    takes 3^n or 4^n steps, runs on a 2^n table."""
    if n > CLASSIFY_CAP:
        raise SizeCapError(f"class verification capped at n <= {CLASSIFY_CAP}")


def _table_is_monotone(t: np.ndarray, n: int, slack: float) -> bool:
    """t[A + i] >= t[A] - slack for every team A and agent i not in it: agent
    by agent, or within the gather's range agent 0 and then the others in one
    gather."""
    gather = _gather_gate(n, _AGENTS_GATHER_FROM)
    for i in range(n):
        split = t.reshape(-1, 2, 1 << i)  # [:, 1] holds agent i, [:, 0] not
        if not (split[:, 1] >= split[:, 0] - slack).all():
            return False
        if gather:
            up, down, _ = _agent_faces(n)
            return bool((t.take(up) >= t.take(down) - slack).all())
    return True


def _table_is_submodular(t: np.ndarray, n: int, slack: float = EPS) -> bool:
    """t[A+i] + t[A+j] >= t[A+i+j] + t[A] - slack for every A and i < j not in A.

    At slack EPS a near-modular table passes on its certificate alone.
    """
    if slack == EPS and _near_modular(t, n):
        return True
    return _submodular_pairs(t, n, slack)


def _near_modular(t: np.ndarray, n: int) -> bool:
    """Whether every value lies in [0, 2] and t is within EPS/8 of the modular
    table g its singletons span, summed as the team tables are.

    Then every face passes the pair kernel at slack EPS (u = 2^-53, n <= 20).
    g adds m_i = t[{i}] - t[{}], each |m_i| <= 2, in at most n + 1 roundings
    of partial sums at most 2n + 2 in size, so it is within (n + 1)(2n + 2) u
    < 1e-13 of an exactly modular function, whose faces are 0. Each real face
    t[A+i] + t[A+j] - t[A+i+j] - t[A] is then at least -4 (EPS/8 + 1e-13) >
    -EPS/2 - 1e-12, and evaluating fl(a + b) >= fl(fl(c + d) - EPS) on
    values in [0, 2] rounds three sums of at most 4, losing at most 12 u in
    all: far short of the EPS/2 left over.
    """
    if not (0.0 <= t.min() and t.max() <= 2.0):
        return False
    g = _subset_sums(t[1 << np.arange(n)] - t[0], n)
    g += t[0]
    g -= t  # in place: a fresh 2^16 array per step costs 4 times as much
    return bool(np.abs(g, out=g).max() <= EPS / 8)


def _submodular_pairs(t: np.ndarray, n: int, slack: float) -> bool:
    """The pair kernel: every face of every pair i < j, one vector per pair,
    or within the gather's range the first pair and then the others in one
    gather."""
    gather = _gather_gate(n, _PAIRS_GATHER_FROM)
    for i in range(n):
        for j in range(i + 1, n):
            # axis 1 splits teams by agent j, axis 3 by agent i
            q = t.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)
            with_i, with_j = q[:, 0, :, 1], q[:, 1, :, 0]
            if not (with_i + with_j >= q[:, 1, :, 1] + q[:, 0, :, 0] - slack).all():
                return False
            if gather:
                with_i, with_j, both, base = map(t.take, _pair_faces(n))
                return bool((with_i + with_j >= both + base - slack).all())
    return True


def _drop_condition(phi: np.ndarray, f: np.ndarray, n: int) -> bool:
    """phi[S] <= f[S - {i}] + phi[{i}] + EPS for every team S and member i:
    dropping an agent loses at most its own singleton value. Agent by agent,
    or within the gather's range agent 0 and then the others in one gather."""
    gather = _gather_gate(n, _AGENTS_GATHER_FROM)
    for i in range(n):
        split_phi = phi.reshape(-1, 2, 1 << i)
        split_f = f.reshape(-1, 2, 1 << i)
        if not (split_phi[:, 1] <= split_f[:, 0] + phi[1 << i] + EPS).all():
            return False
        if gather:
            up, down, single = _agent_faces(n)
            return bool((phi.take(up) <= f.take(down) + phi.take(single) + EPS).all())
    return True


#: The smallest n at which the agent audits (monotonicity, the drop
#: condition) and the pair kernel gather. On fewer agents the passes the
#: loop has left after its first, n - 1 or n(n - 1)/2 - 1, cost a fresh
#: process less than building the indices; from these sizes on a first call
#: costs about as much as the loop's and every later one less.
_AGENTS_GATHER_FROM = 9
_PAIRS_GATHER_FROM = 6


def _gather_gate(n: int, smallest: int) -> bool:
    """The one GATHER_CAP gate: whether a class audit over n agents that
    gathers from ``smallest`` agents on gathers the faces after its first
    agent or pair."""
    return smallest <= n <= GATHER_CAP


def _insert_zero(k: np.ndarray, i: np.ndarray) -> np.ndarray:
    """k with a 0 bit inserted at position i: the bits from i up move one up."""
    return k + (k >> i << i)


@functools.cache
def _agent_faces(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The faces after agent 0 of the agent loops, as int32 masks: A + i and A
    for each agent i >= 1 (a row) and team A without i (ascending), and {i}
    (a column)."""
    i = np.arange(1, n, dtype=np.int32)[:, None]
    down, single = _insert_zero(np.arange(1 << (n - 1), dtype=np.int32), i), 1 << i
    return down + single, down, single


@functools.cache
def _pair_faces(n: int) -> tuple[np.ndarray, ...]:
    """The faces after pair (0, 1) of the pair loop, as int32 masks: A + i,
    A + j, A + i + j and A for each pair i < j (a row, in the loop's order)
    and team A without either (ascending)."""
    pairs = list(itertools.combinations(range(n), 2))[1:]
    i, j = np.array(pairs, np.int32).reshape(-1, 2, 1).transpose(1, 0, 2)
    base = _insert_zero(_insert_zero(np.arange(1 << (n - 2), dtype=np.int32), i), j)
    with_i = base + (1 << i)
    return with_i, base + (1 << j), with_i + (1 << j), base


def _all_pairs_subadditive(t: np.ndarray, n: int) -> bool:
    masks = np.arange(1 << n)
    return all((t[masks | m] <= t[m] + t + EPS).all() for m in range(1 << n))


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
        if not (rows[ha | hb][a | b] <= rows[ha][a] + rows[hb][b] + EPS).all():
            return False
    return True
