"""Seeded random instance corpora for property suites and benchmarks.

All generated numbers are dyadic rationals (integer / power of two), so
value-oracle arithmetic on sums and maxima is exact in floats and guarantee
checks are not confounded by rounding. Recipes are versioned constants:
regenerating with the same seed reproduces the same instances byte for byte.

Submodular instances are weighted coverage functions (each agent covers a
random subset of a weighted universe), which are monotone submodular by
construction; they are ``core.Coverage`` rewards, written to instance files
as their weights, covers and scale, and tabulated (so capped at
``core.ENUM_CAP`` agents) when built or loaded. XOS instances are random
non-negative clause matrices, and additive instances are random value
vectors; all are normalized to keep rewards within [0, 1] by power-of-two
scaling. Costs are dyadic fractions of the owner's singleton value, so the
corpora mix light and heavy agents while every singleton stays
incentivizable.
"""

from __future__ import annotations

import random

from .core import (
    Additive,
    Coverage,
    Instance,
    InputError,
    XosClauses,
    _check_agent_count,
    _enum_gate,
)

#: Bump when any recipe below changes; recorded in run manifests.
CORPUS_VERSION = 1

#: Singleton payment levels assigned to agents (dyadic, includes heavies).
COST_LEVELS = (
    0.0,
    1 / 16,
    1 / 8,
    3 / 16,
    1 / 4,
    5 / 16,
    3 / 8,
    7 / 16,
    1 / 2,
    9 / 16,
    5 / 8,
    3 / 4,
)


def _pow2_at_least(x: float) -> float:
    scale = 1.0
    while scale < x:
        scale *= 2.0
    return scale


def _costs_for(rng: random.Random, singleton_values: list[float]) -> tuple[float, ...]:
    return tuple(rng.choice(COST_LEVELS) * v for v in singleton_values)


def random_submodular_instance(rng: random.Random, n: int) -> Instance:
    """Weighted-coverage reward over a universe of 2n elements: integer
    weights 1-8, a random cover per agent, and the smallest power-of-two
    scale at least the total weight."""
    _check_agent_count(n)
    _enum_gate(n)
    universe = 2 * n
    weights = [rng.randrange(1, 9) for _ in range(universe)]
    covers = []
    for _ in range(n):
        size = rng.randrange(1, max(2, universe // 2))
        covers.append(rng.sample(range(universe), size))
    reward = Coverage(weights, covers, _pow2_at_least(float(sum(weights))))
    singles = [reward.value(1 << i) for i in range(n)]
    return Instance(n=n, costs=_costs_for(rng, singles), reward=reward)


def random_xos_instance(rng: random.Random, n: int, n_clauses: int) -> Instance:
    """Random non-negative clause matrix, power-of-two normalized."""
    _check_agent_count(n)
    if n_clauses < 1:
        raise InputError("XOS representation needs at least one clause")
    clauses = [
        [rng.randrange(0, 33) / 32 for _ in range(n)] for _ in range(n_clauses)
    ]
    for i in range(n):  # every agent must be worth something alone
        if all(row[i] == 0.0 for row in clauses):
            clauses[rng.randrange(n_clauses)][i] = rng.randrange(1, 33) / 32
    norm = _pow2_at_least(max(sum(row) for row in clauses))
    rows = tuple(tuple(v / norm for v in row) for row in clauses)
    reward = XosClauses(rows)
    singles = [max(row[i] for row in rows) for i in range(n)]
    return Instance(n=n, costs=_costs_for(rng, singles), reward=reward)


def random_additive_instance(rng: random.Random, n: int) -> Instance:
    """Random positive dyadic values, power-of-two normalized."""
    _check_agent_count(n)
    values = [rng.randrange(1, 65) / 64 for _ in range(n)]
    norm = _pow2_at_least(sum(values))
    values = [v / norm for v in values]
    return Instance(n=n, costs=_costs_for(rng, values), reward=Additive(tuple(values)))


def submodular_corpus(
    count: int, seed: int, n_lo: int = 4, n_hi: int = 10
) -> list[Instance]:
    rng = random.Random(seed)
    return [
        random_submodular_instance(rng, n_lo + k % (n_hi - n_lo + 1))
        for k in range(count)
    ]


def xos_corpus(
    count: int, seed: int, n_lo: int = 4, n_hi: int = 10, max_clauses: int = 5
) -> list[Instance]:
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = n_lo + k % (n_hi - n_lo + 1)
        out.append(random_xos_instance(rng, n, rng.randrange(2, max_clauses + 1)))
    return out


def additive_corpus(count: int, n: int, seed: int) -> list[Instance]:
    rng = random.Random(seed)
    return [random_additive_instance(rng, n) for _ in range(count)]
