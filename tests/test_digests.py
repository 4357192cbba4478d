"""Seeded result digests: one sha256 and one count per family of results.

Each family runs a library entry point over seeded instances and hashes
every result it returns, floats encoded with ``float.hex`` (a numpy
scalar's ``repr`` changed in numpy 2, and ``==`` cannot tell -0.0 from
0.0). The instances are the dyadic corpora of ``corpora`` plus off-grid
additive instances whose float sums depend on the order agents are added,
with costs of 0.0, -0.0 and 5e-324 planted.

A refactor that claims to move no result keeps every digest. After an
intended change, re-record with ``PYTHONPATH=src python tests/test_digests.py``
and say which family moved and why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from budgeted_contracts import (
    Additive,
    Instance,
    PofQuery,
    additive_corpus,
    brute_force_max,
    check_best_conditions,
    downsize_submodular,
    downsize_xos,
    equivalence_pipeline,
    fptas_additive_profit,
    gen_additive_lb,
    knapsack_fptas,
    payment,
    pof,
    profit,
    submodular_corpus,
    xos_corpus,
)
from budgeted_contracts.objectives import PROFIT, REWARD, WELFARE
from budgeted_contracts.reductions import brute_solver

DIGESTS = Path(__file__).resolve().parent / "golden" / "result-digests.json"

OBJECTIVES = (REWARD, PROFIT, WELFARE)
PAIRS = ((PROFIT, REWARD), (REWARD, WELFARE), (WELFARE, PROFIT))


def _encode(x) -> str:
    if isinstance(x, bool) or x is None:
        return repr(x)
    if isinstance(x, int):
        return str(int(x))
    if isinstance(x, float):
        return float(x).hex()
    if isinstance(x, str):
        return x
    if dataclasses.is_dataclass(x):
        x = [getattr(x, f.name) for f in dataclasses.fields(x)]
    return "(" + ",".join(map(_encode, x)) + ")"


def _off_grid(count: int, seed: int, n_lo: int, n_hi: int) -> list[Instance]:
    """Additive instances with values off the dyadic grid, some zero, and
    costs of 0.0, -0.0 and 5e-324 planted among off-grid ones."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = n_lo + k % (n_hi - n_lo + 1)
        values = [rng.random() for _ in range(n)]
        total = sum(values) * (1 + rng.random())
        values = [v / total for v in values]
        if k % 3 == 2:
            values[rng.randrange(n)] = 0.0
        costs = [rng.random() * v * rng.choice((0.05, 0.2, 0.6)) for v in values]
        for planted in (0.0, -0.0, 5e-324):
            if rng.random() < 0.5:
                costs[rng.randrange(n)] = planted
        out.append(Instance(n, tuple(costs), Additive(tuple(values))))
    return out


def _additive() -> list[Instance]:
    return additive_corpus(8, 6, seed=41) + _off_grid(12, 42, 2, 9)


def _xos() -> list[Instance]:
    return xos_corpus(10, seed=43, n_lo=3, n_hi=8)


def _submodular() -> list[Instance]:
    return submodular_corpus(10, seed=44, n_lo=3, n_hi=8)


def _teams(inst: Instance, count: int, seed: int) -> list[int]:
    rng = random.Random(seed * 64 + inst.n)
    full = (1 << inst.n) - 1
    return sorted({0, full, *(rng.randrange(1, full + 1) for _ in range(count))})


def _payments_and_profits():
    for inst in _additive() + _xos() + _submodular():
        for team in _teams(inst, 24, 1):
            yield (payment(inst, team), profit(inst, team))


def _brute_solves():
    for inst in _additive() + _xos() + _submodular():
        for obj in OBJECTIVES:
            for budget in (0.1, 0.4, 1.0):
                yield brute_force_max(obj, inst, budget)


def _fptas_instances() -> list[Instance]:
    dyadic = [
        inst for n in (1, 3, 8, 17, 40, 63)
        for inst in additive_corpus(2 if n < 40 else 1, n, seed=45 + n)
    ]
    return dyadic + _off_grid(8, 46, 2, 9) + _off_grid(1, 47, 40, 40) + _off_grid(1, 48, 63, 63)


def _fptas():
    for inst in _fptas_instances():
        for eps in (0.3, 0.1, 0.05):
            for budget in (0.05, 0.3, 0.6, 1.0):
                yield fptas_additive_profit(inst, budget, eps)
                for obj in (REWARD, WELFARE):
                    yield knapsack_fptas(inst, budget, eps, obj)


def _downsizings():
    for inst in _additive() + _submodular():
        for team in _teams(inst, 4, 2)[1:]:
            for m in (3, 4, 5, 8):
                for psi in OBJECTIVES:
                    yield downsize_submodular(inst, team, m, psi)
    for inst in _additive() + _xos():
        for team in _teams(inst, 4, 3)[1:]:
            for m in (3, 4, 5, 8):
                yield downsize_xos(inst, team, m)


def _pipelines():
    paths = {"xos": _additive() + _xos(), "submodular": _additive() + _submodular()}
    for path, insts in paths.items():
        for inst in insts:
            for obj_from, obj_to in PAIRS:
                for b_from, b_to in ((0.5, 0.5), (0.3, 0.8)):
                    yield equivalence_pipeline(
                        inst, obj_from, b_from, obj_to, b_to, brute_solver, path=path
                    )


def _best_conditions():
    for inst in _additive() + _xos() + _submodular():
        for obj in OBJECTIVES:
            yield check_best_conditions(obj, inst)


def _pof_additive_lb():
    for n in (2, 5, 9, 12):
        for b in (0.1, 0.3, 0.5, 0.7):
            for big in (0.8, 1.0):
                inst = gen_additive_lb(n, b, big)
                for obj in OBJECTIVES:
                    yield pof(inst, PofQuery(b, big, obj))


FAMILIES = {
    "payment-profit": _payments_and_profits,
    "brute": _brute_solves,
    "fptas": _fptas,
    "downsize": _downsizings,
    "pipeline": _pipelines,
    "best-conditions": _best_conditions,
    "pof-additive-lb": _pof_additive_lb,
}


def digest(family: str) -> dict[str, object]:
    """The sha256 over one family's encoded results, one per line, and
    their count."""
    h, count = hashlib.sha256(), 0
    for result in FAMILIES[family]():
        h.update(_encode(result).encode() + b"\n")
        count += 1
    return {"sha256": h.hexdigest(), "count": count}


def test_every_family_is_recorded():
    assert sorted(json.loads(DIGESTS.read_text(encoding="utf-8"))) == sorted(FAMILIES)


@pytest.mark.parametrize("family", FAMILIES)
def test_recorded_digest_holds(family):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[family]
    assert digest(family) == want, f"the {family} results moved"


def record() -> None:
    """Rewrite the digest file from the current code."""
    body = {family: digest(family) for family in FAMILIES}
    DIGESTS.write_text(json.dumps(body, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
