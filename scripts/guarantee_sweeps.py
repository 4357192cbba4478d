#!/usr/bin/env python3
"""Empirical worst-case sweep of the downsizing and reduction guarantees.

Generates seeded random submodular / XOS corpora, runs every guarantee at a
grid of shrink parameters and budgets, and prints the worst observed ratios
next to their proven floors. Useful for eyeballing how much slack the
constants leave on random inputs (the hard families in the frugality module
show where they are tight).

Usage: python scripts/guarantee_sweeps.py [--count 100] [--seed 0]
"""

from __future__ import annotations

import argparse
import math
import random
import sys

from budgeted_contracts import (
    brute_force_max,
    brute_solver,
    downsize_submodular,
    downsize_xos,
    payment,
    reduce_from_mrl,
    reduce_to_mrl,
    value,
)
from budgeted_contracts.corpora import submodular_corpus, xos_corpus
from budgeted_contracts.objectives import PROFIT, REWARD, WELFARE


SHRINK_PARAMS = (3, 4, 5, 8)
BUDGETS = (0.25, 0.5, 1.0)


def downsizing_sweep(name, corpus, rng, n_teams, downsize, slack, floor):
    """Worst value kept and payment ratio of one downsizing over one corpus.

    ``slack`` is 1 for bag-filling on submodular rewards and 2 for the XOS
    composition, whose recovery stage loses a factor two on each side; the
    proven floor is 1/(slack (M-1)) and the ceiling 2 slack / M. ``floor``
    spells the floor for the header.
    """
    worst_obj = {m: math.inf for m in SHRINK_PARAMS}
    worst_pay = {m: 0.0 for m in SHRINK_PARAMS}
    for inst in corpus:
        full = (1 << inst.n) - 1
        teams = {full} | {rng.randrange(1, full + 1) for _ in range(n_teams)}
        for team in teams:
            pay_team = payment(inst, team)
            if pay_team in (math.inf, 0.0):
                continue
            val_team = value(inst.reward, team)
            if val_team == 0.0:
                continue
            for m in SHRINK_PARAMS:
                res = downsize(inst, team, m)
                worst_obj[m] = min(worst_obj[m], res.objective_after / val_team)
                if res.subset.bit_count() > 1:
                    worst_pay[m] = max(worst_pay[m], res.payment_after / pay_team)
    title = f"{name} downsizing: "
    print(f"{title}worst value kept vs floor {floor},")
    print(f"{' ' * len(title)}worst payment ratio vs ceiling {2 * slack}/M")
    for m in SHRINK_PARAMS:
        print(
            f"  M={m}: value {worst_obj[m]:.4f} >= {1 / (slack * m - slack):.4f},"
            f" payment {worst_pay[m]:.4f} <= {2 * slack / m:.4f}"
        )


def reduction_sweep(count: int, seed: int) -> None:
    worst_fwd = math.inf
    worst_back = math.inf
    for inst in xos_corpus(count // 2, seed=seed + 20, n_hi=8):
        for budget in BUDGETS:
            hub = brute_force_max(REWARD, inst, budget, light_only=True)
            for obj in (REWARD, PROFIT, WELFARE):
                opt = brute_force_max(obj, inst, budget).value
                fwd = reduce_to_mrl(inst, budget, obj, hub.optimum)
                if opt > 0:
                    worst_fwd = min(worst_fwd, fwd.candidate_value / opt)
                back = reduce_from_mrl(inst, budget, 0.5, obj, brute_solver)
                if hub.value > 0:
                    worst_back = min(worst_back, back.candidate_value / hub.value)
    print("XOS reductions with exact inner solvers:")
    print(f"  objective kept through the hub: {worst_fwd:.4f} >= {1 / 41:.4f}")
    print(f"  hub reward kept from a solver:  {worst_back:.4f} >= {1 / 20:.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    count, seed = args.count, args.seed
    print(f"corpora: {count} instances per class, seed {seed}\n")
    downsizing_sweep(
        "submodular", submodular_corpus(count, seed=seed, n_hi=10),
        random.Random(seed + 1), 20, downsize_submodular, 1, "1/(M-1)",
    )
    print()
    downsizing_sweep(
        "XOS", xos_corpus(count, seed=seed + 10, n_hi=10),
        random.Random(seed + 2), 15, downsize_xos, 2, "1/(2M-2)",
    )
    print()
    reduction_sweep(count, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
