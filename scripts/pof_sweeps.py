#!/usr/bin/env python3
"""Price-of-frugality sweeps over every hard-instance family.

Writes one CSV per family under results/ (realized optima, ratios, and the
matching theoretical bounds) plus step-curve data for the three-agent clause
instance and the profit families, which is the plot-ready form of the
budget-versus-value staircases.

Usage: python scripts/pof_sweeps.py [--out-dir results] [--n 10]

Every sweep recomputes its table with ``--verify``, which also diffs it
against the existing table when that table's manifest records the same
arguments; a rerun with other arguments (another --n) rewrites it instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from budgeted_contracts.cli import main as cli_main
from budgeted_contracts.serialize import manifest_path


BIG_BUDGET = 1.0
GRID = "b=0.1:0.9:0.1"
#: The objectives swept per family, families in sweep order.
OBJECTIVES = {
    "additive-lb": ("reward", "welfare"),
    "xos-sep": ("reward",),
    "subadd-lb": ("reward",),
    "profit-2": ("profit",),
    "profit-k": ("profit",),
}
CURVE_FAMILIES = ("xos-sep", "profit-2", "profit-k")


def run(out_dir: Path, n: int) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for family, objectives in OBJECTIVES.items():
        for objective in objectives:
            out = out_dir / f"pof_{family}_{objective}.csv"
            args = [
                "pof",
                "--family", family,
                "--grid", GRID,
                "--B", str(BIG_BUDGET),
                "--n", str(n),
                "--objective", objective,
                "--out", str(out),
            ]
            if family in CURVE_FAMILIES:
                args.append("--emit-curve")
            recorded = _recorded_command(out)
            if recorded is None or recorded in (args, [*args, "--verify"]):
                args.append("--verify")  # recompute; diff with a table if one exists
            code = cli_main(args)
            status = "ok" if code == 0 else f"FAILED ({code})"
            print(f"  {family:12s} {objective:8s} -> {out.name:32s} {status}")
            failures += code != 0
    return failures


def _recorded_command(out: Path) -> list[str] | None:
    """The command line the manifest of ``out`` records, if it can be read."""
    try:
        text = Path(manifest_path(str(out))).read_text(encoding="utf-8")
        return json.loads(text)["command"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", type=Path)
    parser.add_argument("--n", default=10, type=int)
    args = parser.parse_args()
    print(f"Sweeping price-of-frugality families into {args.out_dir}/ ...")
    failures = run(args.out_dir, args.n)
    print("done." if not failures else f"{failures} sweeps failed.")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
