#!/usr/bin/env python3
"""Comparison mutants: which swapped comparisons the tier-1 suite lets pass.

Each mutant swaps one comparison operator of one source file (``<`` and
``<=``, ``>`` and ``>=``, ``==`` and ``!=``). The mutants are written into a
copy of the repository in a temporary directory, never into the working
tree, and the tier-1 suite runs once per mutant with ``-x -q``, one process
at a time. A mutant the suite passes has survived, and is printed as
``file:line old->new``; a run past ``--timeout`` counts as caught.

Usage: python scripts/mutants.py src/budgeted_contracts/core.py [...]
           [--timeout 300]

Each mutant costs one suite run, up to the first failure where the suite
catches it and the whole suite where it survives.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
SUITE = [sys.executable, "-m", "pytest", "-x", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def mutants(source: str) -> list[tuple[int, int, str, str]]:
    """(line, column, old, new) of every comparison operator in ``source``,
    in source order; comments, strings and shifts hold none."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [(*tok.start, tok.string, SWAPS[tok.string])
            for tok in tokens if tok.type == tokenize.OP and tok.string in SWAPS]


def mutate(source: str, mutant: tuple[int, int, str, str]) -> str:
    """``source`` with the operator of one mutant swapped."""
    line, col, old, new = mutant
    lines = io.StringIO(source).readlines()
    text = lines[line - 1]
    if text[col:col + len(old)] != old:
        raise ValueError(f"no {old!r} at {line}:{col}")
    lines[line - 1] = text[:col] + new + text[col + len(old):]
    return "".join(lines)


def _suite_passes(copy: Path, timeout: float) -> bool:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.Popen(SUITE, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the suite and what it started
        proc.wait()
        return False


def run(files: list[str], timeout: float) -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        total = survived = 0
        for name in files:
            rel = (Path.cwd() / name).resolve().relative_to(ROOT)
            target = copy / rel
            source = target.read_text(encoding="utf-8")
            for mutant in mutants(source):
                target.write_text(mutate(source, mutant), encoding="utf-8")
                total += 1
                if _suite_passes(copy, timeout):
                    survived += 1
                    line, _, old, new = mutant
                    print(f"{rel}:{line} {old}->{new}", flush=True)
            target.write_text(source, encoding="utf-8")
        print(f"{survived} of {total} mutants survived", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="source files to mutate")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds one suite run may take")
    args = parser.parse_args(argv)
    return run(args.files, args.timeout)


if __name__ == "__main__":
    sys.exit(main())
