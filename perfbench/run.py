#!/usr/bin/env python3
"""Benchmark of the budgeted-contracts CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exhaustive --seed 0 --seconds 25 --trace 0

One process drives ``budgeted_contracts.cli.main`` in-process as a closed
loop with one caller: each command starts when the previous one returns.
Every command writes its output with ``--out`` (and so its manifest) under
``.bench_work/`` in the checkout, which is removed at exit.

A run sets up the workload's inputs from the seed several times (the median
is ``setup_s``), then repeats the workload's fixed command sequence (a pass)
until ``--seconds`` are spent and reports medians over passes. Answers are
checked after every pass, outside the timed region. ``--trace 1`` instead
runs one untraced pass, installs span wrappers (``tracing.py``) and reports
per-layer metrics over traced passes, with the tracing overhead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each metric a value with its unit). The line
before it records provenance: seed, corpus version, versions and ``nproc``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median plus the package import.
SETUP_REPEATS = 3

#: The CPUs this process may run on when it starts.
CPUS = sorted(os.sched_getaffinity(0))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["exhaustive", "additive_fptas", "corpus_batch"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _import_package() -> float:
    """Import the library from this checkout's ``src``; return the seconds."""
    if not (SRC / "budgeted_contracts" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source under {SRC}")
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import budgeted_contracts.cli  # noqa: F401

    elapsed = perf_counter() - t0
    loaded = Path(sys.modules["budgeted_contracts"].__file__).resolve()
    if SRC not in loaded.parents:
        raise SystemExit(f"error: imported budgeted_contracts from {loaded}")
    return elapsed


def _probe() -> float:
    t0 = perf_counter()
    total = 0
    for i in range(100_000):
        total += i
    return perf_counter() - t0


def pin_fastest_cpu() -> None:
    """Pin this process to the CPU that runs a short probe loop fastest.

    On a shared host one vCPU is often slowed down by a neighbour for
    seconds at a time, and the scheduler moves a process between vCPUs, so
    pass times jump between two speeds. Choosing before each pass keeps a
    pass on the faster one.
    """
    def speed(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return statistics.median(_probe() for _ in range(5))

    if len(CPUS) > 1:
        os.sched_setaffinity(0, {min(CPUS, key=speed)})


class Runner:
    """Runs passes of one plan and checks their answers."""

    def __init__(self, plan, checks, references):
        from budgeted_contracts.serialize import load_instance

        self.plan = plan
        self.checks = checks
        self.references = references
        self.insts = {name: load_instance(path) for name, path in plan.instances.items()}
        self.attempted = 0
        self.failed = 0
        self._reported: set[str] = set()

    def run_pass(self) -> tuple[float, list[float], list[int]]:
        """One timed pass: wall seconds, per-command seconds, exit codes."""
        from budgeted_contracts import cli

        gc.collect()
        pin_fastest_cpu()
        times, codes = [], []
        t_pass = perf_counter()
        for cmd in self.plan.commands:
            t0 = perf_counter()
            try:
                rc = cli.main(cmd.argv)
            except Exception:  # a traceback is a failed command, not a crash
                traceback.print_exc()
                rc = -1
            times.append(perf_counter() - t0)
            codes.append(rc)
        return perf_counter() - t_pass, times, codes

    def check_pass(self, codes: list[int]) -> None:
        answers: dict[str, dict] = {}
        for cmd, rc in zip(self.plan.commands, codes):
            self.attempted += 1
            if rc != 0:
                errors = [f"exit code {rc}"]
            else:
                try:
                    got = answers[cmd.cid] = self.checks.answer(cmd)
                    errors = self.checks.check(cmd, got, self.insts, answers)
                    if self.references is not None:
                        ref = self.references.get(cmd.cid)
                        errors += (["no reference recorded"] if ref is None
                                   else self.checks.compare(got, ref))
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    errors = [f"unreadable answer: {exc!r}"]
            if errors:
                self.failed += 1
                if cmd.cid not in self._reported:
                    self._reported.add(cmd.cid)
                    print(f"check failed: {cmd.cid}: {'; '.join(errors)}", file=sys.stderr)


def _until(seconds: float, step) -> None:
    """Call ``step`` until ``seconds`` are spent; never start one that cannot fit."""
    spent = []
    t0 = perf_counter()
    while True:
        ts = perf_counter()
        step()
        spent.append(perf_counter() - ts)
        if perf_counter() - t0 + statistics.median(spent) > seconds:
            return


def timed_run(runner: Runner, seconds: float, kinds) -> tuple[dict, dict]:
    """End-to-end metrics from each command's fastest pass (see README.md)."""
    passes = []

    def step():
        wall, times, codes = runner.run_pass()
        runner.check_pass(codes)
        passes.append((wall, times))

    _until(seconds, step)
    kind_of = [c.kind for c in runner.plan.commands]
    latencies = [min(per_cmd) for per_cmd in zip(*(times for _, times in passes))]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {"wall_s": (min(w for w, _ in passes), "s")}
    for k in kinds:
        metrics[f"{k}_s"] = (sum(t for kd, t in zip(kind_of, latencies) if kd == k), "s")
    metrics["cmd_p50_ms"] = (1000 * deciles[4], "ms")
    metrics["cmd_p90_ms"] = (1000 * deciles[8], "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    info = {"passes": len(passes), "latency_samples": len(latencies),
            "pass_walls_s": [round(w, 4) for w, _ in passes]}
    return metrics, info


def traced_run(runner: Runner, seconds: float, rebuild) -> tuple[dict, dict]:
    """Per-layer metrics; untraced and traced passes alternate."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        rebuild()  # the set-up again, traced, for corpora.gen
        setup_stats = tracer.collect()
    finally:
        tracer.uninstall()
    stats, walls, untraced = [], [], []

    def step():
        wall, _, codes = runner.run_pass()
        runner.check_pass(codes)
        untraced.append(wall)
        tracer.reset()
        tracer.install()
        try:
            wall, _, codes = runner.run_pass()
        finally:
            tracer.uninstall()
        stats.append(tracer.collect())
        walls.append(wall)
        runner.check_pass(codes)

    _until(seconds, step)
    # Counts are equal in every pass; times are the fastest pass's.
    merged = {k: min(s.get(k, 0.0) for s in stats) for k in set().union(*stats)}
    merged["corpora.gen.self_s"] = setup_stats.get("corpora.gen.self_s", 0.0)
    metrics = tracing.layer_metrics(merged)
    metrics["trace.wall_s"] = (min(walls), "s")
    metrics["trace.overhead_s"] = (min(walls) - min(untraced), "s")
    return metrics, {"passes": len(walls), "untraced_wall_s": min(untraced)}


def main(argv=None, smoke: bool = False) -> int:
    args = _parse(argv)
    import_s = _import_package()
    import numpy

    import checks
    import workloads
    from budgeted_contracts.corpora import CORPUS_VERSION

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"

    def build():
        shutil.rmtree(work, ignore_errors=True)
        return workloads.build(args.workload, args.seed, work, smoke=smoke)

    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            pin_fastest_cpu()
            t0 = perf_counter()
            plan = build()
            setups.append(perf_counter() - t0)
        refs = None
        if args.seed == checks.DEFAULT_SEED and not smoke:
            refs = checks.load_references(args.workload)
        runner = Runner(plan, checks, refs)
        if args.trace:
            metrics, info = traced_run(runner, args.seconds, build)
        else:
            metrics, info = timed_run(runner, args.seconds, workloads.KINDS)
            metrics["setup_s"] = (import_s + statistics.median(setups), "s")
            metrics["success_rate"] = (1 - runner.failed / runner.attempted, "share")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sched_setaffinity(0, CPUS)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "corpus_version": CORPUS_VERSION,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commands_per_pass": len(plan.commands),
        "references_checked": refs is not None,
        **info,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
