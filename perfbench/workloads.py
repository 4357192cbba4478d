"""The benchmark's three workloads: seeded inputs plus a fixed CLI command list.

``build(name, seed, work, smoke)`` writes every instance file a workload
needs under ``work`` (this is the set-up the benchmark times as ``setup_s``)
and returns the :class:`Plan`: the commands of one pass, in order, each with
the facts its answer check needs. Inputs depend only on ``seed``; the
closed-form ``pof`` families take no seed by design.

Every workload contains every command kind, so that every end-to-end metric
exists on every workload. The kinds a workload is built around carry almost
all of its time; the others are a small fixed share (see README.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from budgeted_contracts import cli
from budgeted_contracts.core import payment
from budgeted_contracts.corpora import additive_corpus, submodular_corpus, xos_corpus
from budgeted_contracts.serialize import load_instance, save_instance

#: Command kinds, in the order their ``<kind>_s`` metrics are reported.
KINDS = ("solve_brute", "solve_fptas", "pof", "check", "downsize", "reduce")


@dataclass
class Command:
    """One CLI call of a pass: its argv, its kind, and what its check needs."""

    cid: str
    kind: str
    argv: list[str]
    out: str
    spec: dict = field(default_factory=dict)


@dataclass
class Plan:
    commands: list[Command]
    instances: dict[str, str]  # instance name -> file path


class _Builder:
    """Writes instance files and collects the commands of one pass."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.rng = random.Random(seed)
        self.instances: dict[str, str] = {}
        self.commands: list[Command] = []
        (work / "inst").mkdir(parents=True, exist_ok=True)
        (work / "out").mkdir(parents=True, exist_ok=True)

    # -- inputs --------------------------------------------------------------

    def gen(self, name: str, family: str, n: int, clauses: int | None = None) -> str:
        """Write one seeded random instance through the CLI ``gen`` command."""
        path = str(self.work / "inst" / f"{name}.json")
        argv = ["gen", "--family", family, "--n", str(n)]
        if clauses is not None:
            argv += ["--clauses", str(clauses)]
        argv += ["--seed", str(self.rng.randrange(1 << 31)), "--out", path]
        if cli.main(argv) != 0:
            raise RuntimeError(f"set-up failed: {' '.join(argv)}")
        self.instances[name] = path
        return name

    def save(self, name: str, inst) -> str:
        """Write one ``corpora`` instance through ``serialize.save_instance``."""
        path = str(self.work / "inst" / f"{name}.json")
        save_instance(inst, path)
        self.instances[name] = path
        return name

    def team(self, name: str) -> list[int]:
        """A seeded random team of two thirds of the agents, finite payment.

        The size is fixed so that a command's work does not swing with the
        seed; it only shrinks when no team of that size can be paid for.
        """
        inst = load_instance(self.instances[name])
        size = max(2, 2 * inst.n // 3)
        while True:
            for _ in range(200):
                team = sorted(self.rng.sample(range(inst.n), size))
                if payment(inst, sum(1 << i for i in team)) != float("inf"):
                    return team
            size -= 1

    # -- commands ------------------------------------------------------------

    def _add(self, kind: str, args: list[str], ext: str = "json", **spec) -> None:
        k = len(self.commands)
        out = str(self.work / "out" / f"{k:04d}.{ext}")
        shown = [Path(a).stem if a in self.instances.values() else a for a in args]
        self.commands.append(
            Command(f"{k:04d} " + " ".join(shown), kind, args + ["--out", out], out, spec)
        )

    def solve(self, inst: str, objective: str, budget: float, *, light=False) -> None:
        args = ["solve", "--instance", self.instances[inst], "--objective", objective,
                "--budget", repr(budget)]
        if light:
            args.append("--light-only")
        self._add("solve_brute", args, inst=inst, objective=objective, budget=budget,
                  light=light)

    def fptas(self, inst: str, objective: str, budget: float, epsilon: float,
              exact: str | None = None) -> None:
        """FPTAS solve; ``exact`` names a brute solve of the same problem."""
        args = ["solve", "--instance", self.instances[inst], "--objective", objective,
                "--budget", repr(budget), "--method", "fptas", "--epsilon", repr(epsilon)]
        self._add("solve_fptas", args, inst=inst, objective=objective, budget=budget,
                  epsilon=epsilon, exact=exact)

    def pof(self, family: str, n: int, grid: str, *, curve=False) -> None:
        args = ["pof", "--family", family, "--n", str(n)]
        args += ["--grid", grid] if "=" in grid else ["--b", grid]
        if curve:
            args.append("--emit-curve")
        self._add("pof", args, ext="csv", family=family, curve=curve)

    def check(self, inst: str, coverage: bool) -> None:
        self._add("check", ["check", "--instance", self.instances[inst]], inst=inst,
                  coverage=coverage)

    def downsize(self, inst: str, team: list[int], m: int, mode: str) -> None:
        args = ["downsize", "--instance", self.instances[inst],
                "--set", ",".join(map(str, team)), "--m", str(m), "--mode", mode]
        self._add("downsize", args, inst=inst, team=team, m=m, mode=mode)

    def reduce(self, inst: str, src: str, dst: str, path: str) -> None:
        args = ["reduce", "--instance", self.instances[inst], "--from", src, "--to", dst,
                "--solver", "brute", "--path", path]
        self._add("reduce", args, inst=inst, src=src, path=path)


def exhaustive(b: _Builder, smoke: bool) -> None:
    """2^n enumeration: brute-force solves, pof grids and class checks."""
    # Full enumeration of XOS teams, XOS checks and light-only solves (whose
    # cost is 2^(light agents), the most seed-dependent), coverage tables,
    # and the small instances of the minor kinds.
    enum, check, cov, tiny = (8, 6, 10, 5) if smoke else (13, 10, 16, 7)
    for k in range(2):
        b.gen(f"xos{enum}{k}", "random-xos", enum, clauses=4)
    b.gen(f"xos{enum - 1}", "random-xos", enum - 1, clauses=4)
    for k in range(3):
        b.gen(f"xos{check}{k}", "random-xos", check, clauses=4)
    b.gen(f"xos{cov}", "random-xos", cov, clauses=4)
    for n in (cov, cov - 1, cov - 4):
        b.gen(f"cov{n}", "random-submodular", n)
    for k in range(4):
        b.gen(f"add20{k}", "random-additive", 20)
    for k in range(12):
        b.gen(f"xos{tiny}{k}", "random-xos", tiny, clauses=4)
        b.gen(f"cov{tiny}{k}", "random-submodular", tiny)

    b.solve(f"xos{enum}0", "profit", 0.5)
    b.solve(f"xos{enum}1", "reward", 0.4)
    b.solve(f"xos{enum - 1}", "welfare", 0.6)
    for k in range(2):
        b.solve(f"xos{check}{k}", "reward", 0.5, light=True)
    b.solve(f"cov{cov}", "profit", 0.5)
    b.solve(f"cov{cov - 1}", "welfare", 0.3)
    b.pof("additive-lb", enum, "b=0.1:0.9:0.2")
    b.pof("subadd-lb", cov - 4, "b=0.2:0.8:0.3")
    b.pof("additive-lb", check, "b=0.25:0.75:0.25", curve=True)
    for k in range(3):
        b.check(f"xos{check}{k}", coverage=False)
    b.check(f"cov{cov - 4}", coverage=True)
    # The kinds below are a small share of this workload's time.
    for k in range(4):
        b.fptas(f"add20{k}", "profit", 0.5, 0.05)
        b.fptas(f"add20{k}", "reward", 0.5, 0.01)
    b.downsize(f"xos{cov}", b.team(f"xos{cov}"), 5, "xos")
    b.downsize(f"cov{cov - 4}", b.team(f"cov{cov - 4}"), 3, "submodular")
    for k in range(12):
        b.reduce(f"xos{tiny}{k}", "profit@0.5", "reward@0.5", "xos")
        b.reduce(f"cov{tiny}{k}", "welfare@0.5", "profit@0.5", "submodular")


def additive_fptas(b: _Builder, smoke: bool) -> None:
    """Polynomial DPs: profit FPTAS over an epsilon ladder, knapsack FPTAS."""
    n_mid, n_big = (14, 20) if smoke else (40, 63)
    eps = (0.2, 0.1) if smoke else (0.1, 0.05, 0.02)
    b.gen(f"add{n_mid}", "random-additive", n_mid)
    b.gen(f"add{n_big}", "random-additive", n_big)
    n_solve, n_check, n_reduce = (8, 7, 6) if smoke else (11, 9, 8)
    for k in range(6):
        b.gen(f"solve{k}", "random-additive", n_solve)
        b.gen(f"check{k}", "random-additive", n_check)
        b.gen(f"reduce{k}", "random-additive", n_reduce)

    # The profit DP's table size depends only on n and epsilon; the
    # knapsack epsilons keep its seed-dependent table below that, so that
    # peak RSS does not swing with the seed.
    for e in eps:
        b.fptas(f"add{n_mid}", "profit", 0.5, e)
    b.fptas(f"add{n_big}", "profit", 0.5, eps[0])
    for inst, e in ((f"add{n_mid}", 0.05), (f"add{n_big}", 0.1)):
        b.fptas(inst, "reward", 0.5, e)
        b.fptas(inst, "welfare", 0.5, e)
    # The kinds below are a small share of this workload's time; the brute
    # solves double as exact references for FPTAS answers on small inputs.
    for k in range(6):
        b.solve(f"solve{k}", "profit", 0.5)
        b.fptas(f"solve{k}", "profit", 0.5, 0.1, exact=b.commands[-1].cid)
        b.solve(f"solve{k}", "reward", 0.3)
        b.fptas(f"solve{k}", "reward", 0.3, 0.05, exact=b.commands[-1].cid)
        b.check(f"check{k}", coverage=False)
        b.reduce(f"reduce{k}", "profit@0.5", "reward@0.5", "submodular")
        b.reduce(f"reduce{k}", "welfare@0.5", "profit@0.5", "xos")
    b.pof("additive-lb", n_solve, "b=0.1:0.9:0.2")
    for inst in (f"add{n_big}", f"add{n_mid}") * 3:
        team = b.team(inst)
        b.downsize(inst, team, 4, "submodular")
        b.downsize(inst, team, 5, "xos")


def corpus_batch(b: _Builder, smoke: bool) -> None:
    """Many millisecond commands on small corpus instances."""
    count = 6 if smoke else 60
    seeds = [b.rng.randrange(1 << 31) for _ in range(3)]
    xos = [b.save(f"x{k:03d}", inst)
           for k, inst in enumerate(xos_corpus(count, seeds[0], 6, 10, max_clauses=4))]
    cov = [b.save(f"c{k:03d}", inst)
           for k, inst in enumerate(submodular_corpus(count, seeds[1], 6, 10))]
    add = [b.save(f"a{k:03d}", inst)
           for k, inst in enumerate(additive_corpus(max(2, count // 6), 16, seeds[2]))]

    for k, (x, c) in enumerate(zip(xos, cov)):
        b.solve(x, "profit", 0.5)
        b.downsize(x, b.team(x), 3 + k % 3, "xos")
        b.reduce(x, "profit@0.5", "reward@0.5", "xos")
        b.solve(c, "reward", 0.4)
        team = b.team(c)
        b.downsize(c, team, 3 + k % 3, "submodular")
        b.downsize(c, team, 3 + k % 3, "xos")
        b.reduce(c, "welfare@0.5", "profit@0.5", "submodular")
        if k % 5 == 0:
            b.check(x, coverage=False)
            b.check(c, coverage=True)
            b.pof("xos-sep", 3, repr(0.3 + 0.01 * (k // 5)))
            b.pof("profit-2", 2, repr(0.4 + 0.01 * (k // 5)))
    for a in add:
        b.fptas(a, "profit", 0.5, 0.1)
        b.fptas(a, "reward", 0.5, 0.05)


WORKLOADS = {
    "exhaustive": exhaustive,
    "additive_fptas": additive_fptas,
    "corpus_batch": corpus_batch,
}


def build(name: str, seed: int, work: Path, smoke: bool = False) -> Plan:
    """Write the workload's inputs under ``work`` and return its pass plan."""
    builder = _Builder(work, seed)
    WORKLOADS[name](builder, smoke)
    return Plan(builder.commands, builder.instances)
