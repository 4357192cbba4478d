"""Command-line driver: solve, downsize, reduce, pof, gen, check.

Every output written to a regular file gets a ``<out>.manifest.json``
sidecar recording the command line, input-file hashes (of the bytes the
command read: an instance file is read once), tool version, seed,
wall time, corpus version and the Python and numpy versions; data files
themselves contain nothing nondeterministic, so rerunning a manifest's
command reproduces the bytes. Both go through ``serialize.write_text``,
which rewrites an existing file in place. ``--verify`` recomputes the
output in-process and, before writing, diffs it against an existing regular
file (``serialize.differs``); a FIFO or a device holds no earlier output.
Exit codes: 0 success, 1 I/O failure, 2 precondition, input or usage error;
errors print a single ``error: <kind>: <reason>`` line to stderr, an
unknown, missing or malformed flag included (kind ``usage``).
``--help`` prints its text to stdout and returns 0 from ``main``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import sys
import time

from . import __version__
from .core import (
    EPS,
    ContractsError,
    InputError,
    Instance,
    _same_instance,
    classify,
    mask_of,
    payment,
)
from .corpora import (
    random_additive_instance,
    random_submodular_instance,
    random_xos_instance,
)
from .downsizing import check_reward_class, downsize_submodular, downsize_xos
from .frugality import (
    PofQuery,
    best_head_count,
    gen_additive_lb,
    gen_profit_lb_k,
    gen_profit_lb_two,
    gen_subadditive_lb,
    gen_xos_separation,
    pof,
    value_payment_curve,
)
from .objectives import OBJECTIVES, PROFIT, REWARD, WELFARE, check_best_conditions
from .reductions import SOLVERS, equivalence_pipeline
from .serialize import (
    RunManifest,
    differs,
    instance_text,
    jsonable,
    objective_from_name,
    parse_objective_at_budget,
    read_instance,
    team_to_list,
    write_manifest,
    write_text,
)
from .solvers import brute_force_max, fptas_additive_profit, knapsack_fptas


def _fmt(x) -> str:
    if x is None:
        return "undefined"
    if isinstance(x, float):
        return repr(x)
    return str(x)


#: Most agents or clauses a generated instance may hold: ``gen``'s random
#: additive and XOS families (``--n``, ``--clauses``) and the ``profit-k``
#: head count (``--k``, or the one ``--n`` and ``--b`` give) in ``gen`` and
#: ``pof``. The largest instances the solvers here run at desk scale have
#: 400 agents (the profit FPTAS); the bound stops a huge size before any
#: list is built.
_MAX_GEN_SIZE = 1_000


def _gen_size(name: str, size: int) -> int:
    """``size`` if a generator may build that many agents or clauses."""
    if size > _MAX_GEN_SIZE:
        raise InputError(f"{name} must be at most {_MAX_GEN_SIZE}, got {size}")
    return size


def _profit_two(args, b: float):
    eps = args.eps if args.eps is not None else min(0.01, (args.B - b) / 2)
    return gen_profit_lb_two(b, args.B, eps)


def _profit_k(args, b: float):
    k = args.k if args.k is not None else best_head_count(b, args.B, args.n)
    _gen_size("profit-k head count k", k)
    if k < 1:
        raise InputError("k must be a positive integer")
    eps = args.eps if args.eps is not None else min(0.01, (2 * args.B / k - b) / 2)
    return gen_profit_lb_k(b, args.B, k, eps)


#: Closed-form hard families: name -> (args, small budget b) -> instance.
_POF_FAMILIES = {
    "additive-lb": lambda args, b: gen_additive_lb(args.n, b, args.B),
    "xos-sep": lambda args, b: gen_xos_separation(b, args.B),
    "subadd-lb": lambda args, b: gen_subadditive_lb(args.n, b, args.B),
    "profit-2": _profit_two,
    "profit-k": _profit_k,
}

#: Seeded random families: name -> (args, rng) -> instance.
_RANDOM_FAMILIES = {
    "random-additive": lambda args, rng: random_additive_instance(
        rng, _gen_size("--n", args.n)
    ),
    "random-submodular": lambda args, rng: random_submodular_instance(rng, args.n),
    "random-xos": lambda args, rng: random_xos_instance(
        rng, _gen_size("--n", args.n), _gen_size("--clauses", args.clauses)
    ),
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="output file (stdout when omitted)")
    sub.add_argument(
        "--verify",
        action="store_true",
        help="recompute the output and diff before writing",
    )


class UsageError(ContractsError):
    """The command line does not parse: an unknown, missing or bad flag."""


class _ParserExit(Exception):
    """argparse finished the command itself (``--help``); carries the exit code."""

    def __init__(self, status: int):
        super().__init__(status)
        self.status = status


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors take the one-line error path and whose
    exits (after ``--help``) return from ``main`` instead of raising."""

    def error(self, message: str):
        raise UsageError(" ".join(message.split()))

    def exit(self, status: int = 0, message: str | None = None):
        if message:
            self._print_message(message, sys.stderr)
        raise _ParserExit(status)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser tree of this process, built on first use.

    Reuse is safe: ``parse_args`` fills a fresh namespace on every call and
    no argument has a mutable default. The choices are read here, once, so
    ``OBJECTIVES``, ``SOLVERS`` and the family tables are complete at import.
    ``commands`` maps each command's name to its own parser, which ``_parse``
    hands the rest of a command line.
    """
    parser = _Parser(
        prog="budgeted-contracts",
        description="budget-feasible multi-agent contract design toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices

    p = subs.add_parser("solve", help="maximize an objective under a budget")
    p.add_argument("--instance", help="instance JSON file")
    p.add_argument("--objective", default="profit", choices=list(OBJECTIVES))
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--method", default="brute", choices=["brute", "fptas"])
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--light-only", action="store_true")
    _add_common(p)

    p = subs.add_parser("downsize", help="shrink a team's payment, keep value")
    p.add_argument("--instance", help="instance JSON file")
    p.add_argument("--set", required=True, help="comma-separated agent indices")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", default="submodular", choices=["submodular", "xos"])
    _add_common(p)

    p = subs.add_parser("reduce", help="solve one objective/budget via another")
    p.add_argument("--instance", help="instance JSON file")
    p.add_argument("--from", dest="from_spec", required=True, metavar="OBJ@B")
    p.add_argument("--to", dest="to_spec", required=True, metavar="OBJ@B")
    p.add_argument("--solver", default="brute", choices=sorted(SOLVERS))
    p.add_argument("--path", default="xos", choices=["xos", "submodular"])
    _add_common(p)

    p = subs.add_parser("pof", help="price-of-frugality sweep over a family")
    p.add_argument("--family", required=True, choices=list(_POF_FAMILIES))
    p.add_argument("--grid", help="b-grid, e.g. b=0.1:0.9:0.1")
    p.add_argument("--b", type=float, help="single small budget")
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--k", type=int, default=None, help="size k of the k-agent profit family")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--objective", default="reward", choices=list(OBJECTIVES))
    p.add_argument("--emit-curve", action="store_true")
    _add_common(p)

    p = subs.add_parser("gen", help="write a generator instance to JSON")
    p.add_argument(
        "--family", required=True, choices=[*_POF_FAMILIES, *_RANDOM_FAMILIES]
    )
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--b", type=float, default=0.4)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--clauses", type=int, default=3)
    p.add_argument("--seed", type=int, default=None, help="seed for random families")
    _add_common(p)

    p = subs.add_parser("check", help="classify a reward and verify objectives")
    p.add_argument("--instance", help="instance JSON file")
    _add_common(p)

    return parser


# ---------------------------------------------------------------------------
# subcommands; each returns {relative output name: text body}
# ---------------------------------------------------------------------------


def _require_instance(args) -> str:
    if not args.instance:
        raise InputError("this command needs --instance")
    return args.instance


def _result_output(res, team: str, extra: dict) -> dict[str, str]:
    """The output of a result dataclass: its fields, the ``team`` field as an
    index list, then ``extra``, as indented JSON."""
    body = jsonable(res) | {team: team_to_list(getattr(res, team))} | extra
    return {"": json.dumps(body, indent=2) + "\n"}


def cmd_solve(args, inst: Instance) -> dict[str, str]:
    obj = objective_from_name(args.objective)
    if args.light_only and args.method != "brute":
        raise InputError("--light-only is only supported with --method brute")
    if args.method == "brute":
        res = brute_force_max(obj, inst, args.budget, light_only=args.light_only)
    elif obj == PROFIT:
        res = fptas_additive_profit(inst, args.budget, args.epsilon)
    else:
        res = knapsack_fptas(inst, args.budget, args.epsilon, obj)
    return _result_output(
        res, "optimum", {"objective": args.objective, "method": args.method}
    )


def _cut(text: str) -> str:
    """An argument entry for a one-line error: its first 30 characters, and
    its length when it is longer."""
    if len(text) <= 30:
        return text
    return f"{text[:30]}... ({len(text)} characters)"


def _agents(spec: str, n: int) -> list[int]:
    """The agent indices of a ``--set`` list; an error names the one bad
    entry, cut short."""
    agents = []
    for tok in spec.split(","):
        if tok == "":
            continue
        try:
            i = int(tok)
        except ValueError as exc:  # int() also refuses over 4,300 digits
            raise InputError(f"bad --set entry {_cut(tok)!r}") from exc
        if not 0 <= i < n:  # checked before any shift: 1 << i takes i + 1 bits
            raise InputError(f"--set agent {_cut(str(i))} is outside 0..{n - 1}")
        agents.append(i)
    return agents


def cmd_downsize(args, inst: Instance) -> dict[str, str]:
    team = mask_of(_agents(args.set, inst.n))
    downsize = downsize_submodular if args.mode == "submodular" else downsize_xos
    # enforce the class precondition: a table past ENUM_CAP ends in sizecap
    res = downsize(inst, team, args.m, check=True)
    return _result_output(res, "subset", {"mode": args.mode, "m": args.m})


def cmd_reduce(args, inst: Instance) -> dict[str, str]:
    obj_from, b_from = parse_objective_at_budget(args.from_spec)
    obj_to, b_to = parse_objective_at_budget(args.to_spec)
    # enforce the class precondition of the path's downsizing, as downsize
    # does, once and before any stage
    check_reward_class(inst.reward, args.path)
    outcome = equivalence_pipeline(
        inst, obj_from, b_from, obj_to, b_to, SOLVERS[args.solver], path=args.path
    )
    return _result_output(
        outcome, "candidate", {"from": args.from_spec, "to": args.to_spec}
    )


#: Most points one ``--grid`` may hold. The sweeps in use have at most 9, so
#: this stops only a step far too small for its range, before any cell runs.
_MAX_GRID_POINTS = 10_000


def _parse_grid(spec: str) -> list[float]:
    try:
        name, _, rng = spec.partition("=")
        if name != "b":
            raise ValueError("grid variable must be b")
        start, stop, step = map(float, rng.split(":"))
    except ValueError as exc:
        raise InputError(f"bad --grid {spec!r}, expected b=start:stop:step") from exc
    if not (math.isfinite(start) and math.isfinite(stop) and 0 < step < math.inf):
        raise InputError(f"--grid {spec!r} needs finite bounds and a finite step > 0")
    out = []
    k = 0
    while start + k * step <= stop + 1e-12:
        if k == _MAX_GRID_POINTS:
            raise InputError(f"--grid {spec!r} has more than {_MAX_GRID_POINTS} points")
        out.append(round(start + k * step, 10))
        k += 1
    if not out:
        raise InputError(f"--grid {spec!r} has no points")
    return out


def cmd_pof(args) -> dict[str, str]:
    if args.grid:
        grid = _parse_grid(args.grid)
    elif args.b is not None:
        grid = [args.b]
    else:
        raise InputError("pof needs --grid or --b")
    obj = objective_from_name(args.objective)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["family", "n", "b", "B", "objective", "max_b", "max_B", "ratio", "bound", "tight"]
    )
    curves: list[tuple[float, str, float, float]] = []
    skipped: list[InputError] = []
    kept = None  # the last cell's instance, with its team table and class flag
    for b in grid:
        try:
            inst = _POF_FAMILIES[args.family](args, b)
        except InputError as exc:
            skipped.append(exc)  # cell outside the family's validity range
            continue
        if kept is not None and _same_instance(inst, kept):
            inst = kept
        # an earlier instance is dropped here, before this cell's table is built
        kept = inst
        rep = pof(inst, PofQuery(b=b, B=args.B, objective=obj))
        tight = rep.ratio is not None and abs(rep.ratio - rep.theoretical_bound) <= EPS
        writer.writerow(
            [
                args.family,
                inst.n,
                _fmt(rep.b),
                _fmt(rep.B),
                rep.objective,
                _fmt(rep.max_at_b),
                _fmt(rep.max_at_B),
                _fmt(rep.ratio),
                _fmt(rep.theoretical_bound),
                str(tight).lower(),
            ]
        )
        if args.emit_curve:
            reward = value_payment_curve(inst, REWARD)
            welfare = value_payment_curve(inst, WELFARE)
            curves += [(b, REWARD.name, p, v) for p, v in reward]
            curves += [(b, WELFARE.name, p, v) for p, v in welfare]
            curves += [(b, "profit_envelope", p, (1 - p) * v) for p, v in reward]
    if len(skipped) == len(grid):
        raise skipped[0]

    out = {"": buf.getvalue()}
    if args.emit_curve:
        cbuf = io.StringIO()
        cwriter = csv.writer(cbuf, lineterminator="\n")
        cwriter.writerow(["family", "b", "B", "series", "payment", "value"])
        for b, series, pay, val in curves:
            cwriter.writerow([args.family, _fmt(b), _fmt(args.B), series, _fmt(pay), _fmt(val)])
        out["curve"] = cbuf.getvalue()
    return out


def cmd_gen(args) -> dict[str, str]:
    if args.family in _POF_FAMILIES:
        inst = _POF_FAMILIES[args.family](args, args.b)
    else:
        rng = random.Random(args.seed if args.seed is not None else 0)
        inst = _RANDOM_FAMILIES[args.family](args, rng)
    return {"": instance_text(inst)}


def cmd_check(args, inst: Instance) -> dict[str, str]:
    classes = classify(inst.reward)
    body = {
        "n": inst.n,
        "monotone": classes.is_monotone,
        "submodular": classes.is_submodular,
        "subadditive": classes.is_subadditive,
        "best_conditions": {
            name: check_best_conditions(obj, inst) for name, obj in OBJECTIVES.items()
        },
        "empty_team_payment": payment(inst, 0),
    }
    return {"": json.dumps(body, indent=2) + "\n"}


_COMMANDS = {
    "solve": cmd_solve,
    "downsize": cmd_downsize,
    "reduce": cmd_reduce,
    "pof": cmd_pof,
    "gen": cmd_gen,
    "check": cmd_check,
}


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, with one parse, not two, for a
    command line that starts with a command.

    The top-level parser only hands a command's words to that command's
    parser and names the command; it still parses an empty line, ``-h`` or
    ``--help``, and a first word that is no command.
    """
    parser = _build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    return sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def _out_path_for(out: str, key: str) -> str:
    if key == "":
        return out
    stem, dot, ext = out.rpartition(".")
    return f"{stem}.{key}.{ext}" if dot else f"{out}.{key}"


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    start = time.perf_counter()
    try:
        args = _parse(argv)
        run = functools.partial(_COMMANDS[args.command], args)
        hashes = {}
        if hasattr(args, "instance"):  # solve, downsize, reduce and check
            # one read: the manifest hashes the bytes the command used
            inst, digest = read_instance(_require_instance(args))
            hashes = {args.instance: digest}
            run = functools.partial(run, inst)
        outputs = run()
        if args.verify and run() != outputs:
            raise InputError("verification failed: recomputation differs")
        if not args.out:
            sys.stdout.write("".join(outputs.values()))
            return 0
        files = {_out_path_for(args.out, key): body for key, body in outputs.items()}
        if args.verify:
            for path, body in files.items():
                if differs(path, body):
                    raise InputError(f"verification failed: {path} differs")
        for path, body in files.items():
            if write_text(path, body):  # a manifest only beside a regular file
                wall = time.perf_counter() - start
                seed = getattr(args, "seed", None)
                write_manifest(RunManifest(argv, hashes, __version__, seed, wall), path)
        return 0
    except _ParserExit as exc:
        return exc.status
    except ContractsError as exc:
        kind = type(exc).__name__.removesuffix("Error").lower()
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
