"""Span tracing for the traced run; untraced runs never import this module.

``Tracer.install()`` wraps the public functions of each library module, in
every module namespace that holds them (``from .core import payment`` binds
a second name in ``solvers``, ``downsizing``, ``reductions``, ``frugality``
and ``cli``), the ``value`` method of each reward representation, and every
solver registered in ``reductions.SOLVERS``. ``uninstall()`` restores the
originals.

Each call records a span (name, start, end, parent) in flat arrays that stay
in memory until ``collect()``; a span's self time is its duration minus the
durations of its child spans. Counters that need a result (infinite
payments, teams enumerated, DP cells) are taken at the same boundary.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "budgeted_contracts"


def _on_payment(counters, args, result):
    counters["core.payment.inf"] += result == math.inf


def _on_brute(counters, args, result):
    counters["solvers.brute_force_max.teams"] += result.enumerated


def _on_rounded_table(counters, args, result):
    # A float64 cell per (item, level) pair, items being the agents with a
    # positive value; the byte count is computed from that, not measured.
    items = sum(v > 0 for v in args[0].reward.values)
    cells = (items + 1) * (result.n_levels + 1)
    counters["solvers.rounded_table.cells"] += cells
    counters["solvers.rounded_table.bytes_computed"] += 8 * cells
    counters["solvers.rounded_table.levels"] += len(result.payments)
    counters["solvers.rounded_table.reachable"] += sum(
        p != math.inf for p in result.payments
    )


def _on_downsize(counters, args, result):
    counters["downsizing.results"] += 1
    counters["downsizing.singleton_exits"] += result.singleton_exit


#: (module, function, span name, result hook) for every traced function.
FUNCTIONS = [
    ("core", "payment", "core.payment", _on_payment),
    ("core", "classify", "core.classify", None),
    ("core", "to_table", "core.to_table", None),
    ("objectives", "evaluate", "objectives.evaluate", None),
    ("objectives", "check_best_conditions", "objectives.check_best_conditions", None),
    ("solvers", "brute_force_max", "solvers.brute_force_max", _on_brute),
    ("solvers", "build_rounded_table", "solvers.rounded_table", _on_rounded_table),
    ("solvers", "fptas_additive_profit", "solvers.fptas_additive_profit", None),
    ("solvers", "knapsack_fptas", "solvers.knapsack_fptas", None),
    ("downsizing", "downsize_submodular", "downsizing.downsize", _on_downsize),
    ("downsizing", "downsize_xos", "downsizing.downsize", _on_downsize),
    ("downsizing", "recover_marginals_xos", "downsizing.recover_marginals_xos", None),
    ("reductions", "equivalence_pipeline", "reductions.equivalence_pipeline", None),
    ("frugality", "pof", "frugality.pof", None),
    ("frugality", "value_payment_curve", "frugality.value_payment_curve", None),
    ("frugality", "gen_additive_lb", "frugality.gen", None),
    ("frugality", "gen_xos_separation", "frugality.gen", None),
    ("frugality", "gen_subadditive_lb", "frugality.gen", None),
    ("frugality", "gen_profit_lb_two", "frugality.gen", None),
    ("frugality", "gen_profit_lb_k", "frugality.gen", None),
    ("serialize", "load_instance", "serialize.load_instance", None),
    ("serialize", "write_manifest", "serialize.write_manifest", None),
    ("cli", "main", "cli.main", None),
    ("corpora", "random_additive_instance", "corpora.gen", None),
    ("corpora", "random_submodular_instance", "corpora.gen", None),
    ("corpora", "random_xos_instance", "corpora.gen", None),
]

#: (class in core, span name) whose ``value`` oracle method is traced.
ORACLES = [
    ("Additive", "core.oracle.additive"),
    ("XosClauses", "core.oracle.xos"),
    ("Table", "core.oracle.table"),
]

#: Span names whose call count and self time are reported.
CALLS = [
    "core.payment", "core.oracle.additive", "core.oracle.xos", "core.oracle.table",
    "core.classify", "objectives.evaluate", "solvers.brute_force_max",
    "solvers.rounded_table", "solvers.knapsack_fptas", "downsizing.downsize",
    "downsizing.recover_marginals_xos", "reductions.equivalence_pipeline",
    "frugality.pof", "serialize.load_instance", "cli.main",
]
SELF = [
    "core.payment", "core.classify", "core.to_table", "objectives.evaluate",
    "objectives.check_best_conditions", "solvers.brute_force_max",
    "solvers.rounded_table", "solvers.fptas_additive_profit", "solvers.knapsack_fptas",
    "downsizing.downsize", "downsizing.recover_marginals_xos",
    "reductions.equivalence_pipeline", "reductions.inner_solver", "frugality.pof",
    "frugality.value_payment_curve", "frugality.gen", "serialize.load_instance",
    "serialize.write_manifest", "cli.main", "corpora.gen",
]


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters."""
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: defaultdict[str, float] = defaultdict(float)

    def _wrap(self, span: str, fn, hook=None):
        if span not in self._ids:
            self._ids[span] = len(self.span_names)
            self.span_names.append(span)
        nid = self._ids[span]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer.stack[-1])
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return traced

    def _set(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _set_item(self, table: dict, key, new) -> None:
        self._patches.append((table, key, table[key]))
        table[key] = new

    def install(self) -> None:
        """Wrap every traced function wherever the package binds it."""
        mods = {k: m for k, m in sys.modules.items() if k.split(".")[0] == PACKAGE}
        wrappers = {}
        for mod, fname, span, hook in FUNCTIONS:
            fn = getattr(mods[f"{PACKAGE}.{mod}"], fname, None)
            if fn is not None:
                wrappers[id(fn)] = self._wrap(span, fn, hook)
        reductions = mods[f"{PACKAGE}.reductions"]
        for key, solver in list(reductions.SOLVERS.items()):
            inner = self._wrap("reductions.inner_solver", solver)
            wrappers[id(solver)] = inner
            self._set_item(reductions.SOLVERS, key, inner)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._set(mod, attr, wrappers[id(val)])
        core = mods[f"{PACKAGE}.core"]
        for cls_name, span in ORACLES:
            cls = getattr(core, cls_name)
            self._set(cls, "value", self._wrap(span, cls.value))

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    def collect(self) -> dict[str, float]:
        """Per-span call counts and self times, plus the result counters."""
        n_names = len(self.span_names)
        names = np.asarray(self.name, dtype=np.intp)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.intp)
        child = np.bincount(parent + 1, weights=dur, minlength=len(dur) + 1)[1:]
        self_s = np.bincount(names, weights=dur - child, minlength=n_names)
        calls = np.bincount(names, minlength=n_names)
        out = {f"{s}.calls": float(calls[i]) for i, s in enumerate(self.span_names)}
        out.update({f"{s}.self_s": float(self_s[i]) for i, s in enumerate(self.span_names)})
        out.update(self.counters)
        return out


def layer_metrics(stats: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The reported per-layer metrics, as (value, unit), from ``collect()``."""
    get = stats.get
    out = {f"{s}.calls": (get(f"{s}.calls", 0.0), "count") for s in CALLS}
    out.update({f"{s}.self_s": (get(f"{s}.self_s", 0.0), "s") for s in SELF})
    out["core.oracle.self_s"] = (
        sum(get(f"{s}.self_s", 0.0) for _, s in ORACLES), "s"
    )
    out["core.payment.inf_share"] = (_share(get("core.payment.inf", 0.0),
                                            get("core.payment.calls", 0.0)), "share")
    for key, unit in (("solvers.brute_force_max.teams", "count"),
                      ("solvers.rounded_table.cells", "count"),
                      ("solvers.rounded_table.bytes_computed", "B")):
        out[key] = (get(key, 0.0), unit)
    out["solvers.rounded_table.reachable_share"] = (
        _share(get("solvers.rounded_table.reachable", 0.0),
               get("solvers.rounded_table.levels", 0.0)), "share")
    out["downsizing.singleton_exit_share"] = (
        _share(get("downsizing.singleton_exits", 0.0), get("downsizing.results", 0.0)),
        "share")
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
