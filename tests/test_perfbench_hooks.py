"""The benchmark's tracing hooks name library functions that must exist.

``perfbench/tracing.py`` wraps functions by name and silently skips a name
it cannot find, so a renamed function would read 0.0 in the per-layer
metrics while the benchmark's own smoke test still passes. These tests load
the benchmark modules by file path and check every name they rely on.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from budgeted_contracts.reductions import SOLVERS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(stem: str):
    name = f"perfbench_{stem}"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look up their module here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.mark.parametrize("stem", ["tracing", "checks", "workloads"])
def test_benchmark_modules_import(stem):
    _load(stem)


def test_traced_functions_exist(tracing):
    for mod, fname, span, _ in tracing.FUNCTIONS:
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
        assert callable(getattr(module, fname, None)), f"{mod}.{fname} ({span})"


def test_traced_oracle_classes_exist(tracing):
    core = importlib.import_module(f"{tracing.PACKAGE}.core")
    for cls_name, span in tracing.ORACLES:
        cls = getattr(core, cls_name, None)
        assert callable(getattr(cls, "value", None)), f"core.{cls_name} ({span})"


def test_solver_registry_is_not_empty():
    assert SOLVERS
