"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout: ``python3 -m pytest -q perfbench/test_smoke.py``.
"""

import json
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
# corpus_batch is not in BENCHMARK.json (see README.md) but stays runnable.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["corpus_batch"]


def _run(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace)]
    assert run.main(argv, smoke=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _assert_metrics(result, spec):
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], float), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(capsys, workload):
    result = _run(capsys, workload, 0)
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"]["success_rate"]["value"] == 1.0  # error rate 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(capsys, workload):
    first, second = (_run(capsys, workload, 1) for _ in range(2))
    for result in (first, second):
        _assert_metrics(result, SPEC["per_layer"])
        assert result["correct"]
    counts = [k for k in first["metrics"]
              if k.endswith(".calls") or k == "solvers.brute_force_max.teams"]
    assert first["metrics"]["cli.main.calls"]["value"] > 0
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key
