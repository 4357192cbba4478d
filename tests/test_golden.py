"""Byte-for-byte golden outputs of the CLI data files.

Each case runs one command, with ``--out``, on instances written by ``gen``
(generator families and seeded random families) or on a committed XOS
instance with non-dyadic values, and compares every data file it writes
with ``tests/golden/``. Manifests carry wall time and are not compared.

After an intended output change, re-record with
``PYTHONPATH=src python tests/test_golden.py`` and list the changed files.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from budgeted_contracts.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Instance name -> ``gen`` arguments.
GENERATED = {
    "xos9": ["--family", "random-xos", "--n", "9", "--clauses", "3", "--seed", "11"],
    "xos6": ["--family", "random-xos", "--n", "6", "--clauses", "4", "--seed", "4"],
    "cov8": ["--family", "random-submodular", "--n", "8", "--seed", "5"],
    "add10": ["--family", "random-additive", "--n", "10", "--seed", "3"],
    "add40": ["--family", "random-additive", "--n", "40", "--seed", "7"],
    "add63": ["--family", "random-additive", "--n", "63", "--seed", "8"],
    "alb6": ["--family", "additive-lb", "--n", "6", "--b", "0.3"],
    "sublb8": ["--family", "subadd-lb", "--n", "8", "--b", "0.3"],
    "sep": ["--family", "xos-sep", "--b", "0.45"],
}

#: Sums of these values are inexact in binary floating point, so table
#: entries depend on the order in which agents are added.
NONDYADIC = {
    "n": 7,
    "costs": [0.03, 0.05, 0.07, 0.02, 0.09, 0.04, 0.06],
    "reward": {
        "type": "xos",
        "clauses": [
            [0.13, 0.07, 0.21, 0.11, 0.03, 0.17, 0.09],
            [0.05, 0.19, 0.02, 0.14, 0.23, 0.06, 0.12],
            [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
        ],
    },
}

#: Case name -> command line; instance names stand for their files.
CASES = {
    "solve-xos9-profit": ["solve", "--instance", "xos9", "--objective", "profit", "--budget", "0.5"],
    "solve-xos9-reward": ["solve", "--instance", "xos9", "--objective", "reward", "--budget", "0.4"],
    "solve-xos9-welfare": ["solve", "--instance", "xos9", "--objective", "welfare", "--budget", "0.6"],
    "solve-xos9-light": ["solve", "--instance", "xos9", "--objective", "reward", "--budget", "0.5", "--light-only"],
    "solve-cov8-profit": ["solve", "--instance", "cov8", "--objective", "profit", "--budget", "0.5"],
    "solve-cov8-welfare": ["solve", "--instance", "cov8", "--objective", "welfare", "--budget", "0.3"],
    "solve-alb6-welfare": ["solve", "--instance", "alb6", "--objective", "welfare", "--budget", "0.6"],
    "solve-add10-reward": ["solve", "--instance", "add10", "--objective", "reward", "--budget", "0.3"],
    "solve-add10-fptas-profit": ["solve", "--instance", "add10", "--objective", "profit", "--budget", "0.5", "--method", "fptas"],
    "solve-add10-fptas-welfare": ["solve", "--instance", "add10", "--objective", "welfare", "--budget", "0.5", "--method", "fptas", "--epsilon", "0.05"],
    "solve-add40-fptas-profit": ["solve", "--instance", "add40", "--objective", "profit", "--budget", "0.5", "--method", "fptas", "--epsilon", "0.02"],
    "solve-add63-fptas-profit": ["solve", "--instance", "add63", "--objective", "profit", "--budget", "0.4", "--method", "fptas", "--epsilon", "0.1"],
    "solve-add63-fptas-reward": ["solve", "--instance", "add63", "--objective", "reward", "--budget", "0.4", "--method", "fptas", "--epsilon", "0.1"],
    "solve-add63-fptas-welfare": ["solve", "--instance", "add63", "--objective", "welfare", "--budget", "0.6", "--method", "fptas", "--epsilon", "0.1"],
    "solve-nondyadic-profit": ["solve", "--instance", "nondyadic", "--objective", "profit", "--budget", "0.6"],
    "solve-nondyadic-reward": ["solve", "--instance", "nondyadic", "--objective", "reward", "--budget", "0.6"],
    "solve-nondyadic-welfare": ["solve", "--instance", "nondyadic", "--objective", "welfare", "--budget", "0.6"],
    "solve-nondyadic-welfare-empty": ["solve", "--instance", "nondyadic", "--objective", "welfare", "--budget", "0.1"],
    "check-xos6": ["check", "--instance", "xos6"],
    "check-cov8": ["check", "--instance", "cov8"],
    "check-sublb8": ["check", "--instance", "sublb8"],
    "check-nondyadic": ["check", "--instance", "nondyadic"],
    "check-sep": ["check", "--instance", "sep"],
    "downsize-cov8-submodular": ["downsize", "--instance", "cov8", "--set", "0,1,2,3,4,5,6", "--m", "3"],
    "downsize-add10-submodular": ["downsize", "--instance", "add10", "--set", "0,2,3,5,7,8,9", "--m", "4"],
    "downsize-xos9-xos": ["downsize", "--instance", "xos9", "--set", "0,1,2,4,5,7,8", "--m", "5", "--mode", "xos"],
    "downsize-sep-xos": ["downsize", "--instance", "sep", "--set", "0,1,2", "--m", "3", "--mode", "xos"],
    "downsize-nondyadic-xos": ["downsize", "--instance", "nondyadic", "--set", "0,1,2,3,4,5,6", "--m", "3", "--mode", "xos"],
    "reduce-xos9-xos": ["reduce", "--instance", "xos9", "--from", "profit@0.5", "--to", "reward@0.5", "--path", "xos"],
    "reduce-cov8-submodular": ["reduce", "--instance", "cov8", "--from", "welfare@0.5", "--to", "profit@0.5", "--path", "submodular"],
    "reduce-nondyadic-xos": ["reduce", "--instance", "nondyadic", "--from", "reward@0.4", "--to", "welfare@0.6", "--path", "xos"],
    "pof-additive-lb-curve": ["pof", "--family", "additive-lb", "--n", "6", "--grid", "b=0.2:0.8:0.2", "--emit-curve"],
    "pof-profit-2-curve": ["pof", "--family", "profit-2", "--grid", "b=0.3:0.6:0.1", "--objective", "profit", "--emit-curve"],
    "pof-xos-sep-curve": ["pof", "--family", "xos-sep", "--grid", "b=0.3:0.5:0.1", "--emit-curve"],
    "pof-subadd-lb": ["pof", "--family", "subadd-lb", "--n", "8", "--grid", "b=0.3:0.9:0.3"],
    "pof-profit-k": ["pof", "--family", "profit-k", "--n", "6", "--grid", "b=0.2:0.5:0.1", "--objective", "profit"],
    "pof-additive-lb-n13-reward": ["pof", "--family", "additive-lb", "--n", "13", "--grid", "b=0.1:0.9:0.2"],
    "pof-additive-lb-n13-welfare": ["pof", "--family", "additive-lb", "--n", "13", "--grid", "b=0.1:0.9:0.2", "--objective", "welfare"],
    "pof-additive-lb-n16": ["pof", "--family", "additive-lb", "--n", "16", "--b", "0.1"],
    "pof-xos-sep-repeat-curve": ["pof", "--family", "xos-sep", "--grid", "b=0.1:0.9:0.1", "--emit-curve"],
    "pof-subadd-lb-n10-repeat": ["pof", "--family", "subadd-lb", "--n", "10", "--grid", "b=0.1:0.9:0.1"],
    **{f"gen-{name}": ["gen", *GENERATED[name]]
       for name in ["cov8", "sublb8", "alb6", "xos9", "add10", "sep"]},
    "gen-cov10": ["gen", "--family", "random-submodular", "--n", "10", "--seed", "2"],
}


def write_instances(directory: Path) -> dict[str, str]:
    """Write every input instance under ``directory``; name -> path."""
    paths = {name: str(directory / f"{name}.json") for name in [*GENERATED, "nondyadic"]}
    for name, args in GENERATED.items():
        assert main(["gen", *args, "--out", paths[name]]) == 0
    Path(paths["nondyadic"]).write_text(json.dumps(NONDYADIC), encoding="utf-8")
    return paths


def run_case(name: str, paths: dict[str, str], directory: Path) -> dict[str, bytes]:
    """Run one case into an empty ``directory``; data file name -> bytes."""
    argv = CASES[name]
    ext = "csv" if argv[0] == "pof" else "json"
    out = directory / f"{name}.{ext}"
    assert main([paths.get(a, a) for a in argv] + ["--out", str(out)]) == 0
    return {
        p.name: p.read_bytes()
        for p in sorted(directory.iterdir())
        if not p.name.endswith(".manifest.json")
    }


@pytest.fixture(scope="module")
def instance_paths(tmp_path_factory):
    return write_instances(tmp_path_factory.mktemp("instances"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, instance_paths, tmp_path):
    got = run_case(name, instance_paths, tmp_path)
    want = {p.name: p.read_bytes() for p in GOLDEN.glob(f"{name}.*")}
    assert sorted(got) == sorted(want)
    for fname, body in got.items():
        assert body == want[fname], fname


def record() -> None:
    """Rewrite the CLI outputs in ``tests/golden/`` from the current code;
    the result digests of ``tests/test_digests.py`` are recorded apart."""
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        if old.name != "result-digests.json":
            old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_instances(Path(tmp))
        for name in sorted(CASES):
            case_dir = Path(tmp) / name
            case_dir.mkdir()
            for fname, body in run_case(name, paths, case_dir).items():
                (GOLDEN / fname).write_bytes(body)


if __name__ == "__main__":
    sys.exit(record())
