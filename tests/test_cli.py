import ast
import builtins
import copy
import csv
import dataclasses
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import platform
import random
import stat
import subprocess
import sys
import threading
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import budgeted_contracts
from budgeted_contracts import (
    Additive,
    Coverage,
    Instance,
    InputError,
    Table,
    brute_force_max,
    cli,
    gen_additive_lb,
    gen_subadditive_lb,
    gen_xos_separation,
)
from budgeted_contracts import core
from budgeted_contracts.cli import main
from budgeted_contracts.corpora import (
    CORPUS_VERSION,
    random_submodular_instance,
    random_xos_instance,
)
from budgeted_contracts.objectives import OBJECTIVES, PROFIT
from budgeted_contracts.reductions import SOLVERS
from budgeted_contracts.serialize import (
    RunManifest,
    instance_text,
    instance_to_dict,
    load_instance,
    save_instance,
    write_manifest,
    write_text,
)


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def separation_file(tmp_path):
    path = tmp_path / "sep.json"
    save_instance(gen_xos_separation(0.5, 1.0), str(path))
    return path


def test_gen_check_solve_roundtrip(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    assert run_cli("gen", "--family", "xos-sep", "--b", 0.5, "--B", 1.0,
                   "--out", inst_path) == 0
    inst = load_instance(str(inst_path))
    assert inst.n == 3

    assert run_cli("check", "--instance", inst_path) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["monotone"] and report["subadditive"]
    assert not report["submodular"]
    assert all(report["best_conditions"].values())

    assert run_cli("solve", "--instance", inst_path, "--objective", "reward",
                   "--budget", 1.0) == 0
    solved = json.loads(capsys.readouterr().out)
    assert solved["optimum"] == [0, 1, 2]
    assert solved["value"] == pytest.approx(1.0)


def test_check_builds_the_profit_table_once(tmp_path, capsys, monkeypatch):
    # check verifies three objectives, and each asks for the profit of every
    # team as its sandwich's floor, the profit objective again as its phi:
    # the instance builds that table on the first ask and keeps it
    path = tmp_path / "add9.json"
    assert run_cli("gen", "--family", "random-additive", "--n", 9, "--seed", 5,
                   "--out", path) == 0
    assert run_cli("check", "--instance", path) == 0
    before = capsys.readouterr().out
    log = []
    profits = core._profits

    def logged_profits(*args):
        log.append("profit table")
        return profits(*args)

    monkeypatch.setattr(core, "_profits", logged_profits)
    assert run_cli("check", "--instance", path) == 0
    assert capsys.readouterr().out == before
    assert log == ["profit table"]


def test_solve_fptas(tmp_path, capsys):
    inst_path = tmp_path / "add.json"
    save_instance(Instance(2, (0.1, 0.1), Additive((0.5, 0.5))), str(inst_path))
    assert run_cli("solve", "--instance", inst_path, "--objective", "profit",
                   "--budget", 1.0, "--method", "fptas", "--epsilon", 0.1) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["value"] >= 0.54
    assert got["method"] == "fptas"


@pytest.mark.parametrize("objective", list(OBJECTIVES))
@pytest.mark.parametrize("epsilon", ["5e-324", "1e-320", "1e-300", "1e-100", "1e-8"])
def test_solve_fptas_rejects_epsilon_below_the_level_gate(
    tmp_path, capsys, epsilon, objective
):
    # 1e-320 once ended in an OverflowError from ceil_tol, and 1e-300 in one
    # from the profit DP's int64 keys
    path = tmp_path / "one.json"
    save_instance(Instance(1, (0.1,), Additive((0.5,))), str(path))
    assert run_cli("solve", "--instance", path, "--objective", objective,
                   "--budget", 0.5, "--method", "fptas", "--epsilon", epsilon) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: sizecap: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("objective", list(OBJECTIVES))
def test_solve_fptas_gates_epsilon_where_every_value_is_zero(
    tmp_path, capsys, objective
):
    # the profit FPTAS once returned the empty team here, before its gate,
    # while reward and welfare ended in sizecap
    path = tmp_path / "zero.json"
    save_instance(Instance(2, (0.1, 0.0), Additive((0.0, 0.0))), str(path))
    assert run_cli("solve", "--instance", path, "--objective", objective,
                   "--budget", 0.5, "--method", "fptas", "--epsilon", "1e-300") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: sizecap: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("objective", list(OBJECTIVES))
@pytest.mark.parametrize("values", [(5e-324,), (5e-324, 0.5), (1e-310,), (1e-310, 0.5)])
def test_solve_fptas_on_tiny_values(tmp_path, capsys, values, objective):
    # a grid set by a subnormal value underflowed, and a quotient by it
    # overflowed: both once ended in a traceback, and the profit FPTAS then
    # returned the empty team; every grid is now lifted above underflow
    inst = Instance(len(values), (0.0,) * len(values), Additive(values))
    path = tmp_path / "tiny.json"
    save_instance(inst, str(path))
    assert run_cli("solve", "--instance", path, "--objective", objective,
                   "--budget", 0.5, "--method", "fptas", "--epsilon", 0.1) == 0
    out, err = capsys.readouterr()
    assert err == ""
    got = json.loads(out)
    assert got["payment"] == 0.0
    opt = brute_force_max(OBJECTIVES[objective], inst, 0.5).value
    assert (1 - 0.1) * opt <= got["value"] <= opt


def test_downsize_command(separation_file, capsys):
    assert run_cli("downsize", "--instance", separation_file, "--set", "0,1,2",
                   "--m", 5, "--mode", "xos") == 0
    got = json.loads(capsys.readouterr().out)
    assert got["subset"] == [0]
    assert got["singleton_exit"] is True
    assert got["payment_after"] == pytest.approx(0.5)


def test_downsize_rejects_wrong_class(separation_file, capsys):
    # the separation reward is XOS but not submodular
    assert run_cli("downsize", "--instance", separation_file, "--set", "0,1,2",
                   "--m", 5, "--mode", "submodular") == 2
    assert "error: precondition:" in capsys.readouterr().err


@pytest.mark.parametrize("family, n, codes, kind", [
    # submodularity is checked wherever the reward tabulates (n <= 20), and
    # a check that needs a table past that ends in sizecap, not unchecked
    ("random-xos", 18, (2, 0), "precondition"),
    ("random-xos", 25, (2, 0), "sizecap"),
    ("random-additive", 63, (0, 0), None),
], ids=["xos-18", "xos-25", "additive-63"])
def test_downsize_checks_its_precondition_at_every_size(
    tmp_path, capsys, family, n, codes, kind
):
    path = tmp_path / "inst.json"
    assert run_cli("gen", "--family", family, "--n", n, "--seed", 1,
                   "--out", path) == 0
    for mode, code in zip(("submodular", "xos"), codes):
        capsys.readouterr()
        assert run_cli("downsize", "--instance", path, "--set", "0,1,2",
                       "--m", 3, "--mode", mode) == code, mode
        err = capsys.readouterr().err
        if code:
            assert err.startswith(f"error: {kind}: ") and err.count("\n") == 1, err


def test_pof_takes_the_exact_bound_past_the_classify_cap(capsys):
    assert run_cli("pof", "--family", "additive-lb", "--n", 17, "--b", 0.1) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "additive-lb,17,0.1,1.0,reward,0.058823529411764705,1.0,17.0,17.0,true"
    )


def test_reduce_command(separation_file, capsys):
    assert run_cli("reduce", "--instance", separation_file,
                   "--from", "welfare@1.0", "--to", "profit@0.5",
                   "--solver", "brute") == 0
    got = json.loads(capsys.readouterr().out)
    assert got["guarantee_factor"] == 801.0
    opt = brute_force_max(
        PROFIT, gen_xos_separation(0.5, 1.0), 1.0
    ).value
    assert got["candidate_value"] * got["guarantee_factor"] >= opt - 1e-9


def test_reduce_rejects_a_budget_ratio_that_overflows(separation_file, capsys):
    # B'/B = 0.5 / 1e-320 overflows: the error names the two budgets, not
    # the light agents' costs scaled by an infinite ratio
    assert run_cli("reduce", "--instance", separation_file,
                   "--from", "profit@1e-320", "--to", "reward@0.5") == 2
    err = capsys.readouterr().err
    assert err == "error: input: budget ratio B'/B = 0.5 / 1e-320 is not finite\n"


def test_reduce_on_a_table_with_positive_empty_value(tmp_path, capsys):
    # agent 0 is light (0.1 / 0.4 = 0.25) but alone pays 0.1 / (0.4 - 0.2) =
    # 0.5 > 0.3, so no pool may admit it
    path = tmp_path / "base.json"
    path.write_text(json.dumps({
        "n": 2, "costs": [0.1, 0.3],
        "reward": {"type": "table", "values": [0.2, 0.4, 0.3, 0.5]},
    }))
    assert run_cli("reduce", "--instance", path, "--from", "reward@0.3",
                   "--to", "reward@0.3", "--path", "submodular") == 0
    assert json.loads(capsys.readouterr().out)["budget_used"] <= 0.3


@pytest.mark.parametrize("path, gen, kind", [
    # an XOS reward that is not submodular on the submodular path, and a
    # monotone subadditive table that is not XOS-certified on the XOS path,
    # printed a guarantee factor (37.0 and 801.0) that does not hold; a
    # check that needs a table past ENUM_CAP ends in sizecap, as in downsize
    ("submodular", None, "precondition"),
    ("xos", ["--family", "subadd-lb", "--n", 6, "--b", 0.5, "--B", 1.0], "precondition"),
    ("submodular", ["--family", "random-xos", "--n", 25, "--seed", 1], "sizecap"),
], ids=["xos-6-submodular", "subadd-lb-6-xos", "xos-25-submodular"])
def test_reduce_checks_the_class_its_path_needs(tmp_path, capsys, path, gen, kind):
    inst = tmp_path / "inst.json"
    if gen is None:
        save_instance(random_xos_instance(random.Random(1), 6, 3), str(inst))
    else:
        assert run_cli("gen", *gen, "--out", inst) == 0
    capsys.readouterr()
    assert run_cli("reduce", "--instance", inst, "--from", "reward@0.5",
                   "--to", "reward@0.5", "--path", path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {kind}: ")
    assert captured.err.count("\n") == 1


def test_reduce_checks_the_class_once_before_any_stage(tmp_path, capsys, monkeypatch):
    # the rule downsize applies, asked once: a clause reward is XOS as it
    # stands, a submodular table is checked on either path, and a failing
    # reward stops reduce before its solver runs
    from budgeted_contracts import downsizing

    asked, real = [], downsizing.is_submodular
    monkeypatch.setattr(downsizing, "is_submodular", lambda f: asked.append(f) or real(f))
    solved, brute = [], SOLVERS["brute"]
    monkeypatch.setitem(SOLVERS, "brute", lambda *a: solved.append(a) or brute(*a))
    clauses, table = tmp_path / "clauses.json", tmp_path / "table.json"
    save_instance(random_xos_instance(random.Random(1), 6, 3), str(clauses))
    save_instance(random_submodular_instance(random.Random(1), 6), str(table))
    for path, inst, code, checks in (("xos", clauses, 0, 0), ("submodular", clauses, 2, 1),
                                     ("xos", table, 0, 1), ("submodular", table, 0, 1)):
        asked.clear()
        solved.clear()
        assert run_cli("reduce", "--instance", inst, "--from", "profit@0.5",
                       "--to", "reward@0.5", "--path", path) == code, (path, inst)
        assert len(asked) == checks and len(solved) == (code == 0), (path, inst)
    capsys.readouterr()


def test_reduce_pays_a_free_agent_positive_zero(tmp_path, capsys):
    # agent 0 costs -0.0: its one-agent team pays 0.0 in reduce as in solve
    path = tmp_path / "free.json"
    path.write_text(json.dumps({
        "n": 2, "costs": [-0.0, 0.25],
        "reward": {"type": "additive", "values": [0.5, 0.25]},
    }))
    assert run_cli("reduce", "--instance", path, "--from", "reward@0.5",
                   "--to", "reward@0.5") == 0
    out = capsys.readouterr().out
    assert json.loads(out)["candidate"] == [0]
    assert '"budget_used": 0.0,' in out
    assert run_cli("solve", "--instance", path, "--objective", "reward",
                   "--budget", 0.5) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["optimum"] == [0]
    assert '"payment": 0.0,' in out


def test_pof_family_sweep_tight(tmp_path):
    out = tmp_path / "report.csv"
    assert run_cli("pof", "--family", "additive-lb", "--n", 10, "--B", 1.0,
                   "--grid", "b=0.2:0.8:0.2", "--objective", "reward",
                   "--out", out) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4
    assert all(row["tight"] == "true" for row in rows)
    assert [row["b"] for row in rows] == ["0.2", "0.4", "0.6", "0.8"]

    manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
    assert manifest["tool_version"]
    assert manifest["command"][0] == "pof"
    assert "wall_time_s" in manifest


@pytest.mark.parametrize("manifest", [
    RunManifest(["pof", "--b", "0.4"], {}, "1.0", None, 0.012),
    RunManifest(["gen", "--seed", "7"], {}, "1.0", 7, 1e-05),
    RunManifest(["check", "--instance", "b.json", "--out", "ünï.json"],
                {"b.json": "ab" * 32, "a.json": "cd" * 32}, "0.1.0", None, 3.25),
])
def test_manifest_bytes_match_deep_copy_form(tmp_path, manifest):
    out = tmp_path / "out.json"
    write_manifest(manifest, str(out))
    legacy = io.StringIO()  # the form with dataclasses.asdict and json.dump
    json.dump(dataclasses.asdict(manifest), legacy, indent=2, sort_keys=True)
    legacy.write("\n")
    path = tmp_path / "out.json.manifest.json"
    assert path.read_bytes() == legacy.getvalue().encode("utf-8")


def test_pof_reproducible_and_verified(tmp_path):
    out = tmp_path / "r.csv"
    args = ["pof", "--family", "profit-k", "--n", "6", "--B", "1.0",
            "--grid", "b=0.2:0.5:0.1", "--objective", "profit", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args + ["--verify"]) == 0
    assert out.read_bytes() == first


def test_pof_emit_curve(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("pof", "--family", "xos-sep", "--b", 0.5, "--B", 1.0,
                   "--objective", "reward", "--emit-curve", "--out", out) == 0
    curve = (tmp_path / "sweep.curve.csv").read_text().splitlines()
    header = curve[0].split(",")
    assert header == ["family", "b", "B", "series", "payment", "value"]
    series = {line.split(",")[3] for line in curve[1:]}
    assert series == {"reward", "welfare", "profit_envelope"}


def test_exit_codes(tmp_path, capsys):
    # missing instance flag: precondition-style input error
    assert run_cli("solve", "--budget", 0.5) == 2
    assert "error: input:" in capsys.readouterr().err
    # nonexistent file: I/O error
    assert run_cli("check", "--instance", tmp_path / "nope.json") == 1
    assert "error: io:" in capsys.readouterr().err
    # malformed JSON: I/O error
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("check", "--instance", bad) == 1
    # fptas on a non-additive reward: precondition error
    sep = tmp_path / "sep.json"
    save_instance(gen_xos_separation(0.5, 1.0), str(sep))
    assert run_cli("solve", "--instance", sep, "--budget", 0.5,
                   "--method", "fptas") == 2
    assert "error: precondition:" in capsys.readouterr().err
    # bad grid syntax
    assert run_cli("pof", "--family", "additive-lb", "--grid", "x=1:2:1") == 2
    # light restriction is a brute-force-only feature
    assert run_cli("solve", "--instance", sep, "--budget", 0.5,
                   "--method", "fptas", "--light-only",
                   "--objective", "reward") == 2


def _one_input_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: input: ") and err.count("\n") == 1, err
    return err


@pytest.fixture
def two_agent_file(tmp_path):
    path = tmp_path / "two.json"
    save_instance(Instance(2, (0.1, 0.1), Additive((0.5, 0.5))), str(path))
    return path


@pytest.mark.parametrize("budget", ["nan", "5", "0"])
@pytest.mark.parametrize("method", ["brute", "fptas"])
@pytest.mark.parametrize("objective", ["profit", "reward"])
def test_solve_rejects_budget_outside_unit_interval(
    two_agent_file, capsys, budget, method, objective
):
    assert run_cli("solve", "--instance", two_agent_file, "--objective", objective,
                   "--budget", budget, "--method", method) == 2
    _one_input_error(capsys)


@pytest.mark.parametrize("mode", ["submodular", "xos"])
def test_downsize_rejects_agents_out_of_range(two_agent_file, capsys, mode):
    assert run_cli("downsize", "--instance", two_agent_file, "--set", "0,9",
                   "--m", 3, "--mode", mode) == 2
    _one_input_error(capsys)


@pytest.mark.parametrize("bad", ["10000", "999999999999", "-1"])
def test_downsize_names_a_huge_index_in_one_short_line(two_agent_file, capsys, bad):
    # the index is checked before 1 << i, so no mask that long is ever built
    assert run_cli("downsize", "--instance", two_agent_file, "--set", f"0,{bad}",
                   "--m", 3) == 2
    err = _one_input_error(capsys)
    assert f"agent {bad} is outside 0..1" in err
    assert len(err.encode()) < 120, err


@pytest.mark.parametrize("digit, count, named", [
    ("9", 5000, "bad --set entry '999999999999999999999999999999... (5000 characters)'"),
    ("1", 4000, "--set agent 111111111111111111111111111111... (4000 characters) "
                "is outside 0..1"),
], ids=["unparsed", "out-of-range"])
def test_downsize_cuts_a_long_entry_short(two_agent_file, capsys, digit, count, named):
    # more than 4,300 digits int() refuses; 4,000 it parses, far out of range
    assert run_cli("downsize", "--instance", two_agent_file, "--set",
                   f"0,{digit * count}", "--m", 3) == 2
    err = _one_input_error(capsys)
    assert err == f"error: input: {named}\n"
    assert len(err.encode()) < 120, err


def test_instance_file_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    assert run_cli("check", "--instance", path) == 2
    _one_input_error(capsys)


_COVERAGE = {"n": 3, "costs": [0.0625, 0.125, 0.0],
             "reward": {"type": "coverage", "weights": [3, 1, 4, 0],
                        "covers": [[0, 2], [1], []], "scale": 8.0}}


def _coverage_with(**reward) -> str:
    return json.dumps({**_COVERAGE, "reward": {**_COVERAGE["reward"], **reward}})


_ONE_AGENT = {"n": 1, "costs": [0.1], "reward": {"type": "additive", "values": [0.5]}}


def _one_agent_with(**fields) -> str:
    return json.dumps({**_ONE_AGENT, **fields})


@pytest.mark.parametrize("text", [
    pytest.param(_one_agent_with(reward=[1, 2]), id="reward-list"),
    pytest.param(_one_agent_with(n="two"), id="n-string"),
    pytest.param(_one_agent_with(n=1.5), id="n-float"),
    pytest.param(_one_agent_with(n=True), id="n-bool"),
    pytest.param('{"n": 1' + "0" * 5000 + "}", id="n-too-many-digits"),
    pytest.param(_one_agent_with(costs=5), id="costs-number"),
    pytest.param(_one_agent_with(costs="1"), id="costs-string"),
    pytest.param(_one_agent_with(costs=[10**400]), id="cost-overflows-float"),
    pytest.param(_one_agent_with(reward={"type": "xos", "clauses": 5}), id="clauses-number"),
    pytest.param(_one_agent_with(reward={"type": "xos", "clauses": [5]}), id="clause-number"),
    pytest.param(_one_agent_with(reward={"type": "additive", "values": ["nan"]}),
                 id="nan-string"),
    pytest.param(_one_agent_with(reward={"type": "additive", "values": [math.nan]}),
                 id="nan-literal"),
    pytest.param(_one_agent_with(reward={"type": "table", "values": [0.0, math.nan]}),
                 id="nan-in-table"),
    pytest.param(_one_agent_with(reward={"type": "additive", "values": [True]}),
                 id="value-bool"),
    pytest.param(_coverage_with(weights=[True, 1, 4, 0]), id="weight-bool"),
    pytest.param(_coverage_with(weights=[3, -1, 4, 0]), id="weight-negative"),
    pytest.param(_coverage_with(weights=[3, 1, 4.0, 0]), id="weight-float"),
    pytest.param(_coverage_with(weights=[3, 1, 2.5, 0]), id="weight-fraction"),
    pytest.param(_coverage_with(weights=[3, "1", 4, 0]), id="weight-string"),
    pytest.param(_coverage_with(weights=[3, 1, 4, 10**400]), id="weight-huge"),
    pytest.param(_coverage_with(weights=[2**52, 2**52, 0, 0], scale=2.0**54),
                 id="weights-sum-2^53"),
    pytest.param(_coverage_with(covers=[[0, -1], [1], []]), id="element-negative"),
    pytest.param(_coverage_with(covers=[[0, True], [1], []]), id="element-bool"),
    pytest.param(_coverage_with(covers=[[0, 4], [1], []]), id="element-past-end"),
    pytest.param(_coverage_with(covers=[[0, 2.0], [1], []]), id="element-float"),
    pytest.param(_coverage_with(covers=[[0, 2], 1, []]), id="cover-number"),
    pytest.param(_coverage_with(covers={"0": [0]}), id="covers-object"),
    pytest.param(_coverage_with(scale=3.0), id="scale-3"),
    pytest.param(_coverage_with(scale=0), id="scale-0"),
    pytest.param(_coverage_with(scale=-8.0), id="scale-negative"),
    pytest.param(_coverage_with(scale="inf"), id="scale-inf"),
    pytest.param(_coverage_with(scale=True), id="scale-bool"),
    pytest.param(_coverage_with(scale=10**400), id="scale-huge"),
    pytest.param(_coverage_with(scale=4.0), id="values-above-1"),
    pytest.param(_coverage_with(covers=[[0, 2], [1]]), id="two-covers-for-3"),
    pytest.param(_coverage_with(covers=[[0, 2], [1], [], [3]]), id="four-covers-for-3"),
    pytest.param(json.dumps({**_COVERAGE, "reward": {"type": "coverage", "weights": [1],
                                                     "scale": 8.0}}), id="no-covers"),
])
def test_instance_file_fields_are_validated(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run_cli("check", "--instance", path) == 2
    _one_input_error(capsys)


def test_coverage_file_past_the_cap_is_a_sizecap(tmp_path, capsys):
    path = tmp_path / "cov21.json"
    path.write_text(json.dumps({"n": 21, "costs": [0.0] * 21, "reward": {
        "type": "coverage", "weights": [1], "covers": [[0]] * 21, "scale": 1.0}}))
    assert run_cli("check", "--instance", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sizecap: ") and err.count("\n") == 1, err


def _coverage_instances():
    """Seeded and hand-built coverage instances with n <= 9; the hand-built
    one has zero weights, an empty cover and elements no agent covers."""
    hand = Coverage([0, 3, 2, 5, 1, 4], [[0, 1], [], [1, 3], [0, 4]], 16.0)
    yield "hand", Instance(4, (0.0625, 0.0, 0.03125, 0.125), hand)
    for seed, n in ((1, 3), (2, 6), (3, 9)):
        yield f"seed{seed}-n{n}", random_submodular_instance(random.Random(seed), n)


def _equivalence_commands(n):
    team = ",".join(map(str, range(max(2, 2 * n // 3))))
    for obj in ("profit", "reward", "welfare"):
        yield ["solve", "--objective", obj, "--budget", "0.5"]
    yield ["check"]
    for mode in ("submodular", "xos"):
        yield ["downsize", "--set", team, "--m", "3", "--mode", mode]
    for path in ("submodular", "xos"):
        yield ["reduce", "--from", "welfare@0.5", "--to", "profit@0.5", "--path", path]


@pytest.mark.parametrize("name, inst", list(_coverage_instances()))
def test_coverage_file_answers_as_its_table_file(tmp_path, capsys, name, inst):
    files = {"coverage": tmp_path / "coverage.json", "table": tmp_path / "table.json"}
    save_instance(inst, str(files["coverage"]))
    save_instance(Instance(inst.n, inst.costs, Table(inst.reward.values)), str(files["table"]))
    assert json.loads(files["coverage"].read_text())["reward"]["type"] == "coverage"
    for argv in _equivalence_commands(inst.n):
        seen = {}
        for form, path in files.items():
            out = tmp_path / f"{form}.out"
            code = run_cli(*argv, "--instance", path, "--out", out)
            captured = capsys.readouterr()
            seen[form] = code, captured.out, captured.err, out.read_bytes() if code == 0 else b""
        assert seen["coverage"] == seen["table"], argv
        assert seen["coverage"][0] == 0, (argv, seen["coverage"])


@pytest.mark.parametrize("name, inst", list(_coverage_instances()))
def test_coverage_file_load_save_is_byte_identical(tmp_path, name, inst):
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    save_instance(inst, str(first))
    loaded = load_instance(str(first))
    assert type(loaded.reward) is Coverage and loaded == inst
    save_instance(loaded, str(again))
    assert again.read_bytes() == first.read_bytes()


_FUZZ_BASES = [
    {"n": 3, "costs": [0.1, 0.1, 0.0],
     "reward": {"type": "additive", "values": [0.3, 0.3, 0.2]}},
    {"n": 3, "costs": [0.2, 0.2, 0.0],
     "reward": {"type": "xos", "clauses": [[0.4, 0.4, 0.2], [0.0, 0.0, 0.4]]}},
    {"n": 3, "costs": [0.1, 0.1, 0.1],
     "reward": {"type": "table", "values": [0.0, 0.2, 0.2, 0.4, 0.2, 0.4, 0.4, 0.6]}},
    _COVERAGE,
]
_FUZZ_MENU = ["abc", math.nan, math.inf, -1, 2.5, True, None, [], {}, [[]], 10**400]


def _field_paths(node, prefix=()):
    """Every key or index path below a JSON node."""
    keys = node if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield prefix + (key,)
        if isinstance(node[key], (dict, list)):
            yield from _field_paths(node[key], prefix + (key,))


_FUZZ_FIELDS = [(base, path) for base in _FUZZ_BASES for path in _field_paths(base)]


@given(st.sampled_from(_FUZZ_FIELDS), st.sampled_from(_FUZZ_MENU))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_cli_contract_on_mutated_instance_files(tmp_path_factory, field, replacement):
    base, path = field
    doc = copy.deepcopy(base)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = replacement
    inst_path = tmp_path_factory.getbasetemp() / "fuzz.json"
    inst_path.write_text(json.dumps(doc))
    for argv in (["check"], ["solve", "--budget", "0.5"]):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv + ["--instance", str(inst_path)])
        err = err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err


#: Values for one flag of each subcommand. Sizes above the caps reach only
#: the validators (``_gen_size``, ``_enum_gate``); every accepted size is small.
_ARGV_MENUS = {
    "INST": ["{add3}", "{xos3}", "{bad}", "{missing}", "{dir}"],
    "REAL": ["-1", "0", "-0.0", "nan", "inf", "-inf", "1e308", "1e400", "abc", "",
             "5e-324", "1e-320", "2.2250738585072014e-308", "1e-300", "1e-3", "0.3",
             "0.999999", "1", "1.0000001", "2"],
    "SIZE": ["-1", "0", "1", "2", "3", "21", "1001", "1" + "0" * 30, "nan", "1.5",
             "x", ""],
    "M": ["-1", "0", "1", "2", "3", "4", "7", "1.5", "nan", "x", ""],
    "SEED": ["-1", "0", "7", "9" * 30, "x", ""],
    "SET": ["0", "0,1,2", "", "2,2", "0,5", "-1", "a", "0,,1", "1,0", "0,10000",
            "0,999999999999", "0," + "9" * 5000, "0," + "1" * 4000],
    "SPEC": ["profit@0.5", "reward@1", "welfare@1e-320", "reward@5e-324",
             "reward@nan", "reward@inf", "reward@-1", "reward@2", "reward",
             "frob@0.5", "@0.5", "reward@abc", "reward@"],
    "GRID": ["b=0.1:0.9:0.2", "b=5e-324:0.5:0.25", "b=1e-320:1e-320:1",
             "b=nan:1:0.1", "b=0.1:0.9:0", "b=0.1:0.9", "b=0.1:0.9:1e-12",
             "c=0.1:0.9:0.1", "x", ""],
    "OBJ": ["profit", "reward", "welfare", "frob", ""],
    "METHOD": ["brute", "fptas", "frob"],
    "MODE": ["submodular", "xos", "frob"],
    "FAMILY": ["additive-lb", "xos-sep", "subadd-lb", "profit-2", "profit-k",
               "random-additive", "random-submodular", "random-xos", "frob"],
    "PATH": ["xos", "submodular", "frob"],
    "SOLVER": ["brute", "frob"],
}
#: One valid command per subcommand and family: (flag, menu, default) each.
_ARGV_BASES = [
    ["solve", ("--instance", "INST", "{add3}"), ("--budget", "REAL", "0.5"),
     ("--objective", "OBJ", "reward")],
    ["solve", ("--instance", "INST", "{add3}"), ("--budget", "REAL", "0.5"),
     ("--method", "METHOD", "fptas"), ("--epsilon", "REAL", "0.1"),
     ("--objective", "OBJ", "profit")],
    ["downsize", ("--instance", "INST", "{add3}"), ("--set", "SET", "0,1,2"),
     ("--m", "M", "3"), ("--mode", "MODE", "xos")],
    ["reduce", ("--instance", "INST", "{xos3}"), ("--from", "SPEC", "profit@0.5"),
     ("--to", "SPEC", "reward@0.5"), ("--solver", "SOLVER", "brute"),
     ("--path", "PATH", "xos")],
    ["pof", ("--family", "FAMILY", "additive-lb"), ("--n", "SIZE", "4"),
     ("--b", "REAL", "0.3"), ("--B", "REAL", "1"), ("--objective", "OBJ", "reward")],
    ["pof", ("--family", "FAMILY", "profit-2"), ("--grid", "GRID", "b=0.2:0.6:0.2"),
     ("--n", "SIZE", "4"), ("--eps", "REAL", "0.01"), ("--objective", "OBJ", "profit")],
    ["pof", ("--family", "FAMILY", "profit-k"), ("--b", "REAL", "0.3"),
     ("--k", "SIZE", "2"), ("--eps", "REAL", "0.01")],
    ["gen", ("--family", "FAMILY", "additive-lb"), ("--n", "SIZE", "4"),
     ("--b", "REAL", "0.3"), ("--B", "REAL", "1"), ("--eps", "REAL", "0.01")],
    ["gen", ("--family", "FAMILY", "random-xos"), ("--n", "SIZE", "4"),
     ("--clauses", "SIZE", "2"), ("--seed", "SEED", "1")],
    ["gen", ("--family", "FAMILY", "profit-k"), ("--b", "REAL", "0.3"),
     ("--k", "SIZE", "2")],
    ["check", ("--instance", "INST", "{add3}")],
]
_ARGV_CASES = [
    (base, slot, value)
    for base in _ARGV_BASES
    for slot in range(len(base))
    for value in ([None] if slot == 0 else _ARGV_MENUS[base[slot][1]])
]


def _fuzzed_argv(base, slot, value, files):
    argv = [base[0]]
    for k, (flag, _, default) in enumerate(base[1:], start=1):
        argv += [flag, (value if k == slot else default).format(**files)]
    return argv


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    save_instance(Instance(3, (0.1, 0.1, 0.0), Additive((0.3, 0.3, 0.2))),
                  str(root / "add3.json"))
    save_instance(gen_xos_separation(0.5, 1.0), str(root / "xos3.json"))
    (root / "bad.json").write_text("{")
    return {"add3": root / "add3.json", "xos3": root / "xos3.json",
            "bad": root / "bad.json", "missing": root / "missing.json", "dir": root}


@given(st.sampled_from(_ARGV_CASES))
@settings(max_examples=400, derandomize=True, deadline=None)
def test_cli_contract_on_fuzzed_argv(argv_files, case):
    # one flag of a valid command (or none: slot 0) takes a value from its
    # menu; the command succeeds quietly or fails with one error line, never
    # with a traceback
    argv = _fuzzed_argv(*case, argv_files)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "" and out.getvalue(), (argv, err)


@pytest.mark.parametrize("argv", [
    ["pof", "--family", "additive-lb", "--b", "1e-320"],
    ["pof", "--family", "profit-2", "--b", "1e-320"],
    ["pof", "--family", "profit-2", "--b", "1e-320", "--objective", "profit"],
    ["pof", "--family", "profit-k", "--b", "1e-320"],
    ["pof", "--family", "profit-k", "--b", "5e-324", "--objective", "profit"],
    ["gen", "--family", "additive-lb", "--b", "1e-320"],
    ["gen", "--family", "profit-k", "--b", "1e-320"],
])
def test_subnormal_small_budget_runs(argv, capsys):
    # 2B/b and 1/b overflow to infinity here; the head counts stay finite
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out


@pytest.mark.parametrize("grid", [
    "b=0.1:0.9:0.2", "b=0.9:0.1:0.1", "b=0.1:inf:0.1", "b=-inf:1:0.1",
    "b=0.1:0.9:inf", "b=nan:0.9:0.1", "b=0.1:nan:0.1", "b=0.1:0.9:nan",
])
def test_pof_sweep_without_a_valid_cell_is_rejected(capsys, grid):
    # n = 5 is odd, outside subadd-lb's range in every cell; the other
    # grids have no cells at all, and an infinite one must not run forever
    assert run_cli("pof", "--family", "subadd-lb", "--n", 5, "--grid", grid) == 2
    _one_input_error(capsys)


def _reference_grid(spec):
    """The grid loop without a cap: every point of b=start:stop:step."""
    start, stop, step = map(float, spec.removeprefix("b=").split(":"))
    out, k = [], 0
    while start + k * step <= stop + 1e-12:
        out.append(round(start + k * step, 10))
        k += 1
    return out


@pytest.mark.parametrize("grid", [
    "b=0.1:0.9:0.1", "b=0.1:0.9:0.2", "b=0.2:0.8:0.2", "b=0.2:0.5:0.1",
    "b=0.3:0.6:0.1", "b=0.3:0.5:0.1", "b=0.3:0.9:0.3", "b=0.2:0.8:0.3",
    "b=0.25:0.75:0.25", "b=0.5:0.5:1", "b=0.001:1:0.001", "b=1:10000:1",
])
def test_grid_points_are_unchanged_up_to_the_cap(grid):
    got = cli._parse_grid(grid)
    assert [x.hex() for x in got] == [x.hex() for x in _reference_grid(grid)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100), st.integers(0, 100), st.integers(1, 100))
def test_grid_points_match_the_uncapped_loop(start, span, step):
    grid = f"b={start / 100}:{(start + span) / 100}:{step / 1000}"
    got = cli._parse_grid(grid)
    assert [x.hex() for x in got] == [x.hex() for x in _reference_grid(grid)]


@pytest.mark.parametrize("grid", ["b=0.1:0.9:1e-12", "b=1:10001:1", "b=0:1e300:1"])
def test_grid_longer_than_the_cap_is_rejected(capsys, grid):
    tracemalloc.start()
    try:
        assert run_cli("pof", "--family", "additive-lb", "--grid", grid) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith("error: input: ") and "points" in err, err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "profit-k", "--k", "0"],
    ["gen", "--family", "profit-k", "--b", "0.9", "--B", "0.1"],
    ["pof", "--family", "profit-k", "--b", "0.9", "--B", "0.1"],
    ["gen", "--family", "random-xos", "--n", "3", "--clauses", "0"],
    ["gen", "--family", "random-submodular", "--n", "-1"],
])
def test_generator_flags_out_of_range_are_input_errors(argv, capsys):
    assert main(argv) == 2
    _one_input_error(capsys)


_OVER = cli._MAX_GEN_SIZE + 1


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "random-additive", "--n", _OVER],
    ["gen", "--family", "random-xos", "--n", _OVER],
    ["gen", "--family", "random-xos", "--clauses", _OVER],
    ["gen", "--family", "profit-k", "--b", 0.001, "--k", _OVER],
    ["gen", "--family", "profit-k", "--b", 0.0001, "--n", 5000],
    ["pof", "--family", "profit-k", "--b", 0.001, "--k", _OVER],
])
def test_generator_sizes_are_bounded(argv, capsys):
    assert run_cli(*argv) == 2
    err = _one_input_error(capsys)
    assert f"at most {cli._MAX_GEN_SIZE}" in err, err


@pytest.mark.parametrize("size", [_OVER, 10**9, 10**100])
def test_generator_size_validator_rejects_huge_sizes(size):
    # the validator alone: a generator given such a size would allocate it
    assert cli._gen_size("--n", cli._MAX_GEN_SIZE) == cli._MAX_GEN_SIZE
    message = f"--n must be at most {cli._MAX_GEN_SIZE}, got {size}$"
    with pytest.raises(InputError, match=message):
        cli._gen_size("--n", size)


def test_table_backed_random_family_is_capped(capsys):
    assert run_cli("gen", "--family", "random-submodular", "--n", 21) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sizecap: ") and err.count("\n") == 1, err


def test_more_than_63_agents(tmp_path, capsys):
    assert Instance(64, (0.0,) * 64, Additive((0.0,) * 64)).n == 64
    path = tmp_path / "add100.json"
    assert run_cli("gen", "--family", "random-additive", "--n", 100, "--seed", 1,
                   "--out", path) == 0
    for objective in ("reward", "profit"):
        assert run_cli("solve", "--instance", path, "--objective", objective,
                       "--budget", 0.5, "--method", "fptas") == 0
        got = json.loads(capsys.readouterr().out)
        assert got["value"] > 0 and got["payment"] <= 0.5 + 1e-9


def test_no_caller_settable_caps_tolerances_or_ignored_flags():
    for mod in pkgutil.iter_modules(budgeted_contracts.__path__):
        module = importlib.import_module(f"budgeted_contracts.{mod.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if getattr(obj, "__module__", "") != module.__name__:
                continue
            try:
                params = inspect.signature(obj).parameters
            except ValueError:
                continue
            assert not {"cap", "tol"} & set(params), f"{module.__name__}.{name}"
    for argv in (["solve", "--budget", "0.5", "--seed", "1"],
                 ["pof", "--family", "xos-sep", "--b", "0.5", "--instance", "x"]):
        err = io.StringIO()
        with redirect_stderr(err):
            assert main(argv) == 2
        assert err.getvalue().startswith("error: usage: unrecognized arguments")
        assert err.getvalue().count("\n") == 1


def test_only_core_reads_the_size_caps():
    # each cap is decided once, in core: other modules call its gates
    package = Path(budgeted_contracts.__file__).parent
    for path in package.glob("*.py"):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {getattr(node, "id", None) for node in ast.walk(tree)}
        names |= {getattr(node, "attr", None) for node in ast.walk(tree)}
        names |= {getattr(node, "name", None) for node in ast.walk(tree)}
        assert not {"ENUM_CAP", "CLASSIFY_CAP", "GATHER_CAP", "LEVEL_CAP"} & names, (
            path.name
        )


def test_each_cap_is_read_by_its_own_gate():
    # inside core each cap has one reader, its gate: one size rule per cap
    gates = {"ENUM_CAP": "_enum_gate", "CLASSIFY_CAP": "_class_gate",
             "GATHER_CAP": "_gather_gate", "LEVEL_CAP": "_level_gate"}
    tree = ast.parse(Path(budgeted_contracts.core.__file__).read_text(encoding="utf-8"))
    readers = {cap: set() for cap in gates}
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Name) and node.id in gates:
                    readers[node.id].add(func.name)
    assert readers == {cap: {gate} for cap, gate in gates.items()}
    # and nothing outside a function reads a cap but its own assignment
    top = [node for node in tree.body if not isinstance(node, ast.FunctionDef)]
    loads = {
        node.id for stmt in top for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert not set(gates) & loads


def test_only_core_margins_asks_drop_values():
    # a team's drops are asked on one path, core._margins: no other function
    # in the package calls the additive drop pass
    package = Path(budgeted_contracts.__file__).parent
    callers = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "drop_values"):
                        callers.add(f"{path.stem}.{func.name}")
    assert callers == {"core._margins"}


def test_the_tie_rule_lives_in_core():
    # picks go to the smallest bitmask through core._best_team (team lists)
    # and core._best (team tables); no other module defines either
    package = Path(budgeted_contracts.__file__).parent
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        rule = {"_best", "_best_team"}
        assert rule & defined == (rule if path.name == "core.py" else set()), path.name
        if path.name == "frugality.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] + [a.name for a in node.names]
                elif isinstance(node, ast.Import):
                    modules = [a.name for a in node.names]
                else:
                    continue
                assert not any(m.split(".")[-1] == "solvers" for m in modules)


_USAGE_ARGVS = [
    ["solve", "--budget", "0.5", "--frob"],
    ["solve", "--instance", "x.json"],
    ["solve", "--budget", "abc"],
    ["frob", "--budget", "0.5"],
]


@pytest.mark.parametrize("argv", _USAGE_ARGVS)
def test_usage_errors_print_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: usage: "), captured.err
    assert captured.err.count("\n") == 1, captured.err


_HELP_CASES = [
    (["--help"], "solve,downsize,reduce,pof,gen,check"),
    (["solve", "--help"], "--budget"),
    (["pof", "-h"], "--emit-curve"),
]


@pytest.mark.parametrize("argv, text", _HELP_CASES, ids=["top", "solve", "pof"])
def test_help_returns_zero(capsys, argv, text):
    # in-process callers get an exit code, not a SystemExit
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert text in captured.out
    assert captured.err == ""


#: Command lines for the parse check: the usage errors and help requests
#: above, every valid command of the fuzz menu with each flag value, and the
#: cases where the top-level parser still decides or where argparse reads a
#: word in a way of its own.
_PARSE_CASES = {
    "usage": _USAGE_ARGVS,
    "help": [argv for argv, _ in _HELP_CASES],
    "menu": [
        _fuzzed_argv(*case, {"add3": "add3.json", "xos3": "xos3.json",
                             "bad": "bad.json", "missing": "missing.json", "dir": "."})
        for case in _ARGV_CASES
    ],
    "edge": [
        [],
        ["frob"],
        ["sol", "--budget", "0.5"],
        ["-h", "solve"],
        ["--frob", "solve"],
        ["solve", "-h"],
        ["solve", "--inst", "x.json", "--budget", "0.5"],
        ["solve", "--budget=0.5", "--obj", "reward"],
        ["pof", "--family", "additive-lb", "--b", "-0.5"],
        ["pof", "--family", "additive-lb", "--b=-0.5", "--B", "-1"],
        ["solve", "--instance", "x.json", "--budget", "0.5", "--", "extra"],
        ["check", "--", "--instance", "x.json"],
        ["--", "check", "--instance", "x.json"],
        ["check", "--instance", "x.json", "--out", "o.json", "--verify", "-h"],
    ],
}


def _parse_outcome(parse, argv, capsys):
    """What a parse of argv gives: its namespace, in attribute order and as
    ``repr`` shows it (nan, -0.0), its usage error, or the exit code of its
    help, with what it printed."""
    try:
        got = ("args", repr(vars(parse(argv))))
    except cli.UsageError as exc:
        got = ("usage", str(exc))
    except cli._ParserExit as exc:
        got = ("exit", exc.status)
    return got, capsys.readouterr()


@pytest.mark.parametrize("group", _PARSE_CASES)
def test_main_parses_as_the_parser_tree_does(group, capsys):
    # main hands a command's words to that command's own parser; the whole
    # tree's parse_args, which also passes them through the top level, is
    # the reference
    reference = cli._build_parser().parse_args
    for argv in _PARSE_CASES[group]:
        got = _parse_outcome(cli._parse, argv, capsys)
        assert got == _parse_outcome(reference, argv, capsys), argv


def _parse_both(argv):
    """Parse argv with the cached parser and with a freshly built one."""
    out = []
    for parser in (cli._build_parser(), cli._build_parser.__wrapped__()):
        try:
            out.append(parser.parse_args(argv))
        except cli.UsageError as exc:
            out.append(str(exc))
    return out


def test_reused_parser_leaks_no_state(tmp_path, capsys):
    path = str(tmp_path / "inst.json")
    argvs = [
        ["solve", "--instance", path, "--budget", "0.5", "--objective", "reward",
         "--light-only", "--verify"],
        ["pof", "--family", "additive-lb", "--b", "0.4"],
        ["solve", "--instance", path, "--budget", "0.5"],
        ["pof", "--family", "additive-lb", "--grid", "b=0.2:0.8:0.2",
         "--objective", "profit", "--n", "5", "--B", "0.9", "--emit-curve"],
        ["gen", "--family", "additive-lb", "--n", "6", "--b", "0.3", "--B", "0.8"],
        ["pof", "--family", "additive-lb", "--b", "0.4"],
        ["gen", "--family", "additive-lb"],
        ["solve", "--budget", "0.5", "--frob"],
        ["reduce", "--instance", path, "--from", "reward@0.5"],
        ["check", "--instance", path, "--verify", "--out", path + ".out"],
        ["solve", "--instance", path, "--budget", "0.5"],
    ]
    for argv in argvs:
        cached, fresh = _parse_both(argv)
        assert cached == fresh, argv
        assert type(cached) is type(fresh)
    # through main: a usage error, then help, then valid commands
    assert main(["gen", "--family", "additive-lb", "--n", "4", "--out", path]) == 0
    assert main(["solve", "--instance", path, "--budget", "0.5", "--frob"]) == 2
    assert main(["solve", "--help"]) == 0
    assert "--budget" in capsys.readouterr().out
    assert main(["solve", "--instance", path, "--budget", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["objective"] == "profit"
    assert main(["pof", "--family", "additive-lb", "--n", "4", "--b", "0.4"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[4] == "reward"

    subcommands = cli._build_parser()._subparsers._group_actions[0].choices
    choices = {
        (name, action.dest): action.choices
        for name, sub in subcommands.items()
        for action in sub._actions
    }
    assert choices["reduce", "solver"] == sorted(SOLVERS)
    assert choices["solve", "objective"] == list(OBJECTIVES)
    assert choices["pof", "objective"] == list(OBJECTIVES)


def test_main_builds_the_parser_once(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "inst.json")
    assert main(["gen", "--family", "xos-sep", "--b", "0.5", "--out", path]) == 0
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    argvs = [
        ["gen", "--family", "additive-lb", "--n", "4"],
        ["check", "--instance", path],
        ["solve", "--instance", path, "--budget", "1.0"],
        ["solve", "--instance", path, "--budget", "1.0", "--method", "fptas"],
        ["reduce", "--instance", path, "--from", "reward@0.5", "--to", "welfare@0.5"],
        ["downsize", "--instance", path, "--set", "0,1,2", "--m", "2", "--mode", "xos"],
        ["pof", "--family", "xos-sep", "--grid", "b=0.3:0.5:0.1"],
        ["solve", "--budget", "abc"],
        ["gen", "--family", "random-xos", "--seed", "3", "--out", path + ".x"],
        ["check", "--instance", path, "--verify"],
    ]
    for argv in argvs:
        main(argv)
    capsys.readouterr()
    assert built == []


def test_gen_random_families_seeded(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("gen", "--family", "random-xos", "--n", 6,
                       "--seed", 42, "--out", path) == 0
    assert a.read_text() == b.read_text()
    inst = load_instance(str(a))
    assert inst.n == 6


def test_instance_json_accepts_decimal_strings(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "n": 2,
        "costs": ["0.2", 0.009],
        "reward": {"type": "additive", "values": ["0.5", "0.3"]},
    }))
    inst = load_instance(str(path))
    assert inst.costs == (0.2, 0.009)
    assert inst.reward.values == (0.5, 0.3)


def _table_file(tmp_path, values_text: str) -> Path:
    path = tmp_path / "table.json"
    path.write_text('{"n": 2, "costs": [0.1, 0.1], "reward": {"type": "table", '
                    f'"values": [{values_text}]}}}}')
    return path


@pytest.mark.parametrize("entry, message", [
    ("true", "expected a real number, got bool"),
    ("null", "expected a real number, got NoneType"),
    ('"abc"', "bad decimal string 'abc'"),
    ("NaN", "expected a finite real number, got nan"),
    ("1e400", "expected a finite real number, got inf"),
    ("1" + "0" * 399, "number too large for a float"),
    ('"0.5", "x"', "bad decimal string 'x'"),  # the first bad entry, after a string
])
def test_table_file_values_report_the_first_bad_entry(tmp_path, capsys, entry, message):
    path = _table_file(tmp_path, f"0.0, 0.25, {entry}, 0.75")
    assert run_cli("check", "--instance", path) == 2
    assert capsys.readouterr().err == f"error: input: {message}\n"


def test_table_file_values_load_as_the_per_entry_path_does(tmp_path):
    from budgeted_contracts.serialize import _real, _reals

    mixed = ["0.0", 0.1, 1, "0.30000000000000004"]
    path = _table_file(tmp_path, json.dumps(mixed)[1:-1])
    got = load_instance(str(path)).reward.values
    assert got.tobytes() == np.array([_real(x) for x in mixed]).tobytes()
    numbers = [0, 1, 0.1, 2**70 + 1, 10**20 + 7, -0.0, 1e-320]
    assert _reals(numbers).tobytes() == np.array([_real(x) for x in numbers]).tobytes()


def test_instance_json_round_trip(tmp_path, separation_file):
    inst = load_instance(str(separation_file))
    again = tmp_path / "again.json"
    save_instance(inst, str(again))
    assert load_instance(str(again)) == inst
    assert instance_to_dict(inst)["reward"]["type"] == "xos"


def _encoder_cases():
    rng = np.random.default_rng(21)
    cases = {}
    for n in range(1, 13):
        costs = tuple(rng.uniform(0, 0.1, n))
        off_grid = rng.uniform(0, 1, 1 << n)
        planted = off_grid.copy()
        specials = [-0.0, 5e-324, 2.2250738585072014e-308, 0.0, 1.0]
        planted[rng.choice(1 << n, min(5, 1 << n), replace=False)] = specials[: 1 << n]
        cases |= {
            f"coverage-{n}": random_submodular_instance(random.Random(n), n),
            f"additive-lb-{n}": gen_additive_lb(n, 0.3, 1.0),
            f"off-grid-{n}": Instance(n, costs, Table(off_grid)),
            f"all-equal-{n}": Instance(n, costs, Table(np.full(1 << n, 0.1))),
            f"planted-{n}": Instance(n, costs, Table(planted)),
            f"additive-{n}": Instance(n, costs, Additive(tuple(off_grid[:n] / n))),
            f"xos-{n}": random_xos_instance(random.Random(n), n, 3),
        }
        if n >= 4 and n % 2 == 0:
            cases[f"subadd-lb-{n}"] = gen_subadditive_lb(n, 0.5, 1.0)
    return [pytest.param(inst, id=name) for name, inst in cases.items()]


@pytest.mark.parametrize("inst", _encoder_cases())
def test_instance_text_is_the_indented_dump(inst):
    assert instance_text(inst) == json.dumps(instance_to_dict(inst), indent=2) + "\n"


def test_only_serialize_calls_instance_to_dict():
    # instance_text is the one encoder of instance files
    package = Path(budgeted_contracts.__file__).parent
    callers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "instance_to_dict":
                    callers.add(path.name)
    assert callers == {"serialize.py"}


def test_serializer_error_paths(tmp_path):
    from budgeted_contracts import InputError
    from budgeted_contracts.serialize import (
        instance_from_dict,
        objective_from_name,
        parse_objective_at_budget,
    )

    with pytest.raises(InputError):
        instance_from_dict({"n": 2, "costs": [0.1, 0.1]})  # missing reward
    with pytest.raises(InputError):
        instance_from_dict(
            {"n": 1, "costs": [0.1], "reward": {"type": "mystery", "values": [1]}}
        )
    with pytest.raises(InputError):
        instance_from_dict(
            {"n": 1, "costs": ["zero"], "reward": {"type": "additive", "values": [0.5]}}
        )
    with pytest.raises(InputError):
        objective_from_name("budget")
    with pytest.raises(InputError):
        parse_objective_at_budget("welfare")  # missing @budget


def test_console_entry_point(tmp_path):
    out = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "budgeted_contracts.cli", "gen",
         "--family", "additive-lb", "--n", "4", "--b", "0.4", "--B", "1.0",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["n"] == 4 and data["reward"]["type"] == "table"


# ---------------------------------------------------------------------------
# serialize.write_text: the one write path, rewriting files in place
# ---------------------------------------------------------------------------


def test_write_text_leaves_no_stale_tail(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"x" * 5000)
    write_text(str(path), "ünï\n")
    assert path.read_bytes() == "ünï\n".encode("utf-8")
    write_text(str(path), "a\r\nb")  # no newline translation
    assert path.read_bytes() == b"a\r\nb"


def test_write_text_to_dev_null():
    write_text(os.devnull, "body\n")


def test_write_text_writes_until_every_byte_is_out(tmp_path, monkeypatch):
    # os.write may take part of the bytes (a FIFO, a signal): each call here
    # takes at most 7, and the body still lands whole over a longer old file
    real_write = os.write
    sizes = []

    def short_write(fd, data):
        sizes.append(real_write(fd, bytes(data[:7])))
        return sizes[-1]

    path = tmp_path / "out.json"
    path.write_bytes(b"x" * 500)
    monkeypatch.setattr(os, "write", short_write)
    body = "{\"ratio\": 0.25, \"name\": \"ünï\"}\n" * 3
    assert write_text(str(path), body) is True
    assert path.read_bytes() == body.encode("utf-8")
    assert len(sizes) == -(-len(body.encode("utf-8")) // 7)


def test_write_text_closes_its_descriptor_on_a_failed_write(tmp_path, monkeypatch):
    written, closed = [], []
    real_close = os.close

    def failing_write(fd, data):
        written.append(fd)
        raise OSError(28, "No space left on device")

    def recording_close(fd):
        closed.append(fd)
        real_close(fd)

    path = tmp_path / "out.json"
    path.write_text("old\n")
    monkeypatch.setattr(os, "write", failing_write)
    monkeypatch.setattr(os, "close", recording_close)
    with pytest.raises(OSError, match="No space left"):
        write_text(str(path), "new body\n")
    assert len(written) == 1 and closed == written
    assert path.read_text() == "old\n"


def test_new_file_mode_is_that_of_open_w(tmp_path):
    old = os.umask(0o027)
    try:
        write_text(str(tmp_path / "new"), "x")
        with open(tmp_path / "reference", "w"):
            pass
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "new").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "reference").stat().st_mode) == 0o640


def test_out_through_a_symlink_keeps_the_link(tmp_path, two_agent_file):
    target = tmp_path / "target.json"
    target.write_text("old contents, longer than the new ones " * 50)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert run_cli("check", "--instance", two_agent_file, "--out", link) == 0
    assert link.is_symlink()
    body = json.loads(target.read_text())
    assert body["n"] == 2
    assert (tmp_path / "link.json.manifest.json").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_at_a_fifo_delivers_the_body(tmp_path, two_agent_file, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert run_cli("check", "--instance", two_agent_file, "--out", fifo) == 0
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert run_cli("check", "--instance", two_agent_file) == 0
    assert got == [capsys.readouterr().out.encode("utf-8")]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_directory_as_out_is_an_io_error(tmp_path, two_agent_file, capsys):
    assert run_cli("check", "--instance", two_agent_file, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: io: ") and err.count("\n") == 1, err


def test_verify_diffs_against_an_existing_file(tmp_path, two_agent_file, capsys):
    out = tmp_path / "check.json"
    out.write_text("stale\n")
    argv = ["check", "--instance", two_agent_file, "--out", out, "--verify"]
    assert run_cli(*argv) == 2
    err = _one_input_error(capsys)
    assert "verification failed" in err and "differs" in err
    assert out.read_text() == "stale\n"
    out.unlink()
    assert run_cli(*argv) == 0
    assert run_cli(*argv) == 0  # now against the file it wrote


@pytest.mark.parametrize("stale", [b"\xff\xfe not UTF-8\n", "crlf"])
def test_verify_compares_bytes(tmp_path, two_agent_file, capsys, stale):
    # the old output is diffed byte for byte: bytes that are not UTF-8 fail
    # as any other difference does, and so do the right lines ended by CRLF
    out = tmp_path / "check.json"
    assert run_cli("check", "--instance", two_agent_file) == 0
    if stale == "crlf":
        stale = capsys.readouterr().out.replace("\n", "\r\n").encode("utf-8")
    out.write_bytes(stale)
    capsys.readouterr()
    assert run_cli("check", "--instance", two_agent_file, "--out", out, "--verify") == 2
    assert capsys.readouterr().err == f"error: input: verification failed: {out} differs\n"
    assert out.read_bytes() == stale
    assert not (tmp_path / "check.json.manifest.json").exists()


def test_verify_names_the_stale_curve_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    curve = tmp_path / "sweep.curve.csv"
    argv = ["pof", "--family", "xos-sep", "--b", 0.5, "--emit-curve", "--out", out]
    assert run_cli(*argv) == 0
    curve.write_text("family,b\n")
    written = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert len(written) == 4  # both tables and both manifests
    assert run_cli(*argv, "--verify") == 2
    assert capsys.readouterr().err == (
        f"error: input: verification failed: {curve} differs\n"
    )
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == written


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["run", "verify"])
def test_fifo_out_gets_the_body_and_no_manifest(tmp_path, two_agent_file, capsys,
                                                verify):
    # a FIFO holds no earlier output, so --verify does not read it (a read
    # would wait for a writer that never comes), and it gets no manifest;
    # the command runs in a child process, which the timeout ends if it hangs
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "budgeted_contracts.cli", "check",
             "--instance", str(two_agent_file), "--out", str(fifo), *verify],
            capture_output=True, text=True, timeout=30,
        )
        got = b""
        while chunk := os.read(reader, 1 << 16):
            got += chunk
    finally:
        os.close(reader)
    assert proc.returncode == 0, proc.stderr
    assert run_cli("check", "--instance", two_agent_file) == 0
    assert got == capsys.readouterr().out.encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe", "two.json"]


def _opens_for_writing(node: ast.Call) -> bool:
    """Whether a call opens or writes a file: ``os.open``, a write or cut
    through a raw descriptor (``os.write``, ``os.ftruncate``, ``os.truncate``,
    ``os.fdopen``), a path's ``write_text`` or ``write_bytes``, a temporary
    file, or ``open`` with a writing or non-literal mode."""
    func = node.func
    if isinstance(func, ast.Attribute):
        name = func.attr
        if name in {"write_text", "write_bytes"}:
            return True
        if getattr(func.value, "id", None) == "os" and name in {
            "open", "write", "ftruncate", "truncate", "fdopen"
        }:
            return True
    else:
        name = getattr(func, "id", None)
    if name in {"mkstemp", "NamedTemporaryFile"}:
        return True
    if name != "open":
        return False
    modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
    return any(
        not (isinstance(m, ast.Constant) and isinstance(m.value, str))
        or set(m.value) & set("wax+")
        for m in modes
    )


@pytest.mark.parametrize("source, writes", [
    ("open(p, 'w')", True), ("io.open(p, mode='a')", True), ("open(p, m)", True),
    ("os.open(p, flags)", True), ("p.write_text(s)", True),
    ("tempfile.mkstemp()", True), ("open(p)", False), ("open(p, 'rb')", False),
    ("write_text(p, s)", False), ("fh.write(s)", False),
    ("os.write(fd, b)", True), ("os.ftruncate(fd, n)", True),
    ("os.truncate(p, n)", True), ("os.fdopen(fd, 'w')", True),
    ("fh.truncate()", False), ("os.fstat(fd)", False), ("os.close(fd)", False),
])
def test_write_detector(source, writes):
    assert _opens_for_writing(ast.parse(source).body[0].value) == writes


def test_only_serialize_opens_files_for_writing():
    # every file the package writes goes through serialize.write_text
    package = Path(budgeted_contracts.__file__).parent
    writers = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        if any(_opens_for_writing(call) for call in calls):
            writers.add(path.name)
    assert writers == {"serialize.py"}


def _opens_a_file(node: ast.Call) -> bool:
    """Whether a call opens a file to read or write it: ``open``, ``io.open``,
    ``os.open``, a path's ``open``, or a path's read or write call."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
    return getattr(func, "id", None) == "open"


@pytest.mark.parametrize("source, opens", [
    ("open(p)", True), ("open(p, 'rb')", True), ("io.open(p)", True),
    ("os.open(p, flags)", True), ("Path(p).open()", True), ("p.read_text()", True),
    ("p.read_bytes()", True), ("p.write_bytes(b)", True),
    ("write_text(p, s)", False), ("differs(p, s)", False), ("fh.read()", False),
    ("os.stat(p)", False),
])
def test_open_detector(source, opens):
    assert _opens_a_file(ast.parse(source).body[0].value) == opens


def test_only_serialize_opens_files():
    # every file the package reads or writes goes through serialize: the
    # instance read, the --verify read and write_text
    package = Path(budgeted_contracts.__file__).parent
    openers = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(_opens_a_file(node) for node in ast.walk(tree) if isinstance(node, ast.Call)):
            openers.add(path.name)
    assert openers == {"serialize.py"}


def test_manifest_records_corpus_and_library_versions(tmp_path, two_agent_file):
    out = tmp_path / "check.json"
    assert run_cli("check", "--instance", two_agent_file, "--out", out) == 0
    manifest = json.loads((tmp_path / "check.json.manifest.json").read_text())
    assert manifest["corpus_version"] == CORPUS_VERSION
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["command"][-1] == str(out)


@pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["run", "verify"])
def test_instance_is_read_once_and_hashed_as_read(tmp_path, two_agent_file,
                                                  monkeypatch, verify):
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    out = tmp_path / "solve.json"
    assert run_cli("solve", "--instance", two_agent_file, "--budget", 0.5,
                   "--out", out, *verify) == 0
    assert opened.count(str(two_agent_file)) == 1
    manifest = json.loads((tmp_path / "solve.json.manifest.json").read_text())
    digest = hashlib.sha256(two_agent_file.read_bytes()).hexdigest()
    assert manifest["instance_hashes"] == {str(two_agent_file): digest}
