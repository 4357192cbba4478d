"""Answer checks behind ``success_rate``; they run outside the timed region.

Two layers of checks:

* On any seed, every answer is checked against the library's own
  definitions: a reported team's ``core.payment`` is within budget + ``EPS``,
  its reported value equals ``objectives.evaluate`` on that team, and the
  paper's guarantees hold (downsizing bounds, FPTAS ratio, pof bound,
  class flags that hold by construction).
* On the default seed at full size, the answer fields (teams, values,
  payments, ``pof`` CSV rows, class flags) must equal the references under
  ``references/``. Only the fields recorded there are compared, so outputs
  may gain fields without breaking the benchmark.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from budgeted_contracts.core import EPS, light_agents, mask_of, payment
from budgeted_contracts.objectives import REWARD, evaluate
from budgeted_contracts.serialize import objective_from_name, parse_objective_at_budget

REFERENCES = Path(__file__).resolve().parent / "references"

#: The seed whose answers are recorded in ``references/<workload>.json``.
DEFAULT_SEED = 0

_FIELDS = {
    "solve_brute": ("optimum", "value", "payment"),
    "solve_fptas": ("optimum", "value", "payment"),
    "downsize": ("subset", "payment_before", "payment_after", "objective_before",
                 "objective_after", "singleton_exit"),
    "reduce": ("candidate", "candidate_value", "guarantee_factor", "budget_used"),
    "check": ("monotone", "submodular", "subadditive", "best_conditions",
              "empty_team_payment"),
}


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def answer(cmd) -> dict:
    """The answer fields of a command's output file(s)."""
    if cmd.kind == "pof":
        got = {"rows": _read_csv(cmd.out)}
        if cmd.spec["curve"]:
            stem, _, ext = cmd.out.rpartition(".")
            got["curve"] = _read_csv(f"{stem}.curve.{ext}")
        return got
    with open(cmd.out, encoding="utf-8") as fh:
        body = json.load(fh)
    return {k: body[k] for k in _FIELDS[cmd.kind]}


def load_references(workload: str) -> dict[str, dict]:
    with open(REFERENCES / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def compare(got: dict, ref: dict) -> list[str]:
    """Differences between answer fields and a recorded reference."""
    errors = []
    for key, want in ref.items():
        have = got.get(key)
        if key in ("rows", "curve"):
            if have is None or len(have) != len(want):
                errors.append(f"{key}: {len(have or [])} rows, reference has {len(want)}")
                continue
            for i, (h, w) in enumerate(zip(have, want)):
                diff = [c for c in w if h.get(c) != w[c]]
                if diff:
                    errors.append(f"{key}[{i}] differs in {diff}")
        elif have != want:
            errors.append(f"{key}: {have!r} != reference {want!r}")
    return errors


def check(cmd, got: dict, insts: dict, answers: dict) -> list[str]:
    """Invariant checks of one answer; ``answers`` holds this pass's answers."""
    spec = cmd.spec
    inst = insts.get(spec.get("inst"))
    errors: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            errors.append(what)

    if cmd.kind in ("solve_brute", "solve_fptas"):
        team = mask_of(got["optimum"])
        pay = payment(inst, team)
        obj = objective_from_name(spec["objective"])
        expect(pay <= spec["budget"] + EPS, f"payment {pay} over budget {spec['budget']}")
        expect(got["payment"] == pay, f"reported payment {got['payment']} != {pay}")
        expect(got["value"] == evaluate(obj, inst, team), "value != objectives.evaluate")
        if spec.get("light"):
            expect(not team & ~light_agents(inst), "light-only team has a heavy agent")
        if spec.get("exact"):
            exact = answers[spec["exact"]]["value"]
            expect(got["value"] >= (1 - spec["epsilon"]) * exact - EPS,
                   f"FPTAS value {got['value']} below (1-eps) * {exact}")
    elif cmd.kind == "downsize":
        team, sub = mask_of(spec["team"]), mask_of(got["subset"])
        m, single = spec["m"], bin(sub).count("1") == 1
        expect(not sub & ~team, "downsized team is not a subset")
        expect(got["payment_before"] == payment(inst, team), "payment_before != payment")
        expect(got["payment_after"] == payment(inst, sub), "payment_after != payment")
        expect(got["objective_after"] == evaluate(REWARD, inst, sub),
               "objective_after != objectives.evaluate")
        keep, shrink = (m - 1, 2 / m) if spec["mode"] == "submodular" else (2 * m - 2, 4 / m)
        expect(got["objective_after"] >= got["objective_before"] / keep - EPS,
               "downsizing lost more value than its guarantee")
        expect(single or got["payment_after"] <= shrink * got["payment_before"] + EPS,
               "downsizing kept more payment than its guarantee")
    elif cmd.kind == "reduce":
        obj, budget = parse_objective_at_budget(spec["src"])
        cand = mask_of(got["candidate"])
        pay = payment(inst, cand)
        expect(pay <= budget + EPS, f"candidate payment {pay} over budget {budget}")
        expect(got["budget_used"] == pay, "budget_used != payment")
        expect(got["candidate_value"] == evaluate(obj, inst, cand),
               "candidate_value != objectives.evaluate")
    elif cmd.kind == "check":
        expect(got["monotone"] and got["subadditive"], "XOS reward not monotone subadditive")
        expect(got["submodular"] or not spec["coverage"], "coverage reward not submodular")
        expect(got["best_conditions"]["reward"], "reward fails its own sandwich")
        expect(got["empty_team_payment"] == 0.0, "empty team has a payment")
    else:
        errors += _check_pof(cmd, got)
    return errors


def _check_pof(cmd, got: dict) -> list[str]:
    errors = []
    if not got["rows"]:
        errors.append("pof wrote no rows")
    for row in got["rows"]:
        lo, hi = float(row["max_b"]), float(row["max_B"])
        if lo > hi + EPS:
            errors.append(f"b={row['b']}: small-budget optimum above large-budget one")
        if lo > 0 and float(row["ratio"]) != hi / lo:
            errors.append(f"b={row['b']}: ratio != max_B / max_b")
        if cmd.spec["family"] == "additive-lb" and float(row["ratio"]) > float(row["bound"]) + EPS:
            errors.append(f"b={row['b']}: ratio above the submodular bound")
    last: dict[tuple[str, str], tuple[float, float]] = {}
    for row in got.get("curve", []):
        if row["series"] == "profit_envelope":
            continue
        key, point = (row["b"], row["series"]), (float(row["payment"]), float(row["value"]))
        prev = last.get(key)
        if prev is not None and not (point[0] > prev[0] and point[1] > prev[1]):
            errors.append(f"curve {key} is not a strictly increasing staircase")
        last[key] = point
    return errors
