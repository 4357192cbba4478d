#!/usr/bin/env python3
"""Record the reference answers of the default seed from the library as it is.

Usage, from the root of a checkout: ``python3 perfbench/record_references.py``.
Writes ``perfbench/references/<workload>.json``: for every command of one
full-size pass, its answer fields, one command per line. Re-record only when the benchmark's plan
changes, never to make a changed answer pass.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run._import_package()
    import checks
    import workloads

    checks.REFERENCES.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        work = run.ROOT / ".bench_work" / f"record-{name}"
        try:
            plan = workloads.build(name, checks.DEFAULT_SEED, work)
            runner = run.Runner(plan, checks, None)
            _, _, codes = runner.run_pass()
            runner.check_pass(codes)
            if runner.failed:
                print(f"error: {name}: {runner.failed} answers fail their checks",
                      file=sys.stderr)
                return 1
            answers = {cmd.cid: checks.answer(cmd) for cmd in plan.commands}
        finally:
            shutil.rmtree(work, ignore_errors=True)
        lines = (f"{json.dumps(cid)}: {json.dumps(got, sort_keys=True)}"
                 for cid, got in answers.items())
        with open(checks.REFERENCES / f"{name}.json", "w", encoding="utf-8") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"{name}: {len(answers)} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
