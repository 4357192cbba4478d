"""The experiment scripts under ``scripts/``, run in-process on small sizes."""

import importlib.util
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(stem: str):
    spec = importlib.util.spec_from_file_location(f"scripts_{stem}", SCRIPTS / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pof_sweeps_rerun_into_one_directory(tmp_path, capsys):
    sweeps = _load("pof_sweeps")
    table = tmp_path / "pof_additive-lb_reward.csv"
    for n in (4, 6, 4):  # each rerun changes --n over the last run's tables
        assert sweeps.run(tmp_path, n) == 0
        assert table.read_text().splitlines()[1].split(",")[1] == str(n)
    # the same arguments again diff against the tables: an edited one fails
    assert sweeps.run(tmp_path, 4) == 0
    table.write_text(table.read_text().replace("true", "false"))
    assert sweeps.run(tmp_path, 4) == 1
    assert "verification failed" in capsys.readouterr().err


def test_guarantee_sweeps_stay_within_their_bounds(capsys):
    # every worst ratio the sweep prints holds against its proven floor or
    # ceiling: 2 downsizings x 4 shrink parameters x (value, payment), and
    # the 2 reduction directions
    sweeps = _load("guarantee_sweeps")
    assert sweeps.main(["--count", "4"]) == 0
    bounds = re.findall(r"(\S+) (>=|<=) (\d+\.\d+)", capsys.readouterr().out)
    assert len(bounds) == 18
    for seen, op, bound in bounds:
        seen, bound = float(seen), float(bound)
        assert seen >= bound if op == ">=" else seen <= bound, (seen, op, bound)
