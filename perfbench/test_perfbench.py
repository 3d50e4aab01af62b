"""The benchmark's own tests: `python -m pytest -q perfbench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def test_tail_lies_above_the_median():
    n = run.MIN_CLI_SAMPLES
    value, pct = run.tail(list(range(n)))
    assert pct > 50
    assert n - 1 - value == run.TAIL_BEYOND


def test_speed_scales_a_step_by_the_calibrations_around_it(monkeypatch):
    times = iter([0.010, 0.014])
    monkeypatch.setattr(speed, "calibrate", lambda: next(times))
    s = speed.Speed()
    assert abs(s.scale(2.0) - 2.0 * speed.REFERENCE_CAL_S / 0.012) < 1e-12
    assert s.cal == [0.010, 0.014]


def test_cli_expectations_are_checked():
    call = workloads.CliCall(("classes", "--fixture", "f", "--format", "json"), 0)
    text = '{"rows": [1, 2], "report": {"passed": true}}'
    assert checks.check_cli_output(call, 0, text, {"json_len": {"rows": 2},
                                                   "json": {"report.passed": True}}) == []
    assert len(checks.check_cli_output(call, 0, text, {"json_len": {"rows": 3}})) == 1
    assert len(checks.check_cli_output(call, 2, text, {})) == 1
    csv_call = workloads.CliCall(("series", "--fixture", "f", "--format", "csv"), 0)
    table = "q_exp_num,coeff_num\n0,1\n1,-2\n"
    assert checks.check_cli_output(csv_call, 0, table, {"csv_column": {"coeff_num": ["1", "-2"]},
                                                        "csv_rows": 2}) == []
    assert checks.check_cli_output(csv_call, 0, table, {"csv_column": {"coeff_num": ["1", "2"]}})


def test_selfcheck_smoke_two_seeds():
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--selfcheck"],
                       capture_output=True, text=True, timeout=900)
    assert p.returncode == 0, p.stdout[-4000:] + p.stderr[-4000:]
    assert json.loads(p.stdout.splitlines()[-1]) == {"selfcheck": True, "problems": 0}


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert p.returncode != 0
    assert "correct" not in p.stdout
