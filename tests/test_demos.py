"""Smoke tests of the three demos, each run in a fresh interpreter."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str, where: Path = ROOT / "demos") -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(where / name)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_worked_example_runs_to_its_estimate():
    out = run_demo("worked_example.py")
    lines = out.strip().splitlines()
    assert lines[-1] == "controller's estimate after k=0: theta = 0.537348, a = 0.262000  (true a = 0.262500)"
    depths = re.findall(r"measured success probability (\S+)  \(closed form (\S+)\)", out)
    assert len(depths) == 4
    assert all(measured == closed for measured, closed in depths)


def test_bar_cvar_demo_reports_its_seeded_estimate():
    lines = run_demo("bar_cvar_demo.py").splitlines()
    assert "amplified (MLE) (16000 oracle calls): 1.322179  abs err 6.34e-05" in lines
    assert "  rounds 9" in lines


def test_budget_sweep_demo_prints_both_slopes(tmp_path):
    # The demo writes its CSV files next to itself, so a copy runs in tmp_path.
    shutil.copy(ROOT / "demos" / "budget_sweep_demo.py", tmp_path)
    lines = run_demo("budget_sweep_demo.py", tmp_path).splitlines()
    assert (tmp_path / "sweep_output" / "bar1d_compliance_agg.csv").exists()
    assert "mc: fitted log-log slope of median error = -0.956" in lines
    assert "mliqae: fitted log-log slope of median error = -1.158" in lines
