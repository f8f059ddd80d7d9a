"""Smoke tests of the demos that write no files: the worked example and the bar CVaR demo."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_worked_example_runs_to_its_estimate():
    out = run_demo("worked_example.py")
    lines = out.strip().splitlines()
    assert lines[-1] == "constrained MLE: theta = 0.538395, a = 0.262922  (true a = 0.262500)"
    depths = re.findall(r"measured success probability (\S+)  \(closed form (\S+)\)", out)
    assert len(depths) == 4
    assert all(measured == closed for measured, closed in depths)


def test_bar_cvar_demo_reports_its_seeded_estimate():
    lines = run_demo("bar_cvar_demo.py").splitlines()
    assert "amplified (MLE) (15991 oracle calls): 1.321609  abs err 5.06e-04" in lines
    assert "  rounds 16, batches 16, restarts 0" in lines
