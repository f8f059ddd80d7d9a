"""Smoke test of the worked-example demo, the one script that runs the gate path."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_worked_example_runs_to_its_estimate():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "worked_example.py")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-1] == "constrained MLE: theta = 0.538395, a = 0.262922  (true a = 0.262500)"
    depths = re.findall(r"measured success probability (\S+)  \(closed form (\S+)\)", proc.stdout)
    assert len(depths) == 4
    assert all(measured == closed for measured, closed in depths)
