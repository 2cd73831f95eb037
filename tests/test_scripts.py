"""Smoke runs of the example scripts, so an API change cannot break them
unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_spreading_demo_short_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "spreading_demo.py"),
         "--n-labels", "101", "--t-final", "0.05"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    # one row per distinct snapshot: t = 0 and the final t = 0.05
    assert [row[0] for row in rows] == ["0.00", "0.05"]
