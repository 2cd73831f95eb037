"""Smoke runs of the example scripts, so an API change cannot break them
unnoticed."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_spreading_demo_short_run():
    proc = _run_script("spreading_demo.py", "--n-labels", "101",
                       "--t-final", "0.05")
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    # one row per distinct snapshot: t = 0 and the final t = 0.05
    assert [row[0] for row in rows] == ["0.00", "0.05"]


def test_kernel_timings_short_run():
    proc = _run_script("kernel_timings.py", "--n-labels", "101",
                       "--t-final", "0.02", "--calls", "20", "--repeats", "2")
    lines = proc.stdout.splitlines()
    # 0.02 / (0.1 * 0.16^2) = 7.8 -> 8 steps, 32 right-hand sides
    assert lines[-1].startswith("evolve to t = 0.02: 8 steps")
    rows = lines[2:15]
    assert [row.split()[0] for row in rows] == [
        "stencil", "K3", "kinematics", "log-density", "projected", "RHS",
        "QTM", "QTM", "QTM", "reconstruct", "chain-rule", "tensor-check",
        "start-up"]
    assert all(float(row.split()[-1]) > 0 for row in rows)
    # the stencil's two kinds of input: 1-D labels and the modal basis
    assert rows[0].startswith("stencil (1, 2, 3) on 101 labels")
    assert rows[1].startswith("K3 build (303 x 15)")
    # the right-hand side's one dense product: 3 x 101 rows, 12 + 3 columns
    assert rows[2].startswith("kinematics product (K3 303 x 15)")
    # the default potential is free: the force reads G alone, 101 columns
    assert rows[4].startswith("projected force (13 x 101)")
    assert rows[6].startswith("QTM RHS (201 particles)")
    assert rows[7].startswith("QTM derivatives (201 particles)")
    # the particle run stops at the same t: 0.02 / (0.5 * 0.05^2) = 16 steps
    assert rows[8].startswith("QTM step (run-qtm / 16 steps)")
    assert rows[9].startswith("reconstruct (1024 x points)")
    assert rows[10].startswith("chain-rule oracle (3 points)")
    # the identity suite's difference stars trace about 1 MB; a grid of
    # planes traced 8 MB
    peak = re.fullmatch(r"tensor-check \(traced peak (\d+) MB\)\s+\S+", rows[11])
    assert peak and 0 < int(peak.group(1)) <= 8
    # qflow runs on numpy alone: the CLI's import loads no scipy package
    assert lines[15] == "scipy subpackages at start-up: none"


def test_line_count_on_a_known_module(tmp_path):
    # 13 lines: the docstrings, the comment and the blank line are not code;
    # the non-docstring string spans two code lines
    (tmp_path / "m.py").write_text(
        '"""Module\n docstring."""\n'
        "\n"
        "# a comment\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "    def f(self):\n"
        '        """Function\n        docstring."""\n'
        '        s = """two\n        lines"""\n'
        "        return s  # trailing comment\n"
        "X = 1\n")
    proc = _run_script("line_count.py", str(tmp_path))
    assert proc.stdout.splitlines() == ["total lines 13", "code lines  6"]
    default = _run_script("line_count.py").stdout.splitlines()
    assert [line.split()[0] for line in default] == ["total", "code"]
