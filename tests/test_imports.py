"""What importing the package and its command line loads."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# scipy subpackages qflow must not import at start-up: only the sparse CSR
# kernel is needed on every run; the spline module, which pulls in the
# rest, is imported by a tabulated potential when one is built
HEAVY = ("scipy.interpolate", "scipy.integrate", "scipy.special",
         "scipy.optimize", "scipy.linalg")


def test_cli_import_leaves_heavy_scipy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys, qflow, qflow.cli; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
