"""What importing the package and its command line loads."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# scipy subpackages qflow must not import: its run time needs numpy only,
# and scipy is a test dependency, the tests' reference for the stencil
# products and the tabulated potential's spline
HEAVY = ("scipy.sparse", "scipy.interpolate", "scipy.integrate",
         "scipy.special", "scipy.optimize", "scipy.linalg")


def _run(code):
    """stdout of ``code`` run in a fresh interpreter that imports qflow
    from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_heavy_scipy_unloaded():
    code = ("import sys, qflow, qflow.cli; "
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    assert _run(code).split() == []


def test_cli_import_leaves_numpy_random_unloaded():
    # the identity suite draws from the standard library's generator;
    # numpy.random would also load secrets, hmac and _hashlib
    code = ("import sys, qflow, qflow.cli; "
            "print(' '.join(m for m in sys.modules if m.startswith('numpy.random')))")
    assert _run(code).split() == []


def test_cli_import_loads_no_scipy_module():
    code = ("import sys, qflow, qflow.cli; "
            "print(' '.join(m for m in sys.modules if m.startswith('scipy')))")
    assert _run(code).split() == []


def test_stencil_after_scipy_sparse_matches_scipy():
    code = """
import numpy as np
import scipy.sparse
from qflow.stencils import Stencil, _operator
n, h = 41, 0.2
f = np.sin(np.linspace(-4, 4, n))
indptr, indices, data = _operator(n, (1, 2, 3))
op = scipy.sparse.csr_array((data, indices, indptr), shape=(3 * n, n))
ref = (op @ f).reshape(3, n) / np.array([h, h**2, h**3])[:, None]
assert Stencil(n, h, (1, 2, 3))(f).tobytes() == ref.tobytes()
print("ok")
"""
    assert _run(code).split() == ["ok"]


# every command on a cheap config, in a temporary directory ``tmp``
_COMMANDS = """
import os, tempfile
from qflow.cli import main
cheap = ("grid.n_labels = 41\\ngrid.n_x = 128\\nsolver.t_final = 0.01\\n"
         "reference.dt = 0.005\\nqtm.n_particles = 21\\nqtm.t_final = 0.01\\n")
with tempfile.TemporaryDirectory() as tmp:
    cfg = os.path.join(tmp, "cheap.cfg")
    with open(cfg, "w") as fh:
        fh.write(cheap)
    runs = [["run-lagrangian", "--config", cfg, "--out", tmp + "/lag"],
            ["run-reference", "--config", cfg, "--out", tmp + "/ref"],
            ["compare", tmp + "/lag", tmp + "/ref", "--config", cfg,
             "--out", tmp + "/cmp"],
            ["run-qtm", "--config", cfg, "--out", tmp + "/qtm"],
            ["tensor-check", "--out", tmp + "/tensor"]]
{more}
    for argv in runs:
        assert main(argv + ["--quiet"]) == 0, argv
"""


def test_commands_load_no_module_after_start_up():
    # every numpy submodule a command needs is imported with qflow, so none
    # loads lazily in the middle of a timed run
    code = ("import sys, qflow.cli\n"
            "before = set(sys.modules)\n"
            + _COMMANDS.format(more="")
            + "new = set(sys.modules) - before\n"
              "print(*sorted(m for m in new if m.startswith(('numpy', 'scipy'))))\n")
    assert _run(code).split() == []


def test_every_command_runs_without_scipy():
    # scipy is a test dependency only: with it blocked, every command runs,
    # and run-lagrangian and run-qtm run once more on a tabulated potential
    tabulated = """
    table = os.path.join(tmp, "trap.csv")
    with open(table, "w") as fh:
        fh.writelines(f"{x / 10!r},{x * x / 200!r}\\n" for x in range(-400, 401))
    trap = os.path.join(tmp, "trap.cfg")
    with open(trap, "w") as fh:
        fh.write(cheap + "physics.potential = tabulated\\n"
                 f"physics.potential_file = {table}\\n")
    runs += [["run-lagrangian", "--config", trap, "--out", tmp + "/trap-lag"],
             ["run-qtm", "--config", trap, "--out", tmp + "/trap-qtm"]]"""
    code = ("import sys\nsys.modules['scipy'] = None\n"
            + _COMMANDS.format(more=tabulated)
            + "print('ok')\n")
    assert _run(code).split() == ["ok"]
