"""What importing the package and its command line loads."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# scipy subpackages qflow must not import at start-up: the stencils load
# scipy's compiled CSR kernel from its extension file, and the spline
# module, which pulls in the rest, is imported by a tabulated potential
# when one is built
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


def test_scipy_sparse_imported_after_qflow_keeps_its_kernels():
    # the kernel module qflow loaded is not left registered in scipy's
    # place, so the package imports and binds its own
    code = """
import numpy as np
import qflow.cli
import scipy.sparse
assert scipy.sparse._sparsetools.csr_matvec is not None
A = scipy.sparse.csr_array(np.array([[1.0, 2.0], [0.0, 3.0]]))
assert np.array_equal(A @ np.array([1.0, 1.0]), [3.0, 3.0])
print("ok")
"""
    assert _run(code).split() == ["ok"]


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


def test_commands_load_no_module_after_start_up():
    # every numpy submodule a command needs is imported with qflow, so none
    # loads lazily in the middle of a timed run
    code = """
import os, sys, tempfile
import qflow.cli
from qflow.cli import main
before = set(sys.modules)
with tempfile.TemporaryDirectory() as tmp:
    cfg = os.path.join(tmp, "cheap.cfg")
    with open(cfg, "w") as fh:
        fh.write("grid.n_labels = 41\\ngrid.n_x = 128\\nsolver.t_final = 0.01\\n"
                 "reference.dt = 0.005\\nqtm.n_particles = 21\\n"
                 "qtm.t_final = 0.01\\n")
    runs = [["run-lagrangian", "--config", cfg, "--out", tmp + "/lag"],
            ["run-reference", "--config", cfg, "--out", tmp + "/ref"],
            ["compare", tmp + "/lag", tmp + "/ref", "--config", cfg,
             "--out", tmp + "/cmp"],
            ["run-qtm", "--config", cfg, "--out", tmp + "/qtm"],
            ["tensor-check", "--out", tmp + "/tensor"]]
    for argv in runs:
        assert main(argv + ["--quiet"]) == 0, argv
new = set(sys.modules) - before
print(*sorted(m for m in new if m.startswith(("numpy", "scipy"))))
"""
    assert _run(code).split() == []
