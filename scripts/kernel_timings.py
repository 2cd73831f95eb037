#!/usr/bin/env python3
"""Per-call timings of the trajectory solver's hot kernels.

Prints the best-of-``--repeats`` time per call, in microseconds, of

* the kinematics product ``K3 @ z`` that gives the stacked (J, J', J'')
  from the modal state z = (1, t, c), written into a preallocated buffer
  (``out=``) as ``evolve``'s right-hand side writes it;
* the log-density kernel ``_log_density``, (c_a, c_xx) from the rows
  J', J'', 1/J into preallocated rows, as ``evolve``'s right-hand side
  binds it;
* one call of the projected-force operator (a ``ModeProjector`` composed
  with the conservation-form force map) on G alone under a free potential,
  else on the stacked (G, dV/dq) buffer, writing the mode coefficients
  into a preallocated row (``out=``) as ``evolve`` calls it;
* one right-hand-side evaluation, taken as the wall time of ``evolve`` on
  the default config divided by its 4 x steps evaluations (snapshots and
  their energy checks included);
* one particle-method right-hand side (``qtm._qtm_rhs``: the ``S`` and
  ``c`` fits and the transport terms) on the default seeded particle grid
  (``qtm.n_particles``, 201 by default);
* one ``reconstruct_wavefunction`` of the final snapshot of that ``evolve``
  run on the default spatial grid (``grid.n_x``, 1 024 points): the inverse
  map and the push-forward of rho, v and S (a tenth of ``--calls`` per
  timing: each call takes about a millisecond);
* three parts of the identity suite behind ``qflow tensor-check``: the
  cofactor-divergence grids (17^3, 33^3 and 65^3), the force-identity grids
  (33^3, 65^3 and 129^3; both sets built one plane at a time, over a
  sliding window of three planes) and the chain-rule stress oracle at the
  suite's three label points;
* one plane of the 129^3 force-identity grid, layer by layer: the density
  build (``_smooth_rho3``), ``stress_eulerian``, ``quantum_potential`` and
  the three residual rows of the plane's rows [2:-2] (125 x 129 points
  each, of which the suite reads the 125^2 interior) from a window of
  three planes (a tenth of ``--calls`` per timing).  A
  traced run files the residual rows under ``pipeline.tensor_check``'s
  self time, so these are the numbers the tracer cannot split out;
* one ``tensor_check(0)``, the whole suite, with the ``tracemalloc`` peak
  of one more call in the row's name (this row and the three above: one
  call per timing, and half of ``--repeats`` timings, since the suite
  takes about half a second);
* start-up: the wall time of ``python -c "import qflow.cli"`` in a fresh
  interpreter, the import every CLI command pays, followed by the list of
  ``scipy`` subpackages that import loaded, which is empty: qflow runs on
  numpy alone.

Run with ``QFLOW_THREADS=1`` for single-threaded numbers, e.g.

    QFLOW_THREADS=1 PYTHONPATH=src python scripts/kernel_timings.py
"""

import argparse
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import qflow
from qflow.config import Settings
from qflow.kinematics import quantum_potential, stress_eulerian
from qflow.lagrangian import (ModeProjector, _kinematics, _LabelData,
                              _log_density, _log_density_derivatives,
                              _modal_basis, _projected_force,
                              default_projection_degree, evolve,
                              initial_velocity)
from qflow.model import FreePotential, plan_steps
from qflow.pipeline import (_ORACLE_POINTS, _chain_rule_stress,
                            _cofactor_divergence_errors, _force_fields,
                            _force_identity_errors, _force_residual_rows,
                            _smooth_rho3, _truncated_gaussian_state,
                            tensor_check)
from qflow.qtm import _qtm_rhs
from qflow.reconstruction import reconstruct_wavefunction


def best_us(fn, calls: int, repeats: int) -> float:
    """Best over ``repeats`` of the mean time of ``calls`` calls, in us."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best * 1e6


# the fresh interpreter's job: import qflow.cli, then list the public
# scipy subpackages that import loaded (a scan of microseconds)
_STARTUP = """
import sys, qflow.cli
print(*sorted(name[6:] for name, mod in sys.modules.items()
              if name.startswith("scipy.") and name.count(".") == 1
              and not name[6:].startswith("_") and hasattr(mod, "__path__")))
"""


def startup(repeats: int):
    """Best over ``repeats`` of the wall time, in us, of a fresh interpreter
    importing ``qflow.cli``, and the scipy subpackages that import loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(qflow.__file__).parents[1]), env.get("PYTHONPATH"))
        if p)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _STARTUP], env=env,
                              check=True, capture_output=True, text=True)
        best = min(best, time.perf_counter() - t0)
    return best * 1e6, proc.stdout.split()


def traced_peak_mb(fn) -> float:
    """Peak of the memory traced by ``tracemalloc`` during one call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n-labels", type=int, default=401)
    ap.add_argument("--t-final", type=float, default=0.2)
    ap.add_argument("--calls", type=int, default=4000,
                    help="kernel calls per timing")
    ap.add_argument("--repeats", type=int, default=7,
                    help="timings per kernel; the best is printed")
    args = ap.parse_args()

    settings = Settings.defaults(**{"grid.n_labels": args.n_labels,
                                    "solver.t_final": args.t_final})
    params = settings.physics()
    init = settings.initial_state(params)
    config = settings.solver_config()
    data = _LabelData(init, params)
    n = init.n
    degree = min(config.projection_degree or default_projection_degree(n), n - 1)
    project = ModeProjector(init.labels, init.rho0, degree)
    free = isinstance(params.potential, FreePotential)
    force = _projected_force(data, params, project, g_only=free)
    _, K3 = _modal_basis(data, init.labels, initial_velocity(init, params),
                         project.lift)

    # a non-affine map, so the force inputs are not trivially zero, and the
    # modal state z = (1, 0, c) of its projection
    q = init.labels + 0.1 * np.sin(init.labels)
    z = np.concatenate(([1.0, 0.0], project(q - init.labels)))
    kin = _kinematics(data, q)
    G = _log_density_derivatives(data, kin)[1] * kin[3]
    force_in = G if free else np.stack((G, params.potential_gradient(q)))
    # the output buffers evolve's right-hand side writes into
    D, modes, logd = np.empty(3 * n), np.empty(degree + 1), np.empty((3, n))
    logd_args = (data.L1, data.L2_minus_L1_sq, *kin[1:], *logd)

    # the particle solver's first right-hand side, as run-qtm seeds it
    particles = _truncated_gaussian_state(settings["state.sigma0"], params,
                                          settings.qtm_labels(),
                                          boost_k=settings["state.boost_k"])
    seeded = (particles.labels, np.log(particles.rho0), particles.s0)

    n_steps, _ = plan_steps(config.t_final, config.auto_dt(data.h, params))
    startup_us, loaded = startup(args.repeats)
    evolve_s = best_us(lambda: evolve(init, params, config), 1, args.repeats) / 1e6
    final = evolve(init, params, config)[-1:]
    x_grid = settings.x_grid()
    suite_repeats = max(1, args.repeats // 2)
    divergence_us = best_us(_cofactor_divergence_errors, 1, suite_repeats)
    force_us = best_us(lambda: _force_identity_errors(params), 1, suite_repeats)
    oracle_us = best_us(lambda: [_chain_rule_stress(pt, params)
                                 for pt in _ORACLE_POINTS], 1, suite_repeats)
    # three consecutive planes of the 129^3 grid, as tensor_check's window
    # holds them, and the fields of the middle one
    axis = np.linspace(-1.0, 1.0, 129)
    mesh = (axis[64:65, None], axis[:, None], axis[None, :])
    planes = [_force_fields(axis[p:p + 1, None], *mesh[1:], params)
              for p in (63, 64, 65)]
    rho, grad, hess = _smooth_rho3(*mesh)
    lap = np.trace(hess, axis1=-2, axis2=-1)
    plane_calls = max(1, args.calls // 10)
    tensor_us = best_us(lambda: tensor_check(0), 1, suite_repeats)
    tensor_mb = traced_peak_mb(lambda: tensor_check(0))

    print(f"{n} labels, projection degree {degree}; best of {args.repeats}")
    print(f"{'kernel':<34} {'us/call':>10}")
    rows = [
        (f"kinematics product (K3 {3 * n} x {degree + 3})",
         best_us(lambda: np.dot(K3, z, out=D), args.calls, args.repeats)),
        ("log-density kernel (c_a, c_xx)",
         best_us(lambda: _log_density(*logd_args), args.calls, args.repeats)),
        (f"projected force ({force.coeffs.shape[0]} x {force.coeffs.shape[1]})",
         best_us(lambda: force(force_in, out=modes), args.calls, args.repeats)),
        (f"RHS evaluation (evolve / {4 * n_steps})", evolve_s / (4 * n_steps) * 1e6),
        (f"QTM RHS ({particles.n} particles)",
         best_us(lambda: _qtm_rhs(params, *seeded), args.calls,
                 args.repeats)),
        (f"reconstruct ({x_grid.size} x points)",
         best_us(lambda: reconstruct_wavefunction(final, init, params, x_grid),
                 max(1, args.calls // 10), args.repeats)),
        ("cofactor divergence (3 grids)", divergence_us),
        ("force identity (3 grids)", force_us),
        ("density plane (129^2)",
         best_us(lambda: _smooth_rho3(*mesh), plane_calls, args.repeats)),
        ("stress_eulerian plane (129^2)",
         best_us(lambda: stress_eulerian(rho, grad, hess, params.hbar,
                                         params.mass), plane_calls, args.repeats)),
        ("quantum_potential plane (129^2)",
         best_us(lambda: quantum_potential(rho, grad, lap, params.hbar,
                                           params.mass), plane_calls, args.repeats)),
        ("residual rows (3 x 125 x 129)",
         best_us(lambda: _force_residual_rows(planes), plane_calls, args.repeats)),
        (f"chain-rule oracle ({len(_ORACLE_POINTS)} points)", oracle_us),
        (f"tensor-check (traced peak {tensor_mb:.0f} MB)", tensor_us),
        ("start-up (import qflow.cli)", startup_us),
    ]
    for name, us in rows:
        print(f"{name:<34} {us:10.2f}")
    print(f"scipy subpackages at start-up: {' '.join(loaded) or 'none'}")
    print(f"evolve to t = {config.t_final:g}: {n_steps} steps, {evolve_s:.3f} s")


if __name__ == "__main__":
    main()
