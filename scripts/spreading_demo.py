#!/usr/bin/env python3
"""Free-packet spreading computed from trajectories, checked line by line
against the closed form.

Runs the trajectory solver on an initially resting Gaussian, rebuilds the
wavefunction on a spatial grid at a few times, and prints the deviation of
every reconstructed quantity from the closed-form solution.
"""

import argparse
import time

import numpy as np

from qflow.benchmarks import (error_norms, gaussian_trajectory,
                              gaussian_wavefunction)
from qflow.lagrangian import SolverConfig, evolve
from qflow.model import PhysicsParams, assemble_wavefunction, make_gaussian_state
from qflow.reconstruction import reconstruct_wavefunction


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-labels", type=int, default=401)
    ap.add_argument("--span", type=float, default=8.0)
    ap.add_argument("--t-final", type=float, default=2.0)
    ap.add_argument("--sigma0", type=float, default=1.0)
    args = ap.parse_args()

    params = PhysicsParams()
    labels = np.linspace(-args.span, args.span, args.n_labels)
    init = make_gaussian_state(args.sigma0, params, labels)
    config = SolverConfig(t_final=args.t_final, snapshot_stride=25)

    t0 = time.perf_counter()
    snapshots = evolve(init, params, config)
    wall = time.perf_counter() - t0
    print(f"evolved {init.n} trajectories to t = {args.t_final} "
          f"({len(snapshots)} snapshots, {wall:.2f}s)")

    x = np.linspace(-12, 12, 1024, endpoint=False)
    print(f"{'t':>6} {'max |q err|':>12} {'energy drift':>13} "
          f"{'psi L2 err':>12} {'rho norm':>10}")
    e0 = snapshots[0].energy
    # up to five distinct snapshots, the first and the last included
    picks = np.unique(np.linspace(0, len(snapshots) - 1, 5).astype(int))
    for i in picks:
        snap = snapshots[i]
        q_exact, _ = gaussian_trajectory(labels, snap.t, args.sigma0, params)
        q_err = np.max(np.abs(snap.q - q_exact))
        drift = abs(snap.energy - e0) / abs(e0)
        field = reconstruct_wavefunction(snapshots[:i + 1], init, params, x)
        rho_e, S_e = gaussian_wavefunction(x, snap.t, args.sigma0, params)
        psi_e = assemble_wavefunction(rho_e, S_e, params.hbar)
        norms = error_norms(field.psi, psi_e, x, field.mask)
        print(f"{snap.t:6.2f} {q_err:12.3e} {drift:13.3e} "
              f"{norms.phase_reduced_l2:12.3e} {field.support_norm():10.6f}")


if __name__ == "__main__":
    main()
