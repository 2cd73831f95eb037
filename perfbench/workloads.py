"""The four benchmark workloads, as run inside one child process.

Each workload has three steps:

* ``setup(inputs)`` parses the generated inputs and builds the initial
  state; it is timed as set-up.
* ``run(ctx, out)`` is the measured work, output writes included.  It
  returns the exit code of the run (the CLI's code for CLI workloads).
* ``check(ctx, out)`` reads the outputs back after the clock has stopped
  and applies the accuracy gate.  It returns ``(ok, psi_err, detail)``.

``expected_counts(ctx)`` gives the step counts the inputs imply
(``t_final / dt``), which the traced run must reproduce exactly.

The gates use tolerances the repository already states (README criteria 1,
3 and 8, and the tensor-check pass flag).  The closed forms used by the
gates are written out here, independently of ``qflow.benchmarks``.

qflow functions are called through the ``qflow`` namespace at call time,
so the span tracer, which rebinds them there, sees these calls too.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import qflow
import qflow.cli
from qflow import AnalyticForms, InitialState, PhysicsParams, Settings, SolverConfig

# hbar and mass are left at their defaults (1) by every generated config
HBAR = 1.0
MASS = 1.0

TRAJECTORY_TOL = 1e-3      # criterion 1
CROSS_SOLVER_TOL = 1e-2    # criterion 3 (also the two_hump gate)
ENDPOINT_TOL = 5e-3        # criterion 8


def _phase_reduced_l2(a, b, x):
    """Trapezoid-weighted L2 of a - e^{i phi} b, minimized over one global
    phase phi (the optimum is the phase of sum w a conj(b))."""
    w = np.zeros_like(x)
    d = np.diff(x)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    overlap = np.sum(w * a * np.conj(b))
    phi = np.angle(overlap) if overlap != 0 else 0.0
    return float(np.sqrt(np.sum(w * np.abs(a - np.exp(1j * phi) * b) ** 2)))


def _gaussian_spread(t, sigma0):
    """Dilation factor b(t) of a free Gaussian packet at rest."""
    return math.sqrt(1.0 + (HBAR * t / (2.0 * MASS * sigma0**2)) ** 2)


def _gaussian_psi(x, t, sigma0):
    """Closed-form free Gaussian at rest, up to a global phase."""
    b = _gaussian_spread(t, sigma0)
    rho = np.exp(-x**2 / (2.0 * (sigma0 * b) ** 2)) / math.sqrt(
        2.0 * math.pi * (sigma0 * b) ** 2)
    rate = (HBAR / (2.0 * MASS * sigma0**2)) ** 2 * t / b**2
    return np.sqrt(rho) * np.exp(1j * MASS * rate * x**2 / (2.0 * HBAR))


def _final_rows(path: Path):
    """Rows of a qflow CSV (schema and header lines skipped) at the last t."""
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return rows[rows[:, 0] == rows[-1, 0]]


def _steps(t_final, dt) -> int:
    return max(1, int(round(t_final / dt)))


def _cfl_steps(t_final, span, n_labels, cfl=0.1):
    """Steps of the trajectory solver's default rule dt = cfl da^2 m / hbar."""
    da = span / (n_labels - 1)
    return _steps(t_final, cfl * da**2 * MASS / HBAR)


def _cli(*argv) -> int:
    return qflow.cli.main([str(a) for a in argv] + ["--quiet"])


class FreeGauss:
    """run-lagrangian, run-reference and compare on the default config."""

    def setup(self, inputs: Path):
        config = inputs / "config.txt"
        settings = Settings.from_file(config)
        settings.initial_state(settings.physics())
        return {"config": config, "settings": settings}

    def expected_counts(self, ctx):
        s = ctx["settings"]
        return {
            "lagrangian.steps": _cfl_steps(
                s["solver.t_final"], s["grid.label_max"] - s["grid.label_min"],
                s["grid.n_labels"], s["solver.cfl"]),
            "spectral.steps": _steps(s.reference_t_final(), s["reference.dt"]),
        }

    def run(self, ctx, out: Path) -> int:
        cfg = ctx["config"]
        for argv in (("run-lagrangian", "--config", cfg, "--out", out / "lagrangian"),
                     ("run-reference", "--config", cfg, "--out", out / "reference"),
                     ("compare", out / "lagrangian", out / "reference",
                      "--config", cfg, "--out", out / "compare")):
            code = _cli(*argv)
            if code:
                return code
        return 0

    def check(self, ctx, out: Path):
        summary = json.loads((out / "lagrangian" / "summary.json").read_text())
        report = json.loads((out / "compare" / "compare.json").read_text())
        traj_err = summary["trajectory_max_rel_error"]
        psi_err = max(e["psi_phase_reduced_l2"] for e in report["comparisons"])
        ok = traj_err <= TRAJECTORY_TOL and psi_err <= CROSS_SOLVER_TOL
        return ok, psi_err, (f"trajectory_max_rel_error {traj_err:.3e} "
                             f"(<= {TRAJECTORY_TOL:g}), max psi_phase_reduced_l2 "
                             f"{psi_err:.3e} (<= {CROSS_SOLVER_TOL:g})")


class TwoHump:
    """Non-affine two-hump state through the public API."""

    def setup(self, inputs: Path):
        p = json.loads((inputs / "params.json").read_text())
        params = PhysicsParams()
        span = p["label_span"]
        labels = np.linspace(-span, span, p["n_labels"])
        humps = list(zip(p["weights"], p["centres"], p["widths"]))

        def mixture(x, k):
            """k-th derivative (k = 0, 1, 2) of the unnormalized mixture."""
            x = np.asarray(x, dtype=float)
            total = np.zeros_like(x)
            for w, mu, s in humps:
                z = (x - mu) / s
                g = w * np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi * s**2)
                total += g * (1.0, -z / s, (z**2 - 1.0) / s**2)[k]
            return total

        # renormalize on the truncated label span
        scale = 1.0 / np.trapezoid(mixture(labels, 0), labels)
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))  # noqa: E731
        forms = AnalyticForms(
            rho0=lambda x: scale * mixture(x, 0),
            drho0=lambda x: scale * mixture(x, 1),
            d2rho0=lambda x: scale * mixture(x, 2),
            s0=zero, ds0=zero, d2s0=zero)
        init = InitialState(labels=labels, rho0=forms.rho0(labels),
                            s0=np.zeros_like(labels), forms=forms)
        x = Settings.defaults().x_grid()
        rho_x = mixture(x, 0)
        psi0 = np.sqrt(rho_x / (np.sum(rho_x) * (x[1] - x[0]))).astype(complex)
        solver = SolverConfig(t_final=p["t_final"],
                              snapshot_stride=p["snapshot_stride"])
        return {"p": p, "params": params, "init": init, "x": x, "psi0": psi0,
                "solver": solver}

    def expected_counts(self, ctx):
        p = ctx["p"]
        return {
            "lagrangian.steps": _cfl_steps(p["t_final"], 2.0 * p["label_span"],
                                           p["n_labels"]),
            "spectral.steps": _steps(p["t_final"], p["reference_dt"]),
        }

    def run(self, ctx, out: Path) -> int:
        p, params, init, x = ctx["p"], ctx["params"], ctx["init"], ctx["x"]
        snapshots = qflow.evolve(init, params, ctx["solver"])
        fields = [qflow.reconstruct_wavefunction(snapshots[:i + 1], init, params, x)
                  for i in range(len(snapshots))]
        qflow.output.write_fields(out / "fields.csv", fields)
        waves = qflow.split_step_evolve(ctx["psi0"], x, params, p["reference_dt"],
                                        p["t_final"], p["reference_stride"])
        ctx["reconstructed"] = fields[-1]
        ctx["reference"] = qflow.reference_fields(waves[-1], x, params)
        return 0

    def check(self, ctx, out: Path):
        rec, ref, x = ctx["reconstructed"], ctx["reference"], ctx["x"]
        if abs(rec.t - ref.t) > 1e-9:
            return False, math.nan, f"final times differ: {rec.t} vs {ref.t}"
        window = rec.mask & ref.mask & (np.abs(x) <= ctx["p"]["window"])
        psi_err = _phase_reduced_l2(rec.psi[window], ref.psi[window], x[window])
        return (psi_err <= CROSS_SOLVER_TOL, psi_err,
                f"psi phase-reduced L2 vs spectral on |x| <= "
                f"{ctx['p']['window']:g}: {psi_err:.3e} (<= {CROSS_SOLVER_TOL:g})")


class Particles:
    """run-qtm on the default config."""

    def setup(self, inputs: Path):
        config = inputs / "config.txt"
        settings = Settings.from_file(config)
        settings.qtm_config()
        settings.qtm_labels()
        return {"config": config, "settings": settings}

    def expected_counts(self, ctx):
        cfg = ctx["settings"].qtm_config()
        # the particle solver's default rule: dt = 0.5 dx^2 m / hbar
        dx = float(np.min(np.diff(ctx["settings"].qtm_labels())))
        return {"qtm.steps": _steps(cfg.t_final, cfg.dt or 0.5 * dx**2 * MASS / HBAR)}

    def run(self, ctx, out: Path) -> int:
        return _cli("run-qtm", "--config", ctx["config"], "--out", out)

    def check(self, ctx, out: Path):
        settings = ctx["settings"]
        sigma0 = settings["state.sigma0"]
        rows = _final_rows(out / "trajectories.csv")
        t, a, q, chi = rows[0, 0], rows[:, 1], rows[:, 2], rows[:, 4]
        if abs(t - settings.qtm_config().t_final) > 1e-9:
            return False, math.nan, f"last snapshot at t = {t}, not t_final"
        i_one = int(np.argmin(np.abs(a - 1.0)))
        endpoint_err = abs(q[i_one] - a[i_one] * _gaussian_spread(t, sigma0))
        # particle wavefunction: rho = rho0(a) / J with J = dq/da (fourth-order
        # centred differences), phase S = S0 + chi with S0 = 0
        h = a[1] - a[0]
        J = (q[:-4] - 8.0 * q[1:-3] + 8.0 * q[3:-1] - q[4:]) / (12.0 * h)
        inner = slice(2, -2)
        rho0 = np.exp(-a**2 / (2.0 * sigma0**2))
        rho0 /= np.trapezoid(rho0, a)
        psi = np.sqrt(rho0[inner] / J) * np.exp(1j * chi[inner] / HBAR)
        xq = q[inner]
        psi_err = _phase_reduced_l2(psi, _gaussian_psi(xq, t, sigma0), xq)
        return (endpoint_err <= ENDPOINT_TOL, psi_err,
                f"x = 1 particle endpoint error {endpoint_err:.3e} "
                f"(<= {ENDPOINT_TOL:g}); particle psi phase-reduced L2 vs "
                f"closed form {psi_err:.3e}")


class TensorGrid:
    """tensor-check --seed <seed>."""

    def setup(self, inputs: Path):
        config = inputs / "config.txt"
        settings = Settings.from_file(config)
        settings.physics()
        return {"config": config, "seed": settings["run.seed"]}

    def expected_counts(self, ctx):
        return {}

    def run(self, ctx, out: Path) -> int:
        return _cli("tensor-check", "--config", ctx["config"],
                    "--seed", ctx["seed"], "--out", out)

    def check(self, ctx, out: Path):
        report = json.loads((out / "tensor_check.json").read_text())
        # no wavefunction here: the accuracy figure is the force-identity
        # residual (div sigma / rho - grad V_Q) on the finest, 129^3 grid
        err = report["force_identity_errors"][-1]
        return (bool(report["passed"]), err,
                f"tensor-check passed = {report['passed']}, force-identity "
                f"residual at 129^3 {err:.3e}")


WORKLOADS = {"free_gauss": FreeGauss(), "two_hump": TwoHump(),
             "particles": Particles(), "tensor_grid": TensorGrid()}
