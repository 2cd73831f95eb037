"""Time integration of the fluid-trajectory equation of motion.

The per-label acceleration can be evaluated two independent ways:

* ``acceleration_direct`` - the conservation-form right side expressed in
  label variables,

      qddot = -(1/m) dV/dq
              + (hbar^2 / 4 m^2) [ L1 * G + dG/da ],
      G = 2 J'^2 / J^5 - J' L1 / J^4 - J'' / J^4 + L2 / J^3 - L1^2 / J^3,

  with J = dq/da and L1 = rho0'/rho0, L2 = rho0''/rho0 the log-density
  ratios of the initial data.  Assembling the density division through L1
  and L2 keeps the expression finite deep in the tails.

* ``acceleration_newton`` - Newton's law in the potential V + V_Q, with
  the density pushed forward along the map (rho = rho0 / J) and label
  derivatives converted to spatial ones through 1/J.

Both are pointwise collocation evaluations and must agree to
discretization accuracy; the cross-check doubles as a transcription test
of the conservation form.

Label kinematics.  Both forms, V_Q in the phase density and the energy
check read one tuple (J, J', J'', 1/J), which ``_kinematics`` takes from a
single stacked stencil product ``derivative(q, h, (1, 2, 3), order)``
once per force evaluation; the Jacobian floor and a finiteness check are
applied there too.  The stacked product sums each interior stencil in
weight order and scales by h**m last, exactly as a single-derivative call
does, so sharing the tuple changes no bit of the integration: it only
removes the repeated stencil passes (seven per RK4 stage before, two now,
counting dG/da).

Stability of the time stepping.  The pointwise collocation operator is
exponentially unstable on fine grids: linearizing about a smooth flow
gives frozen-coefficient growth rates of order |L1| k / 2, which for a
Gaussian at +-8 sigma and 400 labels exceeds 100 per time unit (measured
directly as real parts of the discrete eigenvalues).  The continuum
operator is self-adjoint under the mass-weighted inner product, so the
growth is purely a discretization artifact living in grid-scale modes.
``evolve`` therefore advances (q, qdot) with the acceleration field
projected onto a mass-weighted polynomial subspace each evaluation: the
projection is the rho0-weighted least-squares fit onto Legendre
polynomials in the label, it preserves every affine flow exactly (uniform
dilations and translations, hence the Gaussian benchmark is untouched),
and it removes the spurious modes entirely (measured growth rates drop
below 0.02).  The phase integral chi accumulates alongside the state with
the same quadrature order as the integrator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (NumericalInstability, PathDisagreementWarning,
                     TrajectoryCrossing, ValidationError)
from .model import InitialState, PhysicsParams, TrajectoryState
from .stencils import derivative, grid_spacing, trapezoid_weights

J_FLOOR = 1e-10
TAIL_FLOOR_REL = 1e-12
ENERGY_ABORT_REL = 0.10
PATH_CHECK_TOL = 1e-3


@dataclass(frozen=True)
class SolverConfig:
    """Run controls for the trajectory integration."""

    t_final: float
    dt: Optional[float] = None          # None -> auto CFL rule
    cfl_coefficient: float = 0.1
    integrator: str = "rk4"             # "rk4" | "velocity_verlet"
    stencil_order: int = 4              # 2 | 4
    snapshot_stride: int = 1
    acceleration_path: str = "direct"   # "direct" | "newton" | "both_with_check"
    projection_degree: Optional[int] = None  # None -> adaptive default

    def validate(self):
        if not (self.t_final > 0):
            raise ValidationError(f"t_final must be positive, got {self.t_final}")
        if self.dt is not None and not (self.dt > 0):
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if not (self.cfl_coefficient > 0):
            raise ValidationError(f"cfl_coefficient must be positive")
        if self.integrator not in ("rk4", "velocity_verlet"):
            raise ValidationError(f"unknown integrator {self.integrator!r}")
        if self.stencil_order not in (2, 4):
            raise ValidationError(f"stencil_order must be 2 or 4, got {self.stencil_order}")
        if self.snapshot_stride < 1:
            raise ValidationError("snapshot_stride must be >= 1")
        if self.acceleration_path not in ("direct", "newton", "both_with_check"):
            raise ValidationError(f"unknown acceleration_path {self.acceleration_path!r}")
        if self.projection_degree is not None and self.projection_degree < 1:
            raise ValidationError("projection_degree must be >= 1")

    def auto_dt(self, label_spacing: float, params: PhysicsParams) -> float:
        """Dispersive stability rule dt = cfl * da^2 * m / hbar."""
        if self.dt is not None:
            return self.dt
        return self.cfl_coefficient * label_spacing**2 * params.mass / params.hbar


def default_projection_degree(n_labels: int) -> int:
    """Degree keeping the basis clear of the under-resolved tail scales."""
    return int(min(24, max(8, n_labels // 8)))


class ModeProjector:
    """Mass-weighted least-squares projection onto Legendre polynomials.

    The weight is floored at a small fraction of the density peak: an
    unfloored Gaussian weight makes the basis so ill-conditioned that any
    out-of-span component of the projected field erupts at the far tails
    (the orthonormalized high modes are Hermite-like with huge polynomial
    values outside their oscillation region).  The floor bounds the
    conditioning while leaving the mass-weighted fit unchanged where the
    fluid actually lives.
    """

    WEIGHT_FLOOR_REL = 1e-8

    def __init__(self, labels, rho0, degree: int):
        labels = np.asarray(labels, dtype=float)
        w = trapezoid_weights(labels)
        t = 2.0 * (labels - labels[0]) / (labels[-1] - labels[0]) - 1.0
        V = np.polynomial.legendre.legvander(t, degree)
        rho0 = np.asarray(rho0, dtype=float)
        weight = np.maximum(rho0, self.WEIGHT_FLOOR_REL * float(np.max(rho0)))
        self.weight_root = np.sqrt(weight * w)
        B = self.weight_root[:, None] * V
        self.q_basis, _ = np.linalg.qr(B)

    def __call__(self, f: np.ndarray) -> np.ndarray:
        wf = self.weight_root * f
        return (self.q_basis @ (self.q_basis.T @ wf)) / self.weight_root


class _LabelData:
    """Per-run precomputed label-grid data shared by the acceleration forms."""

    def __init__(self, init: InitialState, params: PhysicsParams, order: int):
        self.h = grid_spacing(init.labels)
        a = init.labels
        forms = init.forms
        self.order = order
        self.mass_weights = trapezoid_weights(a) * init.rho0
        if forms is not None and forms.rho0 and forms.drho0 and forms.d2rho0:
            r = np.asarray(forms.rho0(a), dtype=float)
            self.L1 = np.asarray(forms.drho0(a), dtype=float) / r
            self.L2 = np.asarray(forms.d2rho0(a), dtype=float) / r
        else:
            peak = float(np.max(init.rho0))
            floor = TAIL_FLOOR_REL * peak
            if np.min(init.rho0) < floor:
                raise ValidationError(
                    "numeric density derivatives need rho0 >= 1e-12 * peak at "
                    "every label; restrict the label span or supply analytic forms"
                )
            safe = np.maximum(init.rho0, floor)
            self.L1, self.L2 = derivative(init.rho0, self.h, (1, 2), order) / safe


def _kinematics(data: _LabelData, q, t=0.0):
    """(J, J', J'', 1/J) of the map from one stacked stencil product.

    Raises :class:`NumericalInstability` on a non-finite state and
    :class:`TrajectoryCrossing` when J falls to the floor.
    """
    D = derivative(q, data.h, (1, 2, 3), data.order)
    if not np.all(np.isfinite(D)):
        raise NumericalInstability(
            f"non-finite trajectory state at t = {t:.6g}; reduce dt or check "
            f"the initial data")
    J, Jp, Jpp = D
    bad = J <= J_FLOOR
    if np.any(bad):
        i = int(np.argmax(bad))
        raise TrajectoryCrossing(i, t, f"J = {J[i]:.3e} <= floor {J_FLOOR:.1e}")
    return J, Jp, Jpp, 1.0 / J


def initial_velocity(init: InitialState, params: PhysicsParams,
                     stencil_order: int = 4) -> np.ndarray:
    """v0 = (1/m) dS0/da, from the analytic form when available."""
    if init.forms is not None and init.forms.ds0 is not None:
        ds = np.asarray(init.forms.ds0(init.labels), dtype=float)
    else:
        ds = derivative(init.s0, grid_spacing(init.labels), 1, stencil_order)
    return ds / params.mass


def _accel_direct_from(data: _LabelData, params: PhysicsParams, q, kin):
    _, Jp, Jpp, Ji = kin
    L1, L2 = data.L1, data.L2
    G = (2.0 * Ji**5 * Jp**2 - Ji**4 * Jp * L1 - Ji**4 * Jpp
         + Ji**3 * L2 - Ji**3 * L1**2)
    quantum = (params.hbar**2 / (4.0 * params.mass**2)) * (
        L1 * G + derivative(G, data.h, 1, data.order))
    return quantum - params.potential_gradient(q) / params.mass


def _vq_from(data: _LabelData, params: PhysicsParams, kin):
    """Quantum potential along the trajectories, in log-density variables."""
    _, Jp, Jpp, Ji = kin
    ca = data.L1 - Jp * Ji                       # d(ln rho)/da
    caa = (data.L2 - data.L1**2) - (Jpp * Ji - (Jp * Ji) ** 2)
    cx = ca * Ji                                 # d(ln rho)/dq
    cxx = (caa - ca * Jp * Ji) * Ji**2
    return -(params.hbar**2 / (4.0 * params.mass)) * (cxx + 0.5 * cx**2)


def _accel_newton_from(data: _LabelData, params: PhysicsParams, q, kin, vq):
    dvq = derivative(vq, data.h, 1, data.order) / kin[0]
    return -(params.potential_gradient(q) + dvq) / params.mass


def acceleration_direct(traj: TrajectoryState, init: InitialState,
                        params: PhysicsParams, stencil_order: int = 4) -> np.ndarray:
    """Conservation-form acceleration, evaluated pointwise on the labels."""
    data = _LabelData(init, params, stencil_order)
    return _accel_direct_from(data, params, traj.q,
                              _kinematics(data, traj.q, traj.t))


def acceleration_newton(traj: TrajectoryState, init: InitialState,
                        params: PhysicsParams, stencil_order: int = 4) -> np.ndarray:
    """Newton-law acceleration -(1/m) d(V + V_Q)/dq along the trajectories."""
    data = _LabelData(init, params, stencil_order)
    kin = _kinematics(data, traj.q, traj.t)
    return _accel_newton_from(data, params, traj.q, kin,
                              _vq_from(data, params, kin))


def quantum_potential_labels(traj: TrajectoryState, init: InitialState,
                             params: PhysicsParams, stencil_order: int = 4) -> np.ndarray:
    """V_Q evaluated at each fluid element of a snapshot."""
    data = _LabelData(init, params, stencil_order)
    return _vq_from(data, params, _kinematics(data, traj.q, traj.t))


def energy_of(traj: TrajectoryState, init: InitialState, params: PhysicsParams,
              stencil_order: int = 4, *, data: Optional[_LabelData] = None) -> float:
    """Discrete total energy sum_i w_i rho0_i (m qdot^2/2 + U + V).

    ``data`` is the label data of (init, params, stencil_order) when the
    caller already holds it, as :func:`evolve` does.
    """
    if data is None:
        data = _LabelData(init, params, stencil_order)
    J, Jp, _, _ = _kinematics(data, traj.q, traj.t)
    cx = (data.L1 - Jp / J) / J
    U = params.hbar**2 / (8.0 * params.mass) * cx**2
    dens = (0.5 * params.mass * traj.qdot**2 + U
            + params.potential_energy(traj.q))
    return float(np.sum(data.mass_weights * dens))


def evolve(init: InitialState, params: PhysicsParams,
           config: SolverConfig) -> list[TrajectoryState]:
    """Integrate the trajectory continuum from t = 0 to t_final.

    Returns snapshots every ``snapshot_stride`` steps (the initial and
    final states are always included).  Monotonicity of q is asserted at
    every accepted step; a non-finite state or a relative energy drift
    above 10% aborts with :class:`NumericalInstability`.
    """
    config.validate()
    data = _LabelData(init, params, config.stencil_order)
    n = init.n
    degree = config.projection_degree
    if degree is None:
        degree = default_projection_degree(n)
    degree = min(degree, n - 1)
    project = ModeProjector(init.labels, init.rho0, degree)

    path = config.acceleration_path
    use_newton = path == "newton"

    def forces(q, t):
        """Projected acceleration and V_Q from one kinematics evaluation."""
        kin = _kinematics(data, q, t)
        vq = _vq_from(data, params, kin)
        if use_newton:
            acc = _accel_newton_from(data, params, q, kin, vq)
        else:
            acc = _accel_direct_from(data, params, q, kin)
        return project(acc), vq

    def ldens(q, qd, vq):
        return 0.5 * params.mass * qd**2 - params.potential_energy(q) - vq

    def rhs(q, qd, t):
        acc, vq = forces(q, t)
        return qd, acc, ldens(q, qd, vq)

    dt = config.auto_dt(data.h, params)
    n_steps = max(1, int(round(config.t_final / dt)))
    dt = config.t_final / n_steps

    q = init.labels.copy()
    qd = initial_velocity(init, params, config.stencil_order)
    chi = np.zeros(n)
    t = 0.0
    snapshots = [TrajectoryState(init.labels, q.copy(), qd.copy(), chi.copy(), 0.0)]
    e0 = energy_of(snapshots[0], init, params, config.stencil_order, data=data)

    def check_step(qn, tn):
        gaps = np.diff(qn)
        if np.any(gaps <= 0):
            raise TrajectoryCrossing(int(np.argmin(gaps)), tn)

    def snapshot(tn):
        snap = TrajectoryState(init.labels, q.copy(), qd.copy(), chi.copy(), tn)
        e = energy_of(snap, init, params, config.stencil_order, data=data)
        if not np.isfinite(e):
            raise NumericalInstability(f"non-finite energy at t = {tn:.6g}")
        if abs(e - e0) > ENERGY_ABORT_REL * abs(e0) and abs(e0) > 0:
            raise NumericalInstability(
                f"energy drift {abs(e - e0) / abs(e0):.2%} at t = {tn:.6g} "
                f"exceeds {ENERGY_ABORT_REL:.0%}; reduce dt"
            )
        if path == "both_with_check":
            kin = _kinematics(data, q, tn)
            d = _accel_direct_from(data, params, q, kin)
            nw = _accel_newton_from(data, params, q, kin, _vq_from(data, params, kin))
            scale = float(np.max(np.abs(nw))) or 1.0
            rel = float(np.max(np.abs(d - nw))) / scale
            if rel > PATH_CHECK_TOL:
                warnings.warn(
                    f"acceleration formulas disagree by {rel:.2e} (rel) at "
                    f"t = {tn:.6g}", PathDisagreementWarning, stacklevel=2)
        snapshots.append(snap)

    verlet = config.integrator == "velocity_verlet"
    if verlet:
        # the end-of-step forces are the next step's start-of-step forces
        acc0, vq0 = forces(q, t)
        l0 = ldens(q, qd, vq0)
    for step in range(n_steps):
        if verlet:
            q_new = q + dt * qd + 0.5 * dt * dt * acc0
            check_step(q_new, t + dt)
            acc1, vq1 = forces(q_new, t + dt)
            qd_new = qd + 0.5 * dt * (acc0 + acc1)
            l1 = ldens(q_new, qd_new, vq1)
            chi = chi + 0.5 * dt * (l0 + l1)
            q, qd, acc0, l0 = q_new, qd_new, acc1, l1
        else:
            k1q, k1v, k1c = rhs(q, qd, t)
            k2q, k2v, k2c = rhs(q + 0.5 * dt * k1q, qd + 0.5 * dt * k1v, t + 0.5 * dt)
            k3q, k3v, k3c = rhs(q + 0.5 * dt * k2q, qd + 0.5 * dt * k2v, t + 0.5 * dt)
            k4q, k4v, k4c = rhs(q + dt * k3q, qd + dt * k3v, t + dt)
            q = q + dt / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            qd = qd + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            chi = chi + dt / 6.0 * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
            check_step(q, t + dt)
        t = (step + 1) * dt
        if (step + 1) % config.snapshot_stride == 0 or step + 1 == n_steps:
            snapshot(t)
    return snapshots
