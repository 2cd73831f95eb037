"""Time integration of the fluid-trajectory equation of motion.

The per-label acceleration can be evaluated two ways:

* ``acceleration_direct`` - the conservation-form right side expressed in
  label variables,

      qddot = -(1/m) dV/dq
              + (hbar^2 / 4 m^2) [ L1 * G + dG/da ],
      G = c_xx / J,

  with J = dq/da, L1 = rho0'/rho0, L2 = rho0''/rho0 the log-density
  ratios of the initial data, and c_x, c_xx the spatial derivatives of
  c = ln rho = ln rho0 - ln J along the map.  G is the familiar five-term
  2 J'^2/J^5 - J' L1/J^4 - J''/J^4 + L2/J^3 - L1^2/J^3: both equal
  J^-3 (2 A^2 - A L1 - J''/J + L2 - L1^2) with A = J'/J.  Assembling the
  density division through L1 and L2 keeps the expression finite deep in
  the tails.

* ``acceleration_newton`` - Newton's law in the potential V + V_Q, with
  the density pushed forward along the map (rho = rho0 / J) and label
  derivatives converted to spatial ones through 1/J.

Both are pointwise collocation evaluations and must agree to
discretization accuracy.  They read the same (c_x, c_xx), but the
conservation form equals (hbar^2/4m^2)(d_x c_xx + c_x c_xx) and the Newton
form (hbar^2/4m^2)(d_x c_xx + c_x d_x c_x), the latter a stencil on V_Q:
they agree only where the discrete c_xx equals d_x c_x, so the cross-check
doubles as a transcription test of the conservation form.  ``evolve``
integrates the conservation form only; the Newton form is evaluated by the
acceptance battery and the run summary.

Label kinematics.  Both forms, V_Q in the phase density and the energy
check read one tuple (J, J', J'', 1/J), which ``_kinematics`` takes from a
single stacked stencil product ``derivative(q, h, (1, 2, 3))`` once
per force evaluation; the Jacobian floor and a finiteness check are
applied there too.  The stacked product sums every stencil row in weight
order and scales by h**m last, exactly as a single-derivative call does.
``_log_density_derivatives`` turns the tuple into (c_x, c_xx), the one
kernel behind V_Q and G.  ``_LabelData`` binds the two stencils a run
needs, the (1, 2, 3) stack and d/da, once per run
(:class:`~qflow.stencils.Stencil`).

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
below 0.02).  The phase is carried at one label only, in the same RK4
steps; each snapshot takes chi at the other labels from the velocity, so
that d(S0 + chi)/da = m qdot J holds and the phase gradient has no second
source that the projection could make disagree with it (see ``evolve``).

Projected force.  That projection is linear, and so is the map
(G, dV/dq) -> (hbar^2/4m^2)(L1 G + dG/da) - (1/m) dV/dq, so ``evolve``
composes the two once per run (:meth:`ModeProjector.compose`, d/da taken
as the bound stencil's sparse matrix): a right-hand side stacks G and
dV/dq and makes one call of the composed operator, with no stencil
product for dG/da.  A right-hand side is thus one stencil product, the
log-density arithmetic and one projection.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import sparse

from .errors import NumericalInstability, TrajectoryCrossing, ValidationError
from .model import InitialState, PhysicsParams, TrajectoryState, plan_steps
from .stencils import (Stencil, cumulative_trapezoid, derivative, grid_spacing,
                       trapezoid_weights)

J_FLOOR = 1e-10
TAIL_FLOOR_REL = 1e-12
ENERGY_ABORT_REL = 0.10


@dataclass(frozen=True)
class SolverConfig:
    """Run controls for the trajectory integration."""

    t_final: float
    dt: Optional[float] = None          # None -> auto CFL rule
    cfl_coefficient: float = 0.1
    snapshot_stride: int = 1
    projection_degree: Optional[int] = None  # None -> adaptive default

    def validate(self):
        if not (self.t_final > 0):
            raise ValidationError(f"t_final must be positive, got {self.t_final}")
        if self.dt is not None and not (self.dt > 0):
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if not (self.cfl_coefficient > 0):
            raise ValidationError(f"cfl_coefficient must be positive")
        if self.snapshot_stride < 1:
            raise ValidationError("snapshot_stride must be >= 1")
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

    With ``w_r V = Q R`` the QR factorization of the root-weighted Legendre
    Vandermonde matrix, the projection is ``lift @ (coeffs @ f)`` with
    ``coeffs = (Q w_r)^T`` (labels to mode coefficients) and
    ``lift = Q / w_r`` (modes back to the labels).  :meth:`compose` folds a
    fixed linear map into ``coeffs``.
    """

    WEIGHT_FLOOR_REL = 1e-8

    def __init__(self, labels, rho0, degree: int):
        labels = np.asarray(labels, dtype=float)
        w = trapezoid_weights(labels)
        t = 2.0 * (labels - labels[0]) / (labels[-1] - labels[0]) - 1.0
        V = np.polynomial.legendre.legvander(t, degree)
        rho0 = np.asarray(rho0, dtype=float)
        weight = np.maximum(rho0, self.WEIGHT_FLOOR_REL * float(np.max(rho0)))
        weight_root = np.sqrt(weight * w)[:, None]
        Q, R = np.linalg.qr(weight_root * V)
        # Q / w_r = V R^-1: taken from V, the lift does not divide the QR's
        # rounding by the floored tail weight (2-5x closer to an exact
        # projection at the outermost labels)
        self.lift = V @ np.linalg.inv(R)
        self.coeffs = np.ascontiguousarray((Q * weight_root).T)

    def compose(self, A) -> ModeProjector:
        """The projection of ``A @ f``, for a fixed (sparse or dense) map
        ``A`` with one row per label, as one projector: its ``coeffs`` are
        ``coeffs @ A``, so a call costs what a plain projection does.  A call
        reads ``f`` flattened, so ``f`` may come stacked, one block of
        labels per column block of ``A``."""
        composed = copy(self)
        composed.coeffs = np.ascontiguousarray(self.coeffs @ A)
        return composed

    def __call__(self, f: np.ndarray) -> np.ndarray:
        return self.lift @ (self.coeffs @ np.ravel(f))


class _LabelData:
    """Per-run precomputed label-grid data shared by the acceleration forms."""

    def __init__(self, init: InitialState, params: PhysicsParams):
        self.h = grid_spacing(init.labels)
        a = init.labels
        forms = init.forms
        self.d123 = Stencil(a.size, self.h, (1, 2, 3))
        self.d1 = Stencil(a.size, self.h, 1)
        self.quantum_coeff = params.hbar**2 / (4.0 * params.mass**2)
        self.mass_weights = trapezoid_weights(a) * init.rho0
        if forms is not None and forms.rho0 and forms.drho0 and forms.d2rho0:
            r = np.asarray(forms.rho0(a), dtype=float)
            if np.any(r <= 0):
                raise ValidationError(f"analytic rho0 underflows to 0 on the label "
                                      f"span [{a[0]}, {a[-1]}]; narrow the span")
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
            self.L1, self.L2 = derivative(init.rho0, self.h, (1, 2)) / safe
        self.L2_minus_L1_sq = self.L2 - self.L1**2


def _kinematics(data: _LabelData, q, t=0.0):
    """(J, J', J'', 1/J) of the map from one stacked stencil product.

    Raises :class:`NumericalInstability` on a non-finite state and
    :class:`TrajectoryCrossing` when J falls to the floor.
    """
    D = data.d123(q)
    if not np.isfinite(D).all():
        raise NumericalInstability(
            f"non-finite trajectory state at t = {t:.6g}; reduce dt or check "
            f"the initial data")
    J, Jp, Jpp = D
    if J.min() <= J_FLOOR:
        i = int(np.argmax(J <= J_FLOOR))
        raise TrajectoryCrossing(i, t, f"J = {J[i]:.3e} <= floor {J_FLOOR:.1e}")
    return J, Jp, Jpp, 1.0 / J


def initial_velocity(init: InitialState, params: PhysicsParams) -> np.ndarray:
    """v0 = (1/m) dS0/da, from the analytic form when available."""
    if init.forms is not None and init.forms.ds0 is not None:
        ds = np.asarray(init.forms.ds0(init.labels), dtype=float)
    else:
        ds = derivative(init.s0, grid_spacing(init.labels), 1)
    return ds / params.mass


def _log_density_derivatives(data: _LabelData, kin):
    """(c_x, c_xx), the spatial derivatives of c = ln rho along the map."""
    _, Jp, Jpp, Ji = kin
    JpJi = Jp * Ji
    ca = data.L1 - JpJi                          # d(ln rho)/da
    caa = data.L2_minus_L1_sq - (Jpp * Ji - JpJi**2)
    cx = ca * Ji                                 # d(ln rho)/dq
    cxx = (caa - ca * Jp * Ji) * Ji**2
    return cx, cxx


def _accel_direct_from(data: _LabelData, params: PhysicsParams, q, kin):
    G = _log_density_derivatives(data, kin)[1] * kin[3]
    quantum = data.quantum_coeff * (data.L1 * G + data.d1(G))
    return quantum - params.potential_gradient(q) / params.mass


def _vq_from(data: _LabelData, params: PhysicsParams, kin):
    """Quantum potential along the trajectories, in log-density variables."""
    return params.quantum_potential(*_log_density_derivatives(data, kin))


def _accel_newton_from(data: _LabelData, params: PhysicsParams, q, kin, vq):
    dvq = data.d1(vq) / kin[0]
    return -(params.potential_gradient(q) + dvq) / params.mass


def _projected_force(data: _LabelData, params: PhysicsParams,
                     project: ModeProjector) -> ModeProjector:
    """``project`` composed with the map from the stacked (G, dV/dq) to the
    conservation-form acceleration (hbar^2/4m^2)(L1 G + dG/da) - (1/m) dV/dq,
    d/da taken from the run's bound stencil: one mode projection per call."""
    n = data.L1.size
    return project.compose(sparse.hstack((
        data.quantum_coeff * (sparse.diags_array(data.L1) + data.d1.matrix()),
        sparse.eye_array(n) * (-1.0 / params.mass))))


def acceleration_direct(traj: TrajectoryState, init: InitialState,
                        params: PhysicsParams, *,
                        data: Optional[_LabelData] = None) -> np.ndarray:
    """Conservation-form acceleration, evaluated pointwise on the labels.

    ``data`` is as in :func:`energy_of`.
    """
    if data is None:
        data = _LabelData(init, params)
    return _accel_direct_from(data, params, traj.q,
                              _kinematics(data, traj.q, traj.t))


def acceleration_newton(traj: TrajectoryState, init: InitialState,
                        params: PhysicsParams, *,
                        data: Optional[_LabelData] = None) -> np.ndarray:
    """Newton-law acceleration -(1/m) d(V + V_Q)/dq along the trajectories.

    ``data`` is as in :func:`energy_of`.
    """
    if data is None:
        data = _LabelData(init, params)
    kin = _kinematics(data, traj.q, traj.t)
    return _accel_newton_from(data, params, traj.q, kin,
                              _vq_from(data, params, kin))


def energy_of(traj: TrajectoryState, init: InitialState, params: PhysicsParams,
              *, data: Optional[_LabelData] = None, kin=None) -> float:
    """Discrete total energy sum_i w_i rho0_i (m qdot^2/2 + U + V).

    ``data`` is the label data of (init, params) and ``kin`` the snapshot's
    ``_kinematics`` tuple when the caller already holds them, as
    :func:`evolve` does.
    """
    if data is None:
        data = _LabelData(init, params)
    if kin is None:
        kin = _kinematics(data, traj.q, traj.t)
    cx = _log_density_derivatives(data, kin)[0]
    U = params.hbar**2 / (8.0 * params.mass) * cx**2
    dens = (0.5 * params.mass * traj.qdot**2 + U
            + params.potential_energy(traj.q))
    return float(np.sum(data.mass_weights * dens))


def evolve(init: InitialState, params: PhysicsParams,
           config: SolverConfig) -> list[TrajectoryState]:
    """Integrate the trajectory continuum from t = 0 to t_final.

    Classical RK4 on the flat state (q, qdot, chi[i0]), driven by the
    projected conservation-form acceleration; chi[i0] integrates
    m qdot^2/2 - V - V_Q at the density peak ``i0 = argmax(rho0)``.  Each
    snapshot sets chi = dPhi - dPhi[i0] + chi[i0], dPhi the change since
    t = 0 of the running trapezoid of m qdot J over the labels (J from the
    snapshot's kinematics pass), so chi is exactly 0 at t = 0 and the
    phase satisfies the quasi-potential condition d(S0 + chi)/da = m qdot J
    to rounding.  Returns snapshots every
    ``snapshot_stride`` steps (the initial and final states are always
    included), each carrying the energy that the drift check computed for
    it and the least J of the same kinematics pass.  Monotonicity of q is
    asserted at every accepted step; a non-finite state or a relative
    energy drift above 10% aborts with :class:`NumericalInstability`.  A
    step plan over ``MAX_STEPS`` is rejected up front.
    """
    config.validate()
    data = _LabelData(init, params)
    n = init.n
    i0 = int(np.argmax(init.rho0))
    degree = config.projection_degree
    if degree is None:
        degree = default_projection_degree(n)
    degree = min(degree, n - 1)
    force = _projected_force(data, params,
                             ModeProjector(init.labels, init.rho0, degree))
    G_dV = np.empty((2, n))

    def rhs(y, t):
        """Time derivative of the flat state y = (q, qdot, chi[i0])."""
        q, qd = y[:n], y[n:-1]
        kin = _kinematics(data, q, t)
        cx, cxx = _log_density_derivatives(data, kin)
        np.multiply(cxx, kin[3], out=G_dV[0])
        G_dV[1] = params.potential_gradient(q)
        k = np.empty_like(y)
        k[:n] = qd
        k[n:-1] = force(G_dV)
        k[-1] = (0.5 * params.mass * qd[i0]**2 - params.potential_energy(q[i0])
                 - params.quantum_potential(cx[i0], cxx[i0]))
        return k

    n_steps, dt = plan_steps(config.t_final, config.auto_dt(data.h, params))

    y = np.concatenate((init.labels, initial_velocity(init, params), [0.0]))
    phi0 = None

    def measured(tn):
        """The current state as a snapshot, carrying its energy and min J
        from one kinematics pass, and chi from the J of that pass."""
        nonlocal phi0
        q, qd = y[:n].copy(), y[n:-1].copy()
        kin = _kinematics(data, q, tn)
        phi = cumulative_trapezoid(params.mass * qd * kin[0], init.labels)
        if phi0 is None:
            phi0 = phi
        dphi = phi - phi0
        snap = TrajectoryState(init.labels, q, qd, dphi - dphi[i0] + y[-1], tn)
        return replace(snap, energy=energy_of(snap, init, params, data=data, kin=kin),
                       min_jacobian=float(kin[0].min()))

    snapshots = [measured(0.0)]
    e0 = snapshots[0].energy

    def snapshot(tn):
        snap = measured(tn)
        e = snap.energy
        if not np.isfinite(e):
            raise NumericalInstability(f"non-finite energy at t = {tn:.6g}")
        if abs(e - e0) > ENERGY_ABORT_REL * abs(e0) and abs(e0) > 0:
            raise NumericalInstability(
                f"energy drift {abs(e - e0) / abs(e0):.2%} at t = {tn:.6g} "
                f"exceeds {ENERGY_ABORT_REL:.0%}; reduce dt"
            )
        snapshots.append(snap)

    t = 0.0
    for step in range(n_steps):
        k1 = rhs(y, t)
        k2 = rhs(y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(y + dt * k3, t + dt)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        gaps = np.diff(y[:n])
        if gaps.min() <= 0:
            raise TrajectoryCrossing(int(np.argmin(gaps)), t + dt)
        t = (step + 1) * dt
        if (step + 1) % config.snapshot_stride == 0 or step + 1 == n_steps:
            snapshot(t)
    return snapshots
