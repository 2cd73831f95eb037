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
check read one tuple (J, J', J'', 1/J).  ``_kinematics`` takes it from a
single stacked stencil product ``derivative(q, h, (1, 2, 3))`` of a label
state q; the Jacobian floor and a finiteness check are applied there too
(``_check_kinematics``).  The stacked product sums every stencil row in
weight order and scales by h**m last, exactly as a single-derivative call
does.  ``_log_density`` turns the tuple into (c_a, c_xx), c_a = dc/da and
c_x = c_a / J, the one kernel behind V_Q, G and the energy check.
``_LabelData`` binds the two stencils a run needs, the (1, 2, 3) stack and
d/da, once per run (:class:`~qflow.stencils.Stencil`).  Inside ``evolve``
the map is affine in the mode coefficients (below), so the right-hand side
takes (J, J', J'') from one dense product instead of a stencil product.

Stability of the time stepping.  The pointwise collocation operator is
exponentially unstable on fine grids: linearizing about a smooth flow
gives frozen-coefficient growth rates of order |L1| k / 2, which for a
Gaussian at +-8 sigma and 400 labels exceeds 100 per time unit (measured
directly as real parts of the discrete eigenvalues).  The continuum
operator is self-adjoint under the mass-weighted inner product, so the
growth is purely a discretization artifact living in grid-scale modes.
``evolve`` therefore advances the trajectories with the acceleration field
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
composes the two once per run (``_projected_force``): the map is the
matrix A = [(hbar^2/4m^2)(diag L1 + d/da) | -I/m].  The G block's CSR
rows are built from the bound d/da stencil's arrays, and its composed
coefficients ``coeffs @ A_G`` come from
:func:`~qflow.stencils.left_product`, which adds up the rows of A_G in
ascending order, a sparse product's sums to the bit; the -I/m block's are
the product ``coeffs * (-1/m)``.  A right-hand side stacks G and dV/dq
and makes one call of the composed operator, which returns the
r = degree + 1 mode coefficients of the acceleration, not their lift to
the labels.  Under a free potential dV/dq is 0, so the map stops at its G
block and the operator reads n values, not 2n.

Modal state.  Every acceleration lies in the span of the lift, so
qdot = qdot0 + lift @ e and q = a + t qdot0 + lift @ c hold for all t,
with c the modes of the displacement and e = dc/dt.  ``evolve`` therefore
runs RK4 on y = (c, e, chi[i0]), 2r + 1 values (51 at the default degree
24) instead of 2n + 1.  With z = (1, t, c), q is ``basis @ z`` and the
stacked (J, J', J'') is ``K3 @ z``, both matrices built once per run
(``_modal_basis``), ``K3`` by one call of the bound (1, 2, 3) stencil on
the rows of ``basis.T``.  A right-hand side is thus one dense ``K3``
product, the log-density arithmetic and one call of the composed
projector, and no stencil call; q itself is formed only where labels are needed: the
potential, the per-step crossing check and the snapshots.

Workspace.  Python and numpy call overhead, not arithmetic, sets the cost
of a right-hand side on a few hundred labels, so ``evolve`` allocates its
arrays once per run and every kernel of the loop writes into them: the
dense products, the projection and ``potential_gradient`` through an
optional ``out=``, ``_check_kinematics`` and ``_log_density`` into row
views bound once per run, with the run's constants, so that the only
per-call slicing is of the modal state into its c and e blocks.  The
log-density kernel makes nine ufunc calls, G one more, and the value at
the density peak is read as Python floats.  The steps are those of the
shared RK4 driver ``model._rk4``, whose stages and update
dt/6 (((k1 + 2 k2) + 2 k3) + k4) are in-place ufunc calls.  Every step
is a ufunc or product call in the operation order of the plain array
expressions, so the results are bit for bit those of an allocating modal
loop; callers outside the loop (the energy check, the snapshot
kinematics, the acceleration routes) call the same kernels through
``_kinematics`` and ``_log_density_derivatives``, on new arrays.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import legvander

from .errors import NumericalInstability, TrajectoryCrossing, ValidationError
from .model import (FreePotential, InitialState, PhysicsParams,
                    TrajectoryState, _rk4, plan_steps)
from .stencils import (Stencil, cumulative_trapezoid, derivative, grid_spacing,
                       left_product, trapezoid_weights)

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
            raise ValidationError("cfl_coefficient must be positive, "
                                  f"got {self.cfl_coefficient}")
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
    ``lift = Q / w_r`` (modes back to the labels).  A call returns the
    coefficients ``coeffs @ f`` only: the trajectory solver advances them
    and lifts to the labels only where it needs label values.  A copy whose
    ``coeffs`` are ``coeffs @ A`` projects ``A @ f`` at the cost of a plain
    projection; the trajectory solver's force is one.
    """

    WEIGHT_FLOOR_REL = 1e-8

    def __init__(self, labels, rho0, degree: int):
        labels = np.asarray(labels, dtype=float)
        w = trapezoid_weights(labels)
        t = 2.0 * (labels - labels[0]) / (labels[-1] - labels[0]) - 1.0
        V = legvander(t, degree)
        rho0 = np.asarray(rho0, dtype=float)
        weight = np.maximum(rho0, self.WEIGHT_FLOOR_REL * float(np.max(rho0)))
        weight_root = np.sqrt(weight * w)[:, None]
        Q, R = np.linalg.qr(weight_root * V)
        # Q / w_r = V R^-1: taken from V, the lift does not divide the QR's
        # rounding by the floored tail weight (2-5x closer to an exact
        # projection at the outermost labels)
        self.lift = V @ np.linalg.inv(R)
        self.coeffs = np.ascontiguousarray((Q * weight_root).T)

    def __call__(self, f: np.ndarray, out=None) -> np.ndarray:
        """The mode coefficients ``coeffs @ f`` of ``f`` (read flattened),
        written into ``out`` (one entry per mode) when given, else into a
        new array; the bits are the same either way.  The projection of
        ``f`` is ``lift`` times them."""
        return np.dot(self.coeffs, f.ravel(), out=out)


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
        self.zeros3 = np.zeros((3, a.size))
        if forms is not None:
            r = np.asarray(forms.rho0(a), dtype=float)
            if np.any(r <= 0):
                raise ValidationError(f"analytic rho0 underflows to 0 on the label "
                                      f"span [{a[0]}, {a[-1]}]; narrow the span")
            self.L1 = np.asarray(forms.drho0(a), dtype=float) / r
            self.L2 = np.asarray(forms.d2rho0(a), dtype=float) / r
        else:
            if np.min(init.rho0) < TAIL_FLOOR_REL * np.max(init.rho0):
                raise ValidationError(
                    "numeric density derivatives need rho0 >= 1e-12 * peak at "
                    "every label; restrict the label span or supply analytic forms"
                )
            self.L1, self.L2 = derivative(init.rho0, self.h, (1, 2)) / init.rho0
        self.L2_minus_L1_sq = self.L2 - self.L1**2


def _kinematics(data: _LabelData, q, t=0.0):
    """(J, J', J'', 1/J) of the map from one stacked stencil product, the
    rows of a new array, checked as :func:`_check_kinematics` checks
    them."""
    kin = np.empty((4, data.L1.size))
    data.d123(q, out=kin[:3])
    _check_kinematics(kin[:3], kin[0], kin[3], data.zeros3, t)
    return kin


def _check_kinematics(D, J, Ji, zeros, t):
    """Write 1/J into ``Ji`` once the stacked (J, J', J'') ``D`` is checked.

    ``zeros`` is a zero array of ``D``'s size.  Raises
    :class:`NumericalInstability` on a non-finite state and
    :class:`TrajectoryCrossing` when J falls to the floor.
    """
    # 0 * x is NaN exactly when x is NaN or infinite, so the dot product of
    # D with zeros is 0 when D is finite and NaN otherwise
    if not np.vdot(D, zeros) == 0.0:
        raise NumericalInstability(
            f"non-finite trajectory state at t = {t:.6g}; reduce dt or check "
            f"the initial data")
    if np.minimum.reduce(J) <= J_FLOOR:
        i = int(np.argmax(J <= J_FLOOR))
        raise TrajectoryCrossing(i, t, f"J = {J[i]:.3e} <= floor {J_FLOOR:.1e}")
    np.divide(1.0, J, out=Ji)


def initial_velocity(init: InitialState, params: PhysicsParams) -> np.ndarray:
    """v0 = (1/m) dS0/da, from the analytic form when available."""
    if init.forms is not None:
        ds = np.asarray(init.forms.ds0(init.labels), dtype=float)
    else:
        ds = derivative(init.s0, grid_spacing(init.labels), 1)
    return ds / params.mass


def _log_density(L1, L2_minus_L1_sq, Jp, Jpp, Ji, ca, cxx, tmp):
    """(c_a, c_xx), the label derivative of c = ln rho along the map and its
    second spatial derivative, written into ``ca`` and ``cxx`` (``tmp`` is
    scratch) from the rows J', J'', 1/J and the run's L1, L2 - L1^2:

        A = J'/J,   c_a = L1 - A,
        c_xx = J^-2 ((2A - L1) A - J''/J + (L2 - L1^2)),

    nine ufunc calls, 2A - L1 taken as A - c_a.  The first spatial
    derivative is c_x = c_a / J.
    """
    np.multiply(Jp, Ji, out=tmp)                 # A
    np.subtract(L1, tmp, out=ca)                 # c_a
    np.subtract(tmp, ca, out=cxx)                # 2A - L1
    np.multiply(cxx, tmp, out=cxx)
    np.multiply(Jpp, Ji, out=tmp)                # J''/J
    np.subtract(cxx, tmp, out=cxx)
    np.add(cxx, L2_minus_L1_sq, out=cxx)
    np.square(Ji, out=tmp)
    np.multiply(cxx, tmp, out=cxx)               # c_xx
    return ca, cxx


def _log_density_derivatives(data: _LabelData, kin):
    """(c_a, c_xx) of :func:`_log_density` for the ``_kinematics`` tuple
    ``kin``, rows of a new array."""
    _, Jp, Jpp, Ji = kin
    return _log_density(data.L1, data.L2_minus_L1_sq, Jp, Jpp, Ji,
                        *np.empty((3, Ji.size)))


def _projected_force(data: _LabelData, params: PhysicsParams,
                     project: ModeProjector, g_only: bool = False
                     ) -> ModeProjector:
    """``project`` composed with the map from the stacked (G, dV/dq) to the
    conservation-form acceleration (hbar^2/4m^2)(L1 G + dG/da) - (1/m) dV/dq,
    d/da taken from the run's bound stencil: one mode projection per call.

    Row ``j`` of the G block is ``(hbar^2/4m^2)`` times the d/da stencil
    row with ``L1[j]`` added to its diagonal entry (every stencil row has
    one); its coefficients are ``left_product(coeffs, ...)``.  The dV/dq
    block is ``-I/m``, whose coefficients are ``coeffs * (-1/m)``, the bits
    of a sparse product that sums one entry from zero.  A call reads its
    input flattened, so the stacked (G, dV/dq) meets the two blocks side by
    side.  With ``g_only`` the coefficients stop at the G block, and a call
    takes G alone: under a free potential dV/dq is 0.
    """
    n = data.L1.size
    indptr, cols, w = data.d1.matrix()
    w[cols == np.repeat(np.arange(n), np.diff(indptr))] += data.L1
    w *= data.quantum_coeff
    force = copy(project)
    force.coeffs = left_product(project.coeffs, indptr, cols, w, n)
    if not g_only:
        force.coeffs = np.hstack((force.coeffs,
                                  project.coeffs * (-1.0 / params.mass)))
    return force


def _modal_basis(data: _LabelData, labels, qdot0, lift):
    """``(basis, K3)``, the labels' kinematics as linear maps of the modal
    state: with z = (1, t, c), ``q = a + t qdot0 + lift @ c`` is
    ``basis @ z`` and the stacked (J, J', J'') is ``K3 @ z``, ``K3`` the
    product of the run's (1, 2, 3) stencil with ``basis``, one call on the
    rows of ``basis.T``.  Both are in Fortran order, the faster layout for
    their matrix-vector products (at 401 labels and 25 modes,
    single-threaded on a shared 2-core Xeon: 5.4-5.6 against 6.8-7.5 us
    for ``K3``, 2.1 against 2.5-2.9 us for ``basis``)."""
    basis = np.asfortranarray(np.column_stack((labels, qdot0, lift)))
    d = data.d123(basis.T)
    return basis, d.transpose(1, 0, 2).reshape(basis.shape[1], -1).T


def acceleration_direct(traj: TrajectoryState, init: InitialState,
                        params: PhysicsParams) -> np.ndarray:
    """Conservation-form acceleration, evaluated pointwise on the labels."""
    data = _LabelData(init, params)
    kin = _kinematics(data, traj.q, traj.t)
    G = _log_density_derivatives(data, kin)[1] * kin[3]
    quantum = data.quantum_coeff * (data.L1 * G + data.d1(G))
    return quantum - params.potential_gradient(traj.q) / params.mass


def acceleration_newton(traj: TrajectoryState, init: InitialState,
                        params: PhysicsParams) -> np.ndarray:
    """Newton-law acceleration -(1/m) d(V + V_Q)/dq along the trajectories,
    V_Q taken in log-density variables."""
    data = _LabelData(init, params)
    kin = _kinematics(data, traj.q, traj.t)
    ca, cxx = _log_density_derivatives(data, kin)
    vq = params.quantum_potential(ca * kin[3], cxx)
    dvq = data.d1(vq) / kin[0]
    return -(params.potential_gradient(traj.q) + dvq) / params.mass


def energy_of(traj: TrajectoryState, init: InitialState, params: PhysicsParams,
              *, data: Optional[_LabelData] = None, kin=None) -> float:
    """Discrete total energy sum_i w_i rho0_i (m qdot^2/2 + U + V).

    Of ``traj`` only ``q`` and ``qdot`` are read (and ``t`` when ``kin`` is
    not given).  ``data`` is the label data of (init, params) and ``kin``
    the snapshot's ``_kinematics`` tuple when the caller already holds
    them, as :func:`evolve` does, before it builds the snapshot.
    """
    if data is None:
        data = _LabelData(init, params)
    if kin is None:
        kin = _kinematics(data, traj.q, traj.t)
    cx = _log_density_derivatives(data, kin)[0] * kin[3]
    U = params.hbar**2 / (8.0 * params.mass) * cx**2
    dens = (0.5 * params.mass * traj.qdot**2 + U
            + params.potential_energy(traj.q))
    return float(np.sum(data.mass_weights * dens))


def evolve(init: InitialState, params: PhysicsParams,
           config: SolverConfig) -> list[TrajectoryState]:
    """Integrate the trajectory continuum from t = 0 to t_final.

    Classical RK4 (the shared driver ``model._rk4``) on the modal state
    (c, e, chi[i0]) of the module doc, driven by the mode coefficients of
    the projected conservation-form acceleration, so that
    q = a + t qdot0 + lift @ c and
    qdot = qdot0 + lift @ e, qdot0 the initial velocity; chi[i0] integrates
    m qdot^2/2 - V - V_Q at the density peak ``i0 = argmax(rho0)``.  Each
    snapshot lifts (c, e) to the labels and sets
    chi = dPhi - dPhi[i0] + chi[i0], dPhi the change since t = 0 of the
    running trapezoid of m qdot J over the labels (J from the snapshot's
    kinematics pass), so chi is exactly 0 at t = 0 and the phase satisfies
    the quasi-potential condition d(S0 + chi)/da = m qdot J to rounding.
    Returns snapshots every ``snapshot_stride`` steps (the initial and
    final states are always included), each carrying the energy that the
    drift check computed for it and the least J of the same kinematics
    pass.  J is checked against its floor at every right-hand side and the
    monotonicity of the lifted q at the end of every step, whose
    evaluation is the next step's k1 (4 right-hand sides per step); a
    non-finite state, a relative energy drift above 10% or a label that
    leaves a tabulated potential's grid after t = 0 aborts with
    :class:`NumericalInstability` (labels outside it at t = 0 are bad
    input).  A step plan over ``MAX_STEPS`` is rejected up front.
    """
    config.validate()
    data = _LabelData(init, params)
    n = init.n
    i0 = int(np.argmax(init.rho0))
    degree = config.projection_degree
    if degree is None:
        degree = default_projection_degree(n)
    degree = min(degree, n - 1)
    project = ModeProjector(init.labels, init.rho0, degree)
    free = isinstance(params.potential, FreePotential)
    # under a free potential dV/dq is 0: the force takes G alone
    force = _projected_force(data, params, project, g_only=free)
    r = degree + 1
    qdot0 = initial_velocity(init, params)
    basis, K3 = _modal_basis(data, init.labels, qdot0, project.lift)
    # the run's workspace: every right-hand side and RK4 stage writes here,
    # through row views, bound methods and constants bound once per run
    kin_buf = np.empty((4, n))         # (J, J', J'', 1/J)
    kin_rows = kin_buf[:3].reshape(3 * n)  # (J, J', J''), flat: K3 @ z
    J, Jp, Jpp, Ji = kin_buf
    ca, cxx, scratch = np.empty((3, n))
    G_dV = np.zeros((2, n))            # (G, dV/dq), the force input
    G, dV = G_dV
    force_in = G if free else G_dV
    check = partial(_check_kinematics, kin_rows, J, Ji, data.zeros3)
    log_density = partial(_log_density, data.L1, data.L2_minus_L1_sq,
                          Jp, Jpp, Ji, ca, cxx, scratch)
    ca_at, cxx_at, Ji_at = ca.item, cxx.item, Ji.item
    quantum_potential = params.quantum_potential
    potential_gradient = params.potential_gradient
    potential_energy = params.potential_energy
    half_m = 0.5 * params.mass
    qdot0_i0 = float(qdot0[i0])
    lift_i0_dot = project.lift[i0].dot
    q = np.empty(n)
    z = np.empty(r + 2)
    z[0] = 1.0
    z_c = z[2:]
    gaps = np.empty(n - 1)
    q_hi, q_lo = q[1:], q[:-1]

    def at(t, c):
        """The point z = (1, t, c), in ``z``."""
        z[1] = t
        z_c[:] = c
        return z

    def rhs(u, t, k):
        """Time derivative of the modal state u = (c, e, chi[i0]) into
        ``k``."""
        e = u[r:-1]
        np.dot(K3, at(t, u[:r]), out=kin_rows)
        check(t)
        log_density()
        np.multiply(cxx, Ji, out=G)
        v = 0.0
        if not free:   # else dV/dq stays 0 and q is not needed
            np.dot(basis, z, out=q)
            potential_gradient(q, out=dV)
            v = potential_energy(q[i0])
        k[:r] = e
        force(force_in, out=k[r:-1])
        qd = qdot0_i0 + lift_i0_dot(e)
        k[-1] = (half_m * qd**2 - v
                 - quantum_potential(ca_at(i0) * Ji_at(i0), cxx_at(i0)))

    n_steps, dt = plan_steps(config.t_final, config.auto_dt(data.h, params))

    y = np.zeros(2 * r + 1)
    y_c, y_e = y[:r], y[r:-1]
    phi0 = None

    def measured(tn):
        """The current state as a snapshot, carrying its energy and min J
        from one kinematics pass, and chi from the J of that pass."""
        nonlocal phi0
        q = basis @ at(tn, y_c)
        qd = qdot0 + project.lift @ y_e
        kin = _kinematics(data, q, tn)
        phi = cumulative_trapezoid(params.mass * qd * kin[0], init.labels)
        if phi0 is None:
            phi0 = phi
        dphi = phi - phi0
        energy = energy_of(SimpleNamespace(q=q, qdot=qd), init, params,
                           data=data, kin=kin)
        return TrajectoryState(init.labels, q, qd, dphi - dphi[i0] + y[-1], tn,
                               energy=energy, min_jacobian=float(kin[0].min()))

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

    k1 = np.empty(2 * r + 1)

    def end_of_step(step, t):
        np.dot(basis, at(t, y_c), out=q)
        np.subtract(q_hi, q_lo, out=gaps)
        if np.minimum.reduce(gaps) <= 0:
            raise TrajectoryCrossing(int(np.argmin(gaps)), t)
        if (step + 1) % config.snapshot_stride == 0 or step + 1 == n_steps:
            snapshot(t)
        if step + 1 < n_steps:
            rhs(y, t, k1)

    rhs(y, 0.0, k1)
    # every stage evaluates V on the whole of q before q[i0] alone, so an
    # index outside the potential table is a label index
    _rk4(rhs, y, k1, dt, n_steps, end_of_step, "label index")
    return snapshots
