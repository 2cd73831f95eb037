"""Eulerian fields and the wavefunction rebuilt from trajectory snapshots.

The map a -> q(a, t) is inverted on the spatial grid (monotone cubic
interpolation, well-posed because J > 0), densities push forward by
rho = rho0 / J, velocities by composition, and the phase rides along the
trajectories as S = S0 + chi.  The phase is checked, not rebuilt, by the
quasi-potential condition m v = dS/dx written on the labels of one
snapshot, m qdot J = d(S0 + chi)/da: a running trapezoid over the labels,
with no spatial grid and no history.  ``evolve`` builds chi from that
same quadrature, so on its output the check reads rounding; it guards
snapshots built elsewhere, by hand or read back from a CSV.

:func:`reconstruct_wavefunction` is the one push-forward: it builds one
inverse map, by :func:`invert_map`, and it serves rho, v and S.  The
residual diagnostics take V_Q from ``PhysicsParams.quantum_potential``.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .errors import PhaseInconsistencyWarning, TrajectoryCrossing, ValidationError
from .model import (EulerianField, InitialState, PhysicsParams,
                    TrajectoryState, assemble_wavefunction)
from .stencils import (cumulative_trapezoid, derivative, grid_spacing,
                       trapezoid_weights)

# residual diagnostics are quoted over the interior where the density
# clears this fraction of its peak; farther out the reconstructed
# log-density carries interpolation noise that derivative stencils amplify
RHO_INTERIOR_REL = 1e-6
DUAL_PHASE_TOL = 1e-3


def _pchip_slopes(xs, ys):
    """Knot slopes of the monotone cubic (PCHIP): the weighted harmonic mean
    of the neighbouring secants, zero where they differ in sign or one
    vanishes.  The end slopes stay zero: :func:`_pchip_linear_edges` never
    evaluates the cubic in the end intervals."""
    h = np.diff(xs)
    m = np.diff(ys) / h
    d = np.zeros_like(ys)
    if xs.size > 2:
        sm = np.sign(m)
        keep = (sm[1:] == sm[:-1]) & (m[1:] != 0) & (m[:-1] != 0)
        w1 = (2.0 * h[1:] + h[:-1])[keep]
        w2 = (h[1:] + 2.0 * h[:-1])[keep]
        # scipy's operation order, so the slopes match it to the bit
        d[1:-1][keep] = 1.0 / ((w1 / m[:-1][keep] + w2 / m[1:][keep]) / (w1 + w2))
    return h, m, d


def _pchip_linear_edges(xs, ys):
    """Shape-preserving interpolant with a linear fallback in the first and
    last intervals (the monotone cubic's one-sided slopes are least
    trustworthy there).

    Inside, the cubic Hermite polynomial of each interval is evaluated in
    the power basis of ``s = x - xs[i]``, summed from 0.0 in the order
    ``c3 + c2 s + c1 s^2 + c0 s^3``: the arithmetic of scipy's
    ``PchipInterpolator``, down to the sign of a zero.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValidationError("interpolation data must be finite")
    h, m, d = _pchip_slopes(xs, ys)
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c0 = t / h
    c1 = (m - d[:-1]) / h - t
    c2 = d[:-1]
    c3 = ys[:-1]

    def f(x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
        s = x - xs[i]
        s2 = s * s
        out = 0.0 + c3[i] + c2[i] * s + c1[i] * s2 + c0[i] * (s2 * s)
        lo = x <= xs[1]
        hi = x >= xs[-2]
        if np.any(lo):
            s = (ys[1] - ys[0]) / (xs[1] - xs[0])
            out[lo] = ys[0] + s * (x[lo] - xs[0])
        if np.any(hi):
            s = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            out[hi] = ys[-2] + s * (x[hi] - xs[-2])
        return out

    return f


def invert_map(traj: TrajectoryState, x_grid):
    """Labels a(x) of the trajectories passing through the grid points.

    Points outside [q_first, q_last] are masked, never extrapolated.
    Returns (a_of_x, mask).
    """
    x = np.asarray(x_grid, dtype=float)
    q = traj.q
    if np.any(np.diff(q) <= 0):
        raise TrajectoryCrossing(int(np.argmin(np.diff(q))), traj.t)
    mask = (x >= q[0]) & (x <= q[-1])
    a_of_x = np.full(x.shape, np.nan)
    if np.any(mask):
        a_of_x[mask] = _pchip_linear_edges(q, traj.labels)(x[mask])
    return a_of_x, mask


def _jacobian(traj):
    """J = dq/da on the labels (fourth-order stencil)."""
    return derivative(traj.q, grid_spacing(traj.labels), 1)


def _phase_deviation(traj, init, params, J):
    """max |d - mean(d)| of d = S0 + chi - int m qdot J da, given J."""
    d = init.s0 + traj.chi - cumulative_trapezoid(
        params.mass * traj.qdot * J, traj.labels)
    return float(np.max(np.abs(d - np.mean(d))))


def phase_consistency_deviation(traj: TrajectoryState, init: InitialState,
                                params: PhysicsParams) -> float:
    """Departure of one snapshot from quasi-potential flow.

    The flow is quasi-potential when m v = dS/dx; on the labels that reads
    m qdot dq/da = d(S0 + chi)/da.  The carried phase S0 + chi is compared
    with the running trapezoid of m qdot J over the labels (J from the
    fourth-order stencil), and the largest deviation left after removing
    their mean difference is returned.
    """
    return _phase_deviation(traj, init, params, _jacobian(traj))


def reconstruct_wavefunction(history: Sequence[TrajectoryState],
                             init: InitialState, params: PhysicsParams,
                             x_grid) -> EulerianField:
    """Assemble the full Eulerian field (rho, S, v, psi) at the last snapshot.

    Only ``history[-1]`` is read.  Each field is a label quantity composed
    with the inverse map a(x), by the interpolation the map itself uses:
    rho = rho0 / J (rho0 from the analytic form when the initial state has
    one), v = qdot and S = S0 + chi.  Points outside the trajectory image
    are masked and hold zeros.  The snapshot's quasi-potential condition
    (:func:`phase_consistency_deviation`) is checked on the way, and a
    deviation beyond ``DUAL_PHASE_TOL`` raises a
    :class:`PhaseInconsistencyWarning` (the reconstruction itself is
    returned regardless).
    """
    if len(history) == 0:
        raise ValidationError("empty trajectory history")
    x = np.asarray(x_grid, dtype=float)
    final = history[-1]
    a_of_x, mask = invert_map(final, x)
    if not np.any(mask):
        raise ValidationError("no x-grid point lies inside the trajectory "
                              "support; refine or narrow the x grid")
    aq = a_of_x[mask]
    rho = np.zeros(x.shape)
    S = np.zeros(x.shape)
    v = np.zeros(x.shape)
    psi = np.zeros(x.shape, dtype=complex)
    J = _jacobian(final)
    J_at = _pchip_linear_edges(final.labels, J)(aq)
    if init.forms is not None and init.forms.rho0 is not None:
        rho0_at = np.asarray(init.forms.rho0(aq), dtype=float)
    else:
        rho0_at = _pchip_linear_edges(final.labels, init.rho0)(aq)
    rho[mask] = np.maximum(rho0_at / J_at, 0.0)
    v[mask] = _pchip_linear_edges(final.labels, final.qdot)(aq)
    S[mask] = _pchip_linear_edges(final.labels, init.s0 + final.chi)(aq)
    psi[mask] = assemble_wavefunction(rho[mask], S[mask], params.hbar)
    dev = _phase_deviation(final, init, params, J)
    if dev > DUAL_PHASE_TOL:
        warnings.warn(
            f"quasi-potential phase deviation {dev:.2e} exceeds "
            f"{DUAL_PHASE_TOL:.0e}", PhaseInconsistencyWarning, stacklevel=2)
    return EulerianField(x=x, t=final.t, rho=rho, S=S, v=v, psi=psi,
                         mask=mask, hbar=params.hbar)


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

def _check_pair(field_a: EulerianField, field_b: EulerianField):
    if field_a is None or field_b is None:
        raise ValidationError("two consecutive field snapshots are required")
    if field_a.x.shape != field_b.x.shape or not np.allclose(field_a.x, field_b.x):
        raise ValidationError("field snapshots live on different grids")
    if field_b.t == field_a.t:
        raise ValidationError("field snapshots must differ in time")


def _interior_mask(mask, rho):
    """Shared support, above the density floor, eroded by 3 points: the
    reach of a fourth-order third derivative (the Euler residual
    differentiates V_Q, which holds c'')."""
    scale = np.max(rho[mask]) if np.any(mask) else 0.0
    good = mask & (rho > RHO_INTERIOR_REL * max(scale, 1e-300))
    out = good.copy()
    for _ in range(3):
        out[1:] &= good[:-1]
        out[:-1] &= good[1:]
        good = out.copy()
    return out


def _grid_vq(rho, h, params):
    """V_Q on a uniform grid from stencil derivatives of c = ln rho."""
    c = np.log(np.where(rho > 0, rho, 1.0))
    c1, c2 = derivative(c, h, (1, 2))
    return params.quantum_potential(c1, c2)


def qhj_residual(field_a: EulerianField, field_b: EulerianField,
                 params: PhysicsParams):
    """Phase-evolution residual dS/dt + (dS/dx)^2/2m + V + V_Q at the
    midpoint of two consecutive snapshots.  Returns (r, mask)."""
    _check_pair(field_a, field_b)
    x = field_a.x
    h = grid_spacing(x)
    dt = field_b.t - field_a.t
    mask = _interior_mask(field_a.mask & field_b.mask,
                          0.5 * (field_a.rho + field_b.rho))
    S_mid = 0.5 * (field_a.S + field_b.S)
    rho_mid = 0.5 * (field_a.rho + field_b.rho)
    dSdt = (field_b.S - field_a.S) / dt
    dSdx = derivative(S_mid, h, 1)
    vq = _grid_vq(rho_mid, h, params)
    r = dSdt + dSdx**2 / (2.0 * params.mass) + params.potential_energy(x) + vq
    return np.where(mask, r, 0.0), mask


def continuity_euler_residuals(field_a: EulerianField, field_b: EulerianField,
                               params: PhysicsParams):
    """Residuals of mass transport and of the velocity equation between two
    consecutive snapshots.  Returns (r_cont, r_euler, mask)."""
    _check_pair(field_a, field_b)
    x = field_a.x
    h = grid_spacing(x)
    dt = field_b.t - field_a.t
    rho_mid = 0.5 * (field_a.rho + field_b.rho)
    v_mid = 0.5 * (field_a.v + field_b.v)
    mask = _interior_mask(field_a.mask & field_b.mask, rho_mid)
    r_cont = ((field_b.rho - field_a.rho) / dt
              + derivative(rho_mid * v_mid, h, 1))
    vq = _grid_vq(rho_mid, h, params)
    force = derivative(params.potential_energy(x) + vq, h, 1)
    r_euler = ((field_b.v - field_a.v) / dt
               + v_mid * derivative(v_mid, h, 1)
               + force / params.mass)
    return np.where(mask, r_cont, 0.0), np.where(mask, r_euler, 0.0), mask


def advect_labels_check(field_history: Sequence[EulerianField],
                        traj_history: Sequence[TrajectoryState],
                        x0s) -> float:
    """Advect sample points through the reference velocity history and
    compare the arrival positions with the trajectories q(a = x0, t).

    Returns the largest absolute deviation over the sample points.
    """
    if len(field_history) < 2:
        raise ValidationError("need a velocity history with >= 2 snapshots")
    x0s = np.atleast_1d(np.asarray(x0s, dtype=float))
    xs = x0s.copy()

    def v_at(field, pos):
        m = field.mask & np.isfinite(field.v)
        return np.interp(pos, field.x[m], field.v[m])

    for fa, fb in zip(field_history[:-1], field_history[1:]):
        dt = fb.t - fa.t
        v0 = v_at(fa, xs)
        pred = xs + dt * v0
        xs = xs + 0.5 * dt * (v0 + v_at(fb, pred))

    final = traj_history[-1]
    q_at = _pchip_linear_edges(final.labels, final.q)(x0s)
    return float(np.max(np.abs(xs - q_at)))


def lagrangian_moments(traj: TrajectoryState, init: InitialState,
                       params: PhysicsParams) -> tuple[float, float]:
    """<x> and <p> of the trajectory ensemble: sums of w rho0 q and
    w rho0 m qdot over the labels (w the trapezoid weights)."""
    w = trapezoid_weights(traj.labels) * init.rho0
    return (float(np.sum(w * traj.q)),
            float(np.sum(w * params.mass * traj.qdot)))


def eulerian_moments(field: EulerianField,
                     params: PhysicsParams) -> tuple[float, float]:
    """<x> and <p> of the fields: trapezoid integrals of x rho and
    rho m v over the masked support."""
    m = field.mask
    x = field.x[m]
    rho = field.rho[m]
    return (float(np.trapezoid(x * rho, x)),
            float(np.trapezoid(rho * (params.mass * field.v[m]), x)))
