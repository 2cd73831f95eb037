"""Eulerian fields and the wavefunction rebuilt from trajectory snapshots.

The map a -> q(a, t) is inverted on the spatial grid (cubic Hermite
interpolation on the slopes 1/J, checked monotone), densities push
forward by rho = rho0 / J, velocities by composition, and the phase
rides along the trajectories as S = S0 + chi, each field one cubic
Hermite composition on knot slopes the solver already has.
:func:`reconstruct_wavefunction` is the one push-forward, and only that:
it builds one inverse map, by :func:`invert_map`, and it serves rho, v
and S.

:func:`phase_consistency_deviation` is the phase check, run on demand:
the quasi-potential condition m v = dS/dx written on the labels of one
snapshot, m qdot J = d(S0 + chi)/da, a running trapezoid over the labels
with no spatial grid and no history.  ``evolve`` builds chi from that
same quadrature, so on its output the check reads rounding.

:func:`dynamics_residuals` checks two consecutive fields against the
Eulerian equations they must satisfy: the quantum Hamilton-Jacobi,
continuity and Euler residuals at their midpoint, in one pass that takes
V_Q from ``PhysicsParams.quantum_potential`` once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import TrajectoryCrossing, ValidationError
from .model import (EulerianField, InitialState, PhysicsParams,
                    TrajectoryState, _compose, _hermite_basis,
                    assemble_wavefunction)
from .stencils import (cumulative_trapezoid, derivative, grid_spacing,
                       trapezoid_weights)

# residual diagnostics are quoted over the interior where the density
# clears this fraction of its peak; farther out the reconstructed
# log-density carries interpolation noise that derivative stencils amplify
RHO_INTERIOR_REL = 1e-6


def _jacobian(traj):
    """J = dq/da on the labels (fourth-order stencil)."""
    return derivative(traj.q, grid_spacing(traj.labels), 1)


def invert_map(traj: TrajectoryState, x_grid):
    """Labels a(x) of the trajectories passing through the grid points.

    a(x) is the cubic Hermite interpolant through the points (q_i, a_i)
    with the slopes da/dx = 1/J.  It is monotone on an interval when the
    Fritsch-Carlson condition holds there (SIAM J. Numer. Anal. 17, 238
    (1980)): alpha, beta >= 0 and alpha^2 + beta^2 <= 9, alpha and beta
    the two knot slopes over the secant.  An interval that fails it, a
    non-positive J among them, raises :class:`TrajectoryCrossing`.
    Points outside [q_first, q_last] are masked, never extrapolated.
    Returns (a_of_x, mask).
    """
    return _invert(traj, np.asarray(x_grid, dtype=float), _jacobian(traj))


def _invert(traj: TrajectoryState, x, J):
    """:func:`invert_map` on the grid ``x`` given the snapshot's J, for a
    caller that holds it already."""
    q = traj.q
    if np.any(np.diff(q) <= 0):
        raise TrajectoryCrossing(int(np.argmin(np.diff(q))), traj.t)
    with np.errstate(all="ignore"):
        slope = 1.0 / J
        secant = np.diff(traj.labels) / np.diff(q)
        alpha, beta = slope[:-1] / secant, slope[1:] / secant
        bad = ~((alpha >= 0) & (beta >= 0) & (alpha**2 + beta**2 <= 9.0))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise TrajectoryCrossing(i, traj.t, f"inverse map not monotone "
                                 f"between labels {i} and {i + 1}")
    mask = (x >= q[0]) & (x <= q[-1])
    a_of_x = np.full(x.shape, np.nan)
    if np.any(mask):
        a_of_x[mask] = _compose(_hermite_basis(q, x[mask]), traj.labels, slope)
    return a_of_x, mask


def phase_consistency_deviation(traj: TrajectoryState, init: InitialState,
                                params: PhysicsParams) -> float:
    """Departure of one snapshot from quasi-potential flow.

    The flow is quasi-potential when m v = dS/dx; on the labels that reads
    m qdot dq/da = d(S0 + chi)/da.  The carried phase S0 + chi is compared
    with the running trapezoid of m qdot J over the labels (J from the
    fourth-order stencil), and the largest deviation left after removing
    their mean difference is returned.
    """
    d = init.s0 + traj.chi - cumulative_trapezoid(
        params.mass * traj.qdot * _jacobian(traj), traj.labels)
    return float(np.max(np.abs(d - np.mean(d))))


def reconstruct_wavefunction(history: Sequence[TrajectoryState],
                             init: InitialState, params: PhysicsParams,
                             x_grid) -> EulerianField:
    """Assemble the full Eulerian field (rho, S, v, psi) at the last snapshot.

    Only ``history[-1]`` is read.  Each field is a label quantity composed
    with the inverse map a(x) by the cubic Hermite interpolant the map
    itself uses, on knot slopes the solver already has: rho = rho0 / J
    (J's slope J'; rho0 from the analytic form when the initial state has
    one, else composed on its stencil slope), v = qdot (stencil slope) and
    S = S0 + chi (slope m qdot J).  Points outside the trajectory image
    are masked and hold zeros.  The phase is composed as carried; whether
    it satisfies the quasi-potential condition is
    :func:`phase_consistency_deviation`'s question, not this function's.
    """
    if len(history) == 0:
        raise ValidationError("empty trajectory history")
    x = np.asarray(x_grid, dtype=float)
    final = history[-1]
    h = grid_spacing(final.labels)
    J, dJ = derivative(final.q, h, (1, 2))
    a_of_x, mask = _invert(final, x, J)
    if not np.any(mask):
        raise ValidationError("no x-grid point lies inside the trajectory "
                              "support; refine or narrow the x grid")
    aq = a_of_x[mask]
    rho = np.zeros(x.shape)
    S = np.zeros(x.shape)
    v = np.zeros(x.shape)
    psi = np.zeros(x.shape, dtype=complex)
    at = _hermite_basis(final.labels, aq)
    if init.forms is not None:
        rho0_at = np.asarray(init.forms.rho0(aq), dtype=float)
    else:
        rho0_at = _compose(at, init.rho0, derivative(init.rho0, h, 1))
    rho[mask] = np.maximum(rho0_at / _compose(at, J, dJ), 0.0)
    v[mask] = _compose(at, final.qdot, derivative(final.qdot, h, 1))
    S[mask] = _compose(at, init.s0 + final.chi, params.mass * final.qdot * J)
    psi[mask] = assemble_wavefunction(rho[mask], S[mask], params.hbar)
    return EulerianField(x=x, t=final.t, rho=rho, S=S, v=v, psi=psi,
                         mask=mask, hbar=params.hbar)


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

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


def dynamics_residuals(field_a: EulerianField, field_b: EulerianField,
                       params: PhysicsParams):
    """Residuals of the quantum Hamilton-Jacobi, continuity and Euler
    equations at the midpoint of two consecutive snapshots.

    The phase residual is dS/dt + (dS/dx)^2/2m + V + V_Q, the mass one
    d rho/dt + d(rho v)/dx and the velocity one
    dv/dt + v dv/dx + d(V + V_Q)/dx / m; time derivatives are the
    snapshots' difference quotient, the rest is taken on their midpoint
    fields.  V_Q comes from stencil derivatives of c = ln rho_mid.  All
    three are zeroed outside one interior mask.
    Returns (r_qhj, r_cont, r_euler, mask).
    """
    a, b = field_a, field_b
    if a.x.shape != b.x.shape or not np.allclose(a.x, b.x):
        raise ValidationError("field snapshots live on different grids")
    if b.t == a.t:
        raise ValidationError("field snapshots must differ in time")
    x = a.x
    h = grid_spacing(x)
    dt = b.t - a.t
    rho_mid = 0.5 * (a.rho + b.rho)
    v_mid = 0.5 * (a.v + b.v)
    mask = _interior_mask(a.mask & b.mask, rho_mid)
    c1, c2 = derivative(np.log(np.where(rho_mid > 0, rho_mid, 1.0)), h, (1, 2))
    vq = params.quantum_potential(c1, c2)
    V = params.potential_energy(x)
    r_qhj = ((b.S - a.S) / dt
             + derivative(0.5 * (a.S + b.S), h, 1)**2 / (2.0 * params.mass)
             + V + vq)
    r_cont = (b.rho - a.rho) / dt + derivative(rho_mid * v_mid, h, 1)
    r_euler = ((b.v - a.v) / dt + v_mid * derivative(v_mid, h, 1)
               + derivative(V + vq, h, 1) / params.mass)
    return (np.where(mask, r_qhj, 0.0), np.where(mask, r_cont, 0.0),
            np.where(mask, r_euler, 0.0), mask)


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
