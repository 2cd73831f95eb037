"""Discrete-particle solver: density and phase integrated along paths.

The fluid is approximated by a finite set of co-moving particles.  Along
each path the transport equations close into ODEs,

    dx/dt = v = (dS/dx) / m
    dc/dt = -dv/dx                    (c = ln rho, kept in log form)
    dS/dt = m v^2 / 2 - V - V_Q,

with the spatial derivatives estimated from the scattered particle
positions by a moving weighted least-squares polynomial fit of fixed
shape: degree ``FIT_DEGREE`` on the ``FIT_WINDOW`` nearest particles,
Gaussian weights ``FIT_WIDTH`` local spacings wide.  Each fit's
Gram matrix is Hankel in the weighted moments of its window, so one
running-product buffer summed over the windows gives every moment and
right-hand side; elimination without pivoting then leaves a 2x2 system
for the two coefficients the equations read, f' and f'', solved in closed
form for S and c together (``_taylor_fits``).  The wavefunction along
each path follows from the initial value times an amplitude factor
exp(-integral of div v / 2) and the phase integral of the Lagrangian
density; the amplitude integral is accumulated by an independent
trapezoid rule so the two density routes cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .errors import (NumericalInstability, OutsidePotentialTable,
                     QtmDerivativeError, TrajectoryCrossing, ValidationError)
from .model import (FreePotential, InitialState, PhysicsParams,
                    _require_finite, plan_steps)
from .stencils import trapezoid_weights


@dataclass(frozen=True)
class QtmConfig:
    """Controls for the particle integration."""

    t_final: float
    dt: Optional[float] = None       # None -> 0.5 * (initial spacing)^2 * m / hbar
    snapshot_stride: int = 1

    def validate(self):
        if not (self.t_final >= 0):
            raise ValidationError("t_final must be nonnegative")
        if self.dt is not None and not (self.dt > 0):
            raise ValidationError("dt must be positive")
        if self.snapshot_stride < 1:
            raise ValidationError("snapshot_stride must be >= 1")

    def auto_dt(self, spacing: float, params: PhysicsParams) -> float:
        """Dispersive rule dt = 0.5 * dx^2 * m / hbar on the seeded spacing."""
        if self.dt is not None:
            return self.dt
        return 0.5 * spacing**2 * params.mass / params.hbar


@dataclass(frozen=True)
class ParticleSet:
    """Positions, log-density and phase carried by each particle, and the
    velocity ``v = (dS/dx) / m`` of the fit at this state."""

    x: np.ndarray
    log_rho: np.ndarray
    S: np.ndarray
    t: float
    v: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        for name in ("log_rho", "S", "v"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != x.shape:
                raise ValidationError(f"{name} must match the particle count")
            object.__setattr__(self, name, v)
        _require_finite(x=x, log_rho=self.log_rho, S=self.S, v=self.v)
        if np.any(np.diff(x) <= 0):
            i = int(np.argmin(np.diff(x)))
            raise ValidationError(f"particle positions must increase (index {i})")

    def discrete_norm(self) -> float:
        """sum rho_n * local spacing, a loose mass diagnostic."""
        return float(np.sum(np.exp(self.log_rho) * trapezoid_weights(self.x)))


# The particle fit: a degree-4 polynomial (the equations read f'') on the
# 9 nearest particles, with Gaussian weights 3 local spacings wide.  Much
# narrower weights leave the one-sided end windows singular to rounding.
FIT_DEGREE = 4
FIT_WINDOW = 9
FIT_WIDTH = 3.0


# offsets of the two candidate window starts from the searched one
_BEFORE_AND_AT = np.array([[1], [0]])


def _windows(x, k):
    """Start index of the k-nearest contiguous window around each particle.

    The window starting at s costs max(x_i - x_s, x_{s+k-1} - x_i).  The
    first term falls and the second rises with s, so the least cost lies at
    the first start whose end-point sum x_s + x_{s+k-1} reaches 2 x_i, or at
    the start before it; of two equal costs the later start wins.  That is
    the first minimum over the starts i, i - 1, ..., i - k + 1 clipped to
    the grid, for any positions whose neighbouring gaps are above the
    rounding of the costs.
    """
    n = x.size
    ends = x[:n - k + 1] + x[k - 1:]
    hi = np.minimum(np.searchsorted(ends, 2.0 * x), n - k)
    starts = hi - _BEFORE_AND_AT
    np.maximum(starts, 0, out=starts)
    cost = np.maximum(x - x[starts], x[starts + (k - 1)] - x)
    return np.where(cost[1] <= cost[0], hi, starts[0])


# signs that turn a 2x2 block, flipped on both axes and transposed, into
# its adjugate
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]


@lru_cache(maxsize=2)
def _system_layout(n_fields):
    """Moment rows and scales of the augmented system ``[G | b]``, unknowns
    ordered 0, 3, ..., FIT_DEGREE, 1, 2: ``G_jl = M_{j+l} / (j! l!)`` and
    ``b_j = R_j / j!`` for each field's right-hand-side sums ``R``."""
    p = FIT_DEGREE + 1
    order = np.r_[0, 3:p, 1, 2]
    inv_fact = 1.0 / np.array([math.factorial(j) for j in order])
    rhs_rows = 2 * FIT_DEGREE + 1 + order[:, None] + p * np.arange(n_fields)
    rows = np.hstack((order[:, None] + order, rhs_rows))
    scale = np.hstack((np.outer(inv_fact, inv_fact),
                       np.repeat(inv_fact[:, None], n_fields, axis=1)))[:, :, None]
    # every caller shares the cached arrays
    rows.flags.writeable = scale.flags.writeable = False
    return rows, scale


def _taylor_fits(x, fields):
    """Scaled first and second Taylor coefficients of each field's local fit.

    Returns ``beta`` of shape ``(2, len(fields), n)``, holding ``h f'`` and
    ``h^2 f''`` at every particle of the sorted positions ``x``, and the
    local spacing ``h``.  Each particle fits ``sum_j beta_j t^j / j!``,
    ``t = (x' - x_i) / h``, over its k-nearest window (k = ``FIT_WINDOW``)
    with Gaussian weights ``w``.  The Gram matrix is Hankel in the moments
    ``M_p = sum w t^p``: one running-product buffer of ``w t^p``
    (p <= 2 ``FIT_DEGREE``) and ``w t^j f``, summed over the window, gives
    every moment and right-hand side.
    Gaussian elimination without pivoting (the Gram matrix is symmetric
    positive definite) removes every unknown but 1 and 2, and the 2x2
    system left is solved by its adjugate for all fields at once.  A pivot
    or determinant that is not positive and finite raises
    ``QtmDerivativeError`` naming the first such particle whose window
    positions are finite.
    """
    n, k = x.size, FIT_WINDOW
    p = FIT_DEGREE + 1
    n_mom = 2 * FIT_DEGREE + 1
    idx = _windows(x, k) + np.arange(k)[:, None]
    xs = x[idx]
    h = (xs[-1] - xs[0]) / (k - 1)
    t = (xs - x) / h
    buf = np.empty((n_mom + len(fields) * p, k, n))
    # a singular system divides by zero, and the pivot check reports it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.exp(-np.square(t / FIT_WIDTH), out=buf[0])
        for j in range(1, n_mom):
            np.multiply(buf[j - 1], t, out=buf[j])
        for f, vals in enumerate(fields):
            np.multiply(buf[:p], vals[idx], out=buf[n_mom + f * p:n_mom + (f + 1) * p])
        rows, scale = _system_layout(len(fields))
        a = buf.sum(axis=1)[rows]
        a *= scale
        for e in range(p - 2):
            a[e + 1:, e + 1:] -= (a[e + 1:, e] / a[e, e])[:, None] * a[e, e + 1:]
        g = a[p - 2:, p - 2:p]
        inv = g[::-1, ::-1].transpose(1, 0, 2) * _ADJUGATE_SIGNS
        # det takes the place of g_11, which the adjugate has copied, so the
        # diagonal of ``a`` holds the p - 1 pivots and then det
        det = np.subtract(g[0, 0] * g[1, 1], g[0, 1] * g[1, 0], out=g[1, 1])
        inv /= det
        beta = inv[:, 0, None] * a[p - 2, p:] + inv[:, 1, None] * a[p - 1, p:]
    # the rows a[e, e] of the contiguous ``a``, e < p: the pivots, then det
    diagonal = a.reshape(-1, n)[::a.shape[1] + 1]
    if not (np.minimum.reduce(diagonal, axis=None) > 0.0
            and np.maximum.reduce(diagonal, axis=None) < np.inf):
        pivots = diagonal[:p - 1]
        ok = np.all((pivots > 0.0) & (pivots < np.inf), axis=0)
        ok &= (det > 0.0) & (det < np.inf)
        # a non-finite position only makes its neighbours' fits NaN, for
        # the caller's state check to report
        failed = ~ok & np.isfinite(t).all(axis=0)
        if failed.any():
            raise QtmDerivativeError(int(np.argmax(failed)),
                                     "rank-deficient least-squares system")
    return beta, h


def mwls_derivatives(positions, values):
    """First and second derivatives at each particle from the local weighted
    least-squares polynomial fit over its ``FIT_WINDOW`` nearest neighbors.

    Positions and values must be finite, and positions distinct (duplicates
    are rejected with the offending index); a rank-deficient fit names the
    particle.
    """
    x = np.asarray(positions, dtype=float)
    vals = np.asarray(values, dtype=float)
    if x.ndim != 1 or vals.shape != x.shape:
        raise ValidationError("positions and values must be matching 1-D arrays")
    _require_finite(positions=x, values=vals)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    dup = np.flatnonzero(np.diff(xs) == 0.0)
    if dup.size:
        raise QtmDerivativeError(int(order[dup[0]]), "duplicate particle positions")
    if x.size < FIT_WINDOW:
        raise ValidationError(
            f"need at least FIT_WINDOW = {FIT_WINDOW} particles, got {x.size}")
    try:
        beta, h = _taylor_fits(xs, (vals[order],))
    except QtmDerivativeError as exc:
        raise QtmDerivativeError(int(order[exc.particle]),
                                 "rank-deficient least-squares system") from None
    d1 = np.empty_like(x)
    d2 = np.empty_like(x)
    d1[order] = beta[0, 0] / h
    d2[order] = beta[1, 0] / h**2
    return d1, d2


@dataclass(frozen=True)
class QtmResult:
    """Particle history with the path-wise wavefunction.

    ``psi`` rebuilds the wavefunction at the final particle positions from
    the seeded value, the divergence integral (amplitude) and the phase
    integral; ``div_integral`` holds the independently accumulated
    integral of dv/dx used for the amplitude factor.
    """

    snapshots: list
    psi: np.ndarray
    div_integral: np.ndarray


def _qtm_rhs(params: PhysicsParams, x, c, S, out=None):
    """(dx/dt, dc/dt, dS/dt, dv/dx) at every particle from one set of fits,
    written into the rows of ``out`` (a ``(4, n)`` array) when given, else
    into a new array."""
    if (x[1:] <= x[:-1]).any():
        raise TrajectoryCrossing(int(np.argmin(np.diff(x))), np.nan,
                                 "particle ordering lost during a stage")
    beta, h = _taylor_fits(x, (S, c))
    if out is None:
        out = np.empty((4, x.size))
    v, minus_vx, ldens, vx = out
    m = params.mass
    d1 = beta[0] / h       # (S', c')
    d2 = beta[1] / h**2    # (S'', c'')
    np.divide(d1[0], m, out=v)
    np.divide(d2[0], m, out=vx)
    np.negative(vx, out=minus_vx)
    vq = params.quantum_potential(d1[1], d2[1])
    np.square(v, out=ldens)
    ldens *= 0.5 * m
    if not isinstance(params.potential, FreePotential):   # else V = 0
        ldens -= params.potential_energy(x)
    ldens -= vq
    return out


def qtm_evolve(init: InitialState, params: PhysicsParams,
               config: QtmConfig) -> QtmResult:
    """Integrate the particle set seeded at the label grid of ``init``.

    Particles start at the labels with c = ln rho0 and S = S0; the state
    (x, c, S) advances by RK4 and the divergence integral by the trapezoid
    rule between accepted steps.  A particle crossing, a non-finite state
    or a particle that leaves a tabulated potential's grid after t = 0
    aborts; a step plan over ``MAX_STEPS`` is rejected up front.
    """
    config.validate()
    if np.any(init.rho0 <= 0):
        raise ValidationError("particle seeding requires strictly positive rho0")
    if init.n < FIT_WINDOW:
        raise ValidationError(
            f"need at least FIT_WINDOW = {FIT_WINDOW} particles, got {init.n}")
    n = init.n
    # the run's workspace: the state rows (x, c, S); the right-hand-side
    # blocks k1..k4 and the end-of-step evaluation, whose block becomes the
    # next step's k1; the stage, update, gap and trapezoid buffers
    z = np.empty((3, n))
    x, c, S = z
    x[:] = init.labels
    np.log(init.rho0, out=c)
    S[:] = init.s0
    k1, k2, k3, k4, k_end = np.empty((5, 4, n))
    stage, acc = np.empty((2, 3, n))
    gaps, x_hi, x_lo = np.empty(n - 1), x[1:], x[:-1]
    div_int, trap = np.zeros(n), np.empty(n)
    state_rhs = partial(_qtm_rhs, params, x, c, S)
    stage_rhs = partial(_qtm_rhs, params, *stage)

    n_steps, dt = plan_steps(config.t_final, config.auto_dt(
        float(np.min(np.diff(init.labels))), params))
    half, sixth = 0.5 * dt, dt / 6.0

    def staged(k, scale):
        """The stage state z + scale * k, in ``stage``."""
        np.multiply(scale, k[:3], out=stage)
        np.add(z, stage, out=stage)

    # each end-of-step evaluation (for div_int) is the next step's k1 and
    # gives the snapshot its velocity; the first runs on the seeded labels,
    # so its fit fails on their spacing alone
    try:
        state_rhs(out=k1)
    except QtmDerivativeError as exc:
        raise ValidationError(
            f"the particle fit fails on the seeded labels ({exc}); space "
            f"them more evenly") from exc
    snapshots = [ParticleSet(x.copy(), c.copy(), S.copy(), 0.0, k1[0].copy())]
    try:
        for step in range(n_steps):
            staged(k1, half)
            stage_rhs(out=k2)
            staged(k2, half)
            stage_rhs(out=k3)
            staged(k3, dt)
            stage_rhs(out=k4)
            # z += dt/6 (((k1 + 2 k2) + 2 k3) + k4)
            np.multiply(2.0, k2[:3], out=acc)
            acc += k1[:3]
            np.multiply(2.0, k3[:3], out=stage)
            acc += stage
            acc += k4[:3]
            acc *= sixth
            z += acc
            t = (step + 1) * dt
            # NaN passes the ordering checks, so test finiteness first
            if not np.isfinite(z).all():
                raise NumericalInstability(
                    f"non-finite particle state at t = {t:.6g}; reduce qtm.dt")
            np.subtract(x_hi, x_lo, out=gaps)
            if np.minimum.reduce(gaps) <= 0:
                raise TrajectoryCrossing(int(np.argmin(gaps)), t, "particle crossing")
            state_rhs(out=k_end)
            np.add(k1[3], k_end[3], out=trap)
            trap *= half
            div_int += trap
            k1, k_end = k_end, k1
            if (step + 1) % config.snapshot_stride == 0 or step + 1 == n_steps:
                snapshots.append(ParticleSet(x.copy(), c.copy(), S.copy(), t,
                                             k1[0].copy()))
    except OutsidePotentialTable as exc:
        raise NumericalInstability(
            f"particle {exc.index} left the tabulated potential grid in the "
            f"step from t = {step * dt:.6g} to {(step + 1) * dt:.6g}") from exc
    except TrajectoryCrossing as exc:
        if not np.isnan(exc.time):
            raise
        # a stage's ordering check knows no time: name the step
        raise TrajectoryCrossing(
            exc.index, step * dt, f"particle ordering lost in a stage of the "
            f"step from t = {step * dt:.6g} to {(step + 1) * dt:.6g}") from exc

    amplitude = np.sqrt(init.rho0) * np.exp(-0.5 * div_int)
    psi = amplitude * np.exp(1j * S / params.hbar)
    return QtmResult(snapshots=snapshots, psi=psi, div_integral=div_int)
