"""Discrete-particle solver: density and phase integrated along paths.

The fluid is approximated by a finite set of co-moving particles.  Along
each path the transport equations close into ODEs,

    dx/dt = v = (dS/dx) / m
    dc/dt = -dv/dx                    (c = ln rho, kept in log form)
    dS/dt = m v^2 / 2 - V - V_Q,

with the spatial derivatives estimated from the scattered particle
positions by a moving weighted least-squares polynomial fit.  The
wavefunction along each path follows from the initial value times an
amplitude factor exp(-integral of div v / 2) and the phase integral of
the Lagrangian density; the amplitude integral is accumulated by an
independent trapezoid rule so the two density routes cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import (NumericalInstability, QtmDerivativeError,
                     TrajectoryCrossing, ValidationError)
from .model import InitialState, PhysicsParams, plan_steps
from .stencils import trapezoid_weights


@dataclass(frozen=True)
class QtmConfig:
    """Controls for the particle integration."""

    t_final: float
    dt: Optional[float] = None       # None -> 0.5 * (initial spacing)^2 * m / hbar
    degree: int = 4
    stencil_size: int = 9
    weight_width_mult: float = 3.0
    snapshot_stride: int = 1

    def validate(self):
        if not (self.t_final >= 0):
            raise ValidationError("t_final must be nonnegative")
        if self.dt is not None and not (self.dt > 0):
            raise ValidationError("dt must be positive")
        if self.degree < 2:
            raise ValidationError(
                f"degree must be >= 2 (the fits give d2/dx2), got {self.degree}")
        if self.stencil_size < self.degree + 1:
            raise ValidationError(
                f"stencil_size must be >= degree + 1 = {self.degree + 1}, "
                f"got {self.stencil_size}")
        if not (self.weight_width_mult > 0):
            raise ValidationError(
                f"weight_width_mult (qtm.weight_width) must be positive, "
                f"got {self.weight_width_mult}")
        if self.snapshot_stride < 1:
            raise ValidationError("snapshot_stride must be >= 1")


@dataclass(frozen=True)
class ParticleSet:
    """Positions, log-density and phase carried by each particle."""

    x: np.ndarray
    log_rho: np.ndarray
    S: np.ndarray
    weights: np.ndarray
    t: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if np.any(np.diff(x) <= 0):
            i = int(np.argmin(np.diff(x)))
            raise ValidationError(f"particle positions must increase (index {i})")
        object.__setattr__(self, "x", x)
        for name in ("log_rho", "S", "weights"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != x.shape:
                raise ValidationError(f"{name} must match the particle count")
            object.__setattr__(self, name, v)

    def discrete_norm(self) -> float:
        """sum rho_n * local spacing, a loose mass diagnostic."""
        return float(np.sum(np.exp(self.log_rho) * trapezoid_weights(self.x)))


def _windows(x, k):
    """Start index of the k-nearest contiguous window around each particle."""
    n = x.size
    cand = np.clip(np.arange(n)[:, None] - np.arange(k)[None, :], 0, n - k)
    cost = np.maximum(x[:, None] - x[cand], x[cand + k - 1] - x[:, None])
    return cand[np.arange(n), np.argmin(cost, axis=1)]


def _scaled_powers(t, degree):
    """Basis t**j / j! for j = 0..degree, by running products."""
    basis = np.empty(t.shape + (degree + 1,))
    basis[..., 0] = 1.0
    for j in range(1, degree + 1):
        basis[..., j] = basis[..., j - 1] * (t / j)
    return basis


def _fit_matrices(x, degree, k, width_mult):
    starts = _windows(x, k)
    idx = starts[:, None] + np.arange(k)[None, :]
    xs = x[idx]
    d = xs - x[:, None]
    h_loc = (xs[:, -1] - xs[:, 0]) / (k - 1)
    # a width far below the spacing overflows the square: exp(-inf) = 0
    with np.errstate(over="ignore"):
        w = np.exp(-((d / (width_mult * h_loc[:, None])) ** 2))
    basis = _scaled_powers(d / h_loc[:, None], degree)
    weighted = basis * w[:, :, None]
    gram = np.matmul(weighted.transpose(0, 2, 1), basis)
    return idx, weighted, gram, h_loc


def _solve_fits(gram, rhs_stack):
    try:
        return np.linalg.solve(gram, rhs_stack)
    except np.linalg.LinAlgError:
        for i in range(gram.shape[0]):
            if np.linalg.matrix_rank(gram[i]) < gram.shape[1]:
                raise QtmDerivativeError(i, "rank-deficient least-squares system")
        raise


def mwls_derivatives(positions, values, degree: int = 4, stencil_size: int = 9,
                     weight_width_mult: float = 3.0):
    """First and second derivatives at each particle from a local weighted
    least-squares polynomial fit over the nearest neighbors.

    Positions must be strictly increasing (duplicates are rejected with the
    offending index); a rank-deficient fit names the particle.
    """
    x = np.asarray(positions, dtype=float)
    vals = np.asarray(values, dtype=float)
    if x.ndim != 1 or vals.shape != x.shape:
        raise ValidationError("positions and values must be matching 1-D arrays")
    order = np.argsort(x, kind="stable")
    xs = x[order]
    dup = np.flatnonzero(np.diff(xs) == 0.0)
    if dup.size:
        raise QtmDerivativeError(int(order[dup[0]]), "duplicate particle positions")
    if x.size < stencil_size:
        raise ValidationError(
            f"need at least stencil_size = {stencil_size} particles, got {x.size}")
    idx, weighted, gram, h_loc = _fit_matrices(xs, degree, stencil_size,
                                               weight_width_mult)
    rhs = np.matmul(weighted.transpose(0, 2, 1), vals[order][idx][:, :, None])
    beta = _solve_fits(gram, rhs)[:, :, 0]
    d1 = np.empty_like(x)
    d2 = np.empty_like(x)
    d1[order] = beta[:, 1] / h_loc
    d2[order] = beta[:, 2] / h_loc**2 if degree >= 2 else 0.0
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


def _qtm_rhs(params: PhysicsParams, cfg: QtmConfig, x, c, S):
    """(dx/dt, dc/dt, dS/dt, dv/dx) at every particle from one set of fits."""
    if np.any(np.diff(x) <= 0):
        raise TrajectoryCrossing(int(np.argmin(np.diff(x))), np.nan,
                                 "particle ordering lost during a stage")
    idx, weighted, gram, h_loc = _fit_matrices(x, cfg.degree, cfg.stencil_size,
                                               cfg.weight_width_mult)
    # the S and c fits share the Gram matrix: one solve, two right sides
    beta = _solve_fits(gram, np.matmul(weighted.transpose(0, 2, 1),
                                       np.stack((S[idx], c[idx]), axis=-1)))
    m = params.mass
    v = beta[:, 1, 0] / h_loc / m
    vx = beta[:, 2, 0] / h_loc**2 / m
    c1 = beta[:, 1, 1] / h_loc
    c2 = beta[:, 2, 1] / h_loc**2
    vq = params.quantum_potential(c1, c2)
    ldens = 0.5 * m * v**2 - params.potential_energy(x) - vq
    return v, -vx, ldens, vx


def qtm_evolve(init: InitialState, params: PhysicsParams,
               config: QtmConfig) -> QtmResult:
    """Integrate the particle set seeded at the label grid of ``init``.

    Particles start at the labels with c = ln rho0 and S = S0; the state
    (x, c, S) advances by RK4 and the divergence integral by the trapezoid
    rule between accepted steps.  A particle crossing or a non-finite state
    aborts; a step plan over ``MAX_STEPS`` is rejected up front.
    """
    config.validate()
    if np.any(init.rho0 <= 0):
        raise ValidationError("particle seeding requires strictly positive rho0")
    if init.n < config.stencil_size:
        raise ValidationError(
            f"need at least stencil_size = {config.stencil_size} particles, "
            f"got {init.n}")
    x = init.labels.copy()
    c = np.log(init.rho0)
    S = init.s0.copy()
    weights = trapezoid_weights(init.labels)
    rhs = partial(_qtm_rhs, params, config)

    dt = config.dt
    if dt is None:
        dx0 = float(np.min(np.diff(init.labels)))
        dt = 0.5 * dx0**2 * params.mass / params.hbar
    n_steps, dt = plan_steps(config.t_final, dt)

    snapshots = [ParticleSet(x.copy(), c.copy(), S.copy(), weights, 0.0)]
    div_int = np.zeros_like(x)
    # each end-of-step evaluation (for div_int) is the next step's k1; the
    # first runs on the seeded grid, so its fit fails on the settings alone
    try:
        k1 = rhs(x, c, S)
    except QtmDerivativeError as exc:
        raise ValidationError(
            f"the fit settings fail on the seeded particle grid ({exc}): "
            f"widen qtm.weight_width = {config.weight_width_mult} or change "
            f"qtm.degree = {config.degree} or qtm.stencil_size = "
            f"{config.stencil_size}") from exc
    for step in range(n_steps):
        k2 = rhs(x + 0.5 * dt * k1[0], c + 0.5 * dt * k1[1], S + 0.5 * dt * k1[2])
        k3 = rhs(x + 0.5 * dt * k2[0], c + 0.5 * dt * k2[1], S + 0.5 * dt * k2[2])
        k4 = rhs(x + dt * k3[0], c + dt * k3[1], S + dt * k3[2])
        x = x + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        c = c + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        S = S + dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        t = (step + 1) * dt
        # NaN passes the ordering checks, so test finiteness first
        if not all(np.all(np.isfinite(u)) for u in (x, c, S)):
            raise NumericalInstability(
                f"non-finite particle state at t = {t:.6g}; reduce qtm.dt")
        gaps = np.diff(x)
        if np.any(gaps <= 0):
            raise TrajectoryCrossing(int(np.argmin(gaps)), t, "particle crossing")
        k_end = rhs(x, c, S)
        div_int += 0.5 * dt * (k1[3] + k_end[3])
        k1 = k_end
        if (step + 1) % config.snapshot_stride == 0 or step + 1 == n_steps:
            snapshots.append(ParticleSet(x.copy(), c.copy(), S.copy(), weights, t))

    amplitude = np.sqrt(init.rho0) * np.exp(-0.5 * div_int)
    psi = amplitude * np.exp(1j * S / params.hbar)
    return QtmResult(snapshots=snapshots, psi=psi, div_integral=div_int)
