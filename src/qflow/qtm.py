"""Discrete-particle solver: density and phase integrated along paths.

The fluid is approximated by a finite set of co-moving particles, one per
label of the seeded grid.  Along each path the continuity and quantum
Hamilton-Jacobi equations on c = ln rho and S close into ODEs,

    dx/dt = v = (dS/dx) / m
    dc/dt = -dv/dx
    dS/dt = m v^2 / 2 - V - V_Q,

integrated as they stand, with no projection; only the stencil family is
shared with the trajectory solver.  The particles never reorder (a
crossing aborts), so x, S and c are smooth functions of the particle index
a, and the x-derivatives follow from a-derivatives by the chain rule,

    f_x = f_a / x_a,    f_xx = (f_aa - f_x x_aa) / x_a^2,

with (f_a, f_aa) of x, c and S from the fourth-order (1, 2) stencil of unit
spacing (a label spacing would cancel), one call on the (3, n) state
block.  The wavefunction along each path follows from the initial value
times an amplitude factor exp(-integral of div v / 2) and the phase
integral of the Lagrangian density; the amplitude integral is accumulated
by an independent trapezoid rule so the two density routes cross-check.
The paths are returned as the trajectory solver's snapshot type,
:class:`~qflow.model.TrajectoryState`, with the particle index's seeded
grid as the labels and the carried phase as chi = S - S0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalInstability, TrajectoryCrossing, ValidationError
from .model import (FreePotential, InitialState, PhysicsParams,
                    TrajectoryState, _rk4, plan_steps)
from .stencils import Stencil


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
class QtmResult:
    """Particle history with the path-wise wavefunction.

    ``snapshots`` are :class:`~qflow.model.TrajectoryState`: the particle
    positions ``q``, the velocities ``qdot = (dS/dx) / m`` and the phase
    gained ``chi = S - S0``, with the seeded grid as ``labels``.
    ``psi`` rebuilds the wavefunction at the final particle positions from
    the seeded value, the divergence integral (amplitude) and the phase
    integral; ``div_integral`` holds the independently accumulated
    integral of dv/dx used for the amplitude factor, and ``log_rho`` the
    final carried c = ln rho, the other density route.
    """

    snapshots: list
    psi: np.ndarray
    div_integral: np.ndarray
    log_rho: np.ndarray


def _x_derivatives(derivs: Stencil, d, u, scratch):
    """``(c_x, S_x)`` and ``(c_xx, S_xx)``, as two ``(2, n)`` views of the
    ``(2, 3, n)`` workspace ``d``.

    ``derivs``, the (1, 2) stencil on unit spacing, writes the index
    derivatives of the rows (x, c, S) of ``u`` into ``d``, first
    derivatives then second, in one call, and the chain rule turns those
    of c and S into x-derivatives in place, using the ``(2, n)``
    ``scratch``.
    """
    derivs(u, out=d)
    inv_xa, x_aa = d[:, 0]
    first, second = d[0, 1:], d[1, 1:]
    np.reciprocal(inv_xa, out=inv_xa)
    first *= inv_xa                        # f_x = f_a / x_a
    # f_xx = (f_aa - f_x x_aa) / x_a^2
    np.multiply(first, x_aa, out=scratch)
    second -= scratch
    np.square(inv_xa, out=x_aa)
    second *= x_aa
    return first, second


def _qtm_rhs(params: PhysicsParams, derivs: Stencil, d, u, out):
    """(dx/dt, dc/dt, dS/dt) = (v, -dv/dx, L) at every particle of the state
    rows (x, c, S) of ``u``, written into the rows of ``out``, a ``(3, n)``
    array; ``derivs`` and ``d`` are those of :func:`_x_derivatives`."""
    x = u[0]
    if (x[1:] <= x[:-1]).any():
        raise TrajectoryCrossing(int(np.argmin(np.diff(x))), np.nan,
                                 "particle ordering lost during a stage")
    # out's first rows are free until v and -v_x are written
    (c_x, S_x), (c_xx, S_xx) = _x_derivatives(derivs, d, u, out[:2])
    v, minus_vx, ldens = out
    m = params.mass
    np.divide(S_x, m, out=v)
    np.divide(S_xx, -m, out=minus_vx)
    vq = params.quantum_potential(c_x, c_xx)
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
    (x, c, S) advances by the shared RK4 driver (``model._rk4``) and the
    divergence integral by the trapezoid rule on dc/dt = -dv/dx between
    accepted steps, whose end-of-step evaluation is the next step's k1.  A
    particle crossing, a non-finite state or a particle that leaves a
    tabulated potential's grid after t = 0 aborts; a step plan over
    ``MAX_STEPS`` is rejected up front.
    """
    config.validate()
    if np.any(init.rho0 <= 0):
        raise ValidationError("particle seeding requires strictly positive rho0")
    n = init.n
    # rejects a grid too short for the stencil
    derivs = Stencil(n, 1.0, (1, 2))
    # the run's workspace: the state rows (x, c, S) and their derivative
    # k1; the gap and trapezoid buffers; the index derivatives of (x, c, S)
    z, k1 = np.empty((2, 3, n))
    x, c, S = z
    x[:] = init.labels
    np.log(init.rho0, out=c)
    S[:] = init.s0
    gaps, x_hi, x_lo = np.empty(n - 1), x[1:], x[:-1]
    div_int, trap = np.zeros(n), np.empty(n)
    d = np.empty((2, 3, n))

    def rhs(u, t, out):
        """The driver's right-hand side on the rows (x, c, S) of ``u``; the
        particle equations do not read ``t``."""
        _qtm_rhs(params, derivs, d, u, out=out)

    n_steps, dt = plan_steps(config.t_final, config.auto_dt(
        float(np.min(np.diff(init.labels))), params))
    half = 0.5 * dt
    snapshots = []

    def snapshot(t):
        """Record the state as a trajectory snapshot: the velocity is the
        first row of the state's k1, and chi = S - S0."""
        snapshots.append(TrajectoryState(init.labels, x.copy(), k1[0].copy(),
                                         S - init.s0, t))

    def end_of_step(step, t):
        # NaN passes the ordering checks, so test finiteness first
        if not np.isfinite(z).all():
            raise NumericalInstability(
                f"non-finite particle state at t = {t:.6g}; reduce qtm.dt")
        np.subtract(x_hi, x_lo, out=gaps)
        if np.minimum.reduce(gaps) <= 0:
            raise TrajectoryCrossing(int(np.argmin(gaps)), t, "particle crossing")
        # div_int += dt/2 (v_x before + v_x after), from k1's rows -v_x
        np.copyto(trap, k1[1])
        rhs(z, t, k1)
        np.add(trap, k1[1], out=trap)
        np.multiply(trap, half, out=trap)
        np.subtract(div_int, trap, out=div_int)
        if (step + 1) % config.snapshot_stride == 0 or step + 1 == n_steps:
            snapshot(t)

    rhs(z, 0.0, k1)
    snapshot(0.0)
    _rk4(rhs, z, k1, dt, n_steps, end_of_step, "particle")

    amplitude = np.sqrt(init.rho0) * np.exp(-0.5 * div_int)
    psi = amplitude * np.exp(1j * S / params.hbar)
    return QtmResult(snapshots=snapshots, psi=psi, div_integral=div_int,
                     log_rho=c.copy())
