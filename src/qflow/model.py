"""Shared physical state types and the density/phase <-> wavefunction maps.

The two pictures exchange data through ``psi = sqrt(rho) * exp(i S / hbar)``
for nodeless states.  Everything here is a value-like snapshot; operations
are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (NodeEncountered, NumericalInstability, OutsidePotentialTable,
                     TrajectoryCrossing, ValidationError)

NORMALIZATION_TOL = 1e-8
NODE_FLOOR_REL = 1e-12
MAX_STEPS = 10**7          # step budget of one time integration


# ---------------------------------------------------------------------------
# cubic Hermite interpolation
# ---------------------------------------------------------------------------

def _hermite_basis(xs, x):
    """Interval index ``i`` of each ``x`` among the increasing knots ``xs``
    and the cubic Hermite weights of ``y[i]``, ``dy[i]``, ``y[i + 1]`` and
    ``dy[i + 1]`` there; a point on a knot takes that knot's value."""
    i = np.minimum(np.maximum(np.searchsorted(xs, x, side="right") - 1, 0),
                   xs.size - 2)
    h = xs[i + 1] - xs[i]
    s = (x - xs[i]) / h
    u = 1.0 - s
    return i, (u * u * (1.0 + 2.0 * s), s * u * u * h,
               s * s * (3.0 - 2.0 * s), -s * s * u * h)


def _compose(basis, y, dy):
    """The cubic Hermite interpolant of knot values ``y`` and knot slopes
    ``dy`` at the points of ``basis`` (from :func:`_hermite_basis`)."""
    i, (w0, w1, w2, w3) = basis
    return w0 * y[i] + w1 * dy[i] + w2 * y[i + 1] + w3 * dy[i + 1]


def _not_a_knot_spline(x, y):
    """Knot slopes and knot curvatures of the not-a-knot cubic spline
    through ``(x, y)``, four knots or more.  The slopes solve the
    tridiagonal system of scipy's ``CubicSpline`` (a continuous second
    derivative at the inner knots, a continuous third at the second and the
    last but one) by the Thomas algorithm; a knot's curvature is that of
    the cubic on the interval to its right (the last knot's: to its left),
    continuous up to rounding."""
    dx = np.diff(x)
    secant = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lower = [0.0, *dx[1:].tolist(), d1]
    diag = [dx[1], *(2.0 * (dx[:-1] + dx[1:])).tolist(), dx[-2]]
    upper = [d0, *dx[:-1].tolist(), 0.0]
    s = [((dx[0] + 2.0 * d0) * dx[1] * secant[0] + dx[0]**2 * secant[1]) / d0,
         *(3.0 * (dx[1:] * secant[:-1] + dx[:-1] * secant[1:])).tolist(),
         (dx[-1]**2 * secant[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * secant[-1]) / d1]
    for i in range(1, x.size):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        s[i] -= w * s[i - 1]
    s[-1] /= diag[-1]
    for i in range(x.size - 2, -1, -1):
        s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
    s = np.array(s)
    curv = (6.0 * secant - 4.0 * s[:-1] - 2.0 * s[1:]) / dx
    return s, np.append(curv, (2.0 * s[-2] + 4.0 * s[-1] - 6.0 * secant[-1]) / dx[-1])


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreePotential:
    """V = 0."""


@dataclass(frozen=True)
class HarmonicPotential:
    """V = m omega^2 x^2 / 2."""

    omega: float


@dataclass(frozen=True)
class TabulatedPotential:
    """V sampled on a fixed grid; the not-a-knot cubic spline inside the
    grid range.

    Evaluation outside the tabulated range is an error: the table is the
    only source of truth and extrapolating a potential silently would be
    worse than failing.
    """

    x_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or x.shape != v.shape or x.size < 4:
            raise ValidationError("tabulated potential needs matching 1-D arrays, >= 4 points")
        if not np.all(np.isfinite(x)):
            raise ValidationError("tabulated potential grid contains non-finite points")
        if np.any(np.diff(x) <= 0):
            raise ValidationError("tabulated potential grid must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise ValidationError("tabulated potential contains non-finite values")
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_knots", (v, *_not_a_knot_spline(x, v)))

    def _spline(self, x, nu=0):
        """The spline (``nu = 0``) or its derivative (``nu = 1``) at ``x``,
        inside the table: the cubic Hermite form on the knot slopes, and for
        the derivative, a quadratic, that form on the slopes and the knot
        curvatures, which reproduces it."""
        lo, hi = self.x_grid[0], self.x_grid[-1]
        # negated, so that NaN, false in every comparison, is outside
        if not (np.min(x) >= lo and np.max(x) <= hi):
            x = np.ravel(x)
            i = int(np.argmax(~((x >= lo) & (x <= hi))))
            raise OutsidePotentialTable(i, x[i], lo, hi)
        knots = self._knots
        return _compose(_hermite_basis(self.x_grid, x), knots[nu], knots[nu + 1])


Potential = FreePotential | HarmonicPotential | TabulatedPotential


@dataclass(frozen=True)
class PhysicsParams:
    """Constants entering every equation: hbar, the mass, and V(x)."""

    hbar: float = 1.0
    mass: float = 1.0
    potential: Potential = field(default_factory=FreePotential)

    def __post_init__(self):
        if not (self.hbar > 0):
            raise ValidationError(f"hbar must be positive, got {self.hbar}")
        if not (self.mass > 0):
            raise ValidationError(f"mass must be positive, got {self.mass}")

    def potential_energy(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        p = self.potential
        if isinstance(p, FreePotential):
            return np.zeros(x.shape)
        if isinstance(p, HarmonicPotential):
            return 0.5 * self.mass * p.omega**2 * x**2
        return p._spline(x)

    def quantum_potential(self, c1, c2):
        """V_Q = -(hbar^2 / 4m) (c'' + c'^2 / 2), the one V_Q formula, from
        the spatial derivatives c1, c2 of the log-density c = ln rho; in
        three dimensions c1 is the gradient's norm and c2 the Laplacian."""
        return -(self.hbar**2 / (4.0 * self.mass)) * (c2 + 0.5 * c1**2)

    def potential_gradient(self, x, out=None) -> np.ndarray:
        """dV/dx at ``x``, written into ``out`` (an array of ``x``'s shape)
        when given, else into a new array."""
        x = np.asarray(x, dtype=float)
        if out is None:
            out = np.empty_like(x)
        p = self.potential
        if isinstance(p, FreePotential):
            out.fill(0.0)
        elif isinstance(p, HarmonicPotential):
            np.multiply(self.mass * p.omega**2, x, out=out)
        else:
            out[...] = p._spline(x, 1)
        return out


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticForms:
    """Closed-form callbacks for the initial density/phase and derivatives.

    When an initial state carries them, the solvers evaluate log-density
    derivatives from these instead of differencing sampled values; the
    ratio drho0/rho0 of two closed forms stays accurate deep into the tails
    where the sampled quotient would not.  ``d2s0`` is not read.
    """

    rho0: Callable
    drho0: Callable
    d2rho0: Callable
    s0: Callable
    ds0: Callable
    d2s0: Optional[Callable] = None


def _require_finite(**arrays):
    """ValidationError naming the first array, and index, holding a NaN or
    an infinity (NaN passes every ordering and sign test)."""
    for name, v in arrays.items():
        finite = np.isfinite(v)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValidationError(f"{name} must be finite; {name}[{i}] = {v[i]}")


@dataclass(frozen=True)
class InitialState:
    """Initial density and phase sampled on the label grid."""

    labels: np.ndarray
    rho0: np.ndarray
    s0: np.ndarray
    forms: Optional[AnalyticForms] = None

    def __post_init__(self):
        a = np.asarray(self.labels, dtype=float)
        r = np.asarray(self.rho0, dtype=float)
        s = np.asarray(self.s0, dtype=float)
        if a.ndim != 1 or a.shape != r.shape or a.shape != s.shape:
            raise ValidationError("labels, rho0, s0 must be matching 1-D arrays")
        _require_finite(labels=a, rho0=r, s0=s)
        if np.any(np.diff(a) <= 0):
            raise ValidationError("labels must be strictly increasing")
        if np.any(r < 0):
            i = int(np.argmin(r))
            raise ValidationError(f"rho0 must be nonnegative; rho0[{i}] = {r[i]}")
        norm = float(np.trapezoid(r, a))
        if abs(norm - 1.0) > NORMALIZATION_TOL:
            raise ValidationError(
                f"rho0 is not normalized on the label grid: trapezoid = {norm!r} "
                f"(tolerance {NORMALIZATION_TOL})"
            )
        object.__setattr__(self, "labels", a)
        object.__setattr__(self, "rho0", r)
        object.__setattr__(self, "s0", s)

    @property
    def n(self) -> int:
        return self.labels.size


def _gaussian_forms(sigma0: float, hbar: float, boost_k: float = 0.0,
                    scale: float = 1.0) -> AnalyticForms:
    """Closed forms of ``scale * N(0, sigma0^2)`` with the phase ``hbar k x``:
    the one source of the 1-D Gaussian initial state."""
    s2 = sigma0 * sigma0
    norm = scale * (2.0 * np.pi * s2) ** -0.5
    k = float(boost_k)

    def rho0_f(x):
        return norm * np.exp(-np.asarray(x, dtype=float) ** 2 / (2.0 * s2))

    return AnalyticForms(
        rho0=rho0_f,
        drho0=lambda x: rho0_f(x) * (-np.asarray(x, dtype=float) / s2),
        d2rho0=lambda x: rho0_f(x) * ((np.asarray(x, dtype=float) / s2) ** 2 - 1.0 / s2),
        s0=lambda x: hbar * k * np.asarray(x, dtype=float),
        ds0=lambda x: np.full_like(np.asarray(x, dtype=float), hbar * k),
    )


def make_gaussian_state(sigma0: float, params: PhysicsParams, labels,
                        boost_k: float = 0.0, analytic: bool = True) -> InitialState:
    """Gaussian density of width sigma0, optionally with a plane-wave phase.

    ``rho0(a) = (2 pi sigma0^2)^(-1/2) exp(-a^2 / 2 sigma0^2)`` and
    ``s0(a) = hbar * boost_k * a`` (zero phase means a packet at rest).
    The state's trapezoid-normalization check sets the span the labels
    must cover: about +-5.7 sigma0 on a fine grid.
    """
    if not (sigma0 > 0):
        raise ValidationError(f"sigma0 must be positive, got {sigma0}")
    a = np.asarray(labels, dtype=float)
    forms = _gaussian_forms(sigma0, params.hbar, boost_k)
    return InitialState(labels=a, rho0=forms.rho0(a), s0=forms.s0(a),
                        forms=forms if analytic else None)


# ---------------------------------------------------------------------------
# evolving states
# ---------------------------------------------------------------------------

def plan_steps(t_final: float, dt: float) -> tuple[int, float]:
    """Step count reaching ``t_final`` from 0 and the step that lands on it.

    ``dt`` is shrunk to ``t_final / n_steps``; ``t_final = 0`` plans no
    steps.  A plan longer than ``MAX_STEPS`` steps is rejected rather than
    left to run for hours; so is a step that underflowed to 0.
    """
    if t_final == 0:
        return 0, dt
    planned = t_final / dt if dt > 0 else np.inf
    if not planned <= MAX_STEPS:
        raise ValidationError(
            f"dt = {dt:.6g} needs {planned:.6g} steps to reach t = {t_final:.6g}, "
            f"over the budget of {MAX_STEPS} steps")
    n_steps = max(1, int(round(planned)))
    return n_steps, t_final / n_steps


def _rk4(rhs, y, k1, dt: float, n_steps: int, end_of_step, unit: str):
    """Advance ``y`` in place by ``n_steps`` classical RK4 steps of ``dt``
    from t = 0.

    ``rhs(u, t, out)`` writes the derivative at the state ``u``, shaped like
    ``y``, into ``out``.  On entry ``k1`` holds the derivative at ``y``;
    the driver evaluates k2..k4 into its own buffers and updates
    ``y += dt/6 (((k1 + 2 k2) + 2 k3) + k4)``.  ``end_of_step(step, t)``
    then runs with ``y`` at the step's end time ``t``: the caller's checks
    and snapshots, and, when a step follows, the derivative at ``y``
    written into ``k1``.

    ``unit`` is what an index counts, ``"label index"`` or ``"particle"``.
    A unit that leaves a tabulated potential's grid aborts with
    :class:`NumericalInstability` naming the step's times, and a crossing
    raised in a stage, which knows no time of its own (NaN), takes the
    step's start time.
    """
    k2, k3, k4, stage, acc = np.empty((5,) + y.shape)
    half, sixth = 0.5 * dt, dt / 6.0

    def staged(k, scale):
        """The stage state y + scale * k, in ``stage``."""
        np.multiply(scale, k, out=stage)
        np.add(y, stage, out=stage)
        return stage

    try:
        for step in range(n_steps):
            t = step * dt
            rhs(staged(k1, half), t + half, k2)
            rhs(staged(k2, half), t + half, k3)
            rhs(staged(k3, dt), t + dt, k4)
            # y += dt/6 (((k1 + 2 k2) + 2 k3) + k4)
            np.multiply(2.0, k2, out=acc)
            np.add(acc, k1, out=acc)
            np.multiply(2.0, k3, out=stage)
            np.add(acc, stage, out=acc)
            np.add(acc, k4, out=acc)
            np.multiply(acc, sixth, out=acc)
            np.add(y, acc, out=y)
            end_of_step(step, (step + 1) * dt)
    except OutsidePotentialTable as exc:
        raise NumericalInstability(
            f"{unit} {exc.index} left the tabulated potential grid in the "
            f"step from t = {step * dt:.6g} to {(step + 1) * dt:.6g}") from exc
    except TrajectoryCrossing as exc:
        if not np.isnan(exc.time):
            raise
        raise TrajectoryCrossing(
            exc.index, step * dt, f"{unit} ordering lost in a stage of the "
            f"step from t = {step * dt:.6g} to {(step + 1) * dt:.6g}") from exc


@dataclass(frozen=True)
class TrajectoryState:
    """Positions, velocities and accumulated phase of every fluid element.

    Both solvers return it: the trajectory solver (``lagrangian.evolve``)
    for the continuum's labels, the particle solver (``qtm.qtm_evolve``)
    for its particles.  ``chi`` is the phase gained since t = 0
    (S = S0 + chi).  The trajectory solver builds it from the velocity;
    ``reconstruction.phase_consistency_deviation`` measures how far a
    snapshot's chi departs from that quasi-potential form.  The particle
    solver integrates S itself and reports S - S0.
    ``energy`` is the discrete total energy and ``min_jacobian`` the least
    J = dq/da when the producer computed them (the trajectory solver does,
    for its drift check), else None.
    """

    labels: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    chi: np.ndarray
    t: float
    energy: Optional[float] = None
    min_jacobian: Optional[float] = None

    def __post_init__(self):
        a = np.asarray(self.labels, dtype=float)
        for name in ("q", "qdot", "chi"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != a.shape:
                raise ValidationError(f"{name} must match the label grid shape")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "labels", a)
        _require_finite(labels=a, q=self.q, qdot=self.qdot, chi=self.chi)
        if np.any(np.diff(self.q) <= 0):
            i = int(np.argmin(np.diff(self.q)))
            raise ValidationError(
                f"positions must be strictly increasing (gap <= 0 after index {i})"
            )

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class EulerianField:
    """Density, phase, velocity and wavefunction on a fixed spatial grid.

    ``mask`` marks the points covered by valid data (for trajectory
    reconstructions, the image of the label interval).  On the masked
    support psi must describe the state (rho, S): |psi|^2 = rho and
    arg psi = S / hbar (mod 2 pi).  Every entry, off the mask too, is finite.
    """

    x: np.ndarray
    t: float
    rho: np.ndarray
    S: np.ndarray
    v: np.ndarray
    psi: np.ndarray
    mask: Optional[np.ndarray] = None
    hbar: float = 1.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        mask = self.mask
        mask = np.ones(x.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        if mask.shape != x.shape:
            raise ValidationError("mask must match the grid shape")
        object.__setattr__(self, "mask", mask)
        for name in ("rho", "S", "v", "psi"):
            val = np.asarray(getattr(self, name),
                             dtype=complex if name == "psi" else float)
            if val.shape != x.shape:
                raise ValidationError(f"{name} must match the grid shape")
            object.__setattr__(self, name, val)
        _require_finite(rho=self.rho, S=self.S, v=self.v, psi=self.psi)
        if np.any(self.rho[mask] < 0):
            raise ValidationError("rho must be nonnegative on the support")
        m = mask & (self.rho > 0)
        if np.any(m):
            scale = float(np.max(self.rho[m]))
            err = np.max(np.abs(np.abs(self.psi[m]) ** 2 - self.rho[m]))
            if err > 1e-12 * scale + 1e-300:
                raise ValidationError(
                    f"|psi|^2 deviates from rho by {err:.3e} (limit {1e-12 * scale:.3e})"
                )
            dphase = np.angle(self.psi[m] * np.exp(-1j * self.S[m] / self.hbar))
            if np.max(np.abs(dphase)) > 1e-8:
                raise ValidationError("arg(psi) is inconsistent with S/hbar (mod 2 pi)")

    def support_norm(self) -> float:
        """Trapezoid integral of rho over the masked support."""
        m = self.mask
        return float(np.trapezoid(self.rho[m], self.x[m]))


# ---------------------------------------------------------------------------
# wavefunction <-> (rho, S)
# ---------------------------------------------------------------------------

def assemble_wavefunction(rho, S, hbar: float) -> np.ndarray:
    """psi = sqrt(rho) exp(i S / hbar)."""
    rho = np.asarray(rho, dtype=float)
    S = np.asarray(S, dtype=float)
    if rho.shape != S.shape:
        raise ValidationError("rho and S must have the same shape")
    if np.any(rho < 0):
        i = int(np.argmin(rho))
        raise ValidationError(f"negative density at index {i}: rho = {rho[i]}")
    return np.sqrt(rho) * np.exp(1j * S / hbar)


def madelung_decompose(psi, x_ref: int, hbar: float = 1.0):
    """Split a nodeless psi into (rho, S) with S continuous in x.

    The phase is unwrapped by nearest-branch continuation and anchored so
    that S at grid index ``x_ref`` lies in (-pi*hbar, pi*hbar].  Any sample
    with |psi| at or below ``NODE_FLOOR_REL * max|psi|`` raises
    :class:`NodeEncountered`.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValidationError("psi must be a 1-D array")
    if not (0 <= x_ref < psi.size):
        raise ValidationError(f"x_ref index {x_ref} outside grid of {psi.size}")
    amag = np.abs(psi)
    floor = NODE_FLOOR_REL * float(np.max(amag))
    if np.min(amag) <= floor:
        i = int(np.argmin(amag))
        raise NodeEncountered(i, amag[i], floor)
    rho = amag**2
    phase = np.unwrap(np.angle(psi))
    # shift by a multiple of 2 pi so the reference value lands in (-pi, pi]
    shift = np.round(phase[x_ref] / (2.0 * np.pi))
    ref = phase[x_ref] - 2.0 * np.pi * shift
    if ref <= -np.pi:
        shift -= 1.0
    phase = phase - 2.0 * np.pi * shift
    return rho, hbar * phase
