"""Shared physical state types and the density/phase <-> wavefunction maps.

The two pictures exchange data through ``psi = sqrt(rho) * exp(i S / hbar)``
for nodeless states.  Everything here is a value-like snapshot; operations
are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NodeEncountered, ValidationError
from .stencils import derivative, grid_spacing

NORMALIZATION_TOL = 1e-8
NODE_FLOOR_REL = 1e-12
MAX_STEPS = 10**7          # step budget of one time integration


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
    """V sampled on a fixed grid; cubic interpolation inside the grid range.

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
        if np.any(np.diff(x) <= 0):
            raise ValidationError("tabulated potential grid must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise ValidationError("tabulated potential contains non-finite values")
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "values", v)
        # imported here: the spline module pulls in half of scipy, and only
        # a tabulated-potential run needs it
        from scipy.interpolate import CubicSpline
        object.__setattr__(self, "_spline", CubicSpline(x, v))

    def _check_range(self, x):
        if np.min(x) < self.x_grid[0] or np.max(x) > self.x_grid[-1]:
            raise ValidationError("evaluation point outside the tabulated potential grid")


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
            return np.zeros_like(x)
        if isinstance(p, HarmonicPotential):
            return 0.5 * self.mass * p.omega**2 * x**2
        p._check_range(x)
        return p._spline(x)

    def quantum_potential(self, c1, c2):
        """V_Q = -(hbar^2 / 4m) (c'' + c'^2 / 2), the one 1-D V_Q formula,
        from the spatial derivatives c1, c2 of the log-density c = ln rho."""
        return -(self.hbar**2 / (4.0 * self.mass)) * (c2 + 0.5 * c1**2)

    def potential_gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        p = self.potential
        if isinstance(p, FreePotential):
            return np.zeros_like(x)
        if isinstance(p, HarmonicPotential):
            return self.mass * p.omega**2 * x
        p._check_range(x)
        return p._spline(x, 1)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticForms:
    """Closed-form callbacks for the initial density/phase and derivatives.

    When present, the solvers evaluate log-density derivatives from these
    instead of differencing sampled values; the ratio drho0/rho0 of two
    closed forms stays accurate deep into the tails where the sampled
    quotient would not.
    """

    rho0: Optional[Callable] = None
    drho0: Optional[Callable] = None
    d2rho0: Optional[Callable] = None
    s0: Optional[Callable] = None
    ds0: Optional[Callable] = None
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
        norm = np.trapezoid(r, a)
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
        d2s0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def make_gaussian_state(sigma0: float, params: PhysicsParams, labels,
                        boost_k: float = 0.0, analytic: bool = True) -> InitialState:
    """Gaussian density of width sigma0, optionally with a plane-wave phase.

    ``rho0(a) = (2 pi sigma0^2)^(-1/2) exp(-a^2 / 2 sigma0^2)`` and
    ``s0(a) = hbar * boost_k * a`` (zero phase means a packet at rest).
    The label grid must reach at least +-4 sigma0 on both sides or the
    state cannot be normalized to tolerance.
    """
    if not (sigma0 > 0):
        raise ValidationError(f"sigma0 must be positive, got {sigma0}")
    a = np.asarray(labels, dtype=float)
    if a.size < 2 or np.any(np.diff(a) <= 0):
        raise ValidationError("labels must be strictly increasing")
    if a[0] > -4.0 * sigma0 or a[-1] < 4.0 * sigma0:
        raise ValidationError(
            f"label span [{a[0]}, {a[-1]}] is narrower than +-4 sigma0 = "
            f"{4.0 * sigma0}; normalization unattainable"
        )
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


@dataclass(frozen=True)
class TrajectoryState:
    """Positions, velocities and accumulated phase of every fluid element.

    ``chi`` is the phase gained since t = 0 (S = S0 + chi).  The trajectory
    solver builds it from the velocity (see ``lagrangian.evolve``); one
    built elsewhere is what the reconstruction's phase check tests.
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
    arg psi = S / hbar (mod 2 pi).
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

    @property
    def dx(self) -> float:
        return grid_spacing(self.x)

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
