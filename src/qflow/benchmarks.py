"""Closed-form free-Gaussian benchmark and generic error norms.

For an initially resting Gaussian of width sigma0 under V = 0, the flow
map is the uniform dilation ``q(a, t) = a T(t)`` with
``T = sqrt(1 + alpha t^2)`` and ``alpha = (hbar / 2 m sigma0^2)^2``.

The matching field solution is

    rho(x, t) = (2 pi sigma^2)^(-1/2) exp(-x^2 / 2 sigma^2)
    S(x, t)   = m alpha t x^2 sigma0^2 / (2 sigma^2)
                - (hbar / 2) arctan(hbar t / 2 m sigma0^2)

with sigma = sigma0 T.  The quadratic-in-x phase coefficient grows
linearly in t (it is m/2 times the logarithmic width velocity
sigma'/sigma); this form is pinned down independently by the
Hamilton-Jacobi residual test and by the spectral reference solver, both
of which reject a time-independent quadratic coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .model import PhysicsParams
from .stencils import trapezoid_weights


def gaussian_alpha(sigma0: float, params: PhysicsParams) -> float:
    """Dilation rate constant alpha = (hbar / 2 m sigma0^2)^2."""
    return (params.hbar / (2.0 * params.mass * sigma0**2)) ** 2


def gaussian_scale_factor(t, alpha: float):
    """Dilation factor T = sqrt(1 + alpha t^2), the solution of
    T'' = alpha / T^3 with T(0) = 1, T'(0) = 0."""
    t = np.asarray(t, dtype=float)
    return np.sqrt(1.0 + alpha * t**2)


def gaussian_trajectory(a, t, sigma0: float, params: PhysicsParams,
                        boost_k: float = 0.0):
    """Exact free-Gaussian paths: q = a T(t) + u t, qdot = a alpha t / T(t) + u,
    with the drift u = hbar k / m of a packet boosted by ``boost_k``."""
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    alpha = gaussian_alpha(sigma0, params)
    T = gaussian_scale_factor(t, alpha)
    drift = params.hbar * boost_k / params.mass
    q = a * T + drift * t
    qdot = a * alpha * t / T + drift
    return q, qdot


def gaussian_wavefunction(x, t, sigma0: float, params: PhysicsParams):
    """Exact free-Gaussian fields (rho, S) at time t (validated phase form)."""
    x = np.asarray(x, dtype=float)
    alpha = gaussian_alpha(sigma0, params)
    T = gaussian_scale_factor(t, alpha)
    sig2 = sigma0**2 * T**2
    rho = (2.0 * np.pi * sig2) ** -0.5 * np.exp(-(x**2) / (2.0 * sig2))
    hbar, m = params.hbar, params.mass
    S = (0.5 * m * alpha * t * x**2 * sigma0**2 / sig2
         - 0.5 * hbar * np.arctan(hbar * t / (2.0 * m * sigma0**2)))
    return rho, S


@dataclass(frozen=True)
class Norms:
    """Discrete error norms over a masked support."""

    l2: float
    linf: float
    phase_reduced_l2: Optional[float] = None


def error_norms(field_a, field_b, x_grid, mask=None) -> Norms:
    """Trapezoid-weighted L2 and max norms of (a - b) over the mask.

    For complex inputs the phase-reduced L2 additionally minimizes over a
    single global phase factor; the optimum is the phase of
    ``sum w a conj(b)``.
    """
    a = np.asarray(field_a)
    b = np.asarray(field_b)
    x = np.asarray(x_grid, dtype=float)
    if a.shape != b.shape or a.shape != x.shape:
        raise ValidationError("fields and grid must share one shape")
    mask = np.ones(x.shape, bool) if mask is None else np.asarray(mask, bool)
    if not np.any(mask):
        raise ValidationError("empty mask")
    w = trapezoid_weights(x[mask])
    d = a[mask] - b[mask]
    l2 = float(np.sqrt(np.sum(w * np.abs(d) ** 2)))
    linf = float(np.max(np.abs(d)))
    phase_l2 = None
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        overlap = np.sum(w * a[mask] * np.conj(b[mask]))
        phi = np.angle(overlap) if overlap != 0 else 0.0
        dph = a[mask] - np.exp(1j * phi) * b[mask]
        phase_l2 = float(np.sqrt(np.sum(w * np.abs(dph) ** 2)))
    return Norms(l2=l2, linf=linf, phase_reduced_l2=phase_l2)
