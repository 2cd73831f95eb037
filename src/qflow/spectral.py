"""Independent spectral solver for the time-dependent wave equation.

Strang-split stepping on a periodic uniform grid: a half kinetic step
applied in frequency space, a full potential step in position space, then
the second half kinetic step.  Each substep is a unitary multiplication,
so the discrete norm is conserved to roundoff; the splitting is
second-order accurate in dt (exact for V = 0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, fftfreq, ifft

from .errors import NodeEncountered, ValidationError, WrapAroundRiskWarning
from .model import (NODE_FLOOR_REL, EulerianField, PhysicsParams,
                    madelung_decompose, plan_steps)
from .stencils import derivative, grid_spacing

EDGE_MARGIN_FRACTION = 0.10
EDGE_DENSITY_REL = 1e-8
NORM_TOL = 1e-8
SUPPORT_REL = 1e-9


@dataclass(frozen=True)
class WaveSnapshot:
    t: float
    psi: np.ndarray


def norm_of(psi, dx: float) -> float:
    """Discrete norm consistent with the periodic grid (Riemann sum)."""
    return float(np.sum(np.abs(psi) ** 2) * dx)


def energy_of(psi, x_grid, params: PhysicsParams) -> float:
    """<psi|H|psi> with the kinetic part evaluated spectrally."""
    x = np.asarray(x_grid, dtype=float)
    dx = grid_spacing(x)
    n = x.size
    k = 2.0 * np.pi * fftfreq(n, d=dx)
    psi_k = fft(psi)
    kinetic = np.sum((params.hbar**2 * k**2 / (2.0 * params.mass))
                     * np.abs(psi_k) ** 2) * dx / n
    potential = np.sum(params.potential_energy(x) * np.abs(psi) ** 2) * dx
    return float(kinetic + potential)


def _edge_check(psi, t):
    n = psi.size
    margin = max(1, int(EDGE_MARGIN_FRACTION * n))
    dens = np.abs(psi) ** 2
    peak = float(np.max(dens))
    if peak <= 0:
        return
    edge = max(float(np.max(dens[:margin])), float(np.max(dens[-margin:])))
    if edge > EDGE_DENSITY_REL * peak:
        warnings.warn(
            f"wavepacket density {edge / peak:.2e} of peak inside the outer "
            f"10% of the domain at t = {t:.6g}; periodic wrap-around risk",
            WrapAroundRiskWarning, stacklevel=3)


def split_step_evolve(psi0, x_grid, params: PhysicsParams, dt: float,
                      t_final: float, snapshot_stride: int = 1) -> list[WaveSnapshot]:
    """Propagate psi0 to t_final; snapshots every ``snapshot_stride`` steps.

    The grid must be uniform (periodic convention: the right endpoint is
    excluded) and psi0 normalized to the discrete norm.
    """
    x = np.asarray(x_grid, dtype=float)
    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.shape != x.shape:
        raise ValidationError("psi0 must match the grid")
    if not (dt > 0 and t_final > 0):
        raise ValidationError("dt and t_final must be positive")
    if snapshot_stride < 1:
        raise ValidationError("snapshot_stride must be >= 1")
    dx = grid_spacing(x)
    if abs(norm_of(psi, dx) - 1.0) > NORM_TOL:
        raise ValidationError(
            f"psi0 is not normalized (norm = {norm_of(psi, dx)!r})")
    n = x.size
    k = 2.0 * np.pi * fftfreq(n, d=dx)
    n_steps, dt = plan_steps(t_final, dt)
    half_kinetic = np.exp(-1j * params.hbar * k**2 * dt / (4.0 * params.mass))
    potential_step = np.exp(-1j * params.potential_energy(x) * dt / params.hbar)

    snapshots = [WaveSnapshot(0.0, psi.copy())]
    _edge_check(psi, 0.0)
    for step in range(n_steps):
        psi = ifft(half_kinetic * fft(psi))
        psi *= potential_step
        psi = ifft(half_kinetic * fft(psi))
        t = (step + 1) * dt
        if (step + 1) % snapshot_stride == 0 or step + 1 == n_steps:
            _edge_check(psi, t)
            snapshots.append(WaveSnapshot(t, psi.copy()))
    return snapshots


def reference_fields(snapshot: WaveSnapshot, x_grid,
                     params: PhysicsParams) -> EulerianField:
    """Hydrodynamic fields (rho, S, v) of a wave snapshot.

    The decomposition runs on the contiguous support where |psi| clears
    the node floor; far-tail points below it are masked out.  A sub-floor
    dip in the interior is a genuine node and raises.  The phase is
    unwrapped and pinned at the grid centre ``x.size // 2``; the velocity
    is the phase gradient over the mass.
    """
    x = np.asarray(x_grid, dtype=float)
    psi = np.asarray(snapshot.psi, dtype=complex)
    amag = np.abs(psi)
    floor = NODE_FLOOR_REL * float(np.max(amag))
    # the support threshold sits well above the split-step roundoff noise
    # floor (~1e-12 of peak) so tail noise does not fragment the window;
    # the node check inside the window still uses the strict floor
    above = amag > SUPPORT_REL * float(np.max(amag))
    lo = int(np.argmax(above))
    hi = int(psi.size - np.argmax(above[::-1]))
    inside = amag[lo:hi] > floor
    if not np.all(inside):
        i = lo + int(np.argmin(inside))
        raise NodeEncountered(i, amag[i], floor)
    centre = x.size // 2
    if not (lo <= centre < hi):
        raise ValidationError("the grid centre lies outside the nodeless support")
    rho_w, S_w = madelung_decompose(psi[lo:hi], centre - lo, params.hbar)
    v_w = derivative(S_w, grid_spacing(x), 1) / params.mass
    mask = np.zeros(x.shape, dtype=bool)
    mask[lo:hi] = True
    rho = np.zeros(x.shape)
    S = np.zeros(x.shape)
    v = np.zeros(x.shape)
    rho[lo:hi], S[lo:hi], v[lo:hi] = rho_w, S_w, v_w
    psi_out = np.where(mask, psi, 0.0)
    return EulerianField(x=x, t=snapshot.t, rho=rho, S=S, v=v,
                         psi=psi_out, mask=mask, hbar=params.hbar)
