"""Finite-difference stencils on uniform grids.

Interior points use centered stencils, applied as one cached sparse band
product per grid size; the outermost points fall back to one-sided
stencils of the same order.  Weights are generated from the
Vandermonde system rather than hard-coded tables, so any (derivative,
order) pair stays consistent by construction.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import sparse

from .errors import ValidationError

#: centered half-width per (derivative m, accuracy order p)
_HALF = {(1, 2): 1, (2, 2): 1, (3, 2): 2, (1, 4): 2, (2, 4): 2, (3, 4): 3}
#: one-sided stencil length per (m, p)
_EDGE = {(1, 2): 3, (2, 2): 4, (3, 2): 5, (1, 4): 5, (2, 4): 6, (3, 4): 7}


def fd_weights(offsets, m: int) -> np.ndarray:
    """Weights w such that sum(w * f(x0 + offsets*h)) ~ h^m f^(m)(x0)."""
    offsets = np.asarray(offsets, dtype=float)
    A = np.vander(offsets, increasing=True).T
    b = np.zeros(len(offsets))
    b[m] = math.factorial(m)
    return np.linalg.solve(A, b)


@lru_cache(maxsize=64)
def _stencil_table(m: int, order: int):
    if (m, order) not in _HALF:
        raise ValidationError(f"unsupported derivative/order pair ({m}, {order})")
    half = _HALF[(m, order)]
    edge = _EDGE[(m, order)]
    center = fd_weights(np.arange(-half, half + 1), m)
    rows = np.array([fd_weights(np.arange(edge) - i, m) for i in range(half)])
    return half, edge, center, rows


@lru_cache(maxsize=64)
def _interior_operator(n: int, ms: tuple, order: int):
    """CSR band of the unscaled centred weights of every ``m`` in ``ms``.

    Row ``k * n + i`` holds the stencil of derivative ``ms[k]`` at point
    ``i``; the edge rows stay empty and are filled by the one-sided rows.
    """
    counts = np.zeros((len(ms), n), dtype=np.int64)
    indices, data = [], []
    for k, m in enumerate(ms):
        half, _, center, _ = _stencil_table(m, order)
        rows = np.arange(half, n - half)
        counts[k, rows] = center.size
        indices.append((rows[:, None] + np.arange(-half, half + 1)).ravel())
        data.append(np.tile(center, rows.size))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return sparse.csr_array(
        (np.concatenate(data), np.concatenate(indices), indptr),
        shape=(len(ms) * n, n))


def derivative(f: np.ndarray, h: float, m=1, order: int = 4) -> np.ndarray:
    """m-th derivative of samples ``f`` on a uniform grid of spacing ``h``.

    ``m`` may be a tuple of derivative orders; the result is then stacked,
    one row per entry of ``m``, from a single sparse product.  The interior
    rows sum each centred stencil in weight order starting from zero and
    the scaling by ``h**m`` comes last, so every row is bit-identical to
    the single-``m`` result.
    """
    f = np.asarray(f, dtype=float)
    ms = (m,) if np.ndim(m) == 0 else tuple(m)
    n = f.shape[0]
    tables = [_stencil_table(k, order) for k in ms]
    edge_max = max(t[1] for t in tables)
    if n < edge_max:
        raise ValidationError(f"grid too short for stencils: {n} < {edge_max} points")
    out = (_interior_operator(n, ms, order) @ f).reshape((len(ms),) + f.shape)
    mirrored = f[::-1]
    for i, (k, (half, edge, _, edge_rows)) in enumerate(zip(ms, tables)):
        out[i, :half] = edge_rows @ f[:edge]
        # mirrored one-sided stencils; odd derivatives flip sign under reflection
        sign = -1.0 if k % 2 else 1.0
        out[i, n - half:] = (sign * (edge_rows @ mirrored[:edge]))[::-1]
        out[i] /= h**k
    return out[0] if np.ndim(m) == 0 else out


def grid_spacing(x: np.ndarray, rtol: float = 1e-9) -> float:
    """Spacing of a uniform grid; rejects non-uniform input."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("grid must be a 1-D array with at least 2 points")
    d = np.diff(x)
    h = d[0]
    if h <= 0 or not np.allclose(d, h, rtol=rtol, atol=rtol * max(abs(h), 1.0)):
        raise ValidationError("grid is not uniformly spaced")
    return float(h)


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Quadrature weights of the trapezoid rule on an arbitrary 1-D grid."""
    x = np.asarray(x, dtype=float)
    w = np.zeros_like(x)
    d = np.diff(x)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w
