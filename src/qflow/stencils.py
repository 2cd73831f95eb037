"""Finite-difference stencils on uniform grids.

Interior points use centred fourth-order stencils; the outermost points
fall back to one-sided stencils of the same order, mirrored with a sign
flip for odd derivatives at the right edge.  Every row of every requested
derivative, edge rows included, lives in one cached CSR operator per
grid size.  Each row sums its stencil in weight order starting from zero,
and the scaling by ``h**m`` comes last.  Weights are generated from the
Vandermonde system rather than hard-coded tables, so every derivative's
rows stay consistent by construction.

A :class:`Stencil` binds that operator and the ``h**m`` column to one grid;
a caller that differentiates on the same grid many times holds one, and
:func:`derivative` builds one per call.  :meth:`Stencil.matrix` hands out
the bound operator's CSR arrays, and :func:`left_product` multiplies a
dense matrix by such arrays, for composing the operator with other linear
maps once per run.

Both products run one numpy kernel, :func:`_row_sums`: it adds the ``k``-th
entry of every row in one gather-multiply-add, ``k`` ascending, so each row
sums its entries in stored order from zero, the sums and bits of a
compiled CSR product row by row (scipy's ``op @ f``, the tests' reference).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError

#: centred half-width per derivative m (fourth-order accuracy)
_HALF = {1: 2, 2: 2, 3: 3}
#: one-sided stencil length per m
_EDGE = {1: 5, 2: 6, 3: 7}
#: relative tolerance of the spacing check in :func:`grid_spacing`
_GRID_RTOL = 1e-9


def fd_weights(offsets, m: int) -> np.ndarray:
    """Weights w such that sum(w * f(x0 + offsets*h)) ~ h^m f^(m)(x0)."""
    offsets = np.asarray(offsets, dtype=float)
    A = np.vander(offsets, increasing=True).T
    b = np.zeros(len(offsets))
    b[m] = math.factorial(m)
    return np.linalg.solve(A, b)


@lru_cache(maxsize=64)
def _stencil_table(m: int):
    if m not in _HALF:
        raise ValidationError(f"unsupported derivative order {m}")
    half = _HALF[m]
    edge = _EDGE[m]
    center = fd_weights(np.arange(-half, half + 1), m)
    rows = np.array([fd_weights(np.arange(edge) - i, m) for i in range(half)])
    return half, edge, center, rows


@lru_cache(maxsize=64)
def _operator(n: int, ms: tuple):
    """CSR arrays ``(indptr, indices, data)`` of the unscaled weights of
    every row of every ``m`` in ``ms``, an operator of ``len(ms) * n`` rows
    and ``n`` columns; cached, so read-only.

    Row ``k * n + i`` holds the stencil of derivative ``ms[k]`` at point
    ``i``, its entries in weight order: the centred stencil inside, the
    one-sided rows at the left edge, and those rows mirrored (reversed
    columns, sign-flipped for odd ``m``) at the right edge.
    """
    tables = [_stencil_table(m) for m in ms]
    edge_max = max(t[1] for t in tables)
    if n < edge_max:
        raise ValidationError(f"grid too short for stencils: {n} < {edge_max} points")
    indices, data, counts = [], [], []
    for m, (half, edge, center, edge_rows) in zip(ms, tables):
        inner = np.arange(half, n - half)
        cols = np.arange(edge)
        # odd derivatives flip sign under reflection
        sign = -1.0 if m % 2 else 1.0
        indices += [np.tile(cols, half),
                    (inner[:, None] + np.arange(-half, half + 1)).ravel(),
                    np.tile(n - 1 - cols, half)]
        data += [edge_rows.ravel(), np.tile(center, inner.size),
                 (sign * edge_rows[::-1]).ravel()]
        counts += [np.full(half, edge), np.full(inner.size, center.size),
                   np.full(half, edge)]
    csr = (np.concatenate(([0], np.cumsum(np.concatenate(counts)))),
           np.concatenate(indices), np.concatenate(data))
    for array in csr:
        array.flags.writeable = False
    return csr


def _by_rank(indptr, indices, data):
    """CSR arrays regrouped for :func:`_row_sums`: ``order``, the rows
    longest first, and per rank ``k`` the count, columns and weights of the
    ``k``-th entries of the rows that have one, which come first in
    ``order``."""
    counts = np.diff(indptr)
    order = np.argsort(-counts, kind="stable")
    starts, counts = indptr[:-1][order], counts[order]
    ats = [starts[counts > k] + k for k in range(counts.max(initial=0))]
    return order, [(at.size, indices[at], data[at]) for at in ats]


def _row_sums(plan, x, out):
    """Row ``i`` of ``out`` is the sum over row ``i``'s entries, in stored
    order and starting from zero, of weight times ``x[column]``: the sums,
    and bits, of a CSR product run row by row; returns ``out``.  ``plan``
    comes from :func:`_by_rank`; ``x`` and ``out`` may have trailing axes."""
    order, ranks = plan
    acc = np.zeros(out.shape)
    lead = (slice(None),) + (None,) * (x.ndim - 1)
    # as quiet as a compiled kernel: a non-finite input gives a non-finite
    # output, which the callers check
    with np.errstate(all="ignore"):
        for rows, cols, w in ranks:
            acc[:rows] += w[lead] * x[cols]
    out[order] = acc
    return out


@lru_cache(maxsize=64)
def _stencil_plan(n: int, ms: tuple):
    """``_operator(n, ms)`` regrouped for :func:`_row_sums`; cached."""
    return _by_rank(*_operator(n, ms))


class Stencil:
    """The ``m``-th derivative (``m`` an int or a tuple) on a uniform grid of
    ``n`` points and spacing ``h``, as :func:`derivative` defines it.

    Holds ``_operator(n, ms)``, grouped by rank for :func:`_row_sums`, and
    the ``h**m`` column, one entry per operator row.  A call sums every
    row in weight order from zero, then divides by ``h**m``.  The output
    may be the caller's (``out=``).
    """

    def __init__(self, n: int, h: float, m=1):
        single = np.ndim(m) == 0
        ms = (m,) if single else tuple(m)
        self.n = n
        self._csr = _operator(n, ms)
        self._plan = _stencil_plan(n, ms)
        self._h_m = np.repeat([h**k for k in ms], n)
        self._lead = () if single else (len(ms),)

    def __call__(self, f: np.ndarray, out=None) -> np.ndarray:
        """The derivative(s) of ``f``, shaped ``(len(m),) + f.shape`` for a
        tuple ``m`` and ``f.shape`` otherwise.  ``out``, a C-contiguous
        float64 array of that shape, receives the result in place of a new
        array, with the bits of a call without it."""
        f = np.asarray(f, dtype=float, order="C")
        if f.shape[:1] != (self.n,):
            raise ValidationError(f"stencil bound to {self.n} points got an "
                                  f"array of shape {f.shape}")
        shape = self._lead + f.shape
        if out is None:
            out = np.empty(shape)
        elif (out.shape != shape or out.dtype != np.float64
              or not out.flags.c_contiguous):
            raise ValidationError(f"stencil output must be a C-contiguous "
                                  f"float64 array of shape {shape}")
        flat = out.reshape((-1,) + f.shape[1:])
        _row_sums(self._plan, f, flat)
        flat /= self._h_m.reshape((-1,) + (1,) * (f.ndim - 1))
        return out

    def matrix(self):
        """The bound operator, ``h**m`` scaling folded in, as the CSR arrays
        ``(indptr, indices, data)`` of its ``len(m) * n`` rows (``data`` a
        new array, the index arrays the cached read-only ones), for
        composing it with other linear maps; a call stays the way to apply
        it (it scales last, this does not)."""
        indptr, indices, data = self._csr
        return indptr, indices, data / np.repeat(self._h_m, np.diff(indptr))


def left_product(C: np.ndarray, indptr, indices, data, n_cols: int) -> np.ndarray:
    """``C @ A`` for a dense ``C`` and the CSR arrays of ``A`` (``C.shape[1]``
    rows, ``n_cols`` columns), as a new C-contiguous array.

    Column ``k`` of the product sums ``C[:, j] * A[j, k]`` over the rows
    ``j`` of ``A`` in ascending order, starting from zero, the sums and
    bits of scipy's ``C @ csr_array(A)``: ``A``'s entries sorted stably by
    column are the CSR rows of ``A.T``, rows of ``A`` ascending in each,
    and :func:`_row_sums` applies them to ``C.T``.
    """
    if indptr.size != C.shape[1] + 1 or (indices.size and indices.max() >= n_cols):
        raise ValidationError(f"CSR arrays of {indptr.size - 1} rows do not fit "
                              f"a product of {C.shape} by {n_cols} columns")
    by_col = np.argsort(indices, kind="stable")
    rows = np.repeat(np.arange(C.shape[1]), np.diff(indptr))
    t_indptr = np.concatenate(([0], np.cumsum(np.bincount(indices, minlength=n_cols))))
    out = _row_sums(_by_rank(t_indptr, rows[by_col], data[by_col]),
                    np.ascontiguousarray(C.T), np.empty((n_cols, C.shape[0])))
    return np.ascontiguousarray(out.T)


def derivative(f: np.ndarray, h: float, m=1) -> np.ndarray:
    """m-th derivative of samples ``f`` on a uniform grid of spacing ``h``.

    ``m`` may be a tuple of derivative orders; the result is then stacked,
    one row per entry of ``m``.  Every point, edge points included, sums its
    stencil in weight order starting from zero, and the division by
    ``h**m`` comes last, so each stacked row is bit-identical to the
    single-``m`` result.
    """
    return Stencil(np.shape(f)[0], h, m)(f)


def grid_spacing(x: np.ndarray) -> float:
    """Spacing of a uniform grid; rejects non-uniform input."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("grid must be a 1-D array with at least 2 points")
    d = np.diff(x)
    h = d[0]
    if h <= 0 or not np.allclose(d, h, rtol=_GRID_RTOL,
                                 atol=_GRID_RTOL * max(abs(h), 1.0)):
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


def cumulative_trapezoid(y, x):
    """Running trapezoid integral of ``y`` over ``x``, starting at 0 (scipy's
    ``cumulative_trapezoid(y, x, initial=0)``, same operation order)."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))
