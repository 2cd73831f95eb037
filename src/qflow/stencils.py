"""Finite-difference stencils on uniform grids.

Interior points use centred fourth-order stencils; the outermost points
fall back to one-sided stencils of the same order, mirrored with a sign
flip for odd derivatives at the right edge.  Every row of every requested
derivative, edge rows included, lives in one cached CSR operator per
grid size.  Each row sums its stencil in weight order starting from zero,
and the scaling by ``h**m`` comes last.  Weights are generated from the
Vandermonde system rather than hard-coded tables, so every derivative's
rows stay consistent by construction.

A :class:`Stencil` binds that operator and ``h**m`` to one grid and
differentiates the last axis of its input; a caller that differentiates on
the same grid many times holds one, and :func:`derivative` builds one per
call.  :meth:`Stencil.matrix` hands out the bound operator's CSR arrays,
and :func:`left_product` multiplies a dense matrix by such arrays, for
composing the operator with other linear maps once per run.

Every stencil product is a :class:`Stencil` call, one kernel for 1-D input,
the particle solver's ``(3, n)`` state block and the trajectory solver's
modal basis alike: the centred rows as flat-slice multiply-adds and the
edge rows, like every row of :func:`left_product`, through
:func:`_row_sums`, which adds the ``k``-th entry of every row in one
gather-multiply-add, ``k`` ascending.  Each row sums its entries in stored
order from zero, the sums and bits of a compiled CSR product row by row
(scipy's ``op @ f``, the tests' reference).  Only this module reads the
operator's row layout.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import groupby

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
    """Row ``i`` of ``out`` is the sum over CSR row ``i``'s entries, in
    stored order and starting from zero, of weight times ``x[column]``: the
    sums, and bits, of a CSR product run row by row; returns ``out``.

    ``plan`` is ``(order, ranks)`` of :func:`_by_rank`; with
    ``(at[order], ranks)`` row ``i``'s sum lands in ``out[at[i]]`` instead,
    and the other rows of ``out`` are left as they are.  ``x`` and ``out``
    may have trailing axes if the weights given to :func:`_by_rank` do.
    Callers run it under ``np.errstate(all="ignore")``: as quiet as a
    compiled kernel, a non-finite input gives a non-finite output, which
    they check.
    """
    order, ranks = plan
    acc = np.zeros(order.shape + out.shape[1:])
    for rows, cols, w in ranks:
        acc[:rows] += w * x[cols]
    out[order] = acc
    return out


@lru_cache(maxsize=64)
def _plan(n: int, ms: tuple, rows: int):
    """How :class:`Stencil` runs ``_operator(n, ms)`` on ``rows`` leading
    rows of ``n`` points, read as one flat row: ``(centre, edges)``; cached.

    ``centre`` holds, per run of orders ``ms[k0:k1]`` sharing a half width
    ``hw``, the output rows ``k0:k1``, the output columns ``hw:-hw`` and the
    centred weights as ``(k1 - k0, 1)`` columns, each paired with the flat
    input slice it multiplies.  ``edges`` is the :func:`_row_sums` plan of
    the one-sided rows at both ends of every leading row, its ``order`` the
    places of their sums in the flat output: a centred slice there
    straddles two leading rows.
    """
    indptr, indices, data = _operator(n, ms)
    size = rows * n
    centre = []
    for hw, run in groupby(range(len(ms)), key=lambda k: _HALF[ms[k]]):
        ks = list(run)
        w = np.array([_stencil_table(ms[k])[2] for k in ks]).T[..., None]
        centre.append((slice(ks[0], ks[-1] + 1), slice(hw, size - hw),
                       [(wj, slice(j, j + size - 2 * hw)) for j, wj in enumerate(w)]))
    # operator row r = k * n + p at leading row l reads the flat input from
    # l * n and lands at flat output (k * rows + l) * n + p
    ends = [k * n + p for k, m in enumerate(ms)
            for p in (*range(_HALF[m]), *range(n - _HALF[m], n))]
    spans = [slice(indptr[r], indptr[r + 1]) for r in ends]
    lead = np.arange(rows)
    order, ranks = _by_rank(
        np.concatenate(([0], np.cumsum(np.repeat([s.stop - s.start for s in spans],
                                                 rows)))),
        np.concatenate([(indices[s] + n * lead[:, None]).ravel() for s in spans]),
        np.concatenate([np.tile(data[s], rows) for s in spans]))
    at = np.concatenate([(r // n * rows + lead) * n + r % n for r in ends])
    return centre, (at[order], ranks)


class Stencil:
    """The ``m``-th derivative (``m`` an int or a tuple) along the last axis
    of arrays of ``n`` points on a uniform grid of spacing ``h``, as
    :func:`derivative` defines it.

    A call reads its C-contiguous input as one flat row.  Each centred
    weight multiplies one flat slice, which is wrong only where the slice
    straddles two leading rows; the one-sided sums at both ends of every
    row overwrite those points (:func:`_row_sums`).  Every sum adds its
    entries in weight order from zero, and the division by ``h**m`` comes
    last, skipped when every ``h**m`` is 1.  The plan of a call shape is
    cached (:func:`_plan`) and held by the instance, and the output may be
    the caller's (``out=``).
    """

    def __init__(self, n: int, h: float, m=1):
        single = np.ndim(m) == 0
        self._ms = (m,) if single else tuple(m)
        self.n = n
        # rejects a grid too short for the stencils
        self._csr = _operator(n, self._ms)
        self._h_m = np.array([[h**k] for k in self._ms])
        self._scaled = bool((self._h_m != 1.0).any())
        self._lead = () if single else (len(self._ms),)
        self._plans = {}

    def __call__(self, f: np.ndarray, out=None) -> np.ndarray:
        """The derivative(s) of ``f`` along its last axis, shaped
        ``(len(m),) + f.shape`` for a tuple ``m`` and ``f.shape`` otherwise.
        ``out``, a C-contiguous float64 array of that shape, receives the
        result in place of a new array, with the bits of a call without
        it."""
        f = np.asarray(f, dtype=float, order="C")
        if f.shape[-1:] != (self.n,):
            raise ValidationError(f"stencil bound to {self.n} points got an "
                                  f"array of shape {f.shape}")
        shape = self._lead + f.shape
        if out is None:
            out = np.empty(shape)
        elif (out.shape != shape or out.dtype != np.float64
              or not out.flags.c_contiguous):
            raise ValidationError(f"stencil output must be a C-contiguous "
                                  f"float64 array of shape {shape}")
        rows = f.size // self.n
        plan = self._plans.get(rows)
        if plan is None:
            plan = self._plans[rows] = _plan(self.n, self._ms, rows)
        centre, edges = plan
        x, acc = f.reshape(-1), out.reshape(len(self._ms), -1)
        with np.errstate(all="ignore"):
            for ks, cols, terms in centre:
                inner = acc[ks, cols]
                inner.fill(0.0)
                for w, at in terms:
                    inner += w * x[at]
            _row_sums(edges, x, acc.reshape(-1))
        if self._scaled:
            acc /= self._h_m
        return out

    def matrix(self):
        """The bound operator, ``h**m`` scaling folded in, as the CSR arrays
        ``(indptr, indices, data)`` of its ``len(m) * n`` rows (``data`` a
        new array, the index arrays the cached read-only ones), for
        composing it with other linear maps; a call stays the way to apply
        it (it scales last, this does not)."""
        indptr, indices, data = self._csr
        return indptr, indices, data / np.repeat(np.repeat(self._h_m, self.n),
                                                 np.diff(indptr))


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
    with np.errstate(all="ignore"):
        out = _row_sums(_by_rank(t_indptr, rows[by_col], data[by_col, None]),
                        np.ascontiguousarray(C.T), np.empty((n_cols, C.shape[0])))
    return np.ascontiguousarray(out.T)


def derivative(f: np.ndarray, h: float, m=1) -> np.ndarray:
    """m-th derivative along the last axis of samples ``f`` on a uniform
    grid of spacing ``h``.

    ``m`` may be a tuple of derivative orders; the result is then stacked,
    one row per entry of ``m``.  Every point, edge points included, sums its
    stencil in weight order starting from zero, and the division by
    ``h**m`` comes last, so each stacked row is bit-identical to the
    single-``m`` result.
    """
    return Stencil(np.shape(f)[-1], h, m)(f)


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
