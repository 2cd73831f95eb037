"""Finite-difference stencils on uniform grids.

Interior points use centred fourth-order stencils; the outermost points
fall back to one-sided stencils of the same order, mirrored with a sign
flip for odd derivatives at the right edge.  Every row of every requested
derivative, edge rows included, lives in one cached CSR operator per
grid size, so a call is a single sparse product.  Each row sums its
stencil in weight order starting from zero, and the scaling by ``h**m``
comes last.  Weights are generated from the Vandermonde system rather
than hard-coded tables, so every derivative's rows stay consistent by
construction.

A :class:`Stencil` binds that operator and the ``h**m`` column to one grid
and runs scipy's compiled CSR kernel on it; a caller that differentiates on
the same grid many times (the trajectory solver, once per right-hand side)
holds one, and :func:`derivative` builds one per call.
:meth:`Stencil.matrix` hands out the bound operator's CSR arrays, and
:func:`left_product` multiplies a dense matrix by such arrays, for
composing the operator with other linear maps once per run.

The kernels come from scipy's extension module ``_sparsetools``, loaded
from its file without importing ``scipy.sparse``: that package's
array-API layer imports most of numpy (``numpy.f2py``, ``numpy.testing``,
``numpy.ma``, ...) and took about 0.2 s of every command's start-up.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from functools import lru_cache
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)

import numpy as np

from .errors import ValidationError


def _load_sparsetools():
    """scipy's ``scipy.sparse._sparsetools``, loaded from its extension file
    without running the ``scipy.sparse`` package init."""
    name = "scipy.sparse._sparsetools"
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    finder = FileFinder(os.path.join(scipy_dir, "sparse"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    saved = sys.modules.get(name)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        # the loader registers the module under its name; left there, a
        # later ``import scipy.sparse`` would find it and never set the
        # package's ``_sparsetools`` attribute
        if saved is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = saved
    return module


_sparsetools = _load_sparsetools()

#: centred half-width per derivative m (fourth-order accuracy)
_HALF = {1: 2, 2: 2, 3: 3}
#: one-sided stencil length per m
_EDGE = {1: 5, 2: 6, 3: 7}


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


class Stencil:
    """The ``m``-th derivative (``m`` an int or a tuple) on a uniform grid of
    ``n`` points and spacing ``h``, as :func:`derivative` defines it.

    Holds the CSR arrays of ``_operator(n, ms)`` and the ``h**m``
    column, one entry per operator row.  A call runs scipy's CSR kernel
    (``csr_matvec``, or ``csr_matvecs`` for n-D ``f``) on a zeroed output,
    the kernel that ``op @ f`` runs, without the sparse-array dispatch
    around it, then divides by ``h**m``.  The kernel reads ``f`` unchecked,
    so the call checks its length first.  The output may be the caller's
    (``out=``), so a solver that differentiates once per right-hand side
    allocates nothing per call.
    """

    def __init__(self, n: int, h: float, m=1):
        single = np.ndim(m) == 0
        ms = (m,) if single else tuple(m)
        self.n = n
        self._csr = (len(ms) * n, n) + _operator(n, ms)
        self._h_m = np.repeat([h**k for k in ms], n)
        self._lead = () if single else (len(ms),)

    def __call__(self, f: np.ndarray, out=None) -> np.ndarray:
        """The derivative(s) of ``f``, shaped ``(len(m),) + f.shape`` for a
        tuple ``m`` and ``f.shape`` otherwise.  ``out``, a C-contiguous
        float array of that shape, receives the result in place of a new
        array: it is zeroed, filled by the kernel and divided by ``h**m``,
        the steps and bits of a call without it (the kernel rejects a
        non-float ``out``)."""
        f = np.asarray(f, dtype=float)
        if f.shape[:1] != (self.n,):
            raise ValidationError(f"stencil bound to {self.n} points got an "
                                  f"array of shape {f.shape}")
        rows, n, indptr, indices, data = self._csr
        shape = self._lead + f.shape
        if out is None:
            out = np.zeros(shape)
        elif out.shape != shape or not out.flags.c_contiguous:
            raise ValidationError(f"stencil output must be a C-contiguous "
                                  f"array of shape {shape}")
        else:
            out.fill(0.0)
        if f.ndim == 1:
            flat = out.reshape(rows)
            _sparsetools.csr_matvec(rows, n, indptr, indices, data, f, flat)
            flat /= self._h_m
        else:
            flat = out.reshape(rows, f.size // n)
            _sparsetools.csr_matvecs(rows, n, flat.shape[1], indptr, indices,
                                     data, f.ravel(), flat.ravel())
            flat /= self._h_m[:, None]
        return out

    def matrix(self):
        """The bound operator, ``h**m`` scaling folded in, as the CSR arrays
        ``(indptr, indices, data)`` of its ``len(m) * n`` rows (``data`` a
        new array, the index arrays the cached read-only ones), for
        composing it with other linear maps; a call stays the way to apply
        it (it scales last, this does not)."""
        _, _, indptr, indices, data = self._csr
        return indptr, indices, data / np.repeat(self._h_m, np.diff(indptr))


def left_product(C: np.ndarray, indptr, indices, data, n_cols: int) -> np.ndarray:
    """``C @ A`` for a dense ``C`` and the CSR arrays of ``A`` (``C.shape[1]``
    rows, ``n_cols`` columns), as a new C-contiguous array.

    Column ``k`` of the product sums ``C[:, j] * A[j, k]`` over the rows
    ``j`` of ``A`` in ascending order, starting from zero: scipy's kernel
    ``csc_matvecs`` on the transpose, whose CSC arrays are ``A``'s CSR
    arrays.  These are the sums, and bits, of scipy's ``C @ csr_array(A)``.
    The kernel reads its arrays unchecked, so the shapes are checked first.
    """
    if indptr.size != C.shape[1] + 1 or (indices.size and indices.max() >= n_cols):
        raise ValidationError(f"CSR arrays of {indptr.size - 1} rows do not fit "
                              f"a product of {C.shape} by {n_cols} columns")
    out = np.zeros((n_cols, C.shape[0]))
    _sparsetools.csc_matvecs(n_cols, C.shape[1], C.shape[0], indptr, indices,
                             data, np.ascontiguousarray(C.T).ravel(), out.ravel())
    return np.ascontiguousarray(out.T)


def derivative(f: np.ndarray, h: float, m=1) -> np.ndarray:
    """m-th derivative of samples ``f`` on a uniform grid of spacing ``h``.

    ``m`` may be a tuple of derivative orders; the result is then stacked,
    one row per entry of ``m``.  Every point, edge points included, sums its
    stencil in weight order starting from zero, and the division by
    ``h**m`` comes last, so each stacked row is bit-identical to the
    single-``m`` result.
    """
    f = np.asarray(f, dtype=float)
    return Stencil(f.shape[0], h, m)(f)


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


def cumulative_trapezoid(y, x):
    """Running trapezoid integral of ``y`` over ``x``, starting at 0 (scipy's
    ``cumulative_trapezoid(y, x, initial=0)``, same operation order)."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))
