from itertools import permutations

import numpy as np
import pytest
from scipy import sparse

from qflow.errors import ValidationError
from qflow.stencils import (_EDGE, Stencil, _operator, _stencil_table,
                            derivative, fd_weights, grid_spacing, left_product,
                            trapezoid_weights)

#: accuracy order of every stencil, named in the ids of the cases it sets
ORDER = 4


def _loop_derivative(f, h, m):
    """Reference: per-offset products summed in stencil order, every point
    of the last axis."""
    n = f.shape[-1]
    half, edge, center, edge_rows = _stencil_table(m)
    sign = -1.0 if m % 2 else 1.0
    out = np.empty_like(f)
    acc = center[0] * f[..., 0:n - 2 * half]
    for j in range(1, 2 * half + 1):
        acc = acc + center[j] * f[..., j:n - 2 * half + j]
    out[..., half:n - half] = acc
    for i in range(half):
        left = edge_rows[i, 0] * f[..., 0]
        right = sign * edge_rows[i, 0] * f[..., n - 1]
        for j in range(1, edge):
            left = left + edge_rows[i, j] * f[..., j]
            right = right + sign * edge_rows[i, j] * f[..., n - 1 - j]
        out[..., i] = left
        out[..., n - 1 - i] = right
    return out / h**m


def _blas_edge_rows(f, h, m):
    """Second reference, the earlier edge formula: the ``half`` points at
    each end of the last axis as BLAS products of the one-sided rows,
    summed in the order BLAS chooses, with each point's magnitude scale
    sum(|w f|) / h**m."""
    half, edge, _, edge_rows = _stencil_table(m)
    sign = -1.0 if m % 2 else 1.0
    mirrored = f[..., ::-1][..., :edge]
    rows = np.concatenate([f[..., :edge] @ edge_rows.T,
                           (sign * (mirrored @ edge_rows.T))[..., ::-1]], axis=-1)
    scale = np.concatenate([np.abs(f[..., :edge]) @ np.abs(edge_rows).T,
                            (np.abs(mirrored) @ np.abs(edge_rows).T)[..., ::-1]],
                           axis=-1)
    return rows / h**m, scale / h**m


def _poly(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def _dpoly(coeffs, x, m):
    out = np.zeros_like(x)
    for i, c in enumerate(coeffs):
        if i >= m:
            fac = 1.0
            for j in range(m):
                fac *= i - j
            out = out + fac * c * x ** (i - m)
    return out


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("order", [ORDER])
def test_polynomial_exactness(m, order):
    # stencils of accuracy p differentiate degree-p polynomials exactly,
    # including the one-sided edge rows
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=order + 1)
    x = np.linspace(-1.0, 2.0, 37)
    h = x[1] - x[0]
    got = derivative(_poly(coeffs, x), h, m)
    expected = _dpoly(coeffs, x, m)
    assert np.max(np.abs(got - expected)) < 1e-8 * max(1.0, np.max(np.abs(expected)))


@pytest.mark.parametrize("m,order,rate", [(1, ORDER, 4), (2, ORDER, 4)])
def test_convergence_rate_on_sine(m, order, rate):
    errs = []
    for n in (33, 65, 129):
        x = np.linspace(0.0, np.pi, n)
        h = x[1] - x[0]
        got = derivative(np.sin(x), h, m)
        exact = np.sin(x + m * np.pi / 2)
        errs.append(np.max(np.abs(got - exact)))
    observed = np.log2(errs[0] / errs[1])
    assert observed > rate - 0.35


def test_fd_weights_center_first_derivative():
    w = fd_weights(np.arange(-2, 3), 1)
    assert np.allclose(w, [1 / 12, -8 / 12, 0, 8 / 12, -1 / 12])


def test_grid_spacing_rejects_nonuniform():
    with pytest.raises(ValidationError):
        grid_spacing(np.array([0.0, 1.0, 2.5]))
    assert grid_spacing(np.linspace(0, 1, 11)) == pytest.approx(0.1)


def test_short_grid_rejected():
    with pytest.raises(ValidationError):
        derivative(np.ones(4), 0.1, 1)


def test_trapezoid_weights_integrate_linear():
    x = np.array([0.0, 0.5, 2.0, 3.0])
    w = trapezoid_weights(x)
    assert np.sum(w) == pytest.approx(3.0)
    assert np.sum(w * x) == pytest.approx(np.trapezoid(x, x))


@pytest.mark.parametrize("m,order", [(m, ORDER) for m in sorted(_EDGE)])
def test_grid_of_exactly_one_edge_stencil(m, order):
    # n == edge: the mirrored rows read the whole grid, reversed; a
    # one-sided stencil of accuracy p for the m-th derivative has p + m points
    n = _EDGE[m]
    assert n == order + m
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=order + 1)
    x = np.linspace(0.0, 1.0, n)
    got = derivative(_poly(coeffs, x), x[1] - x[0], m)
    expected = _dpoly(coeffs, x, m)
    assert got.shape == (n,)
    assert np.max(np.abs(got - expected)) < 1e-7 * max(1.0, np.max(np.abs(expected)))


@pytest.mark.parametrize("order", [ORDER])
@pytest.mark.parametrize("size", ["edge", "edge+1", 37, 401])
@pytest.mark.parametrize("smooth", [True, False])
def test_stacked_rows_bit_identical_to_single_derivatives(order, size, smooth):
    # the third derivative's one-sided rows are the longest: order + 3 points
    edge = order + 3
    n = {"edge": edge, "edge+1": edge + 1}.get(size, size)
    x = np.linspace(-8.0, 8.0, n)
    f = (np.exp(-0.5 * x**2) * np.cos(x) if smooth
         else np.random.default_rng(n).normal(size=n))
    h = x[1] - x[0]
    stacked = derivative(f, h, (1, 2, 3))
    singles = np.stack([derivative(f, h, m) for m in (1, 2, 3)])
    loops = np.stack([_loop_derivative(f, h, m) for m in (1, 2, 3)])
    assert stacked.shape == (3, n)
    assert np.array_equal(stacked, singles)
    assert np.array_equal(stacked, loops)


def test_stacked_short_grid_rejected():
    # the longest one-sided stencil of the stack sets the minimum
    with pytest.raises(ValidationError, match="6 < 7"):
        derivative(np.ones(6), 0.1, (1, 2, 3))


@pytest.mark.parametrize("order", [ORDER])
@pytest.mark.parametrize("size", ["edge", "edge+1", 37, 401])
def test_edge_rows_within_rounding_of_blas_products(order, size):
    # the edge rows sum in weight order, where the BLAS products summed in
    # an order of their own: the two agree to rounding of each row's scale
    edge = order + 3
    n = {"edge": edge, "edge+1": edge + 1}.get(size, size)
    x = np.linspace(-8.0, 8.0, n)
    h = x[1] - x[0]
    rng = np.random.default_rng(7 + n)
    fs = [np.exp(-0.5 * x**2) * np.cos(x), np.random.default_rng(n).normal(size=n)]
    fs += [g.T for g in np.array_split(rng.normal(size=(n, 10_000)), 4, axis=1)]
    eps = np.finfo(float).eps
    for f in fs:
        got = derivative(f, h, (1, 2, 3))
        for k, m in enumerate((1, 2, 3)):
            half = _stencil_table(m)[0]
            ends = np.r_[0:half, n - half:n]
            blas, scale = _blas_edge_rows(f, h, m)
            assert np.array_equal(got[k], _loop_derivative(f, h, m))
            assert np.all(np.abs(got[k][..., ends] - blas) <= 8 * eps * scale)


def _csr_array(indptr, indices, data, n):
    """scipy's sparse array on CSR arrays of ``n`` columns."""
    return sparse.csr_array((data, indices, indptr),
                            shape=(indptr.size - 1, n))


def _sparse_product(f, h, m):
    """Reference: scipy's ``op @ row`` on the cached operator for each row
    of ``f`` along its last axis, then the division by the h**m column."""
    ms = (m,) if np.ndim(m) == 0 else tuple(m)
    n = f.shape[-1]
    op = _csr_array(*_operator(n, ms), n)
    out = np.stack([(op @ row).reshape(len(ms), n) for row in f.reshape(-1, n)],
                   axis=1)
    out /= np.array([h**k for k in ms])[:, None, None]
    out = out.reshape((len(ms),) + f.shape)
    return out[0] if np.ndim(m) == 0 else out


_ALL_MS = [1, 2, 3] + [p for r in (1, 2, 3) for p in permutations((1, 2, 3), r)]


@pytest.mark.parametrize("cols", [2, 4])
@pytest.mark.parametrize("size", ["edge", "edge+1", 37, 41, 201, 401, 801])
@pytest.mark.parametrize("m", _ALL_MS, ids=str)
def test_bound_kernel_bit_identical_to_sparse_product(cols, size, m):
    # the bound kernel differentiates the last axis and sums each row as
    # scipy's CSR kernel does: the bits of ``op @ row`` on every row of
    # every layout of f, at h = 1 too; ``cols`` is the row count of the
    # 2-D and 3-D layouts
    ms = (m,) if np.ndim(m) == 0 else m
    edge = max(_EDGE[k] for k in ms)
    n = {"edge": edge, "edge+1": edge + 1}.get(size, size)
    rng = np.random.default_rng(n)
    h = 16.0 / (n - 1)
    block = rng.normal(size=(2 * cols, 2 * n))
    # the particle solver's (3, n) state block (x, c, S), its last row at
    # rest: zeros of either sign, which a sum started from its first
    # product instead of zero could end on -0
    state = rng.normal(size=(3, n)) * np.array([[1.0], [1e-3], [1e4]])
    state[2] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    layouts = {
        "1-D": block[0, :n].copy(),
        "1-D strided": block[1, ::2],
        "(cols, n)": block[:cols, :n].copy(),
        "(cols, n) strided": block[::2, ::2],
        "(2, cols, n)": block[:, :n].reshape(2, cols, n).copy(),
        "Fortran transpose": np.asfortranarray(block[:cols, :n].T).T,
        "state block": state,
    }
    for name, f in layouts.items():
        want = _sparse_product(f, h, m)
        got = Stencil(n, h, m)(f)
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name
        assert np.array_equal(derivative(f, h, m), got), name
        assert np.array_equal(Stencil(n, 1.0, m)(f), _sparse_product(f, 1.0, m)), name
    assert not np.signbit(Stencil(n, 1.0, m)(state)[..., 2, :]).any()
    # inf and NaN entries give a non-finite output exactly where scipy's is,
    # without a warning (pytest raises warnings as errors; two adjacent
    # infs meet weights of both signs, inf - inf)
    state[0, n // 2:n // 2 + 2], state[1, 1], state[2, n - 1] = np.inf, np.nan, -np.inf
    want = _sparse_product(state, h, m)
    for row in range(3):
        assert not np.isfinite(want[..., row, :]).all()
    assert np.array_equal(Stencil(n, h, m)(state), want, equal_nan=True)


@pytest.mark.parametrize("m", [1, (1, 2, 3)], ids=str)
def test_out_buffer_gets_the_bits_of_a_new_array(m):
    # stale values in a caller's buffer never reach the result
    n, h = 37, 0.3
    stencil = Stencil(n, h, m)
    rng = np.random.default_rng(1)
    for f in (rng.normal(size=n), rng.normal(size=(2, 3, n))):
        ref = stencil(f)
        out = np.full(ref.shape, np.nan)
        assert stencil(f, out=out) is out
        assert np.array_equal(out, ref)


def test_out_buffer_of_another_shape_or_layout_rejected():
    stencil = Stencil(37, 0.1, (1, 2, 3))
    f = np.ones(37)
    for out in (np.empty(3 * 37), np.empty((3, 38)), np.empty((37, 3)).T,
                np.empty((3, 37), dtype=np.float32), np.empty((3, 37), dtype=int)):
        with pytest.raises(ValidationError, match="C-contiguous"):
            stencil(f, out=out)


def test_bound_kernel_rejects_other_lengths():
    # a stencil bound to n points reads only arrays of n points along the
    # last axis
    stencil = Stencil(37, 0.1, (1, 2, 3))
    for f in (np.ones(36), np.ones(38), np.ones((2, 36)), np.ones((37, 2)),
              np.float64(1.0)):
        with pytest.raises(ValidationError, match="bound to 37 points"):
            stencil(f)


@pytest.mark.parametrize("m", [1, (1, 2, 3)], ids=str)
def test_matrix_is_the_scaled_operator(m):
    # the CSR arrays compose into other maps; they scale the weights
    # first, so they agree with a call to rounding, not bit for bit
    n, h = 41, 0.2
    stencil = Stencil(n, h, m)
    f = np.sin(np.linspace(-4, 4, n))
    ref = stencil(f)
    got = (_csr_array(*stencil.matrix(), n) @ f).reshape(ref.shape)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the cached operator the calls run is left as it was
    assert np.array_equal(stencil(f), derivative(f, h, m))


def test_cached_operator_is_read_only():
    # matrix() hands out the cached index arrays, so they cannot be written
    indptr, indices, data = _operator(41, (1,))
    for array in (indptr, indices, data) + Stencil(41, 0.2).matrix()[:2]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


@pytest.mark.parametrize("rows,cols", [(7, 7), (41, 82), (401, 802)])
def test_left_product_bit_identical_to_scipy(rows, cols):
    # dense times CSR sums the rows of A in ascending order, scipy's
    # ``C @ csr_array`` to the bit; the product leaves C as it was
    rng = np.random.default_rng(rows)
    A = sparse.random_array((rows, cols), density=0.1, format="csr", rng=rng)
    A.data = rng.normal(size=A.nnz)
    C = rng.normal(size=(25, rows))
    kept = C.copy()
    got = left_product(C, A.indptr, A.indices, A.data, cols)
    assert got.flags.c_contiguous and got.shape == (25, cols)
    assert got.tobytes() == np.ascontiguousarray(C @ A).tobytes()
    assert np.array_equal(C, kept)


def test_left_product_rejects_arrays_of_another_shape():
    A = sparse.csr_array(np.eye(4))
    C = np.ones((2, 4))
    for rows, cols in ((C[:, :3], 4), (C, 3)):
        with pytest.raises(ValidationError, match="do not fit"):
            left_product(rows, A.indptr, A.indices, A.data, cols)
