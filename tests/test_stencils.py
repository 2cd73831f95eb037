import numpy as np
import pytest

from qflow.errors import ValidationError
from qflow.stencils import (_EDGE, _stencil_table, derivative, fd_weights,
                            grid_spacing, trapezoid_weights)


def _loop_derivative(f, h, m, order):
    """Reference: per-offset shifted products summed in stencil order."""
    n = f.shape[0]
    half, edge, center, edge_rows = _stencil_table(m, order)
    out = np.empty_like(f)
    acc = center[0] * f[0:n - 2 * half]
    for j in range(1, 2 * half + 1):
        acc = acc + center[j] * f[j:n - 2 * half + j]
    out[half:n - half] = acc
    out[:half] = edge_rows @ f[:edge]
    sign = -1.0 if m % 2 else 1.0
    out[n - half:] = (sign * (edge_rows @ f[::-1][:edge]))[::-1]
    return out / h**m


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
@pytest.mark.parametrize("order", [2, 4])
def test_polynomial_exactness(m, order):
    # stencils of accuracy p differentiate degree-p polynomials exactly,
    # including the one-sided edge rows
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=order + 1)
    x = np.linspace(-1.0, 2.0, 37)
    h = x[1] - x[0]
    got = derivative(_poly(coeffs, x), h, m, order)
    expected = _dpoly(coeffs, x, m)
    assert np.max(np.abs(got - expected)) < 1e-8 * max(1.0, np.max(np.abs(expected)))


@pytest.mark.parametrize("m,order,rate", [(1, 4, 4), (2, 4, 4), (1, 2, 2)])
def test_convergence_rate_on_sine(m, order, rate):
    errs = []
    for n in (33, 65, 129):
        x = np.linspace(0.0, np.pi, n)
        h = x[1] - x[0]
        got = derivative(np.sin(x), h, m, order)
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
        derivative(np.ones(4), 0.1, 1, 4)


def test_trapezoid_weights_integrate_linear():
    x = np.array([0.0, 0.5, 2.0, 3.0])
    w = trapezoid_weights(x)
    assert np.sum(w) == pytest.approx(3.0)
    assert np.sum(w * x) == pytest.approx(np.trapezoid(x, x))


@pytest.mark.parametrize("m,order", sorted(_EDGE))
def test_grid_of_exactly_one_edge_stencil(m, order):
    # n == edge: the mirrored rows read the whole grid, reversed
    n = _EDGE[(m, order)]
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=order + 1)
    x = np.linspace(0.0, 1.0, n)
    got = derivative(_poly(coeffs, x), x[1] - x[0], m, order)
    expected = _dpoly(coeffs, x, m)
    assert got.shape == (n,)
    assert np.max(np.abs(got - expected)) < 1e-7 * max(1.0, np.max(np.abs(expected)))


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("size", ["edge", "edge+1", 37, 401])
@pytest.mark.parametrize("smooth", [True, False])
def test_stacked_rows_bit_identical_to_single_derivatives(order, size, smooth):
    edge = max(_EDGE[(m, order)] for m in (1, 2, 3))
    n = {"edge": edge, "edge+1": edge + 1}.get(size, size)
    x = np.linspace(-8.0, 8.0, n)
    f = (np.exp(-0.5 * x**2) * np.cos(x) if smooth
         else np.random.default_rng(n).normal(size=n))
    h = x[1] - x[0]
    stacked = derivative(f, h, (1, 2, 3), order)
    singles = np.stack([derivative(f, h, m, order) for m in (1, 2, 3)])
    loops = np.stack([_loop_derivative(f, h, m, order) for m in (1, 2, 3)])
    assert stacked.shape == (3, n)
    assert np.array_equal(stacked, singles)
    assert np.array_equal(stacked, loops)


def test_stacked_short_grid_rejected():
    # the longest one-sided stencil of the stack sets the minimum
    with pytest.raises(ValidationError, match="6 < 7"):
        derivative(np.ones(6), 0.1, (1, 2, 3), 4)
