import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qflow.errors import ValidationError
from qflow.kinematics import (cofactor_matrix, hyper_cofactor, jacobian,
                              levi_civita, stress_eulerian, stress_lagrangian)
import qflow.kinematics as kinematics
from qflow.pipeline import (_ORACLE_POINTS, _chain_rule_stress, _rich_map,
                            _rich_map_gradient, _smooth_rho3)
from qflow.model import PhysicsParams

PARAMS = PhysicsParams()

matrices = arrays(np.float64, (3, 3),
                  elements=st.floats(min_value=-2, max_value=2, width=64))

ULP = np.finfo(float).eps
_EPS = levi_civita()
_ABS_EPS = np.abs(_EPS)


def _einsum_jacobian(g):
    """The antisymmetric-symbol contraction that the closed form replaced."""
    return np.einsum("ijk,lmn,...il,...jm,...kn->...", _EPS, _EPS, g, g, g) / 6.0


def _einsum_cofactor(g):
    return 0.5 * np.einsum("ijk,lmn,...jm,...kn->...il", _EPS, _EPS, g, g)


def _jacobian_scale(g):
    """Sum of the magnitudes of the six products that make up det(g)."""
    a = np.abs(g)
    return np.einsum("ijk,lmn,...il,...jm,...kn->...", _ABS_EPS, _ABS_EPS,
                     a, a, a, optimize=True) / 6.0


def _cofactor_scale(g):
    a = np.abs(g)
    return 0.5 * np.einsum("ijk,lmn,...jm,...kn->...il", _ABS_EPS, _ABS_EPS,
                           a, a, optimize=True)


def _smooth_rho3_stacked(points):
    """The stacked-array form of ``pipeline._smooth_rho3`` it was rewritten from."""
    a = np.asarray(points, dtype=float)
    x1, x2, x3 = a[..., 0], a[..., 1], a[..., 2]
    g = -x1**2 / 2 - x2**2 / 3 - x3**2 / 4 + 0.2 * np.sin(x1) * np.cos(x2)
    g1 = -x1 + 0.2 * np.cos(x1) * np.cos(x2)
    g2 = -2.0 * x2 / 3 - 0.2 * np.sin(x1) * np.sin(x2)
    g3 = -x3 / 2
    g11 = -1.0 - 0.2 * np.sin(x1) * np.cos(x2)
    g22 = -2.0 / 3 - 0.2 * np.sin(x1) * np.cos(x2)
    g33 = np.full_like(x1, -0.5)
    g12 = -0.2 * np.cos(x1) * np.sin(x2)
    rho = np.exp(g)
    grad = np.stack([g1, g2, g3], axis=-1) * rho[..., None]
    zeros = np.zeros_like(x1)
    hess_g = np.stack([
        np.stack([g11, g12, zeros], axis=-1),
        np.stack([g12, g22, zeros], axis=-1),
        np.stack([zeros, zeros, g33], axis=-1),
    ], axis=-2)
    gg = np.stack([g1, g2, g3], axis=-1)
    hess = rho[..., None, None] * (gg[..., :, None] * gg[..., None, :] + hess_g)
    return rho, grad, hess


def _stress_eulerian_temporaries(rho, grad_rho, hess_rho, hbar, mass):
    """The four-temporary form of ``stress_eulerian`` it was rewritten from."""
    rho, valid = kinematics._floor_mask(rho, kinematics.RHO_FLOOR_REL)
    grad = np.asarray(grad_rho, dtype=float)
    hess = np.asarray(hess_rho, dtype=float)
    safe = np.where(valid, rho, 1.0)
    outer = grad[..., :, None] * grad[..., None, :]
    sigma = (hbar**2 / (4.0 * mass)) * (outer / safe[..., None, None] - hess)
    sigma = np.where(valid[..., None, None], sigma, 0.0)
    return sigma, valid


def _cube(n, half_width):
    axis = np.linspace(-half_width, half_width, n)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)


class TestJacobian:
    def test_identity(self):
        assert jacobian(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert jacobian(np.diag([2.0, 3.0, 4.0])) == pytest.approx(24.0)

    def test_singular(self):
        g = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 1.0, 0.5]])
        assert jacobian(g) == pytest.approx(0.0, abs=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(matrices)
    def test_matches_determinant(self, g):
        # numpy's det warns of a division by zero on some singular draws
        with np.errstate(divide="ignore", invalid="ignore"):
            det = np.linalg.det(g)
        assert jacobian(g) == pytest.approx(det, abs=1e-10)

    def test_levi_civita(self):
        eps = levi_civita()
        assert eps[0, 1, 2] == 1.0 and eps[1, 0, 2] == -1.0
        assert np.count_nonzero(eps) == 6


def _nested_chain_rule_stress(point, params, h=0.02):
    """The chain-rule oracle with row j of the spatial Hessian built from
    the inner derivative's component j alone, recomputed for each j."""
    offsets = np.arange(-2, 3)
    weights = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0

    def rho_of(a):
        r, _, _ = _smooth_rho3(*a)
        return r / jacobian(_rich_map_gradient(a))

    def d_space(f, a):
        g = _rich_map_gradient(a)
        J = jacobian(g)
        C = cofactor_matrix(g)
        grad_lbl = np.zeros(3)
        for l in range(3):
            for o, w in zip(offsets, weights):
                if w == 0.0:
                    continue
                shifted = a.copy()
                shifted[l] += o * h
                grad_lbl[l] += w * f(shifted)
            grad_lbl[l] /= h
        return (C @ grad_lbl) / J

    rho = rho_of(point)
    first = d_space(rho_of, point)
    second = np.zeros((3, 3))
    for j in range(3):
        second[j] = d_space(lambda a, jj=j: d_space(rho_of, a)[jj], point)
    second = 0.5 * (second + second.T)
    sigma, _ = stress_eulerian(rho, first, second, params.hbar, params.mass)
    return sigma


class TestCofactor:
    def test_identity(self):
        assert cofactor_matrix(np.eye(3)) == pytest.approx(np.eye(3))

    def test_diagonal(self):
        got = cofactor_matrix(np.diag([2.0, 3.0, 4.0]))
        assert got == pytest.approx(np.diag([12.0, 8.0, 6.0]))

    def test_identity_relation_over_seeded_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            while True:
                g = rng.uniform(-1, 1, (3, 3))
                if abs(np.linalg.det(g)) >= 0.3:
                    break
            J = jacobian(g)
            C = cofactor_matrix(g)
            resid = np.einsum("kj,ki->ij", g, C) - J * np.eye(3)
            assert np.max(np.abs(resid)) <= 1e-12 * abs(J)

    def test_matches_adjugate(self):
        rng = np.random.default_rng(5)
        g = rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3)
        adj = np.linalg.det(g) * np.linalg.inv(g)
        assert cofactor_matrix(g) == pytest.approx(adj.T)

    def test_component_major_layout_kept(self):
        # a component-major gradient gives a component-major C, same bits
        g = np.moveaxis(np.random.default_rng(9).normal(size=(3, 3, 4, 5, 6)),
                        (0, 1), (-2, -1))
        C = cofactor_matrix(g)
        assert C.strides == g.strides
        assert (np.ascontiguousarray(C).tobytes()
                == cofactor_matrix(np.ascontiguousarray(g)).tobytes())


class TestClosedForms:
    """The closed-form J and cofactors against the einsum contractions."""

    def test_random_gradients_within_8_ulp(self):
        g = np.random.default_rng(11).uniform(-1.0, 1.0, (100_000, 3, 3))
        J, J_scale = jacobian(g), _jacobian_scale(g)
        assert np.all(np.abs(J - _einsum_jacobian(g)) <= 8 * ULP * J_scale)
        assert np.all(np.abs(J - np.linalg.det(g)) <= 8 * ULP * J_scale)
        C_err = np.abs(cofactor_matrix(g) - _einsum_cofactor(g))
        assert np.all(C_err <= 8 * ULP * _cofactor_scale(g))

    @pytest.mark.parametrize("lead", [(), (7,), (2, 3, 4)])
    def test_shapes(self, lead):
        g = np.random.default_rng(13).normal(size=lead + (3, 3))
        J, C = jacobian(g), cofactor_matrix(g)
        assert np.shape(J) == lead and C.shape == lead + (3, 3)
        assert np.all(np.abs(J - _einsum_jacobian(g))
                      <= 8 * ULP * _jacobian_scale(g))
        assert np.all(np.abs(C - _einsum_cofactor(g))
                      <= 8 * ULP * _cofactor_scale(g))

    def test_jacobian_independent_of_cofactors(self, monkeypatch):
        # tensor_check's g^T C = J I must compare two separate formulas
        def fail(g):
            raise AssertionError("jacobian called cofactor_matrix")
        monkeypatch.setattr(kinematics, "cofactor_matrix", fail)
        g = np.random.default_rng(15).normal(size=(5, 3, 3))
        assert np.allclose(jacobian(g), np.linalg.det(g), rtol=1e-12, atol=1e-12)


class TestForceIdentityFields:
    """The one-buffer density and stress builds equal their stacked forms."""

    @pytest.mark.parametrize("half_width", [1.0, 12.0])
    def test_bit_identical_at_33(self, half_width):
        grid = _cube(33, half_width)
        new, old = _smooth_rho3(*np.moveaxis(grid, -1, 0)), _smooth_rho3_stacked(grid)
        for a, b in zip(new, old):
            assert np.array_equal(a, b)
        sigma, valid = stress_eulerian(*new, 1.0, 1.0)
        sigma_old, valid_old = _stress_eulerian_temporaries(*old, 1.0, 1.0)
        assert np.array_equal(sigma, sigma_old)
        assert np.array_equal(valid, valid_old)
        # the wide cube reaches the density floor in its corners
        assert valid.all() == (half_width == 1.0)

    def test_broadcast_inputs(self):
        rng = np.random.default_rng(16)
        rho = rng.uniform(0.5, 1.0, (4, 5))
        grad = rng.normal(size=3)
        hess = rng.normal(size=(5, 3, 3))
        sigma, _ = stress_eulerian(rho, grad, hess, 1.0, 2.0)
        ref, _ = _stress_eulerian_temporaries(rho, grad, hess, 1.0, 2.0)
        assert sigma.shape == (4, 5, 3, 3)
        assert np.array_equal(sigma, ref)

    def test_broadcast_inputs_partly_floored(self):
        # two points at the floor, and a Hessian that is not symmetric: each
        # entry subtracts its own hess[i, j]
        rng = np.random.default_rng(17)
        rho = rng.uniform(0.5, 1.0, (4, 5))
        rho[1, 2] = rho[3, 0] = 1e-20
        grad = rng.normal(size=(5, 3))
        hess = rng.normal(size=(4, 5, 3, 3))
        sigma, valid = stress_eulerian(rho, grad, hess, 1.0, 2.0)
        ref, valid_ref = _stress_eulerian_temporaries(rho, grad, hess, 1.0, 2.0)
        assert np.count_nonzero(~valid) == 2
        assert np.array_equal(valid, valid_ref)
        assert np.array_equal(sigma, ref)
        assert np.all(sigma[~valid] == 0.0)


class TestHyperCofactor:
    def test_identity_gradient(self):
        H = hyper_cofactor(np.eye(3))
        eye = np.eye(3)
        expected = (np.einsum("jl,mn->jmln", eye, eye)
                    - np.einsum("jn,ml->jmln", eye, eye))
        assert H == pytest.approx(expected)

    def test_degree_one_homogeneity(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(3, 3))
        assert hyper_cofactor(2 * g) == pytest.approx(2 * hyper_cofactor(g))

    def test_finite_difference_of_cofactor(self):
        rng = np.random.default_rng(9)
        g = rng.uniform(-1, 1, (3, 3)) + np.eye(3)
        H = hyper_cofactor(g)
        step = 1e-5
        for m in range(3):
            for n in range(3):
                gp = g.copy()
                gm = g.copy()
                gp[m, n] += step
                gm[m, n] -= step
                fd = (cofactor_matrix(gp) - cofactor_matrix(gm)) / (2 * step)
                assert np.max(np.abs(H[:, m, :, n] - fd)) <= 1e-8


def _gaussian_1d_derivs(x, sigma0=1.0):
    rho = (2 * np.pi * sigma0**2) ** -0.5 * np.exp(-x**2 / (2 * sigma0**2))
    d1 = rho * (-x / sigma0**2)
    d2 = rho * ((x / sigma0**2) ** 2 - 1 / sigma0**2)
    return rho, d1, d2


class TestStressEulerian:
    def test_uniform_density(self):
        sigma, valid = stress_eulerian(1.0, np.zeros(3), np.zeros((3, 3)), 1.0, 1.0)
        assert np.all(sigma == 0) and valid

    def test_gaussian_peak_value(self):
        rho, d1, d2 = _gaussian_1d_derivs(np.array([0.0]))
        grad = np.array([[d1[0], 0, 0]])
        hess = np.zeros((1, 3, 3))
        hess[0, 0, 0] = d2[0]
        sigma, valid = stress_eulerian(rho, grad, hess, 1.0, 1.0)
        assert sigma[0, 0, 0] == pytest.approx(0.0997356, abs=1e-7)
        assert valid[0]

    def test_symmetric_by_construction(self):
        rng = np.random.default_rng(4)
        grad = rng.normal(size=3)
        h = rng.normal(size=(3, 3))
        hess = h + h.T
        sigma, _ = stress_eulerian(0.7, grad, hess, 1.0, 1.0)
        assert np.max(np.abs(sigma - sigma.T)) == 0.0

    def test_floor_masks(self):
        rho = np.array([1.0, 1e-20])
        grad = np.zeros((2, 3))
        hess = np.zeros((2, 3, 3))
        _, valid = stress_eulerian(rho, grad, hess, 1.0, 1.0)
        assert valid[0] and not valid[1]


class TestStressLagrangian:
    def test_identity_map_uniform_density(self):
        sig = stress_lagrangian(np.eye(3), np.zeros((3, 3, 3)),
                                np.zeros((3, 3, 3, 3)), 1.0, np.zeros(3),
                                np.zeros((3, 3)), 1.0, 1.0)
        assert np.max(np.abs(sig)) == 0.0

    def test_identity_map_matches_eulerian(self):
        pt = np.array([0.4, -0.2, 0.8])
        rho0, dr, d2r = _smooth_rho3(*pt)
        sig_l = stress_lagrangian(np.eye(3), np.zeros((3, 3, 3)),
                                  np.zeros((3, 3, 3, 3)), rho0, dr, d2r, 1.0, 1.0)
        sig_e, _ = stress_eulerian(rho0, dr, d2r, 1.0, 1.0)
        assert np.max(np.abs(sig_l - sig_e)) <= 1e-12 * np.max(np.abs(sig_e))

    def test_chain_rule_oracle(self):
        for pt in ([0.3, -0.4, 0.2], [-0.6, 0.1, 0.5]):
            pt = np.array(pt)
            g, second, third = _rich_map(pt)
            rho0, dr, d2r = _smooth_rho3(*pt)
            sig = stress_lagrangian(g, second, third, rho0, dr, d2r, 1.0, 1.0)
            oracle = _chain_rule_stress(pt, PARAMS)
            rel = np.max(np.abs(sig - oracle)) / np.max(np.abs(oracle))
            assert rel <= 1e-6

    def test_chain_rule_oracle_shares_inner_derivatives(self):
        # the oracle takes each inner derivative once, the nested form once
        # per output component
        for pt in _ORACLE_POINTS:
            assert (_chain_rule_stress(pt, PARAMS).tobytes()
                    == _nested_chain_rule_stress(pt, PARAMS).tobytes())

    def test_batched_oracle_equals_the_nested_form(self):
        # each point reads its one-point value, alone or in a batch
        rng = np.random.default_rng(39)
        for points in (_ORACLE_POINTS, rng.uniform(-0.9, 0.9, (32, 3))):
            nested = np.array([_nested_chain_rule_stress(pt, PARAMS)
                               for pt in points])
            one_by_one = np.array([_chain_rule_stress(pt, PARAMS)
                                   for pt in points])
            assert one_by_one.tobytes() == nested.tobytes()
            assert _chain_rule_stress(points, PARAMS).tobytes() == nested.tobytes()

    def test_rich_map_stacks_are_its_derivatives(self):
        # central differences of the gradient give the second stack, and of
        # the second stack the third
        h = 1e-5
        for pt in _ORACLE_POINTS:
            _, second, third = _rich_map(pt)
            for n in range(3):
                step = h * np.eye(3)[n]
                g_plus, second_plus, _ = _rich_map(pt + step)
                g_minus, second_minus, _ = _rich_map(pt - step)
                assert np.max(np.abs((g_plus - g_minus) / (2 * h)
                                     - second[..., n])) <= 1e-10
                assert np.max(np.abs((second_plus - second_minus) / (2 * h)
                                     - third[..., n])) <= 1e-10

    def test_rich_map_stacks_are_symmetric(self):
        rng = np.random.default_rng(5)
        _, second, third = _rich_map(rng.uniform(-1, 1, (16, 3)))
        assert np.array_equal(second, np.swapaxes(second, -1, -2))
        for axes in ((-1, -2), (-1, -3), (-2, -3)):
            assert np.array_equal(third, np.swapaxes(third, *axes))

    def test_symmetry_emerges(self):
        pt = np.array([0.5, 0.3, -0.7])
        g, second, third = _rich_map(pt)
        rho0, dr, d2r = _smooth_rho3(*pt)
        sig = stress_lagrangian(g, second, third, rho0, dr, d2r, 1.0, 1.0)
        assert np.max(np.abs(sig - sig.T)) <= 1e-12 * np.max(np.abs(sig))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            stress_lagrangian(np.zeros((3, 3)), np.zeros((3, 3, 3)),
                              np.zeros((3, 3, 3, 3)), 1.0, np.zeros(3),
                              np.zeros((3, 3)), 1.0, 1.0)
        with pytest.raises(ValidationError):
            stress_lagrangian(np.eye(3), np.zeros((3, 3, 3)),
                              np.zeros((3, 3, 3, 3)), -1.0, np.zeros(3),
                              np.zeros((3, 3)), 1.0, 1.0)


class TestQuantumPotential:
    """The one V_Q formula in three dimensions, read as the force identity
    reads it: c1 = |grad rho| / rho and c2 = lap rho / rho - c1^2."""

    @staticmethod
    def _vq(rho, grad, hess):
        grad_sq = np.sum(grad * grad, axis=-1) / rho**2
        return PARAMS.quantum_potential(
            np.sqrt(grad_sq), np.trace(hess, axis1=-2, axis2=-1) / rho - grad_sq)

    def test_uniform(self):
        assert self._vq(2.0, np.zeros(3), np.zeros((3, 3))) == 0.0

    def test_gaussian_values(self):
        # the separable unit Gaussian: V_Q = 3/4 - |x|^2 / 8
        for x, expected in (((0.0, 0.0, 0.0), 0.75), ((1.0, 0.0, 0.0), 0.625)):
            x = np.array(x)
            rho = np.exp(-x @ x / 2)
            grad = -x * rho
            hess = (np.outer(x, x) - np.eye(3)) * rho
            assert self._vq(rho, grad, hess) == pytest.approx(expected, abs=1e-12)
