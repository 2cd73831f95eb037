import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qflow.errors import ValidationError
from qflow.kinematics import (cofactor_matrix, hyper_cofactor, internal_energy,
                              jacobian, levi_civita, quantum_potential,
                              stress_eulerian, stress_lagrangian)
import qflow.kinematics as kinematics
from qflow.pipeline import (_chain_rule_stress, _gauss3, _smooth_rho3,
                            _synthetic_map)
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
        rho0, dr, d2r = _gauss3(pt)
        sig_l = stress_lagrangian(np.eye(3), np.zeros((3, 3, 3)),
                                  np.zeros((3, 3, 3, 3)), rho0, dr, d2r, 1.0, 1.0)
        sig_e, _ = stress_eulerian(rho0, dr, d2r, 1.0, 1.0)
        assert np.max(np.abs(sig_l - sig_e)) <= 1e-12 * np.max(np.abs(sig_e))

    def test_chain_rule_oracle(self):
        for pt in ([0.3, -0.4, 0.2], [-0.6, 0.1, 0.5]):
            pt = np.array(pt)
            _, g, second, third = _synthetic_map(pt)
            rho0, dr, d2r = _gauss3(pt)
            sig = stress_lagrangian(g, second, third, rho0, dr, d2r, 1.0, 1.0)
            oracle = _chain_rule_stress(pt, PARAMS)
            rel = np.max(np.abs(sig - oracle)) / np.max(np.abs(oracle))
            assert rel <= 1e-6

    def test_symmetry_emerges(self):
        pt = np.array([0.5, 0.3, -0.7])
        _, g, second, third = _synthetic_map(pt)
        rho0, dr, d2r = _gauss3(pt)
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
    def test_uniform(self):
        vq, valid = quantum_potential(2.0, np.zeros(3), 0.0, 1.0, 1.0)
        assert vq == 0.0 and valid

    def test_gaussian_values(self):
        for x, expected in ((0.0, 0.25), (1.0, 0.125)):
            rho, d1, d2 = _gaussian_1d_derivs(np.array([x]))
            grad = np.array([[d1[0], 0, 0]])
            vq, _ = quantum_potential(rho, grad, np.array([d2[0]]), 1.0, 1.0)
            assert vq[0] == pytest.approx(expected, abs=1e-12)


class TestInternalEnergy:
    def test_uniform(self):
        u, valid = internal_energy(3.0, np.zeros(3), 1.0, 1.0)
        assert u == 0.0 and valid

    def test_gaussian_value(self):
        rho, d1, _ = _gaussian_1d_derivs(np.array([1.0]))
        u, _ = internal_energy(rho, np.array([[d1[0], 0, 0]]), 1.0, 1.0)
        assert u[0] == pytest.approx(0.125, abs=1e-12)

    def test_product_density_splits(self):
        # rho = rho1(x1) rho2(x2) rho3(x3): the log-gradient form sums the
        # three one-dimensional contributions
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 1, (5, 3))
        sigmas = np.array([1.0, 0.7, 1.4])
        rho_i = (2 * np.pi * sigmas**2) ** -0.5 * np.exp(-pts**2 / (2 * sigmas**2))
        rho = np.prod(rho_i, axis=1)
        grad = rho[:, None] * (-pts / sigmas**2)
        total, _ = internal_energy(rho, grad, 1.0, 1.0)
        parts = np.zeros(len(pts))
        for k in range(3):
            gk = np.zeros((len(pts), 3))
            gk[:, k] = rho_i[:, k] * (-pts[:, k] / sigmas[k] ** 2)
            uk, _ = internal_energy(rho_i[:, k], gk, 1.0, 1.0)
            parts += uk
        assert np.max(np.abs(total - parts)) <= 1e-12
