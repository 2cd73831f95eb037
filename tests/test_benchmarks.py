import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow.benchmarks import (error_norms, gaussian_alpha,
                              gaussian_scale_factor, gaussian_trajectory,
                              gaussian_wavefunction, ode_check_T)
from qflow.errors import ValidationError
from qflow.model import PhysicsParams

PARAMS = PhysicsParams()


class TestTrajectoryForm:
    def test_start_at_rest(self):
        q, qdot = gaussian_trajectory(1.0, 0.0, 1.0, PARAMS)
        assert q == 1.0 and qdot == 0.0

    def test_spread_factor(self):
        q, qdot = gaussian_trajectory(1.0, 2.0, 1.0, PARAMS)
        assert q == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert qdot == pytest.approx(0.25 * 2.0 / np.sqrt(2.0), abs=1e-12)

    def test_center_is_fixed_point(self):
        for t in (0.0, 0.7, 5.0):
            q, qdot = gaussian_trajectory(0.0, t, 1.0, PARAMS)
            assert q == 0.0 and qdot == 0.0

    def test_boost_adds_uniform_drift(self):
        p = PhysicsParams(hbar=2.0, mass=4.0)
        a = np.linspace(-3.0, 3.0, 7)
        q0, qdot0 = gaussian_trajectory(a, 1.5, 1.0, p)
        q, qdot = gaussian_trajectory(a, 1.5, 1.0, p, boost_k=3.0)
        # drift hbar k / m = 1.5
        assert np.array_equal(q, q0 + 1.5 * 1.5)
        assert np.array_equal(qdot, qdot0 + 1.5)

    def test_alpha_value(self):
        p = PhysicsParams(hbar=2.0, mass=4.0)
        assert gaussian_alpha(0.5, p) == pytest.approx((2.0 / (2 * 4 * 0.25)) ** 2)


class TestScaleFactorOde:
    @settings(max_examples=50, deadline=None)
    @given(t=st.floats(min_value=0, max_value=50),
           alpha=st.floats(min_value=0, max_value=10))
    def test_residual_vanishes(self, t, alpha):
        assert abs(ode_check_T(t, alpha)) <= 1e-12

    def test_both_sides_value(self):
        T, d2T = gaussian_scale_factor(2.0, 0.25)
        assert T == pytest.approx(np.sqrt(2.0))
        assert d2T == pytest.approx(0.0883883, abs=1e-7)
        assert 0.25 / T**3 == pytest.approx(0.0883883, abs=1e-7)

    def test_classical_limit(self):
        T, _ = gaussian_scale_factor(3.0, 0.0)
        assert T == 1.0 and ode_check_T(3.0, 0.0) == 0.0


class TestWavefunctionForm:
    def test_initial_fields(self):
        x = np.linspace(-3, 3, 7)
        rho, S = gaussian_wavefunction(x, 0.0, 1.0, PARAMS)
        assert rho == pytest.approx((2 * np.pi) ** -0.5 * np.exp(-x**2 / 2))
        assert np.all(S == 0.0)

    def test_spread_density(self):
        rho, _ = gaussian_wavefunction(np.array([0.0]), 2.0, 1.0, PARAMS)
        assert rho[0] == pytest.approx(0.2820948, abs=1e-7)

    def test_validated_phase_value(self):
        # S(1, 2) = 1/8 - pi/8 with hbar = m = sigma0 = 1: the quadratic
        # coefficient carries the factor t required by the phase-evolution
        # equation (confirmed by the spectral solver in the spectral tests)
        _, S = gaussian_wavefunction(np.array([1.0]), 2.0, 1.0, PARAMS)
        assert S[0] == pytest.approx(0.125 - np.pi / 8, abs=1e-12)

    def _closed_form_qhj(self, x, t, time_factor=True):
        """Hamilton-Jacobi residual from hand-derived closed-form pieces.

        S = alpha * t * x^2 / (2 sig2) - arctan(t/2)/2 (validated) or the
        variant with the quadratic coefficient alpha x^2 / (2 sig2) frozen
        in time; sig2 = 1 + alpha t^2, hbar = m = sigma0 = 1.
        """
        alpha = 0.25
        sig2 = 1.0 + alpha * t * t
        arctan_rate = 0.25 / sig2  # d/dt [arctan(t/2)/2]
        if time_factor:
            dSdt = 0.5 * alpha * x**2 * (1 - alpha * t * t) / sig2**2 - arctan_rate
            dSdx = alpha * t * x / sig2
        else:
            dSdt = -(alpha**2) * t * x**2 / sig2**2 - arctan_rate
            dSdx = alpha * x / sig2
        # V_Q = -(hbar^2/4m)(c'' + c'^2/2), c = -x^2/(2 sig2) + const
        c1 = -x / sig2
        c2 = -1.0 / sig2
        vq = -(1.0 / 4.0) * (c2 + 0.5 * c1**2)
        return dSdt + 0.5 * dSdx**2 + vq

    def test_phase_satisfies_hamilton_jacobi(self):
        x = np.linspace(-4, 4, 33)
        for t in (0.5, 1.0, 2.0, 3.7):
            r = self._closed_form_qhj(x, t, time_factor=True)
            assert np.max(np.abs(r)) <= 1e-12

    def test_phase_without_time_factor_fails(self):
        # the same residual for a time-independent quadratic coefficient is
        # far from zero: that variant cannot be a solution
        x = np.linspace(-4, 4, 33)
        r = self._closed_form_qhj(x, 2.0, time_factor=False)
        assert np.max(np.abs(r)) > 1e-2

    def test_consistent_with_trajectory_push_forward(self):
        # rho0(a)/J at a = x/T reproduces the field density exactly
        x = np.linspace(-6, 6, 201)
        t, sigma0 = 1.7, 1.0
        T, _ = gaussian_scale_factor(t, gaussian_alpha(sigma0, PARAMS))
        rho0 = (2 * np.pi * sigma0**2) ** -0.5 * np.exp(-(x / T) ** 2 / 2)
        pushed = rho0 / T
        rho, _ = gaussian_wavefunction(x, t, sigma0, PARAMS)
        assert np.max(np.abs(pushed - rho)) <= 1e-12


class TestErrorNorms:
    def test_identical_fields(self):
        x = np.linspace(0, 1, 11)
        f = np.sin(x) + 1j * x
        norms = error_norms(f, f, x)
        assert norms.l2 == 0.0 and norms.linf == 0.0
        assert norms.phase_reduced_l2 == 0.0

    @settings(max_examples=40, deadline=None)
    @given(phi=st.floats(min_value=-np.pi, max_value=np.pi))
    def test_global_phase_gauge(self, phi):
        x = np.linspace(-1, 1, 41)
        a = np.exp(-x**2) * np.exp(1j * x)
        norms = error_norms(a, np.exp(1j * phi) * a, x)
        assert norms.phase_reduced_l2 <= 1e-12

    def test_unit_support(self):
        x = np.linspace(0, 1, 101)
        norms = error_norms(np.zeros_like(x), np.ones_like(x), x)
        assert norms.l2 == pytest.approx(1.0)
        assert norms.linf == 1.0

    def test_empty_mask_rejected(self):
        x = np.linspace(0, 1, 5)
        with pytest.raises(ValidationError):
            error_norms(x, x, x, np.zeros(5, dtype=bool))
