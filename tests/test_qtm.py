import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow.benchmarks import gaussian_trajectory
from qflow.errors import (QtmDerivativeError, TrajectoryCrossing,
                          ValidationError)
from qflow.model import PhysicsParams
from qflow.pipeline import _truncated_gaussian_state
from qflow.qtm import (ParticleSet, QtmConfig, mwls_derivatives, qtm_evolve)

PARAMS = PhysicsParams()


class TestMwls:
    def test_quadratic_reproduction_exact(self):
        x = np.linspace(0.0, 1.0, 9)  # a single 9-point stencil
        d1, d2 = mwls_derivatives(x, x**2, degree=4, stencil_size=9)
        assert np.max(np.abs(d2 - 2.0)) < 1e-9
        assert np.max(np.abs(d1 - 2.0 * x)) < 1e-9

    def test_sine_first_derivative_accuracy(self):
        # the 9-point weighted fit is a smoother, not an interpolant: its
        # fourth-order error constant on sin at this spacing sits at ~3e-6
        x = np.arange(-2.0, 2.0, 0.05)
        d1, _ = mwls_derivatives(x, np.sin(x), degree=4, stencil_size=9)
        assert np.max(np.abs(d1 - np.cos(x))) <= 5e-6

    def test_duplicate_positions_rejected(self):
        x = np.linspace(0, 1, 12).copy()
        x[5] = x[4]
        with pytest.raises(QtmDerivativeError, match="particle 4"):
            mwls_derivatives(x, np.sin(x))

    def test_rank_deficient_fit_names_particle(self):
        # more polynomial coefficients than stencil points
        x = np.linspace(0, 1, 7)
        with pytest.raises(QtmDerivativeError, match="particle"):
            mwls_derivatives(x, np.sin(x), degree=6, stencil_size=5)

    def test_too_few_particles(self):
        with pytest.raises(ValidationError):
            mwls_derivatives(np.linspace(0, 1, 5), np.zeros(5), stencil_size=9)

    def test_unsorted_input_handled(self):
        rng = np.random.default_rng(8)
        x = np.sort(rng.uniform(-1, 1, 40))
        vals = np.cos(x)
        order = rng.permutation(40)
        d1_sorted, _ = mwls_derivatives(x, vals)
        d1_scrambled, _ = mwls_derivatives(x[order], vals[order])
        assert np.allclose(d1_scrambled, d1_sorted[order])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=10**6))
    def test_polynomial_reproduction_property(self, degree_poly, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(-2, 2, 25))
        if np.min(np.diff(x)) < 1e-6:
            return
        coeffs = rng.normal(size=degree_poly + 1)
        vals = sum(c * x**i for i, c in enumerate(coeffs))
        d1, _ = mwls_derivatives(x, vals, degree=4, stencil_size=9)
        exact = sum(i * c * x ** (i - 1) for i, c in enumerate(coeffs) if i >= 1)
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(d1 - np.asarray(exact))) < 1e-7 * scale


@pytest.fixture(scope="module")
def qtm_run():
    labels = np.linspace(-5, 5, 201)
    init = _truncated_gaussian_state(1.0, PARAMS, labels)
    config = QtmConfig(t_final=1.0, snapshot_stride=200)
    return init, qtm_evolve(init, PARAMS, config)


class TestQtmEvolve:
    def test_zero_time_returns_seeded_state(self):
        labels = np.linspace(-5, 5, 101)
        init = _truncated_gaussian_state(1.0, PARAMS, labels)
        result = qtm_evolve(init, PARAMS, QtmConfig(t_final=0.0))
        assert len(result.snapshots) == 1
        snap = result.snapshots[0]
        assert np.all(snap.x == labels)
        assert np.allclose(snap.log_rho, np.log(init.rho0))
        assert np.allclose(np.abs(result.psi), np.sqrt(init.rho0))

    def test_tracks_closed_form_paths(self, qtm_run):
        init, result = qtm_run
        final = result.snapshots[-1]
        i1 = np.argmin(np.abs(init.labels - 1.0))
        q_exact, _ = gaussian_trajectory(1.0, 1.0, 1.0, PARAMS)
        assert abs(final.x[i1] - q_exact) <= 5e-3

    def test_discrete_norm(self, qtm_run):
        _, result = qtm_run
        assert result.snapshots[-1].discrete_norm() == pytest.approx(1.0,
                                                                     abs=1e-2)

    def test_density_routes_agree(self, qtm_run):
        init, result = qtm_run
        final = result.snapshots[-1]
        other_route = np.log(init.rho0) - result.div_integral
        assert np.max(np.abs(final.log_rho - other_route)) <= 1e-3

    def test_phase_at_center(self, qtm_run):
        init, result = qtm_run
        final = result.snapshots[-1]
        i0 = np.argmin(np.abs(init.labels))
        assert final.S[i0] == pytest.approx(-0.5 * np.arctan(0.5), abs=1e-4)

    def test_four_rhs_fits_per_step(self, monkeypatch):
        import qflow.qtm as qtm
        rhs = qtm._qtm_rhs
        calls = []

        def counting(*args):
            calls.append(1)
            return rhs(*args)

        monkeypatch.setattr(qtm, "_qtm_rhs", counting)
        init = _truncated_gaussian_state(1.0, PARAMS, np.linspace(-5, 5, 101))
        qtm_evolve(init, PARAMS, QtmConfig(t_final=0.2, dt=0.005))
        # one start-up evaluation, then k2, k3, k4 and the end-of-step
        # evaluation that doubles as the next step's k1
        assert len(calls) == 1 + 4 * 40

    def test_seeding_gaussian_is_bitwise_unchanged(self):
        # the closed form the seeding held as its own copy, at sigma0 = 1
        a = np.linspace(-5, 5, 201)
        k = 0.7
        raw = (2.0 * np.pi * 1.0) ** -0.5 * np.exp(-(a / 1.0) ** 2 / 2.0)
        scale = 1.0 / np.trapezoid(raw, a)
        rho0 = scale * (2.0 * np.pi * 1.0) ** -0.5 * np.exp(-(a / 1.0) ** 2 / 2.0)
        init = _truncated_gaussian_state(1.0, PARAMS, a, boost_k=k)
        assert np.array_equal(init.rho0, rho0)
        assert np.array_equal(init.s0, PARAMS.hbar * k * a)
        assert np.array_equal(init.forms.rho0(a), rho0)
        assert np.array_equal(init.forms.drho0(a), rho0 * (-a / 1.0))
        assert np.array_equal(init.forms.d2rho0(a), rho0 * ((a / 1.0) ** 2 - 1.0))
        assert np.array_equal(init.forms.ds0(a), np.full_like(a, PARAMS.hbar * k))

    def test_crossing_aborts(self):
        labels = np.linspace(-5, 5, 101)
        init = _truncated_gaussian_state(1.0, PARAMS, labels)
        compressive = init.s0 - 1.5 * np.log(np.cosh(2.0 * labels))
        init = _truncated_gaussian_state(1.0, PARAMS, labels)
        init = type(init)(labels=labels, rho0=init.rho0, s0=compressive,
                          forms=None)
        with pytest.raises(TrajectoryCrossing):
            qtm_evolve(init, PARAMS, QtmConfig(t_final=2.0))

    def test_particle_set_validation(self):
        x = np.array([0.0, 1.0, 0.5])
        with pytest.raises(ValidationError):
            ParticleSet(x=x, log_rho=np.zeros(3), S=np.zeros(3),
                        weights=np.ones(3), t=0.0)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            QtmConfig(t_final=-1.0).validate()
        with pytest.raises(ValidationError):
            QtmConfig(t_final=1.0, dt=0.0).validate()
