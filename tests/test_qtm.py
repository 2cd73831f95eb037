import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow.benchmarks import gaussian_trajectory
import qflow.qtm as qtm
from qflow.errors import (NumericalInstability, QtmDerivativeError,
                          TrajectoryCrossing, ValidationError)
from qflow.model import MAX_STEPS, PhysicsParams
from qflow.pipeline import _truncated_gaussian_state
from qflow.qtm import (ParticleSet, QtmConfig, mwls_derivatives, qtm_evolve)

PARAMS = PhysicsParams()

# Reference fit kernel: the power basis by ``**`` divided by the factorials,
# and one single-column solve per fitted field.
_FACTORIALS = np.array([1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0])


def _reference_betas(cfg, x, fields):
    """Fit coefficients (n, degree + 1, len(fields)) and the local spacing."""
    k = cfg.stencil_size
    idx = qtm._windows(x, k)[:, None] + np.arange(k)[None, :]
    xs = x[idx]
    d = xs - x[:, None]
    h_loc = (xs[:, -1] - xs[:, 0]) / (k - 1)
    w = np.exp(-((d / (cfg.weight_width_mult * h_loc[:, None])) ** 2))
    t = d / h_loc[:, None]
    p = cfg.degree + 1
    basis = t[:, :, None] ** np.arange(p)[None, None, :] / _FACTORIALS[None, None, :p]
    weighted = basis * w[:, :, None]
    gram = np.matmul(weighted.transpose(0, 2, 1), basis)
    wt = weighted.transpose(0, 2, 1)
    betas = [np.linalg.solve(gram, np.matmul(wt, f[idx][:, :, None]))
             for f in fields]
    return np.concatenate(betas, axis=-1), h_loc


def _reference_qtm_rhs(params, cfg, x, c, S):
    beta, h_loc = _reference_betas(cfg, x, (S, c))
    m = params.mass
    v = beta[:, 1, 0] / h_loc / m
    vx = beta[:, 2, 0] / h_loc**2 / m
    vq = params.quantum_potential(beta[:, 1, 1] / h_loc,
                                  beta[:, 2, 1] / h_loc**2)
    ldens = 0.5 * m * v**2 - params.potential_energy(x) - vq
    return v, -vx, ldens, vx


def _perturbed_particles():
    """201 particles, jittered and stretched, with non-Gaussian c and S."""
    rng = np.random.default_rng(3)
    a = np.linspace(-5.0, 5.0, 201)
    x = a + 0.3 * (a[1] - a[0]) * rng.uniform(-1.0, 1.0, a.size) + 0.01 * a**2
    init = _truncated_gaussian_state(1.0, PARAMS, a, boost_k=0.7)
    return x, np.log(init.rho0) + 0.1 * np.sin(3.0 * a), init.s0 + 0.2 * np.cos(a)


def _record_solves(monkeypatch):
    solves = []
    solve = qtm._solve_fits

    def recording(gram, rhs):
        solves.append(solve(gram, rhs))
        return solves[-1]

    monkeypatch.setattr(qtm, "_solve_fits", recording)
    return solves


class TestFitKernel:
    CFG = QtmConfig(t_final=1.0)

    @pytest.mark.parametrize("degree", [2, 4, 8, 12])
    def test_basis_is_scaled_powers(self, degree):
        t = np.random.default_rng(degree).uniform(-4.0, 4.0, (201, 9))
        basis = qtm._scaled_powers(t, degree)
        exact = np.stack([t**j / math.factorial(j) for j in range(degree + 1)],
                         axis=-1)
        np.testing.assert_allclose(basis, exact, rtol=1e-14, atol=0.0)

    def test_one_solve_per_rhs(self, monkeypatch):
        solves = _record_solves(monkeypatch)
        qtm._qtm_rhs(PARAMS, self.CFG, *_perturbed_particles())
        assert len(solves) == 1

    def test_rhs_matches_reference_kernel(self, monkeypatch):
        x, c, S = _perturbed_particles()
        assert np.all(np.diff(x) > 0)
        solves = _record_solves(monkeypatch)
        out = qtm._qtm_rhs(PARAMS, self.CFG, x, c, S)
        ref_beta, _ = _reference_betas(self.CFG, x, (S, c))
        # each particle's Taylor coefficients (f, f' h, f'' h^2 / 2, ...)
        # agree to rounding relative to their own size
        err = (np.linalg.norm(solves[0] - ref_beta, axis=1)
               / np.linalg.norm(ref_beta, axis=1))
        assert np.max(err) <= 1e-12
        # an m-th derivative divides the rounding of the whole coefficient
        # vector by h^m, so the outputs agree less closely relative to
        # themselves: 1.4e-11 on this set, up to 1.3e-10 on other jitters
        for got, want in zip(out, _reference_qtm_rhs(PARAMS, self.CFG, x, c, S)):
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=1e-9 * np.max(np.abs(want)))


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

    @pytest.mark.parametrize("degree,stencil_size,fragment", [
        (1, 9, "degree must be >= 2"),
        (4, 4, "stencil_size must be >= degree + 1 = 5"),
        (8, 8, "stencil_size must be >= degree + 1 = 9"),
    ])
    def test_fit_shape_validation(self, degree, stencil_size, fragment):
        cfg = QtmConfig(t_final=1.0, degree=degree, stencil_size=stencil_size)
        with pytest.raises(ValidationError, match=re.escape(fragment)):
            cfg.validate()

    def test_fewer_particles_than_stencil_rejected(self):
        init = _truncated_gaussian_state(1.0, PARAMS, np.linspace(-5, 5, 21))
        with pytest.raises(ValidationError, match="stencil_size = 25"):
            qtm_evolve(init, PARAMS, QtmConfig(t_final=0.1, stencil_size=25))

    def test_step_budget(self):
        init = _truncated_gaussian_state(1.0, PARAMS, np.linspace(-5, 5, 101))
        with pytest.raises(ValidationError, match="over the budget"):
            qtm_evolve(init, PARAMS,
                       QtmConfig(t_final=1.0, dt=0.5 / MAX_STEPS))

    def test_non_finite_state_aborts(self, monkeypatch):
        # NaN passes both ordering checks; only the finite check stops it
        rhs = qtm._qtm_rhs
        calls = []

        def poisoned(*args):
            calls.append(1)
            out = rhs(*args)
            if len(calls) == 6:    # the k2 stage of the second step
                out = tuple(np.full_like(u, np.nan) for u in out)
            return out

        monkeypatch.setattr(qtm, "_qtm_rhs", poisoned)
        init = _truncated_gaussian_state(1.0, PARAMS, np.linspace(-5, 5, 101))
        with pytest.raises(NumericalInstability,
                           match="non-finite particle state at t = 0.01"):
            qtm_evolve(init, PARAMS, QtmConfig(t_final=0.2, dt=0.005))
        assert len(calls) == 8
