import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
# a Gram matmul and one single-column LAPACK solve per fitted field.
_FACTORIALS = np.array([float(math.factorial(j)) for j in range(9)])


def _reference_betas(cfg, x, fields):
    """Fit coefficients (n, degree + 1, len(fields)), the local spacing and
    the Gram matrices."""
    k = cfg.stencil_size
    idx = _brute_force_windows(x, k)[:, None] + np.arange(k)[None, :]
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
    return np.concatenate(betas, axis=-1), h_loc, gram


def _reference_qtm_rhs(params, cfg, x, c, S):
    beta, h_loc, _ = _reference_betas(cfg, x, (S, c))
    m = params.mass
    v = beta[:, 1, 0] / h_loc / m
    vx = beta[:, 2, 0] / h_loc**2 / m
    vq = params.quantum_potential(beta[:, 1, 1] / h_loc,
                                  beta[:, 2, 1] / h_loc**2)
    ldens = 0.5 * m * v**2 - params.potential_energy(x) - vq
    return v, -vx, ldens, vx


def _brute_force_windows(x, k):
    """The k-nearest window start as first defined: the first minimum of the
    window cost over the starts i, i - 1, ..., i - k + 1, clipped."""
    n = x.size
    cand = np.clip(np.arange(n)[:, None] - np.arange(k)[None, :], 0, n - k)
    cost = np.maximum(x[:, None] - x[cand], x[cand + k - 1] - x[:, None])
    return cand[np.arange(n), np.argmin(cost, axis=1)]


@st.composite
def _sorted_positions(draw):
    """Strictly increasing positions and a window size k in 5..25.

    Either free gaps, or whole-number gaps on a coarse scale, where equal
    window costs are common; every position may then be nudged by up to
    three ulp, so costs tie or nearly tie.  n runs from k (every window
    clipped at both ends) to k + 40.
    """
    k = draw(st.integers(min_value=5, max_value=25))
    n = draw(st.integers(min_value=k, max_value=k + 40))
    if draw(st.booleans()):
        gaps = np.array(draw(st.lists(st.floats(min_value=1e-3, max_value=10.0),
                                      min_size=n - 1, max_size=n - 1)))
    else:
        gaps = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0])) * np.array(
            draw(st.lists(st.integers(min_value=1, max_value=3),
                          min_size=n - 1, max_size=n - 1)), dtype=float)
    x = draw(st.sampled_from([0.0, -7.25, 1e3])) + np.concatenate(
        ([0.0], np.cumsum(gaps)))
    ulps = draw(st.lists(st.integers(min_value=-3, max_value=3),
                         min_size=n, max_size=n))
    x = x + np.array(ulps) * np.spacing(x)
    assume(np.all(np.diff(x) > 0))
    return x, k


def _perturbed_particles():
    """201 particles, jittered and stretched, with non-Gaussian c and S."""
    rng = np.random.default_rng(3)
    a = np.linspace(-5.0, 5.0, 201)
    x = a + 0.3 * (a[1] - a[0]) * rng.uniform(-1.0, 1.0, a.size) + 0.01 * a**2
    init = _truncated_gaussian_state(1.0, PARAMS, a, boost_k=0.7)
    return x, np.log(init.rho0) + 0.1 * np.sin(3.0 * a), init.s0 + 0.2 * np.cos(a)


def _record_fits(monkeypatch):
    fits = []
    fit = qtm._taylor_fits

    def recording(x, fields, *args):
        fits.append((len(fields), fit(x, fields, *args)))
        return fits[-1][1]

    monkeypatch.setattr(qtm, "_taylor_fits", recording)
    return fits


def _coefficient_error(beta, ref_beta):
    """Each particle's error in (h f', h^2 f'') of each field, relative to
    the size of its whole reference coefficient vector: (n, fields)."""
    return (np.linalg.norm(beta.transpose(2, 0, 1) - ref_beta[:, 1:3], axis=1)
            / np.linalg.norm(ref_beta, axis=1))


class TestFitKernel:
    CFG = QtmConfig(t_final=1.0)

    @settings(max_examples=200, deadline=None)
    @given(_sorted_positions())
    def test_windows_match_brute_force(self, case):
        x, k = case
        assert np.array_equal(qtm._windows(x, k), _brute_force_windows(x, k))

    @pytest.mark.parametrize("degree", [2, 4, 8, 12])
    def test_basis_is_scaled_powers(self, degree):
        # the system the kernel gathers from its moment sums is the Gram
        # matrix and right-hand sides of the basis t^j / j!, unknowns in the
        # order 0, 3, ..., degree, 1, 2
        rng = np.random.default_rng(degree)
        t = rng.uniform(-4.0, 4.0, 9)
        w = np.exp(-(t / 3.0) ** 2)
        fields = rng.normal(size=(2, 9))
        moments = np.concatenate(
            [[np.sum(w * t**p) for p in range(2 * degree + 1)]]
            + [[np.sum(w * t**j * f) for j in range(degree + 1)] for f in fields])
        rows, scale = qtm._system_layout(degree, 2)
        system = moments[rows] * scale[:, :, 0]
        order = [0, *range(3, degree + 1), 1, 2]
        basis = np.stack([t**j / math.factorial(j) for j in order], axis=-1)
        gram = (basis * w[:, None]).T @ basis
        rhs = (basis * w[:, None]).T @ fields.T
        np.testing.assert_allclose(system, np.hstack((gram, rhs)),
                                   rtol=1e-13, atol=0.0)

    def test_one_solve_per_rhs(self, monkeypatch):
        # the S and c fits share one moment buffer and one elimination
        fits = _record_fits(monkeypatch)
        qtm._qtm_rhs(PARAMS, self.CFG, *_perturbed_particles())
        assert [n_fields for n_fields, _ in fits] == [2]

    def test_rhs_matches_reference_kernel(self, monkeypatch):
        x, c, S = _perturbed_particles()
        assert np.all(np.diff(x) > 0)
        fits = _record_fits(monkeypatch)
        out = qtm._qtm_rhs(PARAMS, self.CFG, x, c, S)
        ref_beta, _, _ = _reference_betas(self.CFG, x, (S, c))
        # each particle's Taylor coefficients (f' h, f'' h^2) agree to
        # rounding relative to the size of its coefficient vector
        assert np.max(_coefficient_error(fits[0][1][0], ref_beta)) <= 1e-12
        # an m-th derivative divides the rounding of the whole coefficient
        # vector by h^m, so the outputs agree less closely relative to
        # themselves: 3.5e-11 on this set
        for got, want in zip(out, _reference_qtm_rhs(PARAMS, self.CFG, x, c, S)):
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=1e-9 * np.max(np.abs(want)))

    @pytest.mark.parametrize("degree", [2, 8])
    def test_fits_match_reference_kernel_at_degree(self, degree):
        x, c, S = _perturbed_particles()
        cfg = QtmConfig(t_final=1.0, degree=degree)
        beta, _ = qtm._taylor_fits(x, (S, c), degree, cfg.stencil_size,
                                   cfg.weight_width_mult)
        ref_beta, _, gram = _reference_betas(cfg, x, (S, c))
        # both solves are backward stable, so each particle's coefficients
        # agree to a multiple of its cond(G) eps: 0.10 of it at degree 2
        # (cond(G) <= 1e2) and 0.012 at degree 8 (cond(G) up to 9e10 in the
        # one-sided end windows) on this set, at most 0.2 over other jitters
        err = _coefficient_error(beta, ref_beta)
        bound = np.linalg.cond(gram) * np.finfo(float).eps
        assert np.all(err <= bound[:, None])
        if degree == 2:
            assert np.max(err) <= 1e-12


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
        with pytest.raises(QtmDerivativeError, match="particle") as in_order:
            mwls_derivatives(x, np.sin(x), degree=6, stencil_size=5)
        # the index is the caller's, not the sorted one
        with pytest.raises(QtmDerivativeError) as reversed_order:
            mwls_derivatives(x[::-1], np.sin(x[::-1]), degree=6, stencil_size=5)
        assert reversed_order.value.particle == x.size - 1 - in_order.value.particle

    @pytest.mark.parametrize("field", ["positions", "values"])
    def test_non_finite_input_rejected(self, field):
        # a NaN value used to come back as NaN derivatives at its neighbours
        x = np.linspace(0.0, 1.0, 20)
        inputs = {"positions": x.copy(), "values": np.sin(x)}
        inputs[field][3] = np.nan
        with pytest.raises(ValidationError, match=rf"{field}\[3\] = nan"):
            mwls_derivatives(**inputs)

    def test_degree_below_two_rejected(self):
        # the fits solve for f' and f'' only
        x = np.linspace(0.0, 1.0, 20)
        with pytest.raises(ValidationError, match="degree must be >= 2"):
            mwls_derivatives(x, np.sin(x), degree=1)

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

    def test_snapshot_velocity_is_the_fit_of_its_state(self, qtm_run):
        # the end-of-step right-hand side's velocity, kept on the snapshot,
        # is what a fresh fit of S on the stored positions gives
        _, result = qtm_run
        config = QtmConfig(t_final=1.0)
        assert len(result.snapshots) >= 3
        for snap in result.snapshots:
            d1, _ = mwls_derivatives(snap.x, snap.S, config.degree,
                                     config.stencil_size, config.weight_width_mult)
            assert np.array_equal(snap.v, d1 / PARAMS.mass)

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
            ParticleSet(x=x, log_rho=np.zeros(3), S=np.zeros(3), t=0.0,
                        v=np.zeros(3))

    def test_particle_set_rejects_non_finite(self):
        # NaN passes the ordering test
        x = np.array([0.0, np.nan, 1.0])
        with pytest.raises(ValidationError, match=r"x\[1\] = nan"):
            ParticleSet(x=x, log_rho=np.zeros(3), S=np.zeros(3), t=0.0,
                        v=np.zeros(3))

    def test_particle_set_requires_velocity(self):
        # every snapshot carries the fitted velocity
        with pytest.raises(TypeError, match="'v'"):
            ParticleSet(x=np.arange(3.0), log_rho=np.zeros(3), S=np.zeros(3),
                        t=0.0)

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
