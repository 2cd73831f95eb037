import dataclasses
import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import PchipInterpolator

from qflow import stencils
from qflow.benchmarks import (error_norms, gaussian_trajectory,
                              gaussian_wavefunction)
from qflow.errors import (PhaseInconsistencyWarning, TrajectoryCrossing,
                          ValidationError)
from qflow.lagrangian import SolverConfig, evolve
from qflow.model import (AnalyticForms, EulerianField, InitialState,
                         PhysicsParams, TrajectoryState, assemble_wavefunction,
                         make_gaussian_state)
from qflow.reconstruction import (_pchip_linear_edges, _pchip_slopes,
                                  advect_labels_check,
                                  continuity_euler_residuals, eulerian_moments,
                                  invert_map, lagrangian_moments,
                                  phase_consistency_deviation, qhj_residual,
                                  reconstruct_wavefunction)
from qflow.spectral import reference_fields, split_step_evolve

PARAMS = PhysicsParams()
LABELS = np.linspace(-8, 8, 401)
INIT = make_gaussian_state(1.0, PARAMS, LABELS)


def _exact_traj(t, boost=0.0):
    """Closed-form snapshot, optionally Galilean-boosted; chi is the
    closed-form phase S(q, t) (S0 = 0), so the snapshot is quasi-potential."""
    q, qdot = gaussian_trajectory(LABELS, t, 1.0, PARAMS)
    _, S = gaussian_wavefunction(q, t, 1.0, PARAMS)
    chi = S + PARAMS.mass * boost * q + 0.5 * PARAMS.mass * boost**2 * t
    return TrajectoryState(labels=LABELS, q=q + boost * t, qdot=qdot + boost,
                           chi=chi, t=t)


def _reconstruct_at(traj, x):
    """The field a reconstruction from the single snapshot ``traj`` gives."""
    return reconstruct_wavefunction([traj], INIT, PARAMS, x)


def _analytic_field(t, x, boost=0.0):
    """Closed-form Eulerian fields, optionally Galilean-boosted."""
    rho, S = gaussian_wavefunction(x - boost * t, t, 1.0, PARAMS)
    alpha = 0.25
    v = (x - boost * t) * alpha * t / (1 + alpha * t**2) + boost
    if boost:
        S = S + PARAMS.mass * boost * (x - boost * t) \
            + 0.5 * PARAMS.mass * boost**2 * t
    psi = assemble_wavefunction(rho, S, PARAMS.hbar)
    return EulerianField(x=x, t=t, rho=rho, S=S, v=v, psi=psi)


def _scipy_pchip_linear_edges(xs, ys):
    """Reference: the interpolant as built on scipy's ``PchipInterpolator``."""
    p = PchipInterpolator(xs, ys, extrapolate=False)

    def f(x):
        x = np.asarray(x, dtype=float)
        out = p(x)
        lo = x <= xs[1]
        hi = x >= xs[-2]
        if np.any(lo):
            s = (ys[1] - ys[0]) / (xs[1] - xs[0])
            out[lo] = ys[0] + s * (x[lo] - xs[0])
        if np.any(hi):
            s = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            out[hi] = ys[-2] + s * (x[hi] - xs[-2])
        return out

    return f


def _knot_data(kind, n, rng):
    """Uneven knots and values: monotone, sign-changing, or with flat
    segments (so both slope branches run)."""
    xs = np.cumsum(rng.uniform(0.05, 1.0, n)) - 0.4 * n
    if kind == "monotone":
        ys = np.cumsum(rng.uniform(0.0, 1.0, n))
    elif kind == "signed":
        ys = rng.normal(size=n)
    else:
        ys = np.round(rng.normal(size=n))
    return xs, ys


class TestNumpyKernels:
    @pytest.mark.parametrize("kind", ["monotone", "signed", "flat"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 40])
    def test_pchip_bit_identical_to_scipy(self, kind, n):
        rng = np.random.default_rng([n, len(kind)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(25):
                xs, ys = _knot_data(kind, n, rng)
                x = np.concatenate((xs, [xs[1], xs[-2]],
                                    rng.uniform(xs[0] - 0.5, xs[-1] + 0.5, 64)))
                got = _pchip_linear_edges(xs, ys)(x)
                want = _scipy_pchip_linear_edges(xs, ys)(x)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_flat_segments_take_the_zero_slope_branch(self):
        xs = np.arange(6.0)
        ys = np.array([0.0, 1.0, 1.0, 2.0, 0.5, 0.0])
        _, _, d = _pchip_slopes(xs, ys)
        # a flat secant beside knots 1, 2; a sign change at knot 3
        assert np.array_equal(d[1:4], [0.0, 0.0, 0.0])
        assert d[4] < 0
        x = np.linspace(0.0, 5.0, 101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(_pchip_linear_edges(xs, ys)(x),
                                  _scipy_pchip_linear_edges(xs, ys)(x))

    def test_non_finite_data_rejected(self):
        # as scipy's constructor does: never a silent NaN in a(x)
        xs = np.arange(5.0)
        for bad in ((xs, np.array([0.0, 1.0, np.nan, 3.0, 4.0])),
                    (np.array([0.0, 1.0, np.inf, 3.0, 4.0]), xs)):
            with pytest.raises(ValidationError, match="finite"):
                _pchip_linear_edges(*bad)

    def test_signed_zero_matches_scipy(self):
        # at the knot valued -0.0 every power-basis term is -0.0; scipy sums
        # from +0.0, so the value there is +0.0 (the sign reaches the CSVs)
        xs = np.arange(6.0)
        ys = np.array([0.5, 0.25, -0.0, -1.0, -20.0, -21.0])
        got = _pchip_linear_edges(xs, ys)(xs)
        assert np.array_equal(np.signbit(got),
                              np.signbit(_scipy_pchip_linear_edges(xs, ys)(xs)))
        assert not np.signbit(got[2])

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_cumulative_trapezoid_bit_identical_to_scipy(self, n):
        rng = np.random.default_rng(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(20):
                x = np.cumsum(rng.uniform(0.05, 1.0, n))
                y = rng.normal(size=n)
                assert np.array_equal(stencils.cumulative_trapezoid(y, x),
                                      cumulative_trapezoid(y, x, initial=0.0))


class TestInvertMap:
    def test_identity_at_start(self):
        x = np.linspace(-10, 10, 257)
        a_of_x, mask = invert_map(_exact_traj(0.0), x)
        inside = (x >= -8) & (x <= 8)
        assert np.array_equal(mask, inside)
        assert np.max(np.abs(a_of_x[mask] - x[mask])) < 1e-12

    def test_spread_map_inverse_value(self):
        a_of_x, mask = invert_map(_exact_traj(2.0), np.array([1.0]))
        assert mask[0]
        assert a_of_x[0] == pytest.approx(0.7071068, abs=1e-6)

    def test_no_extrapolation(self):
        traj = _exact_traj(0.0)
        a_of_x, mask = invert_map(traj, np.array([8.5, -9.0]))
        assert not mask.any()
        assert np.all(np.isnan(a_of_x))

    def test_round_trip_on_labels(self):
        traj = _exact_traj(1.3)
        a_of_x, mask = invert_map(traj, traj.q)
        assert mask.all()
        assert np.max(np.abs(a_of_x - LABELS)) < 1e-8

    def test_folded_map_rejected(self):
        # defense-in-depth path: a folded map cannot be built through the
        # validating constructor, so forge one
        traj = object.__new__(TrajectoryState)
        q = LABELS.copy()
        q[7] = q[9]
        for name, val in (("labels", LABELS), ("q", q),
                          ("qdot", np.zeros_like(q)),
                          ("chi", np.zeros_like(q)), ("t", 0.0)):
            object.__setattr__(traj, name, val)
        with pytest.raises(TrajectoryCrossing):
            invert_map(traj, np.linspace(-1, 1, 5))


class TestPushForward:
    def test_density_resample_at_start(self):
        x = np.linspace(-8, 8, 501)
        field = _reconstruct_at(_exact_traj(0.0), x)
        expected = INIT.forms.rho0(x)
        assert np.max(np.abs(field.rho[field.mask] - expected[field.mask])) < 1e-8

    def test_density_spread_peak(self):
        field = _reconstruct_at(_exact_traj(2.0), np.array([0.0]))
        assert field.rho[0] == pytest.approx(0.2820948, abs=1e-6)

    def test_density_norm_preserved(self):
        x = np.linspace(-12, 12, 1024, endpoint=False)
        field = _reconstruct_at(_exact_traj(2.0), x)
        norm = np.trapezoid(field.rho[field.mask], x[field.mask])
        assert abs(norm - 1.0) <= 1e-4

    def test_velocity_at_rest(self):
        field = _reconstruct_at(_exact_traj(0.0), np.linspace(-5, 5, 21))
        assert np.max(np.abs(field.v[field.mask])) == 0.0

    def test_velocity_spread_value(self):
        field = _reconstruct_at(_exact_traj(2.0), np.array([1.0]))
        assert field.v[0] == pytest.approx(0.25, abs=1e-6)

    def test_velocity_boosted_uniform(self):
        field = _reconstruct_at(_exact_traj(0.0, boost=1.0),
                                np.linspace(-5, 5, 41))
        assert field.v[field.mask] == pytest.approx(np.ones(field.mask.sum()),
                                                    abs=1e-9)


@pytest.fixture(scope="module")
def short_run():
    return evolve(INIT, PARAMS, SolverConfig(t_final=0.02, snapshot_stride=25))


MIXTURE_X = np.linspace(-12, 12, 256, endpoint=False)
HUMPS = ((0.6, -1.0, 0.8), (0.4, 1.2, 0.9))


def _mixture(a, k=0):
    """k-th derivative (k = 0, 1, 2) of the benchmark's unnormalized
    two-hump density."""
    a = np.asarray(a, dtype=float)
    total = np.zeros_like(a)
    for w, mu, s in HUMPS:
        z = (a - mu) / s
        g = w * np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi * s**2)
        total += g * (1.0, -z / s, (z**2 - 1.0) / s**2)[k]
    return total


def _two_hump_state(labels):
    """The two-hump state at rest as the benchmark's workload builds it,
    its analytic forms normalized on the label span."""
    scale = 1.0 / np.trapezoid(_mixture(labels), labels)
    zero = lambda a: np.zeros_like(np.asarray(a, dtype=float))  # noqa: E731
    forms = AnalyticForms(rho0=lambda a: scale * _mixture(a),
                          drho0=lambda a: scale * _mixture(a, 1),
                          d2rho0=lambda a: scale * _mixture(a, 2),
                          s0=zero, ds0=zero, d2s0=zero)
    return InitialState(labels=labels, rho0=forms.rho0(labels),
                        s0=np.zeros_like(labels), forms=forms)


@pytest.fixture(scope="module")
def mixture_run():
    """The two-hump density sampled on a coarser grid, with no analytic
    forms, run briefly."""
    labels = np.linspace(-6.0, 6.0, 201)
    rho0 = _mixture(labels) / np.trapezoid(_mixture(labels), labels)
    init = InitialState(labels=labels, rho0=rho0, s0=np.zeros_like(labels))
    return init, evolve(init, PARAMS, SolverConfig(t_final=0.05,
                                                   snapshot_stride=10**9))


class TestReconstruct:
    def test_fields_equal_the_public_maps(self, short_run):
        # reference: rho0 / J, qdot and S0 + chi at the labels a(x) of the
        # public inverse map, by the interpolant the map itself uses
        x = np.linspace(-12, 12, 1024, endpoint=False)
        field = reconstruct_wavefunction(short_run, INIT, PARAMS, x)
        final = short_run[-1]
        a_of_x, mask = invert_map(final, x)
        aq = a_of_x[mask]
        J = stencils.derivative(final.q, stencils.grid_spacing(LABELS), 1)
        rho = np.maximum(INIT.forms.rho0(aq)
                         / _pchip_linear_edges(LABELS, J)(aq), 0.0)
        v = _pchip_linear_edges(LABELS, final.qdot)(aq)
        S = _pchip_linear_edges(LABELS, INIT.s0 + final.chi)(aq)
        assert np.array_equal(field.mask, mask)
        for got, want in ((field.rho, rho), (field.v, v), (field.S, S)):
            assert np.array_equal(got[mask], want)
            assert not np.any(got[~mask])
        assert np.array_equal(field.psi[mask],
                              assemble_wavefunction(rho, S, PARAMS.hbar))
        assert not np.any(field.psi[~mask])

    def test_one_inverse_map_per_snapshot(self, monkeypatch, short_run):
        import qflow.reconstruction as reconstruction
        calls = []

        def counting(traj, x_grid):
            calls.append(traj.t)
            return invert_map(traj, x_grid)

        monkeypatch.setattr(reconstruction, "invert_map", counting)
        x = np.linspace(-12, 12, 1024, endpoint=False)
        reconstruct_wavefunction(short_run, INIT, PARAMS, x)
        # the final snapshot's full-grid map serves rho, v, S and the phase
        # check; the rest of the history is not read
        assert len(short_run) >= 3
        assert calls == [short_run[-1].t]

    def test_initial_snapshot_resamples_seed(self):
        x = np.linspace(-8, 8, 301)
        field = reconstruct_wavefunction([_exact_traj(0.0)], INIT, PARAMS, x)
        expected = assemble_wavefunction(INIT.forms.rho0(x[field.mask]),
                                         np.zeros(field.mask.sum()), 1.0)
        assert np.max(np.abs(field.psi[field.mask] - expected)) < 1e-8

    def test_short_run_matches_closed_form(self):
        cfg = SolverConfig(t_final=0.5, snapshot_stride=25)
        snaps = evolve(INIT, PARAMS, cfg)
        x = np.linspace(-12, 12, 1024, endpoint=False)
        field = reconstruct_wavefunction(snaps, INIT, PARAMS, x)
        rho_e, S_e = gaussian_wavefunction(x, 0.5, 1.0, PARAMS)
        # erode the support edges where the linear interpolation fallback
        # limits accuracy
        m = field.mask.copy()
        m[:-2] &= field.mask[2:]
        m[2:] &= field.mask[:-2]
        assert np.max(np.abs(field.rho[m] - rho_e[m])) < 1e-7
        dS = field.S[m] - S_e[m]
        assert np.max(np.abs(dS)) < 2e-5  # trajectory phase carries no offset

    def test_dual_route_phase_consistency(self):
        cfg = SolverConfig(t_final=0.5, snapshot_stride=25)
        snaps = evolve(INIT, PARAMS, cfg)
        x = np.linspace(-12, 12, 1024, endpoint=False)
        dev = phase_consistency_deviation(snaps[-1], INIT, PARAMS)
        # the label form reads about 3e-10 here; the old x-grid route
        # read its own quadrature error, 2.5e-5
        assert dev <= 1e-8

    def test_single_snapshot_needs_no_history(self):
        assert phase_consistency_deviation(_exact_traj(0.0), INIT, PARAMS) < 1e-12

    def test_non_affine_mixture_is_quasi_potential(self, mixture_run):
        init, snaps = mixture_run
        # evolve takes chi from m qdot J, so the check reads rounding
        assert phase_consistency_deviation(snaps[-1], init, PARAMS) <= 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("error", PhaseInconsistencyWarning)
            reconstruct_wavefunction(snaps, init, PARAMS, MIXTURE_X)

    def test_two_hump_mixture_matches_spectral(self):
        # the benchmark's two-hump state (401 labels on +-6), scored against
        # the split-step solver on |x| <= 4 at T = 0.3; the phase carried at
        # every label under the raw V_Q read 4.3e-3 here
        init = _two_hump_state(np.linspace(-6.0, 6.0, 401))
        x = np.linspace(-12, 12, 1024, endpoint=False)
        rho_x = _mixture(x)
        psi0 = np.sqrt(rho_x / (np.sum(rho_x) * (x[1] - x[0]))).astype(complex)
        snaps = evolve(init, PARAMS, SolverConfig(t_final=0.3,
                                                  snapshot_stride=10**9))
        with warnings.catch_warnings():
            warnings.simplefilter("error", PhaseInconsistencyWarning)
            rec = reconstruct_wavefunction(snaps, init, PARAMS, x)
        ref = reference_fields(split_step_evolve(psi0, x, PARAMS, 1e-3, 0.3)[-1],
                               x, PARAMS)
        window = rec.mask & ref.mask & (np.abs(x) <= 4.0)
        err = error_norms(rec.psi, ref.psi, x, window).phase_reduced_l2
        assert err <= 1.5e-3

    def test_non_affine_mixture_warns(self, mixture_run):
        # a phase that is not the integral of m qdot J, as a hand-built or
        # read-back snapshot may carry, still warns
        init, snaps = mixture_run
        bent = dataclasses.replace(
            snaps[-1], chi=snaps[-1].chi + 1e-2 * np.sin(init.labels))
        with pytest.warns(PhaseInconsistencyWarning, match="exceeds 1e-03"):
            reconstruct_wavefunction([bent], init, PARAMS, MIXTURE_X)


class TestResiduals:
    def test_qhj_on_analytic_pair(self):
        x = np.linspace(-12, 12, 1024, endpoint=False)
        fa = _analytic_field(1.0, x)
        fb = _analytic_field(1.001, x)
        r, mask = qhj_residual(fa, fb, PARAMS)
        assert mask.sum() > 100
        assert np.max(np.abs(r[mask])) < 1e-4

    def test_qhj_constant_phase_drift(self, make_field):
        x = np.linspace(-4, 4, 257)
        rho = np.full_like(x, 0.125)
        for E, expected in ((0.3, -0.3), (0.0, 0.0)):
            fa = make_field(x, 1.0, rho, S=np.full_like(x, -E * 1.0))
            fb = make_field(x, 1.01, rho, S=np.full_like(x, -E * 1.01))
            r, mask = qhj_residual(fa, fb, PARAMS)
            assert r[mask] == pytest.approx(np.full(mask.sum(), expected),
                                            abs=1e-9)

    def test_qhj_requires_two_snapshots(self, make_field):
        x = np.linspace(-4, 4, 65)
        f = make_field(x, 0.0, np.ones_like(x))
        with pytest.raises(ValidationError):
            qhj_residual(f, None, PARAMS)
        with pytest.raises(ValidationError):
            qhj_residual(f, f, PARAMS)  # equal times

    def test_continuity_euler_on_analytic_pair(self):
        x = np.linspace(-12, 12, 1024, endpoint=False)
        fa = _analytic_field(1.0, x)
        fb = _analytic_field(1.001, x)
        r_cont, r_euler, mask = continuity_euler_residuals(fa, fb, PARAMS)
        assert np.max(np.abs(r_cont[mask])) < 1e-4
        assert np.max(np.abs(r_euler[mask])) < 1e-4

    def test_static_state_continuity(self, make_field):
        x = np.linspace(-6, 6, 257)
        rho = np.exp(-x**2) / np.sqrt(np.pi)
        fa = make_field(x, 0.0, rho)
        fb = make_field(x, 0.1, rho)
        r_cont, _, mask = continuity_euler_residuals(fa, fb, PARAMS)
        assert np.max(np.abs(r_cont[mask])) == 0.0

    def test_grid_mismatch_rejected(self, make_field):
        xa = np.linspace(-4, 4, 65)
        xb = np.linspace(-4, 4, 66)
        fa = make_field(xa, 0.0, np.ones_like(xa))
        fb = make_field(xb, 0.1, np.ones_like(xb))
        with pytest.raises(ValidationError):
            continuity_euler_residuals(fa, fb, PARAMS)


class TestAdvectLabels:
    def _history(self, boost=0.0, t_final=2.0, n_t=201):
        x = np.linspace(-14, 14, 701)
        times = np.linspace(0.0, t_final, n_t)
        return [_analytic_field(t, x, boost) for t in times]

    def test_free_expansion_sample(self):
        fields = self._history()
        trajs = [_exact_traj(2.0)]
        dev = advect_labels_check(fields, trajs, np.array([1.0]))
        assert dev <= 1e-3

    def test_center_stays_fixed(self):
        fields = self._history()
        dev = advect_labels_check(fields, [_exact_traj(2.0)], np.array([0.0]))
        assert dev <= 1e-9

    def test_boosted_agreement(self):
        fields = self._history(boost=1.0, t_final=1.0)
        trajs = [_exact_traj(1.0, boost=1.0)]
        dev = advect_labels_check(fields, trajs, np.array([0.0, 0.5, 1.0]))
        assert dev <= 1e-2


class TestMoments:
    def test_resting_packet_is_centered(self):
        mean_x, mean_p = lagrangian_moments(_exact_traj(0.0), INIT, PARAMS)
        assert abs(mean_x) <= 1e-10
        assert abs(mean_p) <= 1e-10

    def test_boosted_momentum(self):
        boosted = make_gaussian_state(1.0, PARAMS, LABELS, boost_k=1.0)
        traj = TrajectoryState(labels=LABELS, q=LABELS,
                               qdot=np.ones_like(LABELS),
                               chi=np.zeros_like(LABELS), t=0.0)
        mean_p = lagrangian_moments(traj, boosted, PARAMS)[1]
        assert mean_p == pytest.approx(1.0, abs=1e-6)

    def test_two_route_agreement(self):
        x = np.linspace(-14, 14, 1401)
        field = _analytic_field(2.0, x)
        lagr = lagrangian_moments(_exact_traj(2.0), INIT, PARAMS)
        euler = eulerian_moments(field, PARAMS)
        assert abs(lagr[0] - euler[0]) <= 1e-6
        assert abs(lagr[1] - euler[1]) <= 1e-6
