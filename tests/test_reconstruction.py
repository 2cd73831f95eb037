import dataclasses
import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from qflow import stencils
from qflow.benchmarks import (error_norms, gaussian_trajectory,
                              gaussian_wavefunction)
from qflow.errors import TrajectoryCrossing, ValidationError
from qflow.lagrangian import SolverConfig, evolve
from qflow.model import (AnalyticForms, EulerianField, InitialState,
                         PhysicsParams, TrajectoryState, _compose,
                         _hermite_basis, assemble_wavefunction,
                         make_gaussian_state)
from qflow.reconstruction import (dynamics_residuals, eulerian_moments,
                                  invert_map, lagrangian_moments,
                                  phase_consistency_deviation,
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


def _analytic_field(t, x):
    """Closed-form Eulerian fields."""
    rho, S = gaussian_wavefunction(x, t, 1.0, PARAMS)
    alpha = 0.25
    v = x * alpha * t / (1 + alpha * t**2)
    psi = assemble_wavefunction(rho, S, PARAMS.hbar)
    return EulerianField(x=x, t=t, rho=rho, S=S, v=v, psi=psi)


def _forged_snapshot(labels, q):
    """A snapshot at rest built past the validating constructor, for maps
    that the constructor would refuse."""
    traj = object.__new__(TrajectoryState)
    for name, val in (("labels", labels), ("q", q),
                      ("qdot", np.zeros_like(q)), ("chi", np.zeros_like(q)),
                      ("t", 0.0)):
        object.__setattr__(traj, name, val)
    return traj


def _cubic(kind, rng):
    """A cubic and its derivative: increasing, sign-changing, or with a
    stationary inflection point (zero knot slopes nearby)."""
    if kind == "monotone":
        # a x^3 + b x^2 + c x + d with b^2 < 3ac has p' > 0 everywhere
        a, c = rng.uniform(0.1, 1.0, 2)
        b = -rng.uniform(0.0, 1.0) * np.sqrt(3.0 * a * c)
        p = np.poly1d([a, b, c, rng.normal()])
    elif kind == "signed":
        p = np.poly1d(rng.normal(size=4))
    else:
        p = rng.normal() * np.poly1d([1.0, -rng.normal()]) ** 3
    return p, p.deriv()


class TestNumpyKernels:
    @pytest.mark.parametrize("kind", ["monotone", "signed", "flat"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 40])
    def test_hermite_reproduces_a_cubic(self, kind, n):
        # given exact knot slopes the composition is exact on any cubic,
        # on uneven knots, at the knots and between them
        rng = np.random.default_rng([n, len(kind)])
        for _ in range(25):
            xs = np.cumsum(rng.uniform(0.05, 1.0, n)) - 0.4 * n
            p, dp = _cubic(kind, rng)
            x = np.concatenate((xs, rng.uniform(xs[0], xs[-1], 64)))
            got = _compose(_hermite_basis(xs, x), p(xs), dp(xs))
            scale = np.max(np.abs(p(x))) + np.max(np.abs(p(xs)))
            assert np.max(np.abs(got - p(x))) <= 1e-13 * scale
            assert np.array_equal(got[:n], p(xs))

    def test_non_finite_data_rejected(self):
        # never a silent NaN in a(x): an infinite position breaks the
        # ordering, and a NaN, which passes it, fails the monotonicity
        # condition of the intervals its stencil reaches
        labels = np.linspace(-1.0, 1.0, 11)
        for bad, fragment in ((np.inf, "index 5, t = 0$"),
                              (np.nan, "not monotone between labels 2 and 3")):
            q = labels.copy()
            q[5] = bad
            with pytest.raises(TrajectoryCrossing, match=fragment):
                invert_map(_forged_snapshot(labels, q), np.linspace(-1, 1, 9))

    def test_non_monotone_cubic_rejected(self):
        # a strictly increasing map with one short step between long ones:
        # the slopes 1/J overshoot the secants and the unguarded cubic a(x)
        # turns back, so invert_map raises at the first failing interval
        a = np.linspace(0.0, 1.0, 11)
        q = a.copy()
        q[5:] += 1.0
        q[5] -= 0.999
        traj = TrajectoryState(labels=a, q=q, qdot=np.zeros_like(a),
                               chi=np.zeros_like(a), t=0.25)
        x = np.linspace(q[0], q[-1], 2001)
        slope = 1.0 / stencils.derivative(q, 0.1, 1)
        unguarded = _compose(_hermite_basis(q, x), a, slope)
        assert np.any(np.diff(unguarded) < 0)
        with pytest.raises(TrajectoryCrossing,
                           match=r"label index 3, t = 0\.25 \(inverse map not "
                                 r"monotone between labels 3 and 4\)"):
            invert_map(traj, x)

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
        q = LABELS.copy()
        q[7] = q[9]
        with pytest.raises(TrajectoryCrossing):
            invert_map(_forged_snapshot(LABELS, q), np.linspace(-1, 1, 5))


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
        # public inverse map, by the cubic Hermite composition the map
        # itself uses, on the slopes J', dqdot/da and m qdot J
        x = np.linspace(-12, 12, 1024, endpoint=False)
        field = reconstruct_wavefunction(short_run, INIT, PARAMS, x)
        final = short_run[-1]
        a_of_x, mask = invert_map(final, x)
        aq = a_of_x[mask]
        h = stencils.grid_spacing(LABELS)
        J, dJ = stencils.derivative(final.q, h, (1, 2))
        at = _hermite_basis(LABELS, aq)
        rho = np.maximum(INIT.forms.rho0(aq) / _compose(at, J, dJ), 0.0)
        v = _compose(at, final.qdot, stencils.derivative(final.qdot, h, 1))
        S = _compose(at, INIT.s0 + final.chi, PARAMS.mass * final.qdot * J)
        assert np.array_equal(field.mask, mask)
        for got, want in ((field.rho, rho), (field.v, v), (field.S, S)):
            assert np.array_equal(got[mask], want)
            assert not np.any(got[~mask])
        assert np.array_equal(field.psi[mask],
                              assemble_wavefunction(rho, S, PARAMS.hbar))
        assert not np.any(field.psi[~mask])

    def test_one_inverse_map_per_snapshot(self, monkeypatch, short_run):
        # reconstruct_wavefunction inverts through invert_map's core, on the
        # J it computes once for the push-forward too
        import qflow.reconstruction as reconstruction
        calls = []
        invert = reconstruction._invert

        def counting(traj, x, J):
            calls.append(traj.t)
            return invert(traj, x, J)

        monkeypatch.setattr(reconstruction, "_invert", counting)
        x = np.linspace(-12, 12, 1024, endpoint=False)
        reconstruct_wavefunction(short_run, INIT, PARAMS, x)
        # the final snapshot's full-grid map serves rho, v and S; the rest
        # of the history is not read
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
        # the whole support, edge intervals included: the cubic composes
        # the affine map and the quadratic phase exactly, so what is left
        # is the trajectories' error (rho 9e-14, S 1.3e-9 here)
        m = field.mask
        assert np.max(np.abs(field.rho[m] - rho_e[m])) < 1e-12
        dS = field.S[m] - S_e[m]
        assert np.max(np.abs(dS)) < 1e-8  # trajectory phase carries no offset

    def test_label_refinement_is_not_floored_by_the_push_forward(self):
        # the default Gaussian to t = 2 at cfl 10, where dt = cfl da^2
        # shrinks 4x as the labels double: the psi error falls with the
        # step (8.3e-9 -> 3.3e-11 here) only if the push-forward adds no
        # error floor of its own
        x = np.linspace(-12, 12, 1024, endpoint=False)
        rho_e, S_e = gaussian_wavefunction(x, 2.0, 1.0, PARAMS)
        psi_e = assemble_wavefunction(rho_e, S_e, PARAMS.hbar)
        errs = []
        for n in (201, 401):
            labels = np.linspace(-8, 8, n)
            init = make_gaussian_state(1.0, PARAMS, labels)
            snaps = evolve(init, PARAMS, SolverConfig(
                t_final=2.0, cfl_coefficient=10.0, snapshot_stride=10**9))
            field = reconstruct_wavefunction(snaps, init, PARAMS, x)
            window = field.mask & (np.abs(x) <= 4.0)
            errs.append(error_norms(field.psi, psi_e, x,
                                    window).phase_reduced_l2)
        assert errs[1] <= errs[0] / 16.0
        assert errs[1] <= 1e-10

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
        rec = reconstruct_wavefunction(snaps, init, PARAMS, x)
        ref = reference_fields(split_step_evolve(psi0, x, PARAMS, 1e-3, 0.3)[-1],
                               x, PARAMS)
        window = rec.mask & ref.mask & (np.abs(x) <= 4.0)
        err = error_norms(rec.psi, ref.psi, x, window).phase_reduced_l2
        assert err <= 1.5e-3

    def test_bent_phase_pushes_forward_as_carried(self, mixture_run):
        # a phase that is not the integral of m qdot J reconstructs quietly,
        # its S the push-forward of S0 + chi; only the on-demand check sees it
        init, snaps = mixture_run
        bent = dataclasses.replace(
            snaps[-1], chi=snaps[-1].chi + 1e-2 * np.sin(init.labels))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = reconstruct_wavefunction([bent], init, PARAMS, MIXTURE_X)
        a_of_x, mask = invert_map(bent, MIXTURE_X)
        J = stencils.derivative(bent.q, stencils.grid_spacing(init.labels), 1)
        S = _compose(_hermite_basis(init.labels, a_of_x[mask]),
                     init.s0 + bent.chi, PARAMS.mass * bent.qdot * J)
        assert np.array_equal(field.S[mask], S)
        assert phase_consistency_deviation(bent, init, PARAMS) > 1e-3


class TestResiduals:
    def test_qhj_on_analytic_pair(self):
        x = np.linspace(-12, 12, 1024, endpoint=False)
        fa = _analytic_field(1.0, x)
        fb = _analytic_field(1.001, x)
        r, _, _, mask = dynamics_residuals(fa, fb, PARAMS)
        assert mask.sum() > 100
        assert np.max(np.abs(r[mask])) < 1e-4

    def test_qhj_constant_phase_drift(self, make_field):
        x = np.linspace(-4, 4, 257)
        rho = np.full_like(x, 0.125)
        for E, expected in ((0.3, -0.3), (0.0, 0.0)):
            fa = make_field(x, 1.0, rho, S=np.full_like(x, -E * 1.0))
            fb = make_field(x, 1.01, rho, S=np.full_like(x, -E * 1.01))
            r, _, _, mask = dynamics_residuals(fa, fb, PARAMS)
            assert r[mask] == pytest.approx(np.full(mask.sum(), expected),
                                            abs=1e-9)

    def test_qhj_requires_two_snapshots(self, make_field):
        x = np.linspace(-4, 4, 65)
        f = make_field(x, 0.0, np.ones_like(x))
        with pytest.raises(ValidationError, match="differ in time"):
            dynamics_residuals(f, f, PARAMS)

    def test_continuity_euler_on_analytic_pair(self):
        x = np.linspace(-12, 12, 1024, endpoint=False)
        fa = _analytic_field(1.0, x)
        fb = _analytic_field(1.001, x)
        _, r_cont, r_euler, mask = dynamics_residuals(fa, fb, PARAMS)
        assert np.max(np.abs(r_cont[mask])) < 1e-4
        assert np.max(np.abs(r_euler[mask])) < 1e-4

    def test_static_state_continuity(self, make_field):
        x = np.linspace(-6, 6, 257)
        rho = np.exp(-x**2) / np.sqrt(np.pi)
        fa = make_field(x, 0.0, rho)
        fb = make_field(x, 0.1, rho)
        _, r_cont, _, mask = dynamics_residuals(fa, fb, PARAMS)
        assert np.max(np.abs(r_cont[mask])) == 0.0

    def test_grid_mismatch_rejected(self, make_field):
        xa = np.linspace(-4, 4, 65)
        xb = np.linspace(-4, 4, 66)
        fa = make_field(xa, 0.0, np.ones_like(xa))
        fb = make_field(xb, 0.1, np.ones_like(xb))
        with pytest.raises(ValidationError):
            dynamics_residuals(fa, fb, PARAMS)

    @pytest.mark.parametrize("mutation, caught", [
        ("S", {"qhj": 1e-3}),
        ("V_Q", {"qhj": 1e-3, "euler": 1e-2}),
        ("rho", {"cont": 1e-2}),
        ("v", {"euler": 1e-2}),
    ])
    def test_criterion_5_catches_a_mutated_pair(self, make_field, mutation,
                                                caught):
        # the analytic pair with one flaw: the later S, rho or v times 1.001,
        # or V_Q halved; each flawed residual must exceed its gaussian-accept
        # tolerance (1e-3 for QHJ, 1e-2 for continuity and Euler)
        class HalvedVQ(PhysicsParams):
            def quantum_potential(self, c1, c2):
                return 0.5 * super().quantum_potential(c1, c2)

        x = np.linspace(-12, 12, 1024, endpoint=False)
        fa = _analytic_field(1.0, x)
        fb = _analytic_field(1.001, x)
        later = {"rho": fb.rho, "S": fb.S, "v": fb.v}
        if mutation in later:
            later[mutation] = later[mutation] * 1.001
        params = HalvedVQ() if mutation == "V_Q" else PARAMS
        r_qhj, r_cont, r_euler, mask = dynamics_residuals(
            fa, make_field(x, fb.t, **later), params)
        worst = {name: np.max(np.abs(r[mask])) for name, r in
                 (("qhj", r_qhj), ("cont", r_cont), ("euler", r_euler))}
        for name, tol in caught.items():
            assert worst[name] > tol, (name, worst[name])


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
