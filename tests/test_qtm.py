import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow.benchmarks import error_norms, gaussian_alpha, gaussian_trajectory
import qflow.qtm as qtm
from qflow.errors import (NumericalInstability, TrajectoryCrossing,
                          ValidationError)
from qflow.model import (MAX_STEPS, HarmonicPotential, InitialState,
                         PhysicsParams, TabulatedPotential, plan_steps)
from qflow.pipeline import _truncated_gaussian_state
from qflow.qtm import QtmConfig, qtm_evolve
from qflow.spectral import split_step_evolve
from qflow.stencils import Stencil, trapezoid_weights

PARAMS = PhysicsParams()


def _reference_rhs(params, x, c, S):
    """The particle right-hand side as plain array expressions: new arrays
    from the (1, 2) stencil on the particle index, then the chain rule."""
    D = Stencil(x.size, 1.0, (1, 2))
    (x_a, x_aa), (S_a, S_aa), (c_a, c_aa) = D(x), D(S), D(c)
    inv = 1.0 / x_a
    S_x, c_x = S_a * inv, c_a * inv
    S_xx = (S_aa - S_x * x_aa) * inv**2
    c_xx = (c_aa - c_x * x_aa) * inv**2
    m = params.mass
    v, vx = S_x / m, S_xx / m
    vq = params.quantum_potential(c_x, c_xx)
    return v, -vx, 0.5 * m * v**2 - params.potential_energy(x) - vq


def _allocating_qtm(init, params, config):
    """Reference: the particle RK4 loop with a new array for every
    intermediate and the plain-expression right-hand side.  Returns the
    snapshots as (t, x, log_rho, S, v), psi and the divergence integral."""
    rhs = partial(_reference_rhs, params)
    x, c, S = init.labels.copy(), np.log(init.rho0), init.s0.copy()
    n_steps, dt = plan_steps(config.t_final, config.auto_dt(
        float(np.min(np.diff(init.labels))), params))
    div_int = np.zeros_like(x)
    k1 = rhs(x, c, S)
    snaps = [(0.0, x, c, S, k1[0])]
    for step in range(n_steps):
        k2 = rhs(x + 0.5 * dt * k1[0], c + 0.5 * dt * k1[1], S + 0.5 * dt * k1[2])
        k3 = rhs(x + 0.5 * dt * k2[0], c + 0.5 * dt * k2[1], S + 0.5 * dt * k2[2])
        k4 = rhs(x + dt * k3[0], c + dt * k3[1], S + dt * k3[2])
        x, c, S = (u + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                   for i, u in enumerate((x, c, S)))
        k_end = rhs(x, c, S)
        div_int = div_int - 0.5 * dt * (k1[1] + k_end[1])   # k[1] = -v_x
        k1 = k_end
        if (step + 1) % config.snapshot_stride == 0 or step + 1 == n_steps:
            snaps.append(((step + 1) * dt, x, c, S, k1[0]))
    amplitude = np.sqrt(init.rho0) * np.exp(-0.5 * div_int)
    return snaps, amplitude * np.exp(1j * S / params.hbar), div_int


def _rhs(params, x, c, S):
    """``qtm._qtm_rhs`` on the state block (x, c, S), with its own
    (1, 2) stencil, workspace and output block."""
    n = x.size
    return qtm._qtm_rhs(params, Stencil(n, 1.0, (1, 2)), np.empty((2, 3, n)),
                        np.stack((x, c, S)), out=np.empty((3, n)))


def _mapped_particles():
    """201 particles on the smooth map x = a + 0.01 a^2 + 0.3 sin(a) of
    the labels on +-5, with non-Gaussian c and S."""
    a = np.linspace(-5.0, 5.0, 201)
    x = a + 0.01 * a**2 + 0.3 * np.sin(a)
    init = _truncated_gaussian_state(1.0, PARAMS, a, boost_k=0.7)
    return x, np.log(init.rho0) + 0.1 * np.sin(3.0 * a), init.s0 + 0.2 * np.cos(a)


class TestLabelDerivatives:
    def test_one_derivative_pass_per_rhs(self, monkeypatch):
        # x, c and S are differentiated together: one call of the (1, 2)
        # stencil reads the state block as it stands and writes the
        # (2, 3, n) workspace
        n = 201
        calls = []
        apply = Stencil.__call__

        def recording(self, f, out=None):
            calls.append((f, out))
            return apply(self, f, out=out)

        monkeypatch.setattr(Stencil, "__call__", recording)
        u, d = np.stack(_mapped_particles()), np.empty((2, 3, n))
        qtm._qtm_rhs(PARAMS, Stencil(n, 1.0, (1, 2)), d, u, out=np.empty((3, n)))
        assert len(calls) == 1
        assert calls[0][0] is u and calls[0][1] is d

    @pytest.mark.parametrize("n", [6, 7, 41, 201, 801])
    def test_pass_matches_the_stencil_on_each_row(self, n):
        # one call on the (3, n) block, read as one flat row, gives the sums
        # and bits of the stencil on x, c and S one at a time; a row at rest
        # (zeros of either sign: a sum that started from its first product
        # could end on -0) keeps the stencil's zero signs, and inf and NaN
        # entries give a non-finite output exactly where the stencil's is,
        # without a warning (pytest raises warnings as errors; two adjacent
        # infs meet weights of both signs, inf - inf)
        D = Stencil(n, 1.0, (1, 2))
        rng = np.random.default_rng(n)
        u = rng.normal(size=(3, n)) * np.array([[1.0], [1e-3], [1e4]])
        u[2] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        out = D(u, out=np.empty((2, 3, n)))
        for f in range(3):
            assert np.array_equal(out[:, f], D(u[f]))
            assert np.array_equal(np.signbit(out[:, f]), np.signbit(D(u[f])))
        assert not np.signbit(out[:, 2]).any()
        u[0, n // 2:n // 2 + 2], u[1, 1], u[2, n - 1] = np.inf, np.nan, -np.inf
        out = D(u, out=out)
        for f in range(3):
            want = D(u[f])
            assert not np.isfinite(want).all()
            assert np.array_equal(np.isfinite(out[:, f]), np.isfinite(want))
            assert np.array_equal(out[:, f], want, equal_nan=True)

    @pytest.mark.parametrize("case", ["free", "harmonic", "tabulated"])
    def test_rhs_matches_reference_kernel(self, case):
        # the in-place chain rule gives the plain expressions' bits; the
        # harmonic and tabulated cases run the branch that subtracts V
        x_table = np.linspace(-40.0, 40.0, 8001)
        params = {"harmonic": PhysicsParams(potential=HarmonicPotential(1.3)),
                  "tabulated": PhysicsParams(potential=TabulatedPotential(
                      x_table, 0.5 * x_table**2 + 0.05 * x_table**4)),
                  }.get(case, PARAMS)
        x, c, S = _mapped_particles()
        assert np.all(np.diff(x) > 0)
        for got, want in zip(_rhs(params, x, c, S), _reference_rhs(params, x, c, S)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [6, 7, 41])
    def test_quadratic_reproduction_exact(self, n):
        # S = x^2 / 2 and c = -x^2 / 2 on a quadratic map are quartic in the
        # label, where the fourth-order stencil is exact at every particle,
        # edges included (at n = 6 every second-derivative row is one-sided):
        # v = x, v_x = 1 and V_Q = (1 - x^2 / 2) / 4
        a = np.linspace(-2.0, 2.0, n)
        x = a + 0.1 * a**2
        v, minus_vx, ldens = _rhs(PARAMS, x, -0.5 * x**2, 0.5 * x**2)
        np.testing.assert_allclose(v, x, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(minus_vx, -1.0, rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(ldens, 0.5 * x**2 - 0.25 * (1.0 - 0.5 * x**2),
                                   rtol=0.0, atol=1e-11)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=10**6))
    def test_polynomial_reproduction_property(self, degree_poly, seed):
        # a polynomial of degree <= 2 in x on a monotone quadratic map is at
        # most quartic in the label, so v = S_x / m is exact to rounding; the
        # slope b + 2 q a stays >= 0.2 b on a in [-2, 2] since |q| <= 0.2 b
        rng = np.random.default_rng(seed)
        a = np.linspace(-2.0, 2.0, 25)
        b = rng.uniform(0.5, 2.0)
        x = b * a + b * rng.uniform(-0.2, 0.2) * a**2
        coeffs = rng.normal(size=degree_poly + 1)
        S = sum(k * x**i for i, k in enumerate(coeffs))
        exact = sum(i * k * x ** (i - 1) for i, k in enumerate(coeffs) if i >= 1)
        v = _rhs(PARAMS, x, np.zeros_like(x), S)[0]
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(v - np.asarray(exact))) < 1e-10 * scale

    @pytest.mark.parametrize("row,exact,bound", [
        pytest.param(0, np.cos, 5e-6, id="first"),
        pytest.param(1, np.sin, 5e-5, id="second")])
    def test_sine_first_derivative_accuracy(self, row, exact, bound):
        # fourth order on a non-uniform map: halving the label spacing cuts
        # the error of v = d sin(x)/dx, and of -v_x, by about 16 (edge rows
        # included)
        errors = []
        for n in (41, 81):
            a = np.linspace(-2.0, 2.0, n)
            x = a + 0.2 * np.sin(a)
            got = _rhs(PARAMS, x, np.zeros(n), np.sin(x))[row]
            errors.append(np.max(np.abs(got - exact(x))))
        assert errors[1] <= bound
        assert errors[0] / errors[1] >= 12.0

    def test_second_derivative_stiffness(self):
        # the interior second-derivative weights on a uniform grid span
        # -2..2, are exact on x^2, and their symbol -sum w_j cos(j theta)
        # peaks at 16/3 per h^2 at k h = pi, so the dispersive rate
        # (hbar / 2m) 16/3 / dx^2 meets RK4's imaginary-axis limit 2 sqrt(2)
        # at dt = 1.06 dx^2 (hbar = m = 1); the default step 0.5 dx^2 is
        # inside it
        n = 41
        D = Stencil(n, 1.0, (1, 2))
        w = np.array([D(e)[1][n // 2] for e in np.eye(n)])
        j = np.arange(n) - n // 2
        assert np.array_equal(np.flatnonzero(w), np.arange(-2, 3) + n // 2)
        assert abs(np.sum(w)) <= 1e-15
        assert np.sum(w * j**2) / 2 == pytest.approx(1.0, abs=1e-14)
        theta = np.linspace(0.0, np.pi, 100001)
        symbol = -np.cos(np.outer(theta, j)) @ w
        peak = np.argmax(symbol)
        assert symbol[peak] == pytest.approx(16.0 / 3.0, abs=1e-12)
        assert theta[peak] == np.pi
        rate = PARAMS.hbar / (2.0 * PARAMS.mass) * symbol[peak]
        assert 2.0 * math.sqrt(2.0) / rate == pytest.approx(1.0607, abs=1e-4)


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
        assert np.all(snap.q == labels)
        assert np.all(snap.labels == labels)
        assert np.allclose(result.log_rho, np.log(init.rho0))
        assert np.allclose(np.abs(result.psi), np.sqrt(init.rho0))

    def test_tracks_closed_form_paths(self, qtm_run):
        init, result = qtm_run
        final = result.snapshots[-1]
        i1 = np.argmin(np.abs(init.labels - 1.0))
        q_exact, _ = gaussian_trajectory(1.0, 1.0, 1.0, PARAMS)
        assert abs(final.q[i1] - q_exact) <= 5e-3

    def test_discrete_norm(self, qtm_run):
        _, result = qtm_run
        weights = trapezoid_weights(result.snapshots[-1].q)
        assert np.sum(np.exp(result.log_rho) * weights) == pytest.approx(1.0,
                                                                        abs=1e-2)

    def test_density_routes_agree(self, qtm_run):
        init, result = qtm_run
        other_route = np.log(init.rho0) - result.div_integral
        assert np.max(np.abs(result.log_rho - other_route)) <= 1e-3

    def test_phase_at_center(self, qtm_run):
        init, result = qtm_run
        final = result.snapshots[-1]
        i0 = np.argmin(np.abs(init.labels))
        S = init.s0 + final.chi
        assert S[i0] == pytest.approx(-0.5 * np.arctan(0.5), abs=1e-4)

    def test_snapshot_velocity_is_the_fit_of_its_state(self, qtm_run):
        # the end-of-step right-hand side's velocity, kept on the snapshot,
        # is S_x / m from a fresh stencil and chain rule on the stored state;
        # the packet starts at rest (S0 = 0), so S0 + chi is S exactly
        init, result = qtm_run
        assert len(result.snapshots) >= 3
        assert not init.s0.any()
        D = Stencil(result.psi.size, 1.0, (1, 2))
        for snap in result.snapshots:
            (x_a, _), (S_a, _) = D(snap.q), D(init.s0 + snap.chi)
            assert np.array_equal(snap.qdot, S_a * (1.0 / x_a) / PARAMS.mass)

    def test_four_rhs_fits_per_step(self, monkeypatch):
        rhs = qtm._qtm_rhs
        calls, stencils, applied = [], [], []

        def counting(*args, **kwargs):
            calls.append(1)
            return rhs(*args, **kwargs)

        class Counting(Stencil):
            def __init__(self, *args):
                stencils.append(args)
                super().__init__(*args)

            def __call__(self, f, out=None):
                applied.append((f.shape, out.shape))
                return super().__call__(f, out=out)

        monkeypatch.setattr(qtm, "_qtm_rhs", counting)
        monkeypatch.setattr(qtm, "Stencil", Counting)
        init = _truncated_gaussian_state(1.0, PARAMS, np.linspace(-5, 5, 101))
        qtm_evolve(init, PARAMS, QtmConfig(t_final=0.2, dt=0.005))
        # one start-up evaluation, then k2, k3, k4 and the end-of-step
        # evaluation that doubles as the next step's k1; each one takes one
        # call of the (1, 2) stencil on unit spacing, built once per run, on
        # the (3, n) state block into the (2, 3, n) workspace
        assert len(calls) == 1 + 4 * 40
        assert stencils == [(101, 1.0, (1, 2))]
        assert applied == [((3, 101), (2, 3, 101))] * len(calls)

    @pytest.mark.parametrize("case", ["free", "harmonic", "tabulated"])
    def test_workspace_loop_matches_allocating_loop_bit_for_bit(self, case):
        # the harmonic and tabulated cases run the branch that subtracts V
        x_table = np.linspace(-40.0, 40.0, 8001)
        params = {"harmonic": PhysicsParams(potential=HarmonicPotential(1.3)),
                  "tabulated": PhysicsParams(potential=TabulatedPotential(
                      x_table, 0.5 * x_table**2 + 0.05 * x_table**4)),
                  }.get(case, PARAMS)
        init = _truncated_gaussian_state(1.0, params, np.linspace(-5, 5, 201),
                                         boost_k=0.5)
        cfg = QtmConfig(t_final=0.25 if case == "free" else 0.1,
                        snapshot_stride=30)
        runs = [qtm_evolve(init, params, cfg) for _ in range(2)]
        ref_snaps, ref_psi, ref_div = _allocating_qtm(init, params, cfg)
        assert len(ref_snaps) == (8 if case == "free" else 4)
        for result in runs:
            assert len(result.snapshots) == len(ref_snaps)
            for s, (t, x, c, S, v) in zip(result.snapshots, ref_snaps):
                assert s.t == t
                assert s.labels is init.labels
                for got, want in ((s.q, x), (s.qdot, v), (s.chi, S - init.s0)):
                    assert np.array_equal(got, want)
            # the carried log-density is returned at the final state
            assert np.array_equal(result.log_rho, ref_snaps[-1][2])
            assert np.array_equal(result.psi, ref_psi)
            assert np.array_equal(result.div_integral, ref_div)
        # the loop's in-place state never leaks into a returned array
        arrays = [u for r in runs for s in r.snapshots
                  for u in (s.q, s.qdot, s.chi)]
        arrays += [u for r in runs for u in (r.psi, r.div_integral, r.log_rho)]
        for i, u in enumerate(arrays):
            for w in arrays[i + 1:]:
                assert not np.shares_memory(u, w)

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

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            QtmConfig(t_final=-1.0).validate()
        with pytest.raises(ValidationError):
            QtmConfig(t_final=1.0, dt=0.0).validate()

    def test_config_fields(self):
        # the derivative stencil is fixed in the module, not configured
        assert [f.name for f in dataclasses.fields(QtmConfig)] == [
            "t_final", "dt", "snapshot_stride"]

    def test_fewer_particles_than_stencil_rejected(self):
        # the one-sided second-derivative rows span 6 particles
        init = _truncated_gaussian_state(1.0, PARAMS, np.linspace(-5, 5, 5))
        with pytest.raises(ValidationError,
                           match="grid too short for stencils: 5 < 6 points"):
            qtm_evolve(init, PARAMS, QtmConfig(t_final=0.1))
        qtm_evolve(_truncated_gaussian_state(1.0, PARAMS, np.linspace(-5, 5, 6)),
                   PARAMS, QtmConfig(t_final=0.0))

    def test_free_gaussian_converges_under_refinement(self):
        # labels on +-5 to t = 1 at dt = 0.5 dx^2: every refinement runs to
        # the end, and the core (|a| <= 2) tracks the closed-form paths to
        # 9.5e-14, 5.0e-14 and 7.3e-13 (the least-squares fit this replaced
        # crossed at n = 401, label 386, t = 0.805)
        for n in (101, 201, 401):
            labels = np.linspace(-5, 5, n)
            init = _truncated_gaussian_state(1.0, PARAMS, labels)
            result = qtm_evolve(init, PARAMS, QtmConfig(t_final=1.0,
                                                        snapshot_stride=10**6))
            final = result.snapshots[-1]
            assert final.t == pytest.approx(1.0, abs=1e-12)
            q_exact, _ = gaussian_trajectory(labels, 1.0, 1.0, PARAMS)
            core = np.abs(labels) <= 2.0
            assert np.max(np.abs(final.q - q_exact)[core]) <= 1e-11

    def test_last_bit_change_stays_bounded(self):
        # one ulp up or down on the seeded rho0 at random labels moves the
        # default run's paths at t = 2 by 1.2e-9, 4.0e-13 on |a| <= 2 (the
        # least-squares fit this replaced amplified such a change about 30x
        # per 0.25 time units, to 2e-2 at t = 2)
        labels = np.linspace(-5, 5, 201)
        init = _truncated_gaussian_state(1.0, PARAMS, labels)
        ulps = np.random.default_rng(0).integers(-1, 2, labels.size)
        nudged = InitialState(labels=labels, s0=init.s0,
                              rho0=init.rho0 + ulps * np.spacing(init.rho0))
        config = QtmConfig(t_final=2.0, snapshot_stride=10**6)
        x, x_nudged = (qtm_evolve(i, PARAMS, config).snapshots[-1].q
                       for i in (init, nudged))
        assert not np.array_equal(x, x_nudged)
        assert np.max(np.abs(x - x_nudged)) <= 1e-8
        assert np.max(np.abs(x - x_nudged)[np.abs(labels) <= 2.0]) <= 1e-11

    def test_harmonic_trap_runs_at_a_quarter_step(self):
        # the breathing packet contracts every gap to 0.50 dx near t = pi/2,
        # inside the limit 1.06 (0.5 dx)^2 = 0.265 dx^2 of a 0.25 dx^2 step
        # (the default 0.5 dx^2 folds at t = 1.09): it runs to t = 2 on the
        # Ermakov dilation q = a b(t), b^2 = cos^2 t + alpha sin^2 t, to
        # 6.3e-10 on every label
        params = PhysicsParams(potential=HarmonicPotential(1.0))
        labels = np.linspace(-5, 5, 201)
        init = _truncated_gaussian_state(1.0, params, labels)
        result = qtm_evolve(init, params, QtmConfig(
            t_final=2.0, dt=0.25 * 0.05**2, snapshot_stride=400))
        assert [s.t for s in result.snapshots] == pytest.approx(
            [0.25 * i for i in range(9)], abs=1e-12)
        alpha = gaussian_alpha(1.0, params)
        for snap in result.snapshots:
            b = math.sqrt(math.cos(snap.t) ** 2 + alpha * math.sin(snap.t) ** 2)
            assert np.max(np.abs(snap.q - labels * b)) <= 2e-9

    def test_non_uniform_labels_track_the_closed_form(self):
        # the stencil's coordinate is the particle index, so labels on a
        # smooth stretched grid (spacing 0.035 at the centre, 0.082 at +-5)
        # need no uniform spacing: to t = 1 the paths match the closed form
        # to 3.4e-5, 2.4e-8 on |a| <= 2
        labels = 5.0 * np.sinh(1.5 * np.linspace(-1.0, 1.0, 201)) / math.sinh(1.5)
        init = _truncated_gaussian_state(1.0, PARAMS, labels)
        final = qtm_evolve(init, PARAMS, QtmConfig(
            t_final=1.0, snapshot_stride=10**6)).snapshots[-1]
        q_exact, _ = gaussian_trajectory(labels, 1.0, 1.0, PARAMS)
        assert np.max(np.abs(final.q - q_exact)) <= 1e-4
        assert np.max(np.abs(final.q - q_exact)[np.abs(labels) <= 2.0]) <= 1e-7

    def test_density_mixture_against_split_step(self):
        # 0.6 N(-1, 0.8) + 0.4 N(1.2, 0.9) at rest, 201 particles on +-6, to
        # T = 0.6 at the default step, against the split-step solution on
        # the default x grid summed as its Fourier series at the particles
        # (free propagation is exact in Fourier space, so the reference's
        # step moves only rounding: dt = 1e-4 gives the same error to 3e-8
        # relative); phase-reduced L2 on |x| <= 4, pinned to 0.1 %
        def mixture(x):
            return sum(w * np.exp(-0.5 * ((x - mu) / s) ** 2)
                       / math.sqrt(2.0 * math.pi * s * s)
                       for w, mu, s in ((0.6, -1.0, 0.8), (0.4, 1.2, 0.9)))

        labels = np.linspace(-6.0, 6.0, 201)
        rho0 = mixture(labels)
        init = InitialState(labels=labels, rho0=rho0 / np.trapezoid(rho0, labels),
                            s0=np.zeros_like(labels))
        result = qtm_evolve(init, PARAMS, QtmConfig(t_final=0.6,
                                                    snapshot_stride=10**6))
        x_grid = np.linspace(-12.0, 12.0, 1024, endpoint=False)
        rho = mixture(x_grid)
        psi0 = np.sqrt(rho / (np.sum(rho) * (x_grid[1] - x_grid[0])))
        wave = split_step_evolve(psi0.astype(complex), x_grid, PARAMS, 0.1, 0.6)[-1]
        k = 2.0 * np.pi * np.fft.fftfreq(x_grid.size, d=x_grid[1] - x_grid[0])
        x = result.snapshots[-1].q
        reference = np.exp(1j * np.outer(x - x_grid[0], k)) @ (
            np.fft.fft(wave.psi) / x_grid.size)
        err = error_norms(result.psi, reference, x, np.abs(x) <= 4.0)
        assert err.phase_reduced_l2 == pytest.approx(1.1518e-6, rel=1e-3)

    def test_step_budget(self):
        init = _truncated_gaussian_state(1.0, PARAMS, np.linspace(-5, 5, 101))
        with pytest.raises(ValidationError, match="over the budget"):
            qtm_evolve(init, PARAMS,
                       QtmConfig(t_final=1.0, dt=0.5 / MAX_STEPS))

    def test_non_finite_state_aborts(self, monkeypatch):
        # NaN passes both ordering checks; only the finite check stops it
        rhs = qtm._qtm_rhs
        calls = []

        def poisoned(*args, out):
            calls.append(1)
            rhs(*args, out=out)
            if len(calls) == 6:    # the k2 stage of the second step
                out.fill(np.nan)
            return out

        monkeypatch.setattr(qtm, "_qtm_rhs", poisoned)
        init = _truncated_gaussian_state(1.0, PARAMS, np.linspace(-5, 5, 101))
        with pytest.raises(NumericalInstability,
                           match="non-finite particle state at t = 0.01"):
            qtm_evolve(init, PARAMS, QtmConfig(t_final=0.2, dt=0.005))
        assert len(calls) == 8
