import numpy as np
import pytest

from qflow.benchmarks import gaussian_trajectory
from qflow.errors import (NumericalInstability, TrajectoryCrossing,
                          ValidationError)
from qflow.lagrangian import (SolverConfig, _accel_direct_from, _kinematics,
                              _LabelData, _vq_from, acceleration_direct,
                              acceleration_newton, energy_of, evolve,
                              initial_velocity, quantum_potential_labels)
from qflow.model import (AnalyticForms, HarmonicPotential, InitialState,
                         PhysicsParams, TrajectoryState, make_gaussian_state)
from qflow.stencils import derivative

PARAMS = PhysicsParams()


def _state_from(init, q=None, qdot=None, t=0.0):
    a = init.labels
    return TrajectoryState(labels=a, q=a.copy() if q is None else q,
                           qdot=np.zeros_like(a) if qdot is None else qdot,
                           chi=np.zeros_like(a), t=t)


def _uniform_state(n=101, span=4.0):
    a = np.linspace(-span, span, n)
    rho = np.full_like(a, 1.0 / (2 * span))
    forms = AnalyticForms(
        rho0=lambda x: np.full_like(np.asarray(x, float), 1.0 / (2 * span)),
        drho0=lambda x: np.zeros_like(np.asarray(x, float)),
        d2rho0=lambda x: np.zeros_like(np.asarray(x, float)),
        s0=lambda x: np.zeros_like(np.asarray(x, float)),
        ds0=lambda x: np.zeros_like(np.asarray(x, float)),
        d2s0=lambda x: np.zeros_like(np.asarray(x, float)),
    )
    return InitialState(labels=a, rho0=rho, s0=np.zeros_like(a), forms=forms)


def _custom_phase_state(ds0_fn, s0_fn, analytic=True):
    a = np.linspace(-8, 8, 201)
    base = make_gaussian_state(1.0, PARAMS, a)
    forms = None
    if analytic:
        forms = AnalyticForms(rho0=base.forms.rho0, drho0=base.forms.drho0,
                              d2rho0=base.forms.d2rho0, s0=s0_fn, ds0=ds0_fn)
    return InitialState(labels=a, rho0=base.rho0, s0=s0_fn(a), forms=forms)


class TestInitialVelocity:
    def test_at_rest(self):
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 101))
        assert np.all(initial_velocity(init, PARAMS) == 0.0)

    def test_linear_phase(self):
        init = _custom_phase_state(lambda x: np.ones_like(x), lambda x: x)
        assert initial_velocity(init, PARAMS) == pytest.approx(np.ones(201))

    def test_quadratic_phase_heavier_mass(self):
        p = PhysicsParams(mass=2.0)
        init = _custom_phase_state(lambda x: np.asarray(x, float),
                                   lambda x: 0.5 * np.asarray(x, float) ** 2)
        assert initial_velocity(init, p) == pytest.approx(init.labels / 2.0)

    def test_numeric_fallback_matches_analytic(self):
        analytic = _custom_phase_state(lambda x: np.cos(x), lambda x: np.sin(x))
        sampled = _custom_phase_state(lambda x: np.cos(x), lambda x: np.sin(x),
                                      analytic=False)
        va = initial_velocity(analytic, PARAMS)
        vn = initial_velocity(sampled, PARAMS)
        # fourth-order stencil truncation on sin at this spacing
        assert np.max(np.abs(va - vn)) < 5e-6


class TestAccelerations:
    def setup_method(self):
        self.init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 401))

    def test_direct_at_rest_scales_with_label(self):
        state = _state_from(self.init)
        acc = acceleration_direct(state, self.init, PARAMS)
        i = np.argmin(np.abs(self.init.labels - 1.0))
        assert acc[i] == pytest.approx(0.25, abs=1e-6)
        assert np.max(np.abs(acc - 0.25 * self.init.labels)) < 1e-6

    def test_newton_agrees_at_rest(self):
        state = _state_from(self.init)
        acc = acceleration_newton(state, self.init, PARAMS)
        i = np.argmin(np.abs(self.init.labels - 1.0))
        assert acc[i] == pytest.approx(0.25, abs=1e-6)

    def test_paths_agree_on_exact_states(self):
        for t in (0.0, 2.0):
            q, qdot = gaussian_trajectory(self.init.labels, t, 1.0, PARAMS)
            state = _state_from(self.init, q=q, qdot=qdot, t=t)
            d = acceleration_direct(state, self.init, PARAMS)
            n = acceleration_newton(state, self.init, PARAMS)
            rel = np.max(np.abs(d - n)) / np.max(np.abs(n))
            assert rel <= 1e-4

    def test_translation_invariance(self):
        state = _state_from(self.init)
        shifted = _state_from(self.init, q=self.init.labels + 3.0)
        a0 = acceleration_direct(state, self.init, PARAMS)
        a1 = acceleration_direct(shifted, self.init, PARAMS)
        # identical up to rounding amplified by the third-derivative stencil
        assert np.max(np.abs(a0 - a1)) < 1e-6

    def test_harmonic_adds_linear_restoring_force(self):
        harmonic = PhysicsParams(potential=HarmonicPotential(omega=1.0))
        state = _state_from(self.init)
        free = acceleration_direct(state, self.init, PARAMS)
        trapped = acceleration_direct(state, self.init, harmonic)
        assert trapped - free == pytest.approx(-self.init.labels, abs=1e-12)

    def test_uniform_density_is_force_free(self):
        init = _uniform_state()
        state = _state_from(init)
        assert np.max(np.abs(acceleration_newton(state, init, PARAMS))) < 1e-8
        assert np.max(np.abs(acceleration_direct(state, init, PARAMS))) < 1e-8

    def test_quantum_potential_values(self):
        state = _state_from(self.init)
        vq = quantum_potential_labels(state, self.init, PARAMS)
        i0 = np.argmin(np.abs(self.init.labels))
        i1 = np.argmin(np.abs(self.init.labels - 1.0))
        assert vq[i0] == pytest.approx(0.25, abs=1e-8)
        assert vq[i1] == pytest.approx(0.125, abs=1e-8)

    def test_shared_kernel_matches_per_derivative_formulas(self):
        # reference: J, J', J'' from one stencil call each, as the forms
        # were written before the stacked kernel; the public forms and the
        # in-loop kernel must reproduce it bit for bit on a non-affine map
        a = self.init.labels
        q = a + 0.1 * np.sin(a)
        data = _LabelData(self.init, PARAMS, 4)
        h, L1, L2 = data.h, data.L1, data.L2
        J, Jp, Jpp = (derivative(q, h, m, 4) for m in (1, 2, 3))
        Ji = 1.0 / J
        G = (2.0 * Ji**5 * Jp**2 - Ji**4 * Jp * L1 - Ji**4 * Jpp
             + Ji**3 * L2 - Ji**3 * L1**2)
        acc_ref = ((PARAMS.hbar**2 / (4.0 * PARAMS.mass**2))
                   * (L1 * G + derivative(G, h, 1, 4))
                   - PARAMS.potential_gradient(q) / PARAMS.mass)
        ca = L1 - Jp * Ji
        caa = (L2 - L1**2) - (Jpp * Ji - (Jp * Ji) ** 2)
        cx = ca * Ji
        cxx = (caa - ca * Jp * Ji) * Ji**2
        vq_ref = -(PARAMS.hbar**2 / (4.0 * PARAMS.mass)) * (cxx + 0.5 * cx**2)

        state = _state_from(self.init, q=q)
        kin = _kinematics(data, q)
        assert np.array_equal(acceleration_direct(state, self.init, PARAMS), acc_ref)
        assert np.array_equal(_accel_direct_from(data, PARAMS, q, kin), acc_ref)
        assert np.array_equal(quantum_potential_labels(state, self.init, PARAMS),
                              vq_ref)
        assert np.array_equal(_vq_from(data, PARAMS, kin), vq_ref)

    def test_crossing_detected(self):
        q = self.init.labels.copy()
        # still strictly increasing, but compressed below the J floor
        q[250:] = q[249] + 1e-13 * np.arange(1, q.size - 249)
        state = _state_from(self.init, q=q)
        with pytest.raises(TrajectoryCrossing):
            acceleration_direct(state, self.init, PARAMS)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SolverConfig(t_final=-1.0).validate()
        with pytest.raises(ValidationError):
            SolverConfig(t_final=1.0, dt=-0.1).validate()
        with pytest.raises(ValidationError):
            SolverConfig(t_final=1.0, integrator="leapfrog").validate()
        with pytest.raises(ValidationError):
            SolverConfig(t_final=1.0, stencil_order=3).validate()
        with pytest.raises(ValidationError):
            SolverConfig(t_final=1.0, acceleration_path="magic").validate()

    def test_auto_dt_rule(self):
        cfg = SolverConfig(t_final=1.0, cfl_coefficient=0.1)
        p = PhysicsParams(hbar=2.0, mass=3.0)
        assert cfg.auto_dt(0.04, p) == pytest.approx(0.1 * 0.04**2 * 3.0 / 2.0)
        assert SolverConfig(t_final=1.0, dt=0.5).auto_dt(0.04, p) == 0.5


class TestEvolve:
    def test_initial_snapshot_is_identity(self):
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 101))
        snaps = evolve(init, PARAMS, SolverConfig(t_final=0.05))
        assert snaps[0].t == 0.0
        assert np.all(snaps[0].q == init.labels)
        assert np.all(snaps[0].chi == 0.0)

    def test_short_free_run_tracks_closed_form(self):
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 201))
        snaps = evolve(init, PARAMS, SolverConfig(t_final=0.5))
        q_exact, qd_exact = gaussian_trajectory(init.labels, 0.5, 1.0, PARAMS)
        assert np.max(np.abs(snaps[-1].q - q_exact)) < 1e-6
        assert np.max(np.abs(snaps[-1].qdot - qd_exact)) < 1e-6

    def test_phase_accumulation_at_center(self):
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 201))
        snaps = evolve(init, PARAMS, SolverConfig(t_final=0.5))
        # S at the resting center label integrates -V_Q(0, t)
        expected = -0.5 * np.arctan(0.25)
        assert snaps[-1].chi[100] == pytest.approx(expected, abs=1e-8)

    def test_newton_path_matches_direct(self):
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 201))
        q_d = evolve(init, PARAMS, SolverConfig(t_final=0.5))[-1].q
        q_n = evolve(init, PARAMS, SolverConfig(
            t_final=0.5, acceleration_path="newton"))[-1].q
        assert np.max(np.abs(q_d - q_n)) < 1e-7

    def test_both_with_check_runs_clean(self):
        import warnings
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 201))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evolve(init, PARAMS, SolverConfig(
                t_final=0.2, acceleration_path="both_with_check",
                snapshot_stride=100))

    def test_velocity_verlet_close_to_rk4(self):
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 201))
        q_rk = evolve(init, PARAMS, SolverConfig(t_final=0.3))[-1].q
        q_vv = evolve(init, PARAMS, SolverConfig(
            t_final=0.3, integrator="velocity_verlet"))[-1].q
        assert np.max(np.abs(q_rk - q_vv)) < 1e-5

    def test_velocity_verlet_is_second_order(self):
        harmonic = PhysicsParams(potential=HarmonicPotential(omega=1.0))
        init = make_gaussian_state(1.0, harmonic, np.linspace(-8, 8, 201))

        def final_q(dt):
            cfg = SolverConfig(t_final=0.6, dt=dt, projection_degree=16,
                               integrator="velocity_verlet",
                               snapshot_stride=10**9)
            return evolve(init, harmonic, cfg)[-1].q

        q_ref = final_q(0.0005)
        errs = [np.max(np.abs(final_q(dt) - q_ref)) for dt in (0.016, 0.008)]
        order = np.log2(errs[0] / errs[1])
        assert 1.7 < order < 2.3

    def test_quantum_pressure_bounces_a_uniform_squeeze(self):
        # a uniformly contracting packet does NOT cross: the internal
        # pressure diverges as the fluid compresses and the packet rebounds
        init = _custom_phase_state(lambda x: -4.0 * np.asarray(x, float),
                                   lambda x: -2.0 * np.asarray(x, float) ** 2)
        snaps = evolve(init, PARAMS, SolverConfig(t_final=1.0,
                                                  snapshot_stride=50))
        assert np.min(np.diff(snaps[-1].q)) > 0

    def test_monotonicity_abort_on_shock_forming_flow(self):
        # opposing streams steepen faster than the grid can resolve; the
        # monotonicity guard must abort rather than produce folded maps
        init = _custom_phase_state(
            lambda x: -3.0 * np.tanh(2.0 * np.asarray(x, float)),
            lambda x: -1.5 * np.log(np.cosh(2.0 * np.asarray(x, float))))
        with pytest.raises(TrajectoryCrossing):
            evolve(init, PARAMS, SolverConfig(t_final=1.0, snapshot_stride=20))

    def test_unstable_dt_aborts_with_energy_diagnostic(self):
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 201))
        cfg = SolverConfig(t_final=40.0, dt=3.0, snapshot_stride=1,
                           projection_degree=24)
        with pytest.raises(NumericalInstability, match="energy drift"):
            evolve(init, PARAMS, cfg)

    def test_non_finite_state_aborts(self):
        # NaN passes both the J floor and the monotonicity test
        nan_trap = PhysicsParams(potential=HarmonicPotential(omega=float("nan")))
        init = make_gaussian_state(1.0, nan_trap, np.linspace(-8, 8, 101))
        with pytest.raises(NumericalInstability, match="non-finite"):
            evolve(init, nan_trap, SolverConfig(t_final=0.01))

    @pytest.mark.parametrize("integrator,path,force_evals", [
        ("rk4", "direct", 4), ("rk4", "newton", 4), ("velocity_verlet", "direct", 2)])
    def test_at_most_two_stencil_products_per_force_evaluation(
            self, monkeypatch, integrator, path, force_evals):
        import qflow.lagrangian as lagrangian
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2] if len(args) > 2 else kwargs.get("m", 1))
            return derivative(*args, **kwargs)

        monkeypatch.setattr(lagrangian, "derivative", counting)
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 101))
        cfg = SolverConfig(t_final=0.01, dt=0.01, integrator=integrator,
                           acceleration_path=path)
        evolve(init, PARAMS, cfg)
        # plus one for each energy check, at t = 0 and at the final snapshot
        assert len(calls) <= 2 * force_evals + 2, calls

    def test_snapshot_stride_and_final_inclusion(self):
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 101))
        snaps = evolve(init, PARAMS, SolverConfig(t_final=0.1, dt=0.003,
                                                  snapshot_stride=7))
        assert snaps[-1].t == pytest.approx(0.1)
        assert len(snaps) == 2 + (34 // 7)


class TestEnergyAndInvariants:
    def test_initial_energy_closed_form(self):
        # E = integral of rho0 * (hbar^2/8m) (rho0'/rho0)^2 = sigma0^2/8 ... = 1/8
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 401))
        state = _state_from(init)
        assert energy_of(state, init, PARAMS) == pytest.approx(0.125, abs=1e-9)

    def test_energy_conserved_on_run(self):
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 201))
        snaps = evolve(init, PARAMS, SolverConfig(t_final=0.5))
        e = [energy_of(s, init, PARAMS) for s in snaps]
        assert max(abs(x - e[0]) for x in e) / abs(e[0]) < 1e-10

    def test_velocity_potential_residual_shrinks_at_integrator_order(self):
        # m qdot dq/da = d(S0 + chi)/da holds to integrator accuracy; the
        # deviation from a fine-dt run of the same discretization falls at
        # the RK4 rate
        from qflow.stencils import derivative, grid_spacing
        harmonic = PhysicsParams(potential=HarmonicPotential(omega=1.0))
        init = make_gaussian_state(1.0, harmonic, np.linspace(-8, 8, 201))
        h = grid_spacing(init.labels)

        def residual(dt):
            cfg = SolverConfig(t_final=1.2, dt=dt, projection_degree=16,
                               snapshot_stride=10**9)
            s = evolve(init, harmonic, cfg)[-1]
            lhs = harmonic.mass * s.qdot * derivative(s.q, h, 1, 4)
            rhs = derivative(init.s0 + s.chi, h, 1, 4)
            return lhs - rhs

        r_ref = residual(0.0005)
        devs = [np.max(np.abs(residual(dt) - r_ref)) for dt in (0.024, 0.012)]
        order = np.log2(devs[0] / devs[1])
        assert order >= 3.5
        # and the residual itself is small at the spatial floor
        assert np.max(np.abs(r_ref)) < 1e-3
