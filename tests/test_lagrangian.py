import numpy as np
import pytest

from qflow.benchmarks import gaussian_trajectory
from qflow.errors import (NumericalInstability, TrajectoryCrossing,
                          ValidationError)
from qflow.lagrangian import (ModeProjector, SolverConfig, _accel_direct_from,
                              _kinematics, _LabelData, _log_density_derivatives,
                              _projected_force, _vq_from,
                              acceleration_direct, acceleration_newton,
                              default_projection_degree, energy_of, evolve,
                              initial_velocity)
from qflow.model import (MAX_STEPS, AnalyticForms, HarmonicPotential,
                         InitialState, PhysicsParams, TrajectoryState,
                         make_gaussian_state, plan_steps)
from qflow.stencils import (Stencil, _operator, derivative, grid_spacing,
                            trapezoid_weights)

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


def _reference_projection(labels, rho0, degree):
    """The mass-weighted Legendre projection (Q (Q^T (w_r f))) / w_r, with Q
    and the floored root weight w_r built as ``ModeProjector`` builds them."""
    w = np.sqrt(np.maximum(rho0, ModeProjector.WEIGHT_FLOOR_REL * np.max(rho0))
                * trapezoid_weights(labels))
    t = 2.0 * (labels - labels[0]) / (labels[-1] - labels[0]) - 1.0
    Q, _ = np.linalg.qr(w[:, None] * np.polynomial.legendre.legvander(t, degree))
    return lambda f: (Q @ (Q.T @ (w * f))) / w


def _unstacked_rk4(init, params, config):
    """Reference: the RK4 loop over separate q, qdot and the phase at the
    density peak, with the forces written out term by term (G with its five
    powers of 1/J) and the plain projection applied to the assembled
    acceleration; chi away from the peak is the change of the running
    trapezoid of m qdot J since t = 0, shifted to the carried value there."""
    data = _LabelData(init, params)
    h, L1, L2 = data.h, data.L1, data.L2
    degree = min(default_projection_degree(init.n), init.n - 1)
    project = _reference_projection(init.labels, init.rho0, degree)
    i0 = int(np.argmax(init.rho0))

    def rhs(q, qd, t):
        J, Jp, Jpp = (derivative(q, h, m) for m in (1, 2, 3))
        Ji = 1.0 / J
        ca = L1 - Jp * Ji
        caa = (L2 - L1**2) - (Jpp * Ji - (Jp * Ji) ** 2)
        cx = ca * Ji
        cxx = (caa - ca * Jp * Ji) * Ji**2
        vq = params.quantum_potential(cx, cxx)
        G = (2.0 * Ji**5 * Jp**2 - Ji**4 * Jp * L1 - Ji**4 * Jpp
             + Ji**3 * L2 - Ji**3 * L1**2)
        acc = ((params.hbar**2 / (4.0 * params.mass**2))
               * (L1 * G + derivative(G, h, 1))
               - params.potential_gradient(q) / params.mass)
        ld = 0.5 * params.mass * qd**2 - params.potential_energy(q) - vq
        return qd, project(acc), ld[i0]

    def phi(q, qd):
        dphi = params.mass * qd * derivative(q, h, 1)
        return np.concatenate(([0.0], np.cumsum(
            np.diff(init.labels) * (dphi[1:] + dphi[:-1]) / 2.0)))

    n_steps, dt = plan_steps(config.t_final, config.auto_dt(h, params))
    q = init.labels.copy()
    qd = initial_velocity(init, params)
    phi0 = phi(q, qd)
    chi0 = 0.0
    t = 0.0
    for step in range(n_steps):
        k1q, k1v, k1c = rhs(q, qd, t)
        k2q, k2v, k2c = rhs(q + 0.5 * dt * k1q, qd + 0.5 * dt * k1v, t + 0.5 * dt)
        k3q, k3v, k3c = rhs(q + 0.5 * dt * k2q, qd + 0.5 * dt * k2v, t + 0.5 * dt)
        k4q, k4v, k4c = rhs(q + dt * k3q, qd + dt * k3v, t + dt)
        q = q + dt / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        qd = qd + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        chi0 = chi0 + dt / 6.0 * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        t = (step + 1) * dt
    dphi = phi(q, qd) - phi0
    return n_steps, q, qd, dphi - dphi[i0] + chi0


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
        data = _LabelData(self.init, PARAMS)
        vq = _vq_from(data, PARAMS, _kinematics(data, self.init.labels))
        i0 = np.argmin(np.abs(self.init.labels))
        i1 = np.argmin(np.abs(self.init.labels - 1.0))
        assert vq[i0] == pytest.approx(0.25, abs=1e-8)
        assert vq[i1] == pytest.approx(0.125, abs=1e-8)

    def test_shared_kernel_matches_per_derivative_formulas(self):
        # reference: J, J', J'' from one stencil call each, as the forms
        # were written before the stacked kernel, and G with its five powers
        # of 1/J; on a non-affine map V_Q must reproduce it bit for bit, the
        # accelerations (G = c_xx / J) to rounding
        a = self.init.labels
        q = a + 0.1 * np.sin(a)
        data = _LabelData(self.init, PARAMS)
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
        tol = 1e-12 * np.max(np.abs(acc_ref))
        assert np.max(np.abs(acceleration_direct(state, self.init, PARAMS)
                             - acc_ref)) <= tol
        assert np.max(np.abs(_accel_direct_from(data, PARAMS, q, kin)
                             - acc_ref)) <= tol
        assert np.array_equal(_vq_from(data, PARAMS, kin), vq_ref)

    @pytest.mark.parametrize("potential", [None, HarmonicPotential(omega=1.5)])
    def test_composed_force_matches_projected_acceleration(self, potential):
        # the in-loop force, one projection of the stacked (G, dV/dq), is
        # the plain projection of the conservation-form acceleration
        params = PARAMS if potential is None else PhysicsParams(potential=potential)
        a = self.init.labels
        q = a + 0.1 * np.sin(a)
        data = _LabelData(self.init, params)
        project = ModeProjector(a, self.init.rho0,
                                default_projection_degree(a.size))
        kin = _kinematics(data, q)
        G = _log_density_derivatives(data, kin)[1] * kin[3]
        force = _projected_force(data, params, project)(
            np.stack((G, params.potential_gradient(q))))
        ref = project(acceleration_direct(_state_from(self.init, q=q),
                                          self.init, params))
        core = np.abs(a) <= 4
        assert (np.max(np.abs(force - ref)[core])
                <= 1e-13 * np.max(np.abs(ref[core])))
        assert np.max(np.abs(force - ref)) <= 1e-11 * np.max(np.abs(ref))

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

    def test_step_budget(self):
        # hbar = 1e150 makes the auto step ~1e-154: rejected before any step
        huge = PhysicsParams(hbar=1e150)
        init = make_gaussian_state(1.0, huge, np.linspace(-8, 8, 101))
        with pytest.raises(ValidationError, match="over the budget"):
            evolve(init, huge, SolverConfig(t_final=2.0))
        with pytest.raises(ValidationError, match="over the budget"):
            evolve(init, PARAMS, SolverConfig(t_final=1.0, dt=0.5 / MAX_STEPS))

    def test_one_stencil_product_per_force_evaluation(self, monkeypatch):
        # every stencil product, bound or through ``derivative``, is one
        # ``Stencil`` application
        calls = []
        apply = Stencil.__call__

        def counting(self, f):
            out = apply(self, f)
            calls.append(out.shape)
            return out

        monkeypatch.setattr(Stencil, "__call__", counting)
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 101))
        evolve(init, PARAMS, SolverConfig(t_final=0.01, dt=0.01))
        # four RK4 force evaluations (dG/da is folded into the projection),
        # plus one product for each energy check, at t = 0 and at the final
        # snapshot
        assert len(calls) == 4 + 2, calls

    @pytest.mark.parametrize("potential", [None, HarmonicPotential(omega=1.5)])
    def test_stacked_rk4_matches_unstacked_reference(self, potential):
        # a non-affine flow, so every force term is live
        params = PARAMS if potential is None else PhysicsParams(potential=potential)
        init = _custom_phase_state(lambda a: 0.3 * np.cos(a),
                                   lambda a: 0.3 * np.sin(a))
        cfg = SolverConfig(t_final=0.07, dt=0.01)
        n_steps, q, qd, chi = _unstacked_rk4(init, params, cfg)
        last = evolve(init, params, cfg)[-1]
        assert n_steps == 7
        # the outermost labels sit where the projection's 1/w_r lift
        # amplifies rounding
        core = np.abs(init.labels) <= 4
        for got, ref in ((last.q, q), (last.qdot, qd), (last.chi, chi)):
            assert (np.max(np.abs(got - ref)[core])
                    <= 1e-11 * np.max(np.abs(ref[core])))
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_one_stencil_operator_per_grid_and_stack(self):
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 101))
        _operator.cache_clear()
        evolve(init, PARAMS, SolverConfig(t_final=0.05, dt=0.01))
        info = _operator.cache_info()
        # every build is a new (n, ms, order) key: (1, 2, 3) for the
        # kinematics and 1 for dG/da, each bound once for the whole run
        assert info.misses == info.currsize == 2
        assert info.hits == 0

    def test_one_projection_per_rhs_evaluation(self, monkeypatch):
        # the benchmark's rhs_evals counts ModeProjector calls: 4 per RK4 step
        calls = []
        project = ModeProjector.__call__

        def counting(self, f):
            calls.append(1)
            return project(self, f)

        monkeypatch.setattr(ModeProjector, "__call__", counting)
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 101))
        evolve(init, PARAMS, SolverConfig(t_final=0.07, dt=0.01))
        assert len(calls) == 4 * 7

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

    def test_velocity_potential_residual_is_rounding(self):
        # m qdot dq/da = d(S0 + chi)/da: evolve builds chi from the running
        # trapezoid of m qdot J, and on this affine flow (m qdot J linear in
        # a) the trapezoid and the fourth-order stencil are exact, so the
        # residual is rounding at every time step
        harmonic = PhysicsParams(potential=HarmonicPotential(omega=1.0))
        init = make_gaussian_state(1.0, harmonic, np.linspace(-8, 8, 201))
        h = grid_spacing(init.labels)
        for dt in (0.024, 0.012, 0.0005):
            cfg = SolverConfig(t_final=1.2, dt=dt, projection_degree=16,
                               snapshot_stride=10**9)
            s = evolve(init, harmonic, cfg)[-1]
            lhs = harmonic.mass * s.qdot * derivative(s.q, h, 1, 4)
            rhs = derivative(init.s0 + s.chi, h, 1, 4)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10, dt


# a six-snapshot run-lagrangian on a small grid
_SHORT_RUN = {"grid.n_labels": 101, "grid.n_x": 256, "solver.t_final": 0.05,
              "solver.dt": 0.005, "solver.snapshot_stride": 2,
              "output.field_times": 3}


class TestRunSummary:
    def test_label_data_built_once_per_run(self, monkeypatch):
        import qflow.lagrangian as lagrangian
        from qflow.config import Settings
        from qflow.pipeline import run_lagrangian

        built = []
        init_label_data = lagrangian._LabelData.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init_label_data(self, *args, **kwargs)

        monkeypatch.setattr(lagrangian._LabelData, "__init__", counting)
        settings = Settings.defaults(**_SHORT_RUN)
        snapshots, _, summary, _ = run_lagrangian(settings)
        # one for evolve and one for the summary's accelerations, whatever
        # the number of snapshots
        assert len(snapshots) == 6
        assert len(built) == 2
        monkeypatch.undo()
        params = settings.physics()
        init = settings.initial_state(params)
        assert summary["energy"] == [energy_of(s, init, params) for s in snapshots]

    def test_min_jacobian_from_the_energy_kinematics(self):
        # evolve attaches min J from the kinematics of its energy check
        # (the stacked (1, 2, 3) product); it equals a separate m = 1 pass
        from qflow.config import Settings
        from qflow.pipeline import run_lagrangian

        settings = Settings.defaults(**_SHORT_RUN)
        init = settings.initial_state(settings.physics())
        h = grid_spacing(init.labels)
        snapshots, _, summary, _ = run_lagrangian(settings)
        assert summary["min_jacobian"] == [float(np.min(derivative(s.q, h, 1)))
                                           for s in snapshots]
        assert summary["min_jacobian"] == [s.min_jacobian for s in snapshots]

    def test_one_energy_evaluation_per_snapshot(self, monkeypatch):
        # the summary reads the energies evolve computed for its drift check
        import qflow.lagrangian as lagrangian
        import qflow.pipeline as pipeline
        from qflow.config import Settings
        from qflow.pipeline import run_lagrangian

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return energy_of(*args, **kwargs)

        # wherever run_lagrangian might look the name up
        monkeypatch.setattr(lagrangian, "energy_of", counting)
        monkeypatch.setattr(pipeline, "energy_of", counting, raising=False)
        settings = Settings.defaults(**_SHORT_RUN)
        snapshots, _, summary, _ = run_lagrangian(settings)
        assert len(snapshots) == 6
        assert len(calls) == 6
        assert summary["energy"] == [s.energy for s in snapshots]
