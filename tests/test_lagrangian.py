import numpy as np
import pytest
from scipy import sparse

from qflow.benchmarks import gaussian_trajectory
from qflow.errors import (NumericalInstability, TrajectoryCrossing,
                          ValidationError)
from qflow.lagrangian import (TAIL_FLOOR_REL, ModeProjector, SolverConfig,
                              _check_kinematics, _kinematics, _LabelData,
                              _log_density,
                              _log_density_derivatives, _projected_force,
                              acceleration_direct, acceleration_newton,
                              default_projection_degree, energy_of, evolve,
                              initial_velocity)
from qflow.model import (MAX_STEPS, AnalyticForms, FreePotential,
                         HarmonicPotential, InitialState, PhysicsParams,
                         TabulatedPotential, TrajectoryState,
                         make_gaussian_state, plan_steps)
from qflow.pipeline import _truncated_gaussian_state
from qflow.stencils import (Stencil, _operator, cumulative_trapezoid,
                            derivative, grid_spacing, trapezoid_weights)

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


def _flat_rk4(init, params, config):
    """Oracle: RK4 on the flat label state (q, qdot, chi[i0]) of 2n + 1
    values, the right-hand side taking (J, J', J'') from the stencil product
    of q and lifting the projected force to the labels; snapshots as
    ``evolve`` measures them.  Returns, per snapshot, (t, q, qdot, chi,
    energy, min J)."""
    data = _LabelData(init, params)
    n, h = init.n, data.h
    i0 = int(np.argmax(init.rho0))
    degree = min(config.projection_degree or default_projection_degree(n),
                 n - 1)
    project = ModeProjector(init.labels, init.rho0, degree)
    force = _projected_force(data, params, project)

    def rhs(y):
        q, qd = y[:n], y[n:-1]
        J, Jp, Jpp = derivative(q, h, (1, 2, 3))
        Ji = 1.0 / J
        JpJi = Jp * Ji
        ca = data.L1 - JpJi
        caa = data.L2_minus_L1_sq - (Jpp * Ji - JpJi**2)
        cx = ca * Ji
        cxx = (caa - ca * Jp * Ji) * Ji**2
        k = np.empty_like(y)
        k[:n] = qd
        k[n:-1] = project.lift @ force(np.stack((cxx * Ji,
                                                 params.potential_gradient(q))))
        k[-1] = (0.5 * params.mass * qd[i0]**2 - params.potential_energy(q[i0])
                 - params.quantum_potential(cx[i0], cxx[i0]))
        return k

    def phi(q, qd):
        return cumulative_trapezoid(params.mass * qd * derivative(q, h, 1),
                                    init.labels)

    n_steps, dt = plan_steps(config.t_final, config.auto_dt(h, params))
    y = np.concatenate((init.labels, initial_velocity(init, params), [0.0]))
    phi0 = phi(y[:n], y[n:-1])
    snaps = []

    def snapshot(t):
        q, qd = y[:n].copy(), y[n:-1].copy()
        dphi = phi(q, qd) - phi0
        state = TrajectoryState(init.labels, q, qd, dphi - dphi[i0] + y[-1], t)
        snaps.append((t, q, qd, state.chi, energy_of(state, init, params),
                      float(derivative(q, h, 1).min())))

    snapshot(0.0)
    for step in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (step + 1) % config.snapshot_stride == 0 or step + 1 == n_steps:
            snapshot((step + 1) * dt)
    return snaps


def _allocating_rk4(init, params, config):
    """Reference: the modal RK4 loop on y = (c, e, chi[i0]) with a new array
    for every intermediate, the right-hand side and the stage expressions
    written out as plain array expressions (the force on G alone under a
    free potential, as ``evolve`` composes it there); snapshots as
    ``evolve`` measures them.  Returns, per snapshot, (t, q, qdot, chi,
    energy, min J)."""
    data = _LabelData(init, params)
    n, h = init.n, data.h
    i0 = int(np.argmax(init.rho0))
    degree = min(config.projection_degree or default_projection_degree(n),
                 n - 1)
    project = ModeProjector(init.labels, init.rho0, degree)
    free = isinstance(params.potential, FreePotential)
    force = _projected_force(data, params, project, g_only=free)
    r, lift = degree + 1, project.lift
    qdot0 = initial_velocity(init, params)
    basis = np.asfortranarray(np.column_stack((init.labels, qdot0, lift)))
    K3 = derivative(basis.T, h, (1, 2, 3)).transpose(1, 0, 2).reshape(-1, 3 * n).T

    def rhs(y, t):
        c, e = y[:r], y[r:-1]
        z = np.concatenate(([1.0, t], c))
        J, Jp, Jpp = (K3 @ z).reshape(3, n)
        q = basis @ z
        Ji = 1.0 / J
        A = Jp * Ji
        ca = data.L1 - A
        cxx = ((A - ca) * A - Jpp * Ji + data.L2_minus_L1_sq) * Ji**2
        G = cxx * Ji
        k = np.empty_like(y)
        k[:r] = e
        k[r:-1] = force(G if free else np.stack((G, params.potential_gradient(q))))
        qd = float(qdot0[i0]) + lift[i0] @ e
        k[-1] = (0.5 * params.mass * qd**2 - params.potential_energy(q[i0])
                 - params.quantum_potential(float(ca[i0]) * float(Ji[i0]),
                                            float(cxx[i0])))
        return k

    def phi(q, qd):
        return cumulative_trapezoid(params.mass * qd * derivative(q, h, 1),
                                    init.labels)

    n_steps, dt = plan_steps(config.t_final, config.auto_dt(h, params))
    y = np.zeros(2 * r + 1)
    phi0 = phi(init.labels, qdot0)
    snaps = []

    def snapshot(t):
        q = basis @ np.concatenate(([1.0, t], y[:r]))
        qd = qdot0 + lift @ y[r:-1]
        dphi = phi(q, qd) - phi0
        state = TrajectoryState(init.labels, q, qd, dphi - dphi[i0] + y[-1], t)
        snaps.append((t, q, qd, state.chi, energy_of(state, init, params),
                      float(derivative(q, h, 1).min())))

    snapshot(0.0)
    for step in range(n_steps):
        t = step * dt
        k1 = rhs(y, t)
        k2 = rhs(y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(y + dt * k3, t + dt)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (step + 1) % config.snapshot_stride == 0 or step + 1 == n_steps:
            snapshot((step + 1) * dt)
    return snaps


def _two_hump_state(labels):
    """0.6 N(-1, 0.8) + 0.4 N(1.2, 0.9) at rest, the benchmark's non-affine
    mixture, with analytic forms normalized on the label span."""
    def mixture(a, k):
        a = np.asarray(a, dtype=float)
        total = np.zeros_like(a)
        for w, mu, s in ((0.6, -1.0, 0.8), (0.4, 1.2, 0.9)):
            z = (a - mu) / s
            total += w * np.exp(-0.5 * z**2) / s * (1.0, -z / s,
                                                    (z**2 - 1.0) / s**2)[k]
        return total

    scale = 1.0 / np.trapezoid(mixture(labels, 0), labels)
    zero = lambda a: np.zeros_like(np.asarray(a, dtype=float))  # noqa: E731
    forms = AnalyticForms(rho0=lambda a: scale * mixture(a, 0),
                          drho0=lambda a: scale * mixture(a, 1),
                          d2rho0=lambda a: scale * mixture(a, 2),
                          s0=zero, ds0=zero, d2s0=zero)
    return InitialState(labels=labels, rho0=forms.rho0(labels),
                        s0=zero(labels), forms=forms)


def _anharmonic_trap():
    """V = x^2/2 + 0.05 x^4 tabulated on [-40, 40], 8 001 points."""
    x = np.linspace(-40.0, 40.0, 8001)
    return PhysicsParams(potential=TabulatedPotential(x, 0.5 * x**2
                                                      + 0.05 * x**4))


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
        kin = _kinematics(data, self.init.labels)
        ca, cxx = _log_density_derivatives(data, kin)
        vq = PARAMS.quantum_potential(ca * kin[3], cxx)
        i0 = np.argmin(np.abs(self.init.labels))
        i1 = np.argmin(np.abs(self.init.labels - 1.0))
        assert vq[i0] == pytest.approx(0.25, abs=1e-8)
        assert vq[i1] == pytest.approx(0.125, abs=1e-8)

    # 7.4 widths: the tail density is 1.3e-12 of the peak, just above the
    # 1e-12 the sampled branch requires
    @pytest.mark.parametrize("n, span", [(101, 6.0), (401, 7.4)])
    def test_sampled_ratios_equal_the_floored_division(self, n, span):
        # the sampled branch rejects rho0 below the floor before it divides,
        # so dividing by rho0 gives the bits of dividing by the floored rho0
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-span, span, n),
                                   analytic=False)
        data = _LabelData(init, PARAMS)
        floor = TAIL_FLOOR_REL * float(np.max(init.rho0))
        floored = np.maximum(init.rho0, floor)
        L1, L2 = derivative(init.rho0, data.h, (1, 2)) / floored
        assert data.L1.tobytes() == L1.tobytes()
        assert data.L2.tobytes() == L2.tobytes()

    def test_shared_kernel_matches_per_derivative_formulas(self):
        # reference: J, J', J'' from one stencil call each, as the forms
        # were written before the stacked kernel, and G with its five powers
        # of 1/J; on a non-affine map V_Q must reproduce its formula in
        # A = J'/J bit for bit, the accelerations (G = c_xx / J) to rounding
        a = self.init.labels
        q = a + 0.1 * np.sin(a)
        data = _LabelData(self.init, PARAMS)
        h, L1, L2 = data.h, data.L1, data.L2
        J, Jp, Jpp = (derivative(q, h, m) for m in (1, 2, 3))
        Ji = 1.0 / J
        G = (2.0 * Ji**5 * Jp**2 - Ji**4 * Jp * L1 - Ji**4 * Jpp
             + Ji**3 * L2 - Ji**3 * L1**2)
        acc_ref = ((PARAMS.hbar**2 / (4.0 * PARAMS.mass**2))
                   * (L1 * G + derivative(G, h, 1))
                   - PARAMS.potential_gradient(q) / PARAMS.mass)
        A = Jp * Ji
        ca = L1 - A
        cxx = ((A - ca) * A - Jpp * Ji + (L2 - L1**2)) * Ji**2
        vq_ref = (-(PARAMS.hbar**2 / (4.0 * PARAMS.mass))
                  * (cxx + 0.5 * (ca * Ji)**2))

        state = _state_from(self.init, q=q)
        kin = _kinematics(data, q)
        tol = 1e-12 * np.max(np.abs(acc_ref))
        assert np.max(np.abs(acceleration_direct(state, self.init, PARAMS)
                             - acc_ref)) <= tol
        ca, cxx = _log_density_derivatives(data, kin)
        assert np.array_equal(PARAMS.quantum_potential(ca * kin[3], cxx), vq_ref)

    @pytest.mark.parametrize("case", ["gaussian", "two-hump"])
    def test_log_density_kernel_matches_the_twelve_op_form(self, case):
        # the kernel's c_xx = J^-2 ((2A - L1) A - J''/J + (L2 - L1^2)),
        # A = J'/J, against the form it replaced, c_xx = (c_aa - c_a A) / J^2
        # with c_aa = (L2 - L1^2) - (J''/J - A^2), on evolved maps; measured
        # worst 2.4e-16 relative on the Gaussian and 9.4e-14 on the two-hump
        # state, at its outermost labels
        if case == "gaussian":
            init, t_final = self.init, 0.2
        else:
            init, t_final = _two_hump_state(np.linspace(-6, 6, 401)), 0.3
        data = _LabelData(init, PARAMS)
        snaps = evolve(init, PARAMS, SolverConfig(t_final=t_final,
                                                  snapshot_stride=10**6))
        for snap in snaps:
            kin = _kinematics(data, snap.q)
            _, Jp, Jpp, Ji = kin
            ca, cxx = _log_density_derivatives(data, kin)
            caa = data.L2_minus_L1_sq - (Jpp * Ji - (Jp * Ji)**2)
            cxx_ref = (caa - ca * Jp * Ji) * Ji**2
            assert np.all(np.abs(cxx - cxx_ref) <= 1e-12 * np.abs(cxx_ref))
            assert np.array_equal(ca, data.L1 - Jp * Ji)

    def test_free_force_on_g_alone_is_the_full_map_on_g_and_zero(self):
        # under a free potential evolve composes the force on the G columns
        # only: the same coefficients bit for bit, and the same modes as the
        # full map on (G, 0) to rounding
        a = self.init.labels
        data = _LabelData(self.init, PARAMS)
        project = ModeProjector(a, self.init.rho0,
                                default_projection_degree(a.size))
        full = _projected_force(data, PARAMS, project)
        half = _projected_force(data, PARAMS, project, g_only=True)
        assert full.coeffs.shape == (project.lift.shape[1], 2 * a.size)
        assert half.coeffs.shape == (project.lift.shape[1], a.size)
        assert np.array_equal(half.coeffs, full.coeffs[:, :a.size])
        kin = _kinematics(data, a + 0.1 * np.sin(a))
        G = _log_density_derivatives(data, kin)[1] * kin[3]
        want = full(np.stack((G, np.zeros_like(G))))
        assert (np.max(np.abs(half(G) - want))
                <= 1e-14 * np.max(np.abs(want)))

    @pytest.mark.parametrize("potential", [None, HarmonicPotential(omega=1.5)])
    def test_composed_force_matches_projected_acceleration(self, potential):
        # the in-loop force, the mode coefficients of the stacked (G, dV/dq),
        # lifts to the plain projection of the conservation-form acceleration
        params = PARAMS if potential is None else PhysicsParams(potential=potential)
        a = self.init.labels
        q = a + 0.1 * np.sin(a)
        data = _LabelData(self.init, params)
        project = ModeProjector(a, self.init.rho0,
                                default_projection_degree(a.size))
        kin = _kinematics(data, q)
        G = _log_density_derivatives(data, kin)[1] * kin[3]
        modes = _projected_force(data, params, project)(
            np.stack((G, params.potential_gradient(q))))
        assert modes.shape == (project.lift.shape[1],)
        force = project.lift @ modes
        ref = project.lift @ project(acceleration_direct(
            _state_from(self.init, q=q), self.init, params))
        core = np.abs(a) <= 4
        assert (np.max(np.abs(force - ref)[core])
                <= 1e-13 * np.max(np.abs(ref[core])))
        assert np.max(np.abs(force - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("params", [
        pytest.param(PARAMS, id="free"),
        pytest.param(PhysicsParams(hbar=0.7, mass=2.0,
                                   potential=HarmonicPotential(omega=1.5)),
                     id="harmonic"),
        pytest.param(_anharmonic_trap(), id="tabulated")])
    def test_composed_coefficients_are_scipys_sparse_product(self, params):
        # the numpy-built CSR rows and the dense-times-CSR kernel give the
        # coefficients of scipy's product with the stacked sparse map, bit
        # for bit
        a = self.init.labels
        data = _LabelData(self.init, params)
        project = ModeProjector(a, self.init.rho0,
                                default_projection_degree(a.size))
        d1 = sparse.csr_array(data.d1.matrix()[::-1], shape=(a.size, a.size))
        ref = project.coeffs @ sparse.hstack((
            data.quantum_coeff * (sparse.diags_array(data.L1) + d1),
            sparse.eye_array(a.size) * (-1.0 / params.mass)))
        kept = project.coeffs.copy()
        got = _projected_force(data, params, project).coeffs
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()
        # composing leaves the plain projection as it was
        assert np.array_equal(project.coeffs, kept)

    def test_kernels_write_the_bits_of_their_allocating_calls(self):
        # each kernel of the RK4 loop fills a stale buffer exactly as it
        # fills a new array
        params = PhysicsParams(potential=HarmonicPotential(omega=1.5))
        a = self.init.labels
        q = a + 0.1 * np.sin(a)
        data = _LabelData(self.init, params)
        kin = _kinematics(data, q)
        stale = np.full((4, a.size), np.nan)
        stale[:3] = kin[:3]
        _check_kinematics(stale[:3], stale[0], stale[3], data.zeros3, 0.0)
        assert np.array_equal(stale, kin)
        stale = np.full((3, a.size), np.nan)
        _, Jp, Jpp, Ji = kin
        got = _log_density(data.L1, data.L2_minus_L1_sq, Jp, Jpp, Ji, *stale)
        assert all(np.shares_memory(row, stale) for row in got)
        for row, want in zip(got, _log_density_derivatives(data, kin)):
            assert np.array_equal(row, want)
        stale = np.full(a.size, np.nan)
        assert params.potential_gradient(q, out=stale) is stale
        assert np.array_equal(stale, params.potential_gradient(q))
        assert np.array_equal(PARAMS.potential_gradient(q, out=stale), 0 * q)
        force = _projected_force(data, params, ModeProjector(
            a, self.init.rho0, default_projection_degree(a.size)))
        G_dV = np.stack((q, np.cos(a)))
        stale = np.full(force.lift.shape[1], np.nan)
        assert force(G_dV, out=stale) is stale
        assert np.array_equal(stale, force(G_dV))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_kinematics_rejected(self, bad):
        q = self.init.labels.copy()
        q[200] = bad
        with pytest.raises(NumericalInstability, match="non-finite"):
            _kinematics(_LabelData(self.init, PARAMS), q)

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

    def test_each_snapshot_validated_once(self, monkeypatch):
        # each snapshot is built once, its energy and min J included
        validated = []
        post_init = TrajectoryState.__post_init__

        def counting(self):
            validated.append(self.t)
            post_init(self)

        monkeypatch.setattr(TrajectoryState, "__post_init__", counting)
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 101))
        snaps = evolve(init, PARAMS, SolverConfig(t_final=0.05, dt=0.005,
                                                  snapshot_stride=2))
        assert len(snaps) == 6
        assert validated == [s.t for s in snaps]

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

    @pytest.mark.parametrize("n_steps", [1, 5])
    def test_no_stencil_product_in_the_right_hand_side(self, monkeypatch,
                                                       n_steps):
        # every stencil product, bound or through ``derivative``, is one
        # ``Stencil`` application
        calls = []
        apply = Stencil.__call__

        def counting(self, f, **kwargs):
            out = apply(self, f, **kwargs)
            calls.append(out.shape)
            return out

        monkeypatch.setattr(Stencil, "__call__", counting)
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 101))
        evolve(init, PARAMS, SolverConfig(t_final=0.01 * n_steps, dt=0.01,
                                          snapshot_stride=10**9))
        # the right-hand sides read (J, J', J'') from the run's one product
        # of the (1, 2, 3) stencil with the modal basis [a | qdot0 | lift],
        # one call on its transpose's rows; the energy checks at t = 0 and
        # at the final snapshot make one product each, whatever the number
        # of steps
        degree = default_projection_degree(init.n)
        assert calls == [(3, degree + 3, init.n), (3, init.n), (3, init.n)]

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
        # every build is a new (n, ms) key: (1, 2, 3) for the
        # kinematics and 1 for dG/da, each bound once for the whole run
        assert info.misses == info.currsize == 2
        assert info.hits == 0

    def test_one_projection_per_rhs_evaluation(self, monkeypatch):
        # the benchmark's rhs_evals counts ModeProjector calls: 4 per RK4 step
        calls = []
        project = ModeProjector.__call__

        def counting(self, f, **kwargs):
            calls.append(1)
            return project(self, f, **kwargs)

        monkeypatch.setattr(ModeProjector, "__call__", counting)
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 101))
        evolve(init, PARAMS, SolverConfig(t_final=0.07, dt=0.01))
        assert len(calls) == 4 * 7

    @pytest.mark.parametrize("case", ["boosted", "harmonic", "tabulated",
                                      "non-affine", "minimal"])
    def test_modal_loop_matches_the_flat_label_loop(self, case):
        # the flat loop advanced every label; the modal loop carries the
        # mode coefficients, so the two agree to rounding.  Measured worst
        # differences over these cases: 1.6e-13 relative on |a| <= 4 (chi),
        # 6.6e-11 over all labels (qdot, where the lift amplifies
        # rounding)
        params = {"harmonic": PhysicsParams(potential=HarmonicPotential(1.3)),
                  "tabulated": _anharmonic_trap()}.get(case, PARAMS)
        if case == "non-affine":
            init = _custom_phase_state(lambda a: 0.3 * np.cos(a),
                                       lambda a: 0.3 * np.sin(a))
        elif case == "minimal":
            # the fewest labels the stencils take: as many modes as labels
            init = _truncated_gaussian_state(1.0, params, np.linspace(-3, 3, 7),
                                             boost_k=0.5)
        else:
            init = make_gaussian_state(1.0, params, np.linspace(-8, 8, 201),
                                       boost_k=2.0 if case == "boosted" else 0.0)
        cfg = SolverConfig(t_final=0.06, dt=0.005, snapshot_stride=4)
        snaps = evolve(init, params, cfg)
        ref = _flat_rk4(init, params, cfg)
        assert [s.t for s in snaps] == [r[0] for r in ref]
        core = np.abs(init.labels) <= 4
        for s, (_, q, qd, chi, energy, _) in zip(snaps, ref):
            for got, want in ((s.q, q), (s.qdot, qd), (s.chi, chi)):
                assert (np.max(np.abs(got - want)[core])
                        <= 1e-10 * np.max(np.abs(want[core])))
                assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
            assert abs(s.energy - energy) <= 1e-10 * abs(energy)

    @pytest.mark.parametrize("case", ["boosted", "harmonic", "tabulated",
                                      "non-affine"])
    def test_workspace_loop_matches_allocating_loop_bit_for_bit(self, case):
        a = np.linspace(-8, 8, 201)
        params = {"harmonic": PhysicsParams(potential=HarmonicPotential(1.3)),
                  "tabulated": _anharmonic_trap()}.get(case, PARAMS)
        if case == "non-affine":
            init = _custom_phase_state(lambda a: 0.3 * np.cos(a),
                                       lambda a: 0.3 * np.sin(a))
        else:
            init = make_gaussian_state(1.0, params, a,
                                       boost_k=2.0 if case == "boosted" else 0.0)
        cfg = SolverConfig(t_final=0.06, dt=0.005, snapshot_stride=4)
        runs = [evolve(init, params, cfg) for _ in range(2)]
        ref = _allocating_rk4(init, params, cfg)
        assert len(ref) == 4
        for snaps in runs:
            assert len(snaps) == len(ref)
            for s, (t, q, qd, chi, energy, min_j) in zip(snaps, ref):
                assert s.t == t
                for got, want in ((s.q, q), (s.qdot, qd), (s.chi, chi),
                                  (s.energy, energy), (s.min_jacobian, min_j)):
                    assert np.array_equal(got, want)
        # the loop's in-place state never leaks into a returned snapshot
        arrays = [v for snaps in runs for s in snaps for v in (s.q, s.qdot, s.chi)]
        for i, u in enumerate(arrays):
            for v in arrays[i + 1:]:
                assert not np.shares_memory(u, v)

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
            lhs = harmonic.mass * s.qdot * derivative(s.q, h, 1)
            rhs = derivative(init.s0 + s.chi, h, 1)
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
        # one for evolve and one for each of the summary's two accelerations,
        # whatever the number of snapshots
        assert len(snapshots) == 6
        assert len(built) == 3
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
