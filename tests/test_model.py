import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from qflow.benchmarks import gaussian_wavefunction
from qflow.errors import (NodeEncountered, NumericalInstability, OutsidePotentialTable,
                          TrajectoryCrossing, ValidationError)
from qflow.model import (MAX_STEPS, AnalyticForms, EulerianField,
                         HarmonicPotential, InitialState, PhysicsParams, TabulatedPotential,
                         TrajectoryState, assemble_wavefunction,
                         _rk4, madelung_decompose, make_gaussian_state, plan_steps)

PARAMS = PhysicsParams()


class TestPotentials:
    def test_params_validation(self):
        with pytest.raises(ValidationError):
            PhysicsParams(hbar=0.0)
        with pytest.raises(ValidationError):
            PhysicsParams(mass=-1.0)

    def test_free(self):
        x = np.linspace(-2, 2, 7)
        assert np.all(PARAMS.potential_energy(x) == 0)
        assert np.all(PARAMS.potential_gradient(x) == 0)

    def test_harmonic(self):
        p = PhysicsParams(mass=2.0, potential=HarmonicPotential(omega=3.0))
        x = np.array([0.5, -1.0])
        assert p.potential_energy(x) == pytest.approx([0.5 * 2 * 9 * 0.25,
                                                       0.5 * 2 * 9 * 1.0])
        assert p.potential_gradient(x) == pytest.approx([2 * 9 * 0.5, -2 * 9])

    def test_tabulated_matches_samples(self):
        grid = np.linspace(-3, 3, 61)
        vals = np.cos(grid)
        p = PhysicsParams(potential=TabulatedPotential(grid, vals))
        assert p.potential_energy(grid) == pytest.approx(vals)
        # interpolation between samples tracks the smooth function
        mid = np.linspace(-2.9, 2.9, 97)
        assert np.max(np.abs(p.potential_energy(mid) - np.cos(mid))) < 1e-5
        assert np.max(np.abs(p.potential_gradient(mid) + np.sin(mid))) < 1e-4

    def test_tabulated_out_of_range(self):
        p = PhysicsParams(potential=TabulatedPotential(np.linspace(0, 1, 9),
                                                       np.zeros(9)))
        with pytest.raises(ValidationError, match=r"x\[1\] = 1.5 outside") as exc:
            p.potential_energy(np.array([0.5, 1.5]))
        assert exc.value.index == 1

    @pytest.mark.parametrize("i,point", [(4, np.nan), (0, -np.inf), (8, np.inf)],
                             ids=["nan-inside", "-inf-first", "inf-last"])
    def test_tabulated_non_finite_grid_rejected(self, i, point):
        # NaN fails every comparison, and an infinite end still increases, so
        # the increasing check alone let both through
        x = np.linspace(0, 1, 9)
        x[i] = point
        with pytest.raises(ValidationError, match="grid contains non-finite"):
            TabulatedPotential(x, np.zeros(9))

    @pytest.mark.parametrize("evaluate", ["potential_energy", "potential_gradient"])
    def test_tabulated_nan_position_is_outside(self, evaluate):
        # every comparison with NaN is false, so a range test of min and max
        # alone would let it through to a NaN potential
        p = PhysicsParams(potential=TabulatedPotential(np.linspace(0, 1, 9),
                                                       np.linspace(0, 1, 9)**2))
        with pytest.raises(OutsidePotentialTable, match=r"x\[1\] = nan outside") as exc:
            getattr(p, evaluate)(np.array([0.5, np.nan]))
        assert exc.value.index == 1

    @pytest.mark.parametrize("x", [
        pytest.param(np.linspace(-40.0, 40.0, 8001), id="uniform"),
        pytest.param(np.sort(np.random.default_rng(3).uniform(-2.0, 2.0, 40)),
                     id="non-uniform"),
        pytest.param(np.array([0.0, 0.3, 1.1, 1.5]), id="four-points")])
    def test_tabulated_spline_is_scipys_cubic_spline(self, x):
        # the not-a-knot spline of scipy's CubicSpline to rounding, V and
        # dV/dx, at the knots, between them and at both ends
        v = 0.5 * x**2 + 0.05 * x**4 + np.cos(3.0 * x)
        p = PhysicsParams(potential=TabulatedPotential(x, v))
        ref = CubicSpline(x, v)
        between = np.concatenate((0.5 * (x[1:] + x[:-1]), x[:-1] + 0.1 * np.diff(x)))
        for at in (x, between, x[[0, -1]]):
            for got, want in ((p.potential_energy(at), ref(at)),
                              (p.potential_gradient(at), ref(at, 1))):
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-13 * scale
        # on a knot the value is the table's own
        assert np.array_equal(p.potential_energy(x), v)


class TestGaussianState:
    def test_peak_value(self):
        init = make_gaussian_state(1.0, PARAMS, np.linspace(-8, 8, 401))
        i0 = 200
        assert init.labels[i0] == 0.0
        assert init.rho0[i0] == pytest.approx(0.3989423, abs=1e-7)

    def test_phase_at_rest_and_boosted(self):
        a = np.linspace(-8, 8, 101)
        assert np.all(make_gaussian_state(1.0, PARAMS, a).s0 == 0.0)
        p = PhysicsParams(hbar=2.0)
        boosted = make_gaussian_state(1.0, p, a, boost_k=1.5)
        assert boosted.s0 == pytest.approx(2.0 * 1.5 * a)

    def test_normalization_wide_span(self):
        a = np.linspace(-8, 8, 801)
        init = make_gaussian_state(1.0, PARAMS, a)
        assert abs(np.trapezoid(init.rho0, a) - 1.0) < 1e-10

    def test_narrow_span_rejected(self):
        with pytest.raises(ValidationError, match="not normalized"):
            make_gaussian_state(1.0, PARAMS, np.linspace(-3.9, 3.9, 101))

    def test_marginal_span_fails_normalization(self):
        # short of about 5.7 sigma the state invariant (trapezoid norm
        # within 1e-8) cannot hold
        with pytest.raises(ValidationError, match="not normalized"):
            make_gaussian_state(1.0, PARAMS, np.linspace(-4.5, 4.5, 201))

    @settings(max_examples=25, deadline=None)
    @given(sigma0=st.floats(min_value=0.25, max_value=4.0))
    def test_normalization_invariant_over_widths(self, sigma0):
        a = np.linspace(-8 * sigma0, 8 * sigma0, 801)
        init = make_gaussian_state(sigma0, PARAMS, a)
        assert abs(np.trapezoid(init.rho0, a) - 1.0) <= 1e-8

    def test_analytic_forms_consistent(self):
        init = make_gaussian_state(0.7, PARAMS, np.linspace(-6, 6, 301))
        a = init.labels
        assert init.forms.rho0(a) == pytest.approx(init.rho0)
        # the derivative callbacks match a numerical probe
        h = 1e-5
        dnum = (init.forms.rho0(a + h) - init.forms.rho0(a - h)) / (2 * h)
        assert np.max(np.abs(init.forms.drho0(a) - dnum)) < 1e-8


class TestInitialStateValidation:
    def test_negative_density_names_index(self):
        a = np.linspace(-8, 8, 101)
        rho = make_gaussian_state(1.0, PARAMS, a).rho0.copy()
        rho[7] = -1e-3
        with pytest.raises(ValidationError, match=r"rho0\[7\]"):
            InitialState(labels=a, rho0=rho, s0=np.zeros_like(a))

    def test_non_finite_density_rejected(self):
        # NaN passes the sign test and the normalization test
        a = np.linspace(-8, 8, 101)
        rho = make_gaussian_state(1.0, PARAMS, a).rho0.copy()
        rho[7] = np.nan
        with pytest.raises(ValidationError, match=r"rho0\[7\] = nan"):
            InitialState(labels=a, rho0=rho, s0=np.zeros_like(a))

    def test_labels_must_increase(self):
        a = np.linspace(-8, 8, 101).copy()
        a[50] = a[49]
        with pytest.raises(ValidationError, match="strictly increasing"):
            InitialState(labels=a, rho0=np.ones_like(a), s0=np.zeros_like(a))


class TestAssemble:
    def test_identity_case(self):
        psi = assemble_wavefunction(np.array([1.0]), np.array([0.0]), 1.0)
        assert psi[0] == pytest.approx(1.0 + 0.0j)

    def test_half_turn_phase(self):
        hbar = 1.7
        psi = assemble_wavefunction(np.array([0.25]), np.array([np.pi * hbar]),
                                    hbar)
        assert psi[0] == pytest.approx(-0.5 + 0.0j, abs=1e-14)

    def test_spread_gaussian_magnitude(self):
        rho, S = gaussian_wavefunction(np.array([0.0]), 2.0, 1.0, PARAMS)
        psi = assemble_wavefunction(rho, S, 1.0)
        assert abs(psi[0]) == pytest.approx(np.sqrt(0.2820948), abs=1e-7)

    def test_negative_density_names_index(self):
        with pytest.raises(ValidationError, match="index 1"):
            assemble_wavefunction(np.array([1.0, -0.5]), np.zeros(2), 1.0)


class TestDecompose:
    def test_round_trip_up_to_global_phase(self):
        rng = np.random.default_rng(11)
        x = np.linspace(-5, 5, 301)
        rho = np.exp(-x**2 / 2 + 0.2 * np.sin(x)) + 0.05
        S = 1.3 * np.sin(x) + 7.0 * x  # multi-branch phase
        psi = assemble_wavefunction(rho, S, 1.0)
        rho2, S2 = madelung_decompose(psi, x_ref=150, hbar=1.0)
        assert np.max(np.abs(rho2 - rho)) < 1e-12
        diff = S2 - S
        assert np.max(np.abs(diff - diff[0])) < 1e-10
        assert diff[0] == pytest.approx(2 * np.pi * np.round(diff[0] / (2 * np.pi)),
                                        abs=1e-10)

    def test_plane_wave_phase(self):
        x = np.linspace(-4, 4, 401)
        psi = np.exp(1j * x)
        _, S = madelung_decompose(psi, x_ref=200, hbar=1.0)
        assert np.max(np.abs(S - x)) < 1e-10

    def test_reference_pinned(self):
        x = np.linspace(-4, 4, 401)
        psi = np.exp(1j * (x + 30.0))  # large constant phase offset
        _, S = madelung_decompose(psi, x_ref=200, hbar=1.0)
        assert -np.pi < S[200] <= np.pi

    def test_zero_crossing_is_node(self):
        x = np.linspace(-4, 4, 401)
        with pytest.raises(NodeEncountered):
            madelung_decompose(np.sin(x) + 0j, x_ref=200, hbar=1.0)


class TestStateTypes:
    def test_trajectory_state_rejects_crossing(self):
        a = np.linspace(0, 1, 11)
        q = a.copy()
        q[5] = q[4] - 1e-3
        with pytest.raises(ValidationError, match="strictly increasing"):
            TrajectoryState(labels=a, q=q, qdot=np.zeros_like(a),
                            chi=np.zeros_like(a), t=0.0)

    def test_trajectory_state_rejects_non_finite(self):
        # NaN passes the ordering test
        a = np.linspace(0, 1, 11)
        q = a.copy()
        q[5] = np.nan
        with pytest.raises(ValidationError, match=r"q\[5\] = nan"):
            TrajectoryState(labels=a, q=q, qdot=np.zeros_like(a),
                            chi=np.zeros_like(a), t=0.0)

    def test_field_consistency_enforced(self):
        x = np.linspace(-1, 1, 33)
        rho = np.full_like(x, 0.5)
        S = 0.3 * x
        v = np.full_like(x, 0.3)
        psi = assemble_wavefunction(rho, S, 1.0)
        EulerianField(x=x, t=0.0, rho=rho, S=S, v=v, psi=psi)  # consistent: fine
        with pytest.raises(ValidationError):
            EulerianField(x=x, t=0.0, rho=rho, S=S + 0.5, v=v, psi=psi)
        with pytest.raises(ValidationError):
            EulerianField(x=x, t=0.0, rho=rho * 1.01, S=S, v=v, psi=psi)

    @pytest.mark.parametrize("member", ["rho", "S", "v", "psi"])
    def test_field_members_required(self, make_field, member):
        # a field always carries all four: omitted or None is rejected
        x = np.linspace(-1, 1, 33)
        full = make_field(x, 0.0, np.full_like(x, 0.5), S=0.3 * x)
        members = {name: getattr(full, name) for name in ("rho", "S", "v", "psi")}
        partial = {k: val for k, val in members.items() if k != member}
        with pytest.raises(TypeError, match=f"'{member}'"):
            EulerianField(x=x, t=0.0, **partial)
        with pytest.raises(ValidationError, match=f"{member} must match"):
            EulerianField(x=x, t=0.0, **partial, **{member: None})

    @pytest.mark.parametrize("member", ["rho", "S", "v", "psi"])
    def test_field_rejects_non_finite(self, make_field, member):
        # NaN passes the sign and |psi|^2 / arg psi tests on the support
        x = np.linspace(-1, 1, 33)
        full = make_field(x, 0.0, np.full_like(x, 0.5), S=0.3 * x)
        members = {name: getattr(full, name).copy()
                   for name in ("rho", "S", "v", "psi")}
        members[member][7] = np.nan
        with pytest.raises(ValidationError, match=rf"{member}\[7\] = \(?nan"):
            EulerianField(x=x, t=0.0, **members)

    @pytest.mark.parametrize("member", ["rho0", "drho0", "d2rho0", "s0", "ds0"])
    def test_analytic_forms_members_required(self, member):
        # every reader calls all five; only the unread d2s0 may be left out
        given = {name: np.zeros_like for name in
                 ("rho0", "drho0", "d2rho0", "s0", "ds0") if name != member}
        with pytest.raises(TypeError, match=f"'{member}'"):
            AnalyticForms(**given)

    def test_support_norm(self, make_field):
        x = np.linspace(0, 1, 101)
        field = make_field(x, 0.0, np.ones_like(x))
        assert field.support_norm() == pytest.approx(1.0)


class TestPlanSteps:
    def test_lands_on_t_final(self):
        n_steps, dt = plan_steps(2.0, 0.3)
        assert n_steps == 7
        assert dt == 2.0 / 7

    def test_zero_time_plans_no_steps(self):
        assert plan_steps(0.0, 0.1) == (0, 0.1)

    def test_budget_is_inclusive(self):
        assert plan_steps(1.0, 1.0 / MAX_STEPS)[0] == MAX_STEPS
        with pytest.raises(ValidationError,
                           match=r"dt = 5e-08 needs 2e\+07 steps"):
            plan_steps(1.0, 0.5 / MAX_STEPS)

    def test_overflowing_plan_rejected(self):
        with pytest.raises(ValidationError, match="over the budget"):
            plan_steps(1e300, 1e-300)


# y' = A y: a damped rotation coupled to a decaying third component
RK4_A = np.array([[-0.3, 1.0, 0.0], [-1.0, -0.3, 0.2], [0.1, 0.0, -0.7]])


def _linear_rk4(y0, dt, n_steps, fail=None):
    """Run ``_rk4`` on y' = RK4_A y from ``y0``; ``fail(call)`` may raise
    from the right-hand side's ``call``-th stage evaluation (1-based).
    Returns the final state, the stage calls and the end-of-step calls."""
    y = np.array(y0, dtype=float)
    k1 = RK4_A @ y
    calls, ends = [], []

    def rhs(u, t, out):
        calls.append(t)
        if fail is not None:
            fail(len(calls))
        np.dot(RK4_A, u, out=out)

    def end_of_step(step, t):
        ends.append((step, t))
        np.dot(RK4_A, y, out=k1)

    _rk4(rhs, y, k1, dt, n_steps, end_of_step, "particle")
    return y, calls, ends


class TestRk4Driver:
    def test_linear_ode_takes_the_rk4_polynomial(self):
        # on y' = A y one step multiplies by 1 + z + z^2/2 + z^3/6 + z^4/24,
        # z = dt A
        dt, n_steps = 0.1, 25
        z = dt * RK4_A
        z2 = z @ z
        step = np.eye(3) + z + z2 / 2 + z2 @ z / 6 + z2 @ z2 / 24
        y0 = np.array([1.0, -0.5, 2.0])
        y, _, ends = _linear_rk4(y0, dt, n_steps)
        want = np.linalg.matrix_power(step, n_steps) @ y0
        np.testing.assert_allclose(y, want, rtol=1e-14, atol=1e-15)
        assert ends == [(s, (s + 1) * dt) for s in range(n_steps)]

    def test_three_rhs_calls_per_step(self):
        # k1 is the caller's: the driver evaluates k2, k3 and k4 only, at
        # t + dt/2, t + dt/2 and t + dt
        dt = 0.25
        _, calls, _ = _linear_rk4([1.0, 0.0, 0.0], dt, 4)
        assert calls == [t + h for t in (0.0, 0.25, 0.5, 0.75)
                         for h in (0.125, 0.125, 0.25)]

    def test_leaving_the_table_in_the_first_step_names_it(self):
        def fail(call):
            raise OutsidePotentialTable(7, 9.0, -1.0, 1.0)

        with pytest.raises(NumericalInstability,
                           match=r"^particle 7 left the tabulated potential grid "
                                 r"in the step from t = 0 to 0\.25$") as info:
            _linear_rk4([1.0, 0.0, 0.0], 0.25, 4, fail)
        assert isinstance(info.value.__cause__, OutsidePotentialTable)

    def test_stage_crossing_takes_the_step_start_time(self):
        # the k2 stage of the third step (call 7) knows no time of its own
        def fail(call):
            if call == 7:
                raise TrajectoryCrossing(3, np.nan, "lost during a stage")

        with pytest.raises(TrajectoryCrossing) as info:
            _linear_rk4([1.0, 0.0, 0.0], 0.25, 4, fail)
        assert (info.value.index, info.value.time) == (3, 0.5)
        assert str(info.value) == (
            "trajectory crossing at label index 3, t = 0.5 (particle ordering "
            "lost in a stage of the step from t = 0.5 to 0.75)")
        assert isinstance(info.value.__cause__, TrajectoryCrossing)

    def test_timed_crossing_passes_through(self):
        crossing = TrajectoryCrossing(3, 0.4, "J at the floor")

        def fail(call):
            if call == 5:
                raise crossing

        with pytest.raises(TrajectoryCrossing) as info:
            _linear_rk4([1.0, 0.0, 0.0], 0.25, 4, fail)
        assert info.value is crossing
