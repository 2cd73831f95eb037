"""Acceptance gate: every release criterion at its stated tolerance.

The battery runs once through the command-line entry point (so the
acceptance artifact is exactly what a user would produce with
``qflow gaussian-accept`` and ``qflow tensor-check``); each criterion is
then asserted from the emitted report and printed as its own pass/fail
line.  Tolerances are pinned literally in this file.
"""

import json
import random
import tracemalloc

import numpy as np
import pytest

from qflow import pipeline
from qflow.benchmarks import gaussian_trajectory
from qflow.cli import main
from qflow.config import Settings
from qflow.kinematics import cofactor_matrix, jacobian, stress_eulerian
from qflow.model import InitialState, PhysicsParams, make_gaussian_state
from qflow.pipeline import (_RICH_DIRS, _RICH_EPS, _cofactor_identity_rel_max,
                            _smooth_rho3, tensor_check)


@pytest.fixture(scope="session")
def acceptance_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    code = main(["gaussian-accept", "--out", str(out), "--quiet"])
    report = json.loads((out / "acceptance.json").read_text())
    report["exit_code"] = code
    return report


@pytest.fixture(scope="session")
def tensor_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("tensor")
    code = main(["tensor-check", "--out", str(out), "--seed", "0", "--quiet"])
    report = json.loads((out / "tensor_check.json").read_text())
    report["exit_code"] = code
    return report


@pytest.fixture(scope="module")
def trajectory_field():
    """The last reconstructed field of the default trajectory run."""
    _, fields, _, _ = pipeline.run_lagrangian(Settings.defaults())
    return fields[-1]


def _value(report, name):
    for check in report["checks"]:
        if check["name"] == name:
            return check["value"]
    raise KeyError(name)


def _line(criterion, name, value, tol, op="<="):
    ok = value <= tol if op == "<=" else value >= tol
    print(f"[acceptance] criterion {criterion}: {name} = {value:.3e} "
          f"({op} {tol:.1e}) {'PASS' if ok else 'FAIL'}")
    return ok


class TestCriterion1Trajectories:
    def test_max_relative_error(self, acceptance_report):
        v = _value(acceptance_report, "trajectory max relative error")
        assert _line(1, "trajectory max rel error", v, 1e-3)

    def test_runtime_budget(self, acceptance_report):
        v = _value(acceptance_report, "trajectory run wall seconds")
        assert _line(1, "trajectory wall seconds", v, 60.0)


class TestCriterion2Reconstruction:
    def test_phase_reduced_l2(self, acceptance_report):
        v = _value(acceptance_report, "psi phase-reduced L2 error")
        assert _line(2, "psi phase-reduced L2 (|x|<=6, t=2)", v, 1e-3)

    def test_density_norm(self, acceptance_report):
        v = _value(acceptance_report, "reconstructed density norm error")
        assert _line(2, "reconstructed rho norm error", v, 1e-4)

    def test_phase_value_at_unit_point(self, acceptance_report):
        # the validated closed form gives S(1, 2) = 1/8 - pi/8; the
        # trajectory-carried phase must land on it without any fitting
        got = acceptance_report["details"]["reconstructed_phase_at_x1"]
        expected = 0.125 - np.pi / 8
        err = abs(got - expected)
        assert _line(2, "S(1, 2) against validated closed form", err, 1e-3)


class TestCriterion3CrossSolver:
    def test_boosted_phase_reduced_l2(self, acceptance_report):
        v = _value(acceptance_report,
                   "boosted packet cross-solver phase-reduced L2")
        assert _line(3, "boosted cross-solver phase-reduced L2", v, 1e-2)


class TestCriterion4TensorIdentities:
    def test_cofactor_identity_100_draws(self, tensor_report):
        assert tensor_report["cofactor_identity_draws"] == 100
        v = tensor_report["cofactor_identity_rel_max"]
        assert _line(4, "cofactor identity residual (100 draws)", v, 1e-12)

    def test_cofactor_divergence_second_order(self, tensor_report):
        orders = tensor_report["cofactor_divergence_orders"]
        v = min(orders)
        assert _line(4, f"cofactor divergence decay order {orders}", v, 1.9,
                     op=">=")

    def test_stress_equivalence(self, tensor_report):
        v = tensor_report["stress_equivalence_rel_max"]
        assert _line(4, "label-variable vs chain-rule stress", v, 1e-6)

    def test_stress_equivalence_pinned(self, tensor_report):
        # the rich map and the smooth density at the three oracle points;
        # no seeded draw enters it
        assert tensor_report["stress_equivalence_rel_max"] == 1.9946630447372862e-07

    def test_stress_check_catches_swapped_indices(self, monkeypatch):
        # stress_lagrangian's Q.Q term with k and l swapped
        einsum, swapped = np.einsum, []

        def mutated(subscripts, *operands, **kwargs):
            if subscripts == "jmlnrs,rks,mln->jk":
                subscripts = "jmlnrs,rls,mkn->jk"
                swapped.append(subscripts)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", mutated)
        report = tensor_check(0)
        assert swapped
        assert report["passed"] is False
        assert report["stress_equivalence_rel_max"] > 1e-6

    def test_force_identity_second_order(self, tensor_report):
        v = tensor_report["force_identity_order"]
        assert _line(4, "force identity residual order", v, 1.9, op=">=")

    def test_force_check_reads_the_solvers_quantum_potential(self, monkeypatch):
        # the 1/2 of the one V_Q formula made 0.45: the force identity no
        # longer converges
        def mutated(self, c1, c2):
            return -(self.hbar**2 / (4.0 * self.mass)) * (c2 + 0.45 * c1**2)

        monkeypatch.setattr(PhysicsParams, "quantum_potential", mutated)
        report = tensor_check(0)
        assert report["passed"] is False
        assert report["force_identity_order"] < 1.9
        assert report["force_identity_errors"][-1] > 1e-2

    def test_suite_exit_code(self, tensor_report):
        assert tensor_report["exit_code"] == 0
        assert tensor_report["passed"] is True

    def test_grid_residuals_pinned(self, tensor_report):
        # seed 0 values of the difference stars at the 512 seeded centres;
        # V_Q read through c = ln rho moved the coarse force error by 1.9e-12
        # relative (from 4.774524477415554e-04)
        np.testing.assert_allclose(
            tensor_report["force_identity_errors"],
            [4.774524477406672e-04, 1.1945540272770283e-04,
             2.9869623080214236e-05], rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            tensor_report["cofactor_divergence_errors"],
            [2.3823566312045075e-05, 5.968641091536053e-06,
             1.4929580296474398e-06], rtol=1e-12, atol=0)


def _per_draw_cofactor_identity(rng, n_draws):
    """The cofactor identity's worst ratio taken one draw at a time (the
    loop the stacked form replaced)."""
    worst = 0.0
    for _ in range(n_draws):
        while True:
            g = np.array([[rng.uniform(-1.0, 1.0) for _ in range(3)]
                          for _ in range(3)])
            if abs(np.linalg.det(g)) >= 0.3:
                break
        J = jacobian(g)
        C = cofactor_matrix(g)
        resid = np.einsum("kj,ki->ij", g, C) - J * np.eye(3)
        worst = max(worst, float(np.max(np.abs(resid)) / abs(J)))
    return worst


class TestSeededStars:
    """The star centres are drawn after the 100 cofactor matrices, from the
    run's seed."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_orders_at_or_above_the_grids(self, seed):
        # the orders of the 17^3-65^3 and 33^3-129^3 grids the stars replaced
        report = tensor_check(seed)
        assert report["passed"] is True
        assert all(o >= g for o, g in zip(report["cofactor_divergence_orders"],
                                          [1.9715328814451514, 1.9936969612211115]))
        assert all(o >= g for o, g in zip(report["force_identity_orders"],
                                          [1.9199755400782674, 1.9620765139822736]))
        assert report["cofactor_divergence_least_point_order"] >= 1.9
        assert report["force_identity_least_point_order"] >= 1.9

    def test_draws_before_the_stars_unchanged(self, tensor_report):
        # the seed 0 values from before the stars were drawn
        assert tensor_report["cofactor_identity_rel_max"] == 6.736426349315287e-16

    @pytest.mark.parametrize("seed", range(8))
    def test_stacked_draws_equal_the_per_draw_loop(self, seed):
        # the same worst ratio, and the generator left where the star
        # centres start
        stacked, per_draw = random.Random(seed), random.Random(seed)
        assert (_cofactor_identity_rel_max(stacked, 100)
                == _per_draw_cofactor_identity(per_draw, 100))
        assert stacked.random() == per_draw.random()

    def test_same_seed_same_report(self, tmp_path):
        written = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["tensor-check", "--out", str(out), "--seed", "1",
                         "--quiet"]) == 0
            written.append((out / "tensor_check.json").read_bytes())
        assert written[0] == written[1]


def _whole_grid_force_residuals(x, h, hbar=1.0, mass=1.0):
    """div(sigma) / rho - grad V_Q on the mesh of the nodes ``x``, every
    field built on the whole mesh at once and differenced by ``np.gradient``
    with spacing h (the reference the sampled stars reproduce); V_Q is
    ``PhysicsParams.quantum_potential`` in the log-density c = ln rho."""
    rho, grad, hess = _smooth_rho3(*np.meshgrid(x, x, x, indexing="ij", sparse=True))
    sigma, _ = stress_eulerian(rho, grad, hess, hbar, mass)
    grad_sq = np.sum(grad * grad, axis=-1) / rho**2
    vq = PhysicsParams(hbar=hbar, mass=mass).quantum_potential(
        np.sqrt(grad_sq), np.trace(hess, axis1=-2, axis2=-1) / rho - grad_sq)
    resid = np.zeros(rho.shape + (3,))
    for i in range(3):
        div_i = np.zeros(rho.shape)
        for j in range(3):
            div_i += np.gradient(sigma[..., i, j], h, axis=j, edge_order=2)
        resid[..., i] = div_i / rho - np.gradient(vq, h, axis=i, edge_order=2)
    return resid


def _whole_grid_divergence_residuals(x, h):
    """div C on the mesh of the nodes ``x``, with the rich map's cofactors
    built on the stacked (point-major) mesh and differenced by
    ``np.gradient`` with spacing h."""
    grid = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1)
    g = np.zeros(grid.shape[:-1] + (3, 3))
    for i in range(3):
        u = np.tensordot(grid, _RICH_DIRS[i], axes=([-1], [0]))
        g[..., i, :] = _RICH_EPS[i] * np.cos(u)[..., None] * _RICH_DIRS[i]
        g[..., i, i] += 1.0
    C = cofactor_matrix(g)
    div = np.zeros(grid.shape[:-1] + (3,))
    for j in range(3):
        div += np.gradient(C[..., :, j], h, axis=j, edge_order=2)
    return div


def _nodes_near_the_17_grid(n):
    """The nodes of the n-point grid on [-1, 1] within one step of an
    interior node of the 17-point grid, that step, and where those interior
    nodes sit among them.  ``np.gradient``'s interior difference at a node
    reads its two neighbours alone, so on the mesh of these nodes it gives
    the whole n^3 grid's residuals at the 17-point grid's nodes; for n = 17
    the mesh is the whole grid."""
    axis = np.linspace(-1.0, 1.0, n)
    stride = (n - 1) // 16
    centres = np.arange(stride, n - 1, stride)
    near = np.unique(np.concatenate((centres - 1, centres, centres + 1)))
    return axis[near], axis[1] - axis[0], np.searchsorted(near, centres)


def _grid_centres():
    """The 15^3 interior nodes of the 17-point grid on [-1, 1]."""
    interior = np.linspace(-1.0, 1.0, 17)[1:-1]
    return np.stack(np.meshgrid(interior, interior, interior,
                                indexing="ij"), axis=-1).reshape(-1, 3)


def _assert_stars_equal_the_whole_grid(stars, whole, sizes):
    centres = _grid_centres()
    for n in sizes:
        x, h, at = _nodes_near_the_17_grid(n)
        expected = whole(x, h)[np.ix_(at, at, at)].reshape(-1, 3)
        assert np.array_equal(stars(centres, h), expected), n


class TestCofactorDivergenceInterior:
    """tensor_check differences the cofactor field on stars around sampled
    centres; on grid nodes the residuals are those of ``np.gradient`` on the
    whole grid, bit for bit."""

    def test_interior_equals_the_whole_grid(self):
        _assert_stars_equal_the_whole_grid(
            pipeline._cofactor_divergence_residuals,
            _whole_grid_divergence_residuals, (17, 33, 65))


class TestForceIdentityPlanes:
    """The force identity once held whole 129^3 grids (about 570 MB traced)
    and then a window of three planes (8 MB).  Its difference stars must give
    the whole grid's residuals on grid nodes, bit for bit, and keep the suite
    small."""

    def test_planes_equal_the_whole_grid(self):
        _assert_stars_equal_the_whole_grid(
            lambda p, h: pipeline._force_identity_residuals(
                p, h, PhysicsParams()),
            _whole_grid_force_residuals, (33, 65, 129))

    def test_traced_peak_memory(self):
        tracemalloc.start()
        try:
            tensor_check(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6


class TestCriterion5DynamicsResiduals:
    def test_hamilton_jacobi(self, acceptance_report):
        v = _value(acceptance_report, "quantum Hamilton-Jacobi residual")
        assert _line(5, "phase-evolution residual (interior max)", v, 1e-3)

    def test_continuity(self, acceptance_report):
        v = _value(acceptance_report, "continuity residual")
        assert _line(5, "continuity residual", v, 1e-2)

    def test_euler(self, acceptance_report):
        v = _value(acceptance_report, "Euler residual")
        assert _line(5, "velocity-equation residual", v, 1e-2)


class TestCriterion6Conservation:
    def test_energy_drift(self, acceptance_report):
        v = _value(acceptance_report, "energy drift")
        assert _line(6, "trajectory energy drift", v, 1e-4)

    def test_reference_norm_drift(self, acceptance_report):
        v = _value(acceptance_report, "reference norm drift")
        assert _line(6, "spectral solver norm drift", v, 1e-10)


class TestCriterion7DualAcceleration:
    def test_paths_agree(self, acceptance_report):
        v = _value(acceptance_report, "acceleration path disagreement")
        assert _line(7, "conservation-form vs Newton-form acceleration",
                     v, 1e-4)


class TestCriterion8ParticleMethod:
    def test_endpoint(self, acceptance_report):
        v = _value(acceptance_report, "particle from x=1 endpoint error")
        assert _line(8, "particle from x=1 endpoint error", v, 5e-3)

    def test_pathwise_magnitude(self, acceptance_report):
        v = _value(acceptance_report, "path-wise |psi| vs reconstruction")
        assert _line(8, "path-wise |psi| vs reconstruction", v, 5e-2)

    @pytest.mark.parametrize("seed", range(4))
    def test_verdict_survives_a_last_bit_draw_of_rho0(self, monkeypatch, seed,
                                                      trajectory_field):
        # each particle's rho0 times 1 +- 2^-52, the signs drawn from the
        # seed; the |psi| check reads the unperturbed trajectory field
        truncated = pipeline._truncated_gaussian_state

        def drawn(sigma0, params, labels, **kwargs):
            init = truncated(sigma0, params, labels, **kwargs)
            signs = np.random.default_rng(seed).choice([-1, 1], init.n)
            return InitialState(init.labels, init.rho0 * (1 + signs * 2.0**-52),
                                init.s0, init.forms)

        monkeypatch.setattr(pipeline, "_truncated_gaussian_state", drawn)
        settings = Settings.defaults()
        result, _ = pipeline.run_qtm(settings)
        final = result.snapshots[-1]
        i = int(np.argmin(np.abs(final.labels - 1.0)))
        q_exact, _ = gaussian_trajectory(final.labels[i], final.t,
                                         settings["state.sigma0"],
                                         settings.physics())
        assert abs(final.q[i] - q_exact) <= 5e-3
        m = trajectory_field.mask
        x = trajectory_field.x[m]
        inside = (final.q >= x[0]) & (final.q <= x[-1])
        magnitude = np.interp(final.q[inside], x, np.abs(trajectory_field.psi[m]))
        assert np.max(np.abs(np.abs(result.psi[inside]) - magnitude)) <= 5e-2


class TestCriterion9Moments:
    def test_two_picture_position(self, acceptance_report):
        v = _value(acceptance_report, "two-picture <x> agreement")
        assert _line(9, "<x> two-picture agreement", v, 1e-6)

    def test_two_picture_momentum(self, acceptance_report):
        v = _value(acceptance_report, "two-picture <p> agreement")
        assert _line(9, "<p> two-picture agreement", v, 1e-6)

    def test_boosted_momentum(self, acceptance_report):
        v = _value(acceptance_report, "boosted <p> against hbar*k")
        assert _line(9, "boosted <p> = hbar k", v, 1e-6)


class TestCriterion10Convergence:
    def test_spatial_order(self, acceptance_report):
        v = _value(acceptance_report, "spatial convergence order")
        ladder = acceptance_report["details"]["spatial_ladder"]
        assert _line(10, f"spatial order {ladder['orders']}", v, 3.5, op=">=")

    def test_temporal_order(self, acceptance_report):
        v = _value(acceptance_report, "temporal convergence order")
        ladder = acceptance_report["details"]["temporal_ladder"]
        assert _line(10, f"temporal order {ladder['orders']}", v, 3.5, op=">=")

    @pytest.mark.parametrize("seed", range(4))
    def test_verdict_survives_a_last_bit_draw_of_rho0(self, monkeypatch, seed):
        # each rho0 entry of both ladders times 1 +- 2^-52, the signs drawn
        # from the seed: the verdict must not hang on the last bit
        def drawn(sigma0, params, labels, **kwargs):
            init = make_gaussian_state(sigma0, params, labels, **kwargs)
            signs = np.random.default_rng(seed).choice([-1, 1], init.n)
            return InitialState(init.labels, init.rho0 * (1 + signs * 2.0**-52),
                                init.s0, init.forms)

        monkeypatch.setattr(pipeline, "make_gaussian_state", drawn)
        for ladder in (pipeline.temporal_convergence,
                       pipeline.spatial_convergence):
            orders = ladder(PhysicsParams())["orders"]
            assert min(orders) >= 3.5, (ladder.__name__, orders)


class TestOverall:
    def test_cli_exit_code(self, acceptance_report):
        assert acceptance_report["exit_code"] == 0
        assert acceptance_report["passed"] is True

    def test_dual_phase_route_detail(self, acceptance_report):
        v = acceptance_report["details"]["dual_phase_deviation"]
        assert _line(2, "dual-route phase deviation", v, 1e-3)

    def test_qtm_density_routes_detail(self, acceptance_report):
        v = acceptance_report["details"]["qtm_density_route_deviation"]
        assert _line(8, "particle density route deviation", v, 1e-2)
