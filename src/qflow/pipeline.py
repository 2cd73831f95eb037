"""Orchestration shared by the command line and the acceptance suite.

Each stage is a plain function from typed settings to plain data (arrays,
dataclasses, dicts ready for JSON), so the CLI, the tests and interactive
use all exercise identical code paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .benchmarks import error_norms, gaussian_trajectory, gaussian_wavefunction
from .config import Settings
from .errors import ValidationError
from .kinematics import (cofactor_matrix, jacobian, quantum_potential,
                         stress_eulerian, stress_lagrangian)
from .lagrangian import (SolverConfig, _LabelData, acceleration_direct,
                         acceleration_newton, evolve)
from .model import (FreePotential, InitialState, PhysicsParams,
                    TrajectoryState, _gaussian_forms, assemble_wavefunction,
                    make_gaussian_state)
from .qtm import qtm_evolve
from .reconstruction import (continuity_euler_residuals, eulerian_moments,
                             lagrangian_moments, phase_consistency_deviation,
                             qhj_residual, reconstruct_wavefunction)
from .spectral import norm_of, reference_fields, split_step_evolve
from .stencils import grid_spacing


# ---------------------------------------------------------------------------
# run stages
# ---------------------------------------------------------------------------

def _field_snapshot_indices(n_snapshots: int, n_times: int) -> list[int]:
    """Evenly spread output times plus the final adjacent pair."""
    if n_snapshots <= 2:
        return list(range(n_snapshots))
    picks = set(np.linspace(0, n_snapshots - 1, max(2, n_times)).astype(int).tolist())
    picks.add(n_snapshots - 2)
    picks.add(n_snapshots - 1)
    return sorted(picks)


def run_lagrangian(settings: Settings):
    """Evolve, reconstruct, and assemble the run summary."""
    params = settings.physics()
    init = settings.initial_state(params)
    config = settings.solver_config()
    t0 = time.perf_counter()
    snapshots = evolve(init, params, config)
    wall = time.perf_counter() - t0

    x_grid = settings.x_grid()
    indices = _field_snapshot_indices(len(snapshots), settings["output.field_times"])
    fields = [reconstruct_wavefunction(snapshots[:i + 1], init, params, x_grid)
              for i in indices]

    data = _LabelData(init, params)
    energies = [s.energy for s in snapshots]
    min_j = [s.min_jacobian for s in snapshots]
    e0 = energies[0]
    energy_drift = max(abs(e - e0) for e in energies) / abs(e0) if e0 else 0.0

    summary = {
        "config": settings.echo(),
        "times": [s.t for s in snapshots],
        "energy": energies,
        "energy_drift_rel": energy_drift,
        "min_jacobian": min_j,
        "field_times": [fields[i].t for i in range(len(fields))],
        "support_norm_final": fields[-1].support_norm(),
        "dual_phase_deviation": phase_consistency_deviation(
            snapshots[-1], init, params),
    }
    if len(snapshots) >= 2:
        final = snapshots[-1]
        acc_d = acceleration_direct(final, init, params, data=data)
        acc_n = acceleration_newton(final, init, params, data=data)
        scale = float(np.max(np.abs(acc_n))) or 1.0
        summary["accel_path_disagreement_rel"] = float(
            np.max(np.abs(acc_d - acc_n)) / scale)
    if isinstance(params.potential, FreePotential):
        sigma0 = settings["state.sigma0"]
        k = settings["state.boost_k"]
        err = 0.0
        for s in snapshots:
            q_exact, _ = gaussian_trajectory(s.labels, s.t, sigma0, params, k)
            err = max(err, float(np.max(np.abs(s.q - q_exact)
                                        / (1.0 + np.abs(s.labels)))))
        summary["trajectory_max_rel_error"] = err
    return snapshots, fields, summary, wall


def run_reference(settings: Settings):
    """Spectral solve of the same initial state on the spatial grid."""
    params = settings.physics()
    x = settings.x_grid()
    forms = _gaussian_forms(settings["state.sigma0"], params.hbar,
                            settings["state.boost_k"])
    psi0 = assemble_wavefunction(forms.rho0(x), forms.s0(x), params.hbar)
    dx = grid_spacing(x)
    psi0 = psi0 / np.sqrt(norm_of(psi0, dx))
    waves = split_step_evolve(psi0, x, params, settings["reference.dt"],
                              settings.reference_t_final(),
                              settings["reference.snapshot_stride"])
    norms = [norm_of(w.psi, dx) for w in waves]
    indices = _field_snapshot_indices(len(waves), settings["output.field_times"])
    fields = [reference_fields(waves[i], x, params) for i in indices]
    summary = {
        "config": settings.echo(),
        "times": [w.t for w in waves],
        "norm": norms,
        "norm_drift": max(abs(n - 1.0) for n in norms),
        "field_times": [f.t for f in fields],
    }
    return waves, fields, summary


def _truncated_gaussian_state(sigma0, params, labels, boost_k=0.0) -> InitialState:
    """Gaussian renormalized on a truncated span (QTM seeding).

    The particle method lives on a narrower span than the trajectory
    solver (its scattered-derivative fits amplify far-tail noise), so the
    small truncated mass is folded back as one constant factor; the
    log-density derivatives, and hence the dynamics, are unchanged.
    """
    a = np.asarray(labels, dtype=float)
    raw = _gaussian_forms(sigma0, params.hbar, boost_k).rho0(a)
    forms = _gaussian_forms(sigma0, params.hbar, boost_k,
                            scale=1.0 / np.trapezoid(raw, a))
    return InitialState(labels=a, rho0=forms.rho0(a), s0=forms.s0(a), forms=forms)


def run_qtm(settings: Settings):
    """Particle-method solve seeded on its own (narrower) label grid."""
    params = settings.physics()
    labels = settings.qtm_labels()
    init = _truncated_gaussian_state(settings["state.sigma0"], params, labels,
                                     boost_k=settings["state.boost_k"])
    config = settings.qtm_config()
    result = qtm_evolve(init, params, config)
    trajectories = []
    for snap in result.snapshots:
        trajectories.append(TrajectoryState(
            labels=init.labels, q=snap.x, qdot=snap.v,
            chi=snap.S - init.s0, t=snap.t))
    final = result.snapshots[-1]
    summary = {
        "config": settings.echo(),
        "times": [s.t for s in result.snapshots],
        "discrete_norm_final": final.discrete_norm(),
        "density_route_deviation": float(np.max(np.abs(
            final.log_rho - (np.log(init.rho0) - result.div_integral)))),
    }
    return result, trajectories, summary


def compare_fields(fields_a, fields_b, time_tol: float = 1e-9) -> dict:
    """Error norms between two field sets at their common snapshot times."""
    by_time = []
    for fa in fields_a:
        for fb in fields_b:
            if abs(fa.t - fb.t) <= time_tol:
                by_time.append((fa, fb))
                break
    if not by_time:
        raise ValidationError("no common snapshot times to compare")
    entries = []
    for fa, fb in by_time:
        if fa.x.shape != fb.x.shape or not np.allclose(fa.x, fb.x):
            raise ValidationError(f"grids differ at t = {fa.t}")
        mask = fa.mask & fb.mask
        rho = error_norms(fa.rho, fb.rho, fa.x, mask)
        psi = error_norms(fa.psi, fb.psi, fa.x, mask)
        entries.append({
            "t": fa.t, "points": int(np.sum(mask)),
            "rho_l2": rho.l2, "rho_linf": rho.linf,
            "psi_l2": psi.l2, "psi_phase_reduced_l2": psi.phase_reduced_l2,
            "v_linf": error_norms(fa.v, fb.v, fa.x, mask).linf,
        })
    return {"comparisons": entries}


# ---------------------------------------------------------------------------
# tensor identity suite
# ---------------------------------------------------------------------------

def _synthetic_map(points):
    """q_i = a_i + 0.1 sin(a_{i+1}); analytic derivative stacks."""
    a = np.asarray(points, dtype=float)
    eps = 0.1
    roll = a[..., [1, 2, 0]]
    q = a + eps * np.sin(roll)
    n = a.shape[:-1]
    g = np.zeros(n + (3, 3))
    second = np.zeros(n + (3, 3, 3))
    third = np.zeros(n + (3, 3, 3, 3))
    for i in range(3):
        j = (i + 1) % 3
        g[..., i, i] += 1.0
        g[..., i, j] += eps * np.cos(a[..., j])
        second[..., i, j, j] = -eps * np.sin(a[..., j])
        third[..., i, j, j, j] = -eps * np.cos(a[..., j])
    return q, g, second, third


# a map with cross-coupled sine arguments: every cofactor entry depends on
# every coordinate, so the divergence identity holds only by cancellation
_RICH_EPS = (0.10, 0.08, 0.06)
_RICH_DIRS = np.array([[0.0, 1.0, 0.6], [0.7, 0.0, 1.0], [1.0, 0.8, 0.0]])


def _rich_map_gradient(points):
    """Deformation gradient of q_i = a_i + eps_i sin(dirs_i . a)."""
    a = np.asarray(points, dtype=float)
    g = np.zeros(a.shape[:-1] + (3, 3))
    for i in range(3):
        u = np.tensordot(a, _RICH_DIRS[i], axes=([-1], [0]))
        g[..., i, :] = _RICH_EPS[i] * np.cos(u)[..., None] * _RICH_DIRS[i]
        g[..., i, i] += 1.0
    return g


_SIGMAS3 = np.array([1.0, 1.3, 0.8])


def _gauss3(points):
    a = np.asarray(points, dtype=float)
    rho = np.prod((2.0 * np.pi * _SIGMAS3**2) ** -0.5
                  * np.exp(-(a / _SIGMAS3) ** 2 / 2.0), axis=-1)
    grad = rho[..., None] * (-a / _SIGMAS3**2)
    eye = np.eye(3)
    hess = rho[..., None, None] * (
        (a / _SIGMAS3**2)[..., :, None] * (a / _SIGMAS3**2)[..., None, :]
        - eye / _SIGMAS3**2)
    return rho, grad, hess


def _chain_rule_stress(point, params: PhysicsParams, h: float = 0.02):
    """Numeric push-forward oracle: spatial density derivatives built by
    applying the label-to-space derivative operator with finite differences.
    """
    point = np.asarray(point, dtype=float)
    offsets = np.arange(-2, 3)
    weights = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0

    def rho_of(a):
        _, g, _, _ = _synthetic_map(a)
        r, _, _ = _gauss3(a)
        return r / jacobian(g)

    def d_space(f, a):
        """(d f / d q_j)(a) for a scalar field given in label variables."""
        _, g, _, _ = _synthetic_map(a)
        J = jacobian(g)
        C = cofactor_matrix(g)
        grad_lbl = np.zeros(3)
        for l in range(3):
            for o, w in zip(offsets, weights):
                if w == 0.0:
                    continue
                shifted = a.copy()
                shifted[l] += o * h
                grad_lbl[l] += w * f(shifted)
            grad_lbl[l] /= h
        return (C @ grad_lbl) / J

    rho = rho_of(point)
    first = d_space(rho_of, point)
    second = np.zeros((3, 3))
    for j in range(3):
        second[j] = d_space(lambda a, jj=j: d_space(rho_of, a)[jj], point)
    second = 0.5 * (second + second.T)
    sigma, _ = stress_eulerian(rho, first, second, params.hbar, params.mass)
    return sigma


def tensor_check(seed: int = 0, params: PhysicsParams | None = None) -> dict:
    """The deformation-algebra identity suite (reported values + pass flags)."""
    params = params or PhysicsParams()
    rng = np.random.default_rng(seed)

    # cofactor identity over seeded nonsingular gradients
    worst = 0.0
    n_draws = 100
    for _ in range(n_draws):
        while True:
            g = rng.uniform(-1.0, 1.0, (3, 3))
            if abs(np.linalg.det(g)) >= 0.3:
                break
        J = jacobian(g)
        C = cofactor_matrix(g)
        resid = np.einsum("kj,ki->ij", g, C) - J * np.eye(3)
        worst = max(worst, float(np.max(np.abs(resid)) / abs(J)))

    # divergence-free cofactor field under grid refinement
    div_errors = []
    for n in (17, 33, 65):
        axis = np.linspace(-1.0, 1.0, n)
        h = axis[1] - axis[0]
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
        C = cofactor_matrix(_rich_map_gradient(grid))
        div = np.zeros(grid.shape[:-1] + (3,))
        for j in range(3):
            div += np.gradient(C[..., :, j], h, axis=j, edge_order=2)
        div_errors.append(float(np.max(np.abs(div[2:-2, 2:-2, 2:-2]))))
    div_orders = [float(np.log2(div_errors[i] / div_errors[i + 1]))
                  for i in range(len(div_errors) - 1)]

    # closed-form stress versus the chain-rule oracle
    test_points = np.array([[0.3, -0.4, 0.2], [-0.6, 0.1, 0.5], [0.0, 0.7, -0.3]])
    stress_rel = 0.0
    for pt in test_points:
        _, g, second, third = _synthetic_map(pt)
        rho0, dr, d2r = _gauss3(pt)
        sig = stress_lagrangian(g, second, third, rho0, dr, d2r,
                                params.hbar, params.mass)
        oracle = _chain_rule_stress(pt, params)
        stress_rel = max(stress_rel, float(
            np.max(np.abs(sig - oracle)) / np.max(np.abs(oracle))))

    # force identity: div(sigma)/rho versus grad V_Q at second order
    force_errors = []
    for n in (33, 65, 129):
        axis = np.linspace(-1.0, 1.0, n)
        h = axis[1] - axis[0]
        rho, grad, hess = _smooth_rho3(
            *np.meshgrid(axis, axis, axis, indexing="ij", sparse=True))
        sigma, _ = stress_eulerian(rho, grad, hess, params.hbar, params.mass)
        lap = np.trace(hess, axis1=-2, axis2=-1)
        vq, _ = quantum_potential(rho, grad, lap, params.hbar, params.mass)
        resid = np.zeros(rho.shape + (3,))
        for i in range(3):
            div_i = np.zeros(rho.shape)
            for j in range(3):
                div_i += np.gradient(sigma[..., i, j], h, axis=j, edge_order=2)
            resid[..., i] = div_i / rho - np.gradient(vq, h, axis=i, edge_order=2)
        force_errors.append(float(np.max(np.abs(resid[2:-2, 2:-2, 2:-2]))))
    force_orders = [float(np.log2(force_errors[i] / force_errors[i + 1]))
                    for i in range(len(force_errors) - 1)]
    force_order = force_orders[-1]

    return {
        "cofactor_identity_rel_max": worst,
        "cofactor_identity_draws": n_draws,
        "cofactor_divergence_errors": div_errors,
        "cofactor_divergence_orders": div_orders,
        "stress_equivalence_rel_max": stress_rel,
        "force_identity_errors": force_errors,
        "force_identity_orders": force_orders,
        "force_identity_order": force_order,
        "passed": bool(worst <= 1e-12 and min(div_orders) >= 1.9
                       and stress_rel <= 1e-6 and force_order >= 1.9),
    }


def _smooth_rho3(x1, x2, x3):
    """Positive smooth 3-D density exp(g) with analytic derivatives.

    The coordinates broadcast against each other, so an open mesh
    (``np.meshgrid(..., sparse=True)``) evaluates each term on the
    coordinates it depends on and only ``rho``, ``grad`` and ``hess`` take
    the full grid shape.
    """
    x1, x2, x3 = (np.asarray(x, dtype=float) for x in (x1, x2, x3))
    s1, c1, s2, c2 = np.sin(x1), np.cos(x1), np.sin(x2), np.cos(x2)
    sc = 0.2 * s1 * c2
    g = -x1**2 / 2 - x2**2 / 3 - x3**2 / 4 + sc
    gg = (-x1 + 0.2 * c1 * c2, -2.0 * x2 / 3 - 0.2 * s1 * s2, -x3 / 2)
    rho = np.exp(g)
    hess_g = {(0, 0): -1.0 - sc, (1, 1): -2.0 / 3 - sc, (2, 2): -0.5,
              (0, 1): -0.2 * c1 * s2}
    # component-major buffers: each entry below is one contiguous write
    grad = np.moveaxis(np.empty((3,) + rho.shape), 0, -1)
    hess = np.moveaxis(np.empty((3, 3) + rho.shape), (0, 1), (-2, -1))
    # hess = rho (grad g grad g^T + hess g), one symmetric pair of entries at
    # a time; the zero entries of hess g are added too, which keeps the
    # signed zeros of the full-array sum
    for i in range(3):
        np.multiply(gg[i], rho, out=grad[..., i])
        for j in range(i, 3):
            entry = gg[i] * gg[j]
            entry += hess_g.get((i, j), 0.0)
            np.multiply(entry, rho, out=hess[..., i, j])
            hess[..., j, i] = hess[..., i, j]
    return rho, grad, hess


# ---------------------------------------------------------------------------
# the closed-form benchmark acceptance battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    criterion: int
    name: str
    value: float
    tolerance: float
    op: str  # "<=" or ">="
    passed: bool

    @staticmethod
    def le(criterion, name, value, tol):
        return Check(criterion, name, float(value), float(tol), "<=",
                     bool(value <= tol))

    @staticmethod
    def ge(criterion, name, value, tol):
        return Check(criterion, name, float(value), float(tol), ">=",
                     bool(value >= tol))


def _exact_state(labels, t, sigma0, params) -> TrajectoryState:
    """Closed-form benchmark snapshot (chi is not used by the callers)."""
    q, qdot = gaussian_trajectory(labels, t, sigma0, params)
    return TrajectoryState(labels=labels, q=q, qdot=qdot,
                           chi=np.zeros_like(q), t=t)


def gaussian_accept(settings: Settings | None = None):
    """Run the closed-form benchmark battery; returns (checks, details)."""
    settings = settings or Settings.defaults()
    if settings["physics.potential"] != "free" or settings["state.boost_k"] != 0.0:
        raise ValidationError(
            "the acceptance battery is defined for the free resting packet; "
            "leave physics.potential = free and state.boost_k = 0")
    checks: list[Check] = []
    details: dict = {}
    sigma0 = settings["state.sigma0"]

    # -- criterion 1: trajectories against the closed form ------------------
    snapshots, fields, summary, wall = run_lagrangian(settings)
    params = settings.physics()
    init = settings.initial_state(params)
    checks.append(Check.le(1, "trajectory max relative error",
                           summary["trajectory_max_rel_error"], 1e-3))
    checks.append(Check.le(1, "trajectory run wall seconds", wall, 60.0))

    # -- criterion 2: wavefunction reconstruction ---------------------------
    x_grid = settings.x_grid()
    field = fields[-1]
    t_final = field.t
    rho_e, S_e = gaussian_wavefunction(x_grid, t_final, sigma0, params)
    psi_e = assemble_wavefunction(rho_e, S_e, params.hbar)
    window = field.mask & (np.abs(x_grid) <= 6.0)
    norms = error_norms(field.psi, psi_e, x_grid, window)
    checks.append(Check.le(2, "psi phase-reduced L2 error",
                           norms.phase_reduced_l2, 1e-3))
    checks.append(Check.le(2, "reconstructed density norm error",
                           abs(field.support_norm() - 1.0), 1e-4))
    details["reconstructed_phase_at_x1"] = float(
        np.interp(1.0, x_grid[field.mask], field.S[field.mask]))

    # -- criterion 5: dynamics residuals on the reconstructed run -----------
    # the field times always end with the last two snapshots
    pair = fields[-2:]
    r_qhj, m_qhj = qhj_residual(pair[0], pair[1], params)
    checks.append(Check.le(5, "quantum Hamilton-Jacobi residual",
                           np.max(np.abs(r_qhj[m_qhj])), 1e-3))
    r_cont, r_euler, m_ce = continuity_euler_residuals(pair[0], pair[1], params)
    checks.append(Check.le(5, "continuity residual",
                           np.max(np.abs(r_cont[m_ce])), 1e-2))
    checks.append(Check.le(5, "Euler residual",
                           np.max(np.abs(r_euler[m_ce])), 1e-2))
    details["dual_phase_deviation"] = summary["dual_phase_deviation"]

    # -- criterion 6: conservation -------------------------------------------
    checks.append(Check.le(6, "energy drift", summary["energy_drift_rel"], 1e-4))
    _, _, ref_summary = run_reference(settings)
    checks.append(Check.le(6, "reference norm drift",
                           ref_summary["norm_drift"], 1e-10))

    # -- criterion 7: the two acceleration formulas --------------------------
    worst = 0.0
    for t in (0.0, t_final):
        state = _exact_state(init.labels, t, sigma0, params)
        acc_d = acceleration_direct(state, init, params)
        acc_n = acceleration_newton(state, init, params)
        scale = float(np.max(np.abs(acc_n))) or 1.0
        worst = max(worst, float(np.max(np.abs(acc_d - acc_n))) / scale)
    checks.append(Check.le(7, "acceleration path disagreement", worst, 1e-4))

    # -- criterion 3: cross-solver oracle on the boosted packet -------------
    boosted = Settings(dict(settings.values))
    boosted.values.update({"state.boost_k": 1.0, "solver.t_final": 1.0,
                           "reference.t_final": 1.0})
    b_snapshots, b_fields, b_summary, _ = run_lagrangian(boosted)
    _, bref_fields, _ = run_reference(boosted)
    cmp = compare_fields([b_fields[-1]], [bref_fields[-1]])
    checks.append(Check.le(3, "boosted packet cross-solver phase-reduced L2",
                           cmp["comparisons"][0]["psi_phase_reduced_l2"], 1e-2))

    # -- criterion 8: particle method ----------------------------------------
    qtm_result, qtm_trajs, qtm_summary = run_qtm(settings)
    final = qtm_result.snapshots[-1]
    labels_q = qtm_trajs[0].labels
    i_one = int(np.argmin(np.abs(labels_q - 1.0)))
    q_exact, _ = gaussian_trajectory(labels_q[i_one], final.t, sigma0, params)
    checks.append(Check.le(8, "particle from x=1 endpoint error",
                           abs(final.x[i_one] - q_exact), 5e-3))
    inside = (final.x >= x_grid[field.mask][0]) & (final.x <= x_grid[field.mask][-1])
    psi_rec_mag = np.interp(final.x[inside], x_grid[field.mask],
                            np.abs(field.psi[field.mask]))
    checks.append(Check.le(8, "path-wise |psi| vs reconstruction",
                           np.max(np.abs(np.abs(qtm_result.psi[inside])
                                         - psi_rec_mag)), 5e-2))
    details["qtm_density_route_deviation"] = qtm_summary["density_route_deviation"]
    details["qtm_discrete_norm"] = qtm_summary["discrete_norm_final"]

    # -- criterion 9: first moments in the two pictures ----------------------
    lagr = lagrangian_moments(snapshots[-1], init, params)
    euler = eulerian_moments(field, params)
    dx_routes = abs(lagr[0] - euler[0])
    dp_routes = abs(lagr[1] - euler[1])
    checks.append(Check.le(9, "two-picture <x> agreement", dx_routes, 1e-6))
    checks.append(Check.le(9, "two-picture <p> agreement", dp_routes, 1e-6))
    b_init = boosted.initial_state(params)
    b_p = lagrangian_moments(b_snapshots[-1], b_init, params)[1]
    checks.append(Check.le(9, "boosted <p> against hbar*k",
                           abs(b_p - params.hbar * 1.0), 1e-6))

    # -- criterion 10: refinement ladders -------------------------------------
    spatial = spatial_convergence(params, sigma0)
    checks.append(Check.ge(10, "spatial convergence order",
                           min(spatial["orders"]), 3.5))
    temporal = temporal_convergence(params, sigma0)
    checks.append(Check.ge(10, "temporal convergence order",
                           min(temporal["orders"]), 3.5))
    details["spatial_ladder"] = spatial
    details["temporal_ladder"] = temporal
    details["boosted_summary_error"] = b_summary["trajectory_max_rel_error"]
    return checks, details


def spatial_convergence(params: PhysicsParams, sigma0: float = 1.0) -> dict:
    """Trajectory error against the closed form under label refinement.

    Uses sampled (non-analytic) initial data so the density-derivative
    stencils set the spatial error floor; the projection degree is held
    fixed across the ladder so only the grid spacing varies.
    """
    errors = []
    sizes = (101, 201, 401)
    for n in sizes:
        labels = np.linspace(-6.0 * sigma0, 6.0 * sigma0, n)
        init = make_gaussian_state(sigma0, params, labels, analytic=False)
        config = SolverConfig(t_final=1.0, projection_degree=12)
        snaps = evolve(init, params, config)
        q_exact, _ = gaussian_trajectory(labels, 1.0, sigma0, params)
        window = np.abs(labels) <= 5.0 * sigma0
        err = np.abs(snaps[-1].q - q_exact) / (1.0 + np.abs(labels))
        errors.append(float(np.max(err[window])))
    orders = [float(np.log2(errors[i] / errors[i + 1]))
              for i in range(len(errors) - 1)]
    return {"sizes": list(sizes), "errors": errors, "orders": orders}


def temporal_convergence(params: PhysicsParams | None = None,
                         sigma0: float = 1.0) -> dict:
    """Integrator order measured by self-convergence against a fine-dt run.

    The free benchmark's time-integration error sits below roundoff at any
    stable dt, so the ladder runs a breathing packet instead: a Gaussian
    wider than the trap ground state oscillates (the dilation factor obeys
    the Ermakov form b^2 = cos^2 wt + (alpha/w^2) sin^2 wt), which keeps
    the flow exactly affine (the mode projection is exact on it) while
    exciting frequencies fast enough for the dt error to be measurable.
    All runs share one spatial discretization; the reference uses dt
    sixteen times smaller than the finest rung.
    """
    from .model import HarmonicPotential

    base = params or PhysicsParams()
    params = PhysicsParams(hbar=base.hbar, mass=base.mass,
                           potential=HarmonicPotential(omega=1.0))
    labels = np.linspace(-8.0 * sigma0, 8.0 * sigma0, 201)
    init = make_gaussian_state(sigma0, params, labels)
    dts = (0.024, 0.012, 0.006)

    def run(dt):
        config = SolverConfig(t_final=1.2, dt=dt, projection_degree=16,
                              snapshot_stride=10**9)
        return evolve(init, params, config)[-1].q

    q_ref = run(dts[-1] / 16.0)
    errors = [float(np.max(np.abs(run(dt) - q_ref))) for dt in dts]
    orders = [float(np.log2(errors[i] / errors[i + 1]))
              for i in range(len(errors) - 1)]
    return {"dts": list(dts), "errors": errors, "orders": orders}
