"""Orchestration shared by the command line and the acceptance suite.

Each stage is a plain function from typed settings to plain data (arrays,
dataclasses, dicts ready for JSON), so the CLI, the tests and interactive
use all exercise identical code paths.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .benchmarks import error_norms, gaussian_trajectory, gaussian_wavefunction
from .config import Settings
from .errors import ValidationError
from .kinematics import (cofactor_matrix, jacobian, stress_eulerian,
                         stress_lagrangian)
from .lagrangian import (SolverConfig, acceleration_direct,
                         acceleration_newton, evolve)
from .model import (FreePotential, HarmonicPotential, InitialState,
                    PhysicsParams, TrajectoryState, _gaussian_forms,
                    assemble_wavefunction, make_gaussian_state)
from .qtm import qtm_evolve
from .reconstruction import (dynamics_residuals, eulerian_moments,
                             lagrangian_moments, phase_consistency_deviation,
                             reconstruct_wavefunction)
from .spectral import norm_of, reference_fields, split_step_evolve
from .stencils import grid_spacing, trapezoid_weights


# ---------------------------------------------------------------------------
# run stages
# ---------------------------------------------------------------------------

def _field_snapshot_indices(n_snapshots: int, n_times: int) -> list[int]:
    """Evenly spread output times plus the final adjacent pair; asking for
    more times than there are snapshots picks every snapshot."""
    if n_snapshots <= 2:
        return list(range(n_snapshots))
    n_times = max(2, min(n_times, n_snapshots))
    picks = set(np.linspace(0, n_snapshots - 1, n_times).astype(int).tolist())
    picks.add(n_snapshots - 2)
    picks.add(n_snapshots - 1)
    return sorted(picks)


def run_lagrangian(settings: Settings):
    """Evolve, reconstruct, and assemble the run summary."""
    params = settings.physics()
    init = settings.initial_state(params)
    config = settings.solver_config()
    n_times = settings["output.field_times"]
    t0 = time.perf_counter()
    snapshots = evolve(init, params, config)
    wall = time.perf_counter() - t0

    x_grid = settings.x_grid()
    indices = _field_snapshot_indices(len(snapshots), n_times)
    fields = [reconstruct_wavefunction(snapshots[:i + 1], init, params, x_grid)
              for i in indices]

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
    # a valid config plans at least one step: two snapshots or more
    final = snapshots[-1]
    acc_d = acceleration_direct(final, init, params)
    acc_n = acceleration_newton(final, init, params)
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
    n_times = settings["output.field_times"]
    forms = _gaussian_forms(settings["state.sigma0"], params.hbar,
                            settings["state.boost_k"])
    psi0 = assemble_wavefunction(forms.rho0(x), forms.s0(x), params.hbar)
    dx = grid_spacing(x)
    psi0 = psi0 / np.sqrt(norm_of(psi0, dx))
    waves = split_step_evolve(psi0, x, params, *settings.reference_controls())
    norms = [norm_of(w.psi, dx) for w in waves]
    indices = _field_snapshot_indices(len(waves), n_times)
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
    solver (``qtm.span``), so the small truncated mass is folded back as
    one constant factor; the log-density derivatives, and hence the
    dynamics, are unchanged.
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
    final = result.snapshots[-1]
    summary = {
        "config": settings.echo(),
        "times": [s.t for s in result.snapshots],
        # sum rho_n * local spacing, a loose mass diagnostic
        "discrete_norm_final": float(np.sum(
            np.exp(result.log_rho) * trapezoid_weights(final.q))),
        "density_route_deviation": float(np.max(np.abs(
            result.log_rho - (np.log(init.rho0) - result.div_integral)))),
    }
    return result, summary


def compare_fields(fields_a, fields_b) -> dict:
    """Error norms between two field sets at their common snapshot times
    (times within 1e-9 of each other)."""
    by_time = []
    for fa in fields_a:
        for fb in fields_b:
            if abs(fa.t - fb.t) <= 1e-9:
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

# a map with cross-coupled sine arguments: every cofactor entry depends on
# every coordinate, so the divergence identity holds only by cancellation
_RICH_EPS = (0.10, 0.08, 0.06)
_RICH_DIRS = np.array([[0.0, 1.0, 0.6], [0.7, 0.0, 1.0], [1.0, 0.8, 0.0]])


def _rich_map_gradient(points):
    """Deformation gradient of q_i = a_i + eps_i sin(dirs_i . a)."""
    a = np.asarray(points, dtype=float)
    g = np.empty(a.shape[:-1] + (3, 3))
    for i in range(3):
        amp = _RICH_EPS[i] * np.cos(np.tensordot(a, _RICH_DIRS[i], axes=([-1], [0])))
        g[..., i, :] = amp[..., None] * _RICH_DIRS[i]
        g[..., i, i] += 1.0
    return g


def _rich_map(points):
    """The rich map's deformation gradient and its analytic second and third
    derivative stacks, -eps_i sin(dirs_i . a) dirs_i dirs_i and
    -eps_i cos(dirs_i . a) dirs_i dirs_i dirs_i."""
    a = np.asarray(points, dtype=float)
    phase = a @ _RICH_DIRS.T
    d2 = _RICH_DIRS[:, :, None] * _RICH_DIRS[:, None, :]
    d3 = d2[..., None] * _RICH_DIRS[:, None, None, :]
    eps = np.asarray(_RICH_EPS)
    second = (-eps * np.sin(phase))[..., None, None] * d2
    third = (-eps * np.cos(phase))[..., None, None, None] * d3
    return _rich_map_gradient(a), second, third


# the label points where tensor_check compares the closed-form stress with
# the chain-rule oracle
_ORACLE_POINTS = np.array([[0.3, -0.4, 0.2], [-0.6, 0.1, 0.5], [0.0, 0.7, -0.3]])
# the oracle's five-point rule without its zero centre weight: offsets
# -2, -1, 1, 2 (in units of h) and their weights
_ORACLE_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_ORACLE_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0


def _chain_rule_stress(points, params: PhysicsParams, h: float = 0.02):
    """Numeric push-forward oracle: spatial density derivatives built by
    applying the label-to-space derivative operator with finite differences.

    ``points`` is shaped (..., 3) and the stress (..., 3, 3).  Each level
    of the operator evaluates its field once, on all 12 shifted points of
    every input point; each point's value is the one it has alone (the
    density floor of ``stress_eulerian``, relative to the largest rho of
    the batch, marks no point of |a_l| <= 1).
    """
    a = np.asarray(points, dtype=float)
    # shifts[l, k] = offset k times h along axis l
    shifts = np.zeros((3, 4, 3))
    for l in range(3):
        shifts[l, :, l] = _ORACLE_OFFSETS * h

    def rho_of(a):
        return (_smooth_rho3(*np.moveaxis(a, -1, 0))[0]
                / jacobian(_rich_map_gradient(a)))

    def d_space(f, a):
        """(d f / d q)(a) for a field given in label variables; for a
        3-vector f, row j is the spatial gradient of f[j]."""
        g = _rich_map_gradient(a)
        J = jacobian(g)
        C = cofactor_matrix(g)
        # d f / d a_l by the five-point rule, f taken once on every shifted
        # point: its values are (..., l, k) + f's own shape, k the offset
        vals = f(a[..., None, None, :] + shifts)
        acc = 0.0
        for w, v in zip(_ORACLE_WEIGHTS, np.moveaxis(vals, a.ndim, 0)):
            acc = acc + w * v
        acc = acc / h
        if acc.ndim == a.ndim:
            # scalar f: acc is (..., l)
            return (C @ acc[..., None])[..., 0] / J[..., None]
        # 3-vector f: acc is (..., l, j); one matrix-vector product per
        # component of f (a matrix-matrix product rounds differently)
        rows = np.swapaxes(acc, -1, -2)
        return (C[..., None, :, :] @ rows[..., None])[..., 0] / J[..., None, None]

    rho = rho_of(a)
    first = d_space(rho_of, a)
    second = d_space(lambda b: d_space(rho_of, b), a)
    second = 0.5 * (second + np.swapaxes(second, -1, -2))
    sigma, _ = stress_eulerian(rho, first, second, params.hbar, params.mass)
    return sigma


# tensor_check's star centres: uniform on |a_l| <= 1 - 4/128, the interior
# [2:-2] of a 129-point grid on [-1, 1] (the finest force spacing, 1/64)
_STAR_POINTS = 512
_STAR_HALF_WIDTH = 1.0 - 4.0 / 128
# a star's seven points: its centre, then a + h e_l and a - h e_l, l = 0, 1, 2
_STAR_OFFSETS = np.concatenate((np.zeros((1, 3)), np.eye(3), -np.eye(3)))


def tensor_check(seed: int = 0, params: PhysicsParams | None = None) -> dict:
    """The deformation-algebra identity suite (reported values + pass flags).

    ``div C = 0`` and ``div(sigma)/rho = grad V_Q`` are checked by centred
    differences on difference stars (``_stars``) around ``_STAR_POINTS``
    centres drawn from ``seed``, the same centres at every spacing.  Each
    identity reports its largest residual per spacing, the orders between
    consecutive spacings and the least order of any one centre."""
    params = params or PhysicsParams()
    # the standard library's generator: these small draws do not need
    # numpy.random, whose import costs start-up time and memory
    rng = random.Random(seed)

    # cofactor identity over seeded nonsingular gradients
    n_draws = 100
    worst = _cofactor_identity_rel_max(rng, n_draws)

    # the star centres, drawn after the matrices so that the matrices do not
    # depend on them
    b = _STAR_HALF_WIDTH
    points = np.array([[rng.uniform(-b, b) for _ in range(3)]
                       for _ in range(_STAR_POINTS)])
    div_errors, div_orders, div_least = _convergence(
        lambda h: _cofactor_divergence_residuals(points, h), (1 / 8, 1 / 16, 1 / 32))

    # closed-form stress versus the chain-rule oracle
    stress_rel = 0.0
    for pt, oracle in zip(_ORACLE_POINTS, _chain_rule_stress(_ORACLE_POINTS, params)):
        g, second, third = _rich_map(pt)
        rho0, dr, d2r = _smooth_rho3(*pt)
        sig = stress_lagrangian(g, second, third, rho0, dr, d2r,
                                params.hbar, params.mass)
        stress_rel = max(stress_rel, float(
            np.max(np.abs(sig - oracle)) / np.max(np.abs(oracle))))

    force_errors, force_orders, force_least = _convergence(
        lambda h: _force_identity_residuals(points, h, params),
        (1 / 16, 1 / 32, 1 / 64))
    force_order = force_orders[-1]

    return {
        "cofactor_identity_rel_max": worst,
        "cofactor_identity_draws": n_draws,
        "cofactor_divergence_errors": div_errors,
        "cofactor_divergence_orders": div_orders,
        "cofactor_divergence_least_point_order": div_least,
        "stress_equivalence_rel_max": stress_rel,
        "force_identity_errors": force_errors,
        "force_identity_orders": force_orders,
        "force_identity_order": force_order,
        "force_identity_least_point_order": force_least,
        "passed": bool(worst <= 1e-12 and min(div_orders) >= 1.9
                       and stress_rel <= 1e-6 and force_order >= 1.9),
    }


def _cofactor_identity_rel_max(rng: random.Random, n_draws: int) -> float:
    """The largest max |g^T C - J I| / |J| over ``n_draws`` seeded
    nonsingular gradients g (|det g| >= 0.3, entries uniform on [-1, 1]).

    Each candidate is drawn and kept or rejected on its own, so the draws
    leave ``rng`` where the star centres start; the identity is then taken
    once over the stack of kept matrices."""
    draws = []
    while len(draws) < n_draws:
        g = np.array([[rng.uniform(-1.0, 1.0) for _ in range(3)]
                      for _ in range(3)])
        if abs(np.linalg.det(g)) >= 0.3:
            draws.append(g)
    g = np.stack(draws)
    J = jacobian(g)
    C = cofactor_matrix(g)
    resid = np.einsum("dkj,dki->dij", g, C) - J[:, None, None] * np.eye(3)
    return float(np.max(np.max(np.abs(resid), axis=(1, 2)) / np.abs(J)))


def _stars(points, h):
    """The stars of spacing h around ``points`` (N, 3), star axis first:
    shape (7, N, 3), in the order of ``_STAR_OFFSETS``."""
    return points + h * _STAR_OFFSETS[:, None, :]


def _centred(f, h, l):
    """(f(a + h e_l) - f(a - h e_l)) / (2. * h) at each centre of a field f
    on stars: ``np.gradient``'s interior formula, with its rounding."""
    return (f[1 + l] - f[4 + l]) / (2. * h)


def _divergence(T, h):
    """sum_j d T[i, j] / dx_j, i = 0, 1, 2, at each centre of a tensor field
    on stars, summed in the order of ``np.gradient`` calls added to zeros."""
    div = np.zeros(T.shape[1:-1])
    for j in range(3):
        div += _centred(T[..., j], h, j)
    return div


def _cofactor_divergence_residuals(points, h):
    """div C at each centre, (N, 3), C the cofactor field of the rich map
    (divergence-free in the continuum)."""
    return _divergence(cofactor_matrix(_rich_map_gradient(_stars(points, h))), h)


def _force_identity_residuals(points, h, params: PhysicsParams):
    """div(sigma) / rho - grad V_Q at each centre, (N, 3), for the smooth
    density, V_Q from the solvers' ``params.quantum_potential`` in the
    log-density c = ln rho: |grad c| = |grad rho| / rho and
    lap c = lap rho / rho - |grad c|^2.

    The density floor of ``stress_eulerian`` is relative to the largest rho
    of the stars; min rho / max rho is about 0.3 there, so the 1e-14 floor
    marks no point."""
    rho, grad, hess = _smooth_rho3(*np.moveaxis(_stars(points, h), -1, 0))
    sigma, _ = stress_eulerian(rho, grad, hess, params.hbar, params.mass)
    grad_sq = np.sum(grad * grad, axis=-1) / rho**2
    vq = params.quantum_potential(
        np.sqrt(grad_sq), np.trace(hess, axis1=-2, axis2=-1) / rho - grad_sq)
    resid = _divergence(sigma, h) / rho[0, :, None]
    for i in range(3):
        resid[:, i] -= _centred(vq, h, i)
    return resid


def _convergence(residuals, spacings):
    """The largest residual component of ``residuals(h)`` at each spacing,
    the orders between consecutive spacings, and the least order of any one
    centre's largest component."""
    per_point = [np.max(np.abs(residuals(h)), axis=-1) for h in spacings]
    errors = [float(np.max(r)) for r in per_point]
    orders = [float(np.log2(errors[k] / errors[k + 1]))
              for k in range(len(errors) - 1)]
    least = min(float(np.min(np.log2(coarse / fine)))
                for coarse, fine in zip(per_point, per_point[1:]))
    return errors, orders, least


def _smooth_rho3(x1, x2, x3):
    """Positive smooth 3-D density exp(g) with analytic derivatives, at the
    points with coordinates x1, x2, x3 (arrays that broadcast together)."""
    x1, x2, x3 = (np.asarray(x, dtype=float) for x in (x1, x2, x3))
    s1, c1, s2, c2 = np.sin(x1), np.cos(x1), np.sin(x2), np.cos(x2)
    sc = 0.2 * s1 * c2
    rho = np.exp(-x1**2 / 2 - x2**2 / 3 - x3**2 / 4 + sc)
    gg = np.stack(np.broadcast_arrays(-x1 + 0.2 * c1 * c2,
                                      -2.0 * x2 / 3 - 0.2 * s1 * s2, -x3 / 2), axis=-1)
    hess_g = np.zeros(rho.shape + (3, 3))
    hess_g[..., 0, 0], hess_g[..., 1, 1] = -1.0 - sc, -2.0 / 3 - sc
    hess_g[..., 2, 2] = -0.5
    hess_g[..., 0, 1] = hess_g[..., 1, 0] = -0.2 * c1 * s2
    # hess = rho (grad g grad g^T + hess g)
    hess = rho[..., None, None] * (gg[..., :, None] * gg[..., None, :] + hess_g)
    return rho, gg * rho[..., None], hess


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
    r_qhj, r_cont, r_euler, interior = dynamics_residuals(*fields[-2:], params)
    checks.append(Check.le(5, "quantum Hamilton-Jacobi residual",
                           np.max(np.abs(r_qhj[interior])), 1e-3))
    checks.append(Check.le(5, "continuity residual",
                           np.max(np.abs(r_cont[interior])), 1e-2))
    checks.append(Check.le(5, "Euler residual",
                           np.max(np.abs(r_euler[interior])), 1e-2))
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
    boosted = Settings({**settings.values, "state.boost_k": 1.0,
                        "solver.t_final": 1.0, "reference.t_final": 1.0})
    b_snapshots, b_fields, b_summary, _ = run_lagrangian(boosted)
    _, bref_fields, _ = run_reference(boosted)
    cmp = compare_fields([b_fields[-1]], [bref_fields[-1]])
    checks.append(Check.le(3, "boosted packet cross-solver phase-reduced L2",
                           cmp["comparisons"][0]["psi_phase_reduced_l2"], 1e-2))

    # -- criterion 8: particle method ----------------------------------------
    qtm_result, qtm_summary = run_qtm(settings)
    final = qtm_result.snapshots[-1]
    i_one = int(np.argmin(np.abs(final.labels - 1.0)))
    q_exact, _ = gaussian_trajectory(final.labels[i_one], final.t, sigma0, params)
    checks.append(Check.le(8, "particle from x=1 endpoint error",
                           abs(final.q[i_one] - q_exact), 5e-3))
    inside = (final.q >= x_grid[field.mask][0]) & (final.q <= x_grid[field.mask][-1])
    psi_rec_mag = np.interp(final.q[inside], x_grid[field.mask],
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
