"""Deformation-gradient algebra and the quantum stress/potential fields.

Conventions: ``g[i, l] = dq_i / da_l`` is the deformation gradient of the
label-to-position map.  ``second[m, k, n] = d^2 q_m / (da_k da_n)`` and
``third[m, k, l, n] = d^3 q_m / (da_k da_l da_n)`` carry the higher label
derivatives, symmetric in their derivative indices.  All field operations
broadcast over leading axes and return an explicit validity mask instead
of propagating NaNs.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

RHO_FLOOR_REL = 1e-14


def levi_civita() -> np.ndarray:
    """The completely antisymmetric symbol with eps[0,1,2] = 1."""
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    return eps


_EPS = levi_civita()


def jacobian(g) -> np.ndarray:
    """det(g) as the triple product g[0] . (g[1] x g[2]) of the rows.

    Written out on its own, not through :func:`cofactor_matrix`, so that
    the identity g^T C = J I compares two independent formulas.
    """
    g = np.asarray(g, dtype=float)
    r0, r1, r2 = g[..., 0, :], g[..., 1, :], g[..., 2, :]
    return (r0[..., 0] * (r1[..., 1] * r2[..., 2] - r1[..., 2] * r2[..., 1])
            + r0[..., 1] * (r1[..., 2] * r2[..., 0] - r1[..., 0] * r2[..., 2])
            + r0[..., 2] * (r1[..., 0] * r2[..., 1] - r1[..., 1] * r2[..., 0]))


def cofactor_matrix(g) -> np.ndarray:
    """Cofactors C[i, l] = dJ/dg[i, l]; satisfies g[k, j] C[k, i] = J delta_ij.

    Each entry is its 2x2 minor g[j, m] g[k, n] - g[j, n] g[k, m], with
    (i, j, k) and (l, m, n) cyclic.  C takes g's memory layout, so a
    component-major g gives a component-major C.
    """
    g = np.asarray(g, dtype=float)
    C = np.empty_like(g)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        for l in range(3):
            m, n = (l + 1) % 3, (l + 2) % 3
            C[..., i, l] = g[..., j, m] * g[..., k, n] - g[..., j, n] * g[..., k, m]
    return C


def hyper_cofactor(g) -> np.ndarray:
    """Derivative of the cofactor matrix with respect to the gradient entries.

    H[j, m, l, n] = d C[j, l] / d g[m, n]; linear in g.
    """
    g = np.asarray(g, dtype=float)
    return np.einsum("jmk,lnr,...kr->...jmln", _EPS, _EPS, g)


def _floor_mask(rho, floor_rel):
    rho = np.asarray(rho, dtype=float)
    scale = float(np.max(rho)) if rho.size else 0.0
    valid = rho > floor_rel * scale
    return rho, valid


def stress_eulerian(rho, grad_rho, hess_rho, hbar: float, mass: float):
    """Quantum stress from the density and its spatial derivatives.

    sigma[i, j] = (hbar^2 / 4m) (grad_i rho grad_j rho / rho - hess_ij rho).
    Every entry of ``hess_rho`` is read: no symmetry is assumed, so
    sigma[i, j] subtracts hess[i, j] and sigma[j, i] hess[j, i].
    Returns (sigma, valid); entries where rho is at the floor are zeroed and
    flagged invalid.
    """
    rho, valid = _floor_mask(rho, RHO_FLOOR_REL)
    grad = np.asarray(grad_rho, dtype=float)
    hess = np.asarray(hess_rho, dtype=float)
    safe = np.where(valid, rho, 1.0)
    outer = grad[..., :, None] * grad[..., None, :]
    sigma = (hbar**2 / (4.0 * mass)) * (outer / safe[..., None, None] - hess)
    np.copyto(sigma, 0.0, where=~valid[..., None, None])
    return sigma, valid


def quantum_potential(rho, grad_rho, laplacian_rho, hbar: float, mass: float):
    """V_Q = (hbar^2 / 4 m rho) [ |grad rho|^2 / (2 rho) - laplacian rho ];
    zeroed, and flagged invalid, where rho is at the floor."""
    rho, valid = _floor_mask(rho, RHO_FLOOR_REL)
    grad = np.asarray(grad_rho, dtype=float)
    safe = np.where(valid, rho, 1.0)
    g2 = np.sum(grad * grad, axis=-1)
    vq = (hbar**2 / (4.0 * mass)) * (0.5 * g2 / safe - laplacian_rho) / safe
    return np.where(valid, vq, 0.0), valid


def stress_lagrangian(g, second, third, rho0, drho0, d2rho0,
                      hbar: float = 1.0, mass: float = 1.0) -> np.ndarray:
    """Quantum stress in label variables (gradient, its label derivatives,
    and the initial density with its first two label gradients).

    sigma[i, j] = (hbar^2 / 4 m J^3) C[i, k] * (
          r[k] r[l] C[j, l] / rho0
        + (C[j, l] C[m, n] / J - H[j, m, l, n]) r[l] Q[m, k, n]
        - C[j, l] r2[k, l]
        + rho0 (C[m, n] H[j, r, l, s] + C[j, l] H[m, r, n, s]
                - 2 C[j, l] C[m, n] C[r, s] / J) Q[r, k, s] Q[m, l, n] / J
        + rho0 C[j, l] C[m, n] T[m, k, l, n] / J )

    with r = grad rho0, r2 = hess rho0, Q the second and T the third label
    derivatives of the map.  Symmetry in (i, j) is not manifest term by
    term; it emerges from the cofactor identities and is asserted in tests.
    """
    g = np.asarray(g, dtype=float)
    Q = np.asarray(second, dtype=float)
    T = np.asarray(third, dtype=float)
    r = np.asarray(drho0, dtype=float)
    r2 = np.asarray(d2rho0, dtype=float)
    rho0 = float(rho0)
    J = float(jacobian(g))
    if J <= 0:
        raise ValidationError(f"Jacobian must be positive, got {J}")
    if rho0 <= 0:
        raise ValidationError(f"rho0 must be positive, got {rho0}")
    C = cofactor_matrix(g)
    H = hyper_cofactor(g)

    bracket = np.einsum("k,l,jl->jk", r, r, C) / rho0
    lin = np.einsum("jl,mn->jmln", C, C) / J - H
    bracket += np.einsum("jmln,l,mkn->jk", lin, r, Q)
    bracket -= np.einsum("jl,kl->jk", C, r2)
    quad = (np.einsum("mn,jrls->jmlnrs", C, H)
            + np.einsum("jl,mrns->jmlnrs", C, H)
            - 2.0 * np.einsum("jl,mn,rs->jmlnrs", C, C, C) / J)
    bracket += rho0 / J * np.einsum("jmlnrs,rks,mln->jk", quad, Q, Q)
    bracket += rho0 / J * np.einsum("jl,mn,mkln->jk", C, C, T)

    return (hbar**2 / (4.0 * mass * J**3)) * np.einsum("ik,jk->ij", C, bracket)
