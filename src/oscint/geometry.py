"""Constraint-manifold geometry.

The momentum projector that removes constraint-normal momentum
components, the mass-metric position projection onto the manifold with
its exact Jacobian, and the map to consistent initial data for the
constrained effective dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import smallmat
from .model import OscillatorySystem, mass_solve, require_constant_mass


class RankDeficient(Exception):
    """Constraint Jacobian lost full rank (G M^-1 G^T not SPD)."""


@dataclass
class ManifoldProjection:
    """Result of projecting a position onto the constraint manifold.

    position satisfies constraint(position) = 0; the multiplier lam
    realizes position = x + M(x)^-1 G(x)^T lam.  jacobian_t is the
    transpose of d(position)/dx when requested, None otherwise.
    """

    position: np.ndarray
    lam: np.ndarray
    jacobian_t: Optional[np.ndarray] = None


def momentum_projector(sys: OscillatorySystem, x) -> np.ndarray:
    """Oblique projector P = I - G^T S^-1 G M^-1 with S = G M^-1 G^T,
    all evaluated at x.  P removes the constraint-normal momentum
    component: G M^-1 P = 0."""
    x = np.asarray(x, dtype=float)
    n = sys.n
    if sys.m == 0:
        return np.eye(n)
    jac = sys.constraint_jacobian(x)
    try:
        minv_gt = mass_solve(sys, x, jac.T)  # n x m
        coeff = smallmat.solve_spd(jac @ minv_gt, minv_gt.T)  # m x n, = S^-1 G M^-1
    except smallmat.NotPositiveDefinite as exc:
        raise RankDeficient(f"mass or constraint Gram matrix not SPD at x: {exc}") from exc
    return np.eye(n) - jac.T @ coeff


def project_to_manifold(
    sys: OscillatorySystem, x, want_jacobian: bool = False
) -> ManifoldProjection:
    """Mass-metric projection of x onto the constraint manifold.

    The position and its m multipliers come from sys.project_position:
    by default a Newton solve of constraint(x + M(x)^-1 G(x)^T lam) = 0
    from lam = 0 (tolerance 1e-12, at most 20 iterations), on plain
    floats for the two-spring chain.  A Gram matrix that is not SPD
    raises RankDeficient.  With want_jacobian the exact
    implicit-function Jacobian transpose of the projection map is
    returned as well; on the manifold it equals the momentum projector
    exactly.  The Jacobian requires a constant mass matrix (ValueError
    otherwise): it omits the x-derivative of M(x)^-1.
    """
    x = np.asarray(x, dtype=float)
    if want_jacobian:
        require_constant_mass(sys, "the projection Jacobian")
    if sys.m == 0:
        jac_t = np.eye(sys.n) if want_jacobian else None
        return ManifoldProjection(x.copy(), np.zeros(0), jac_t)
    try:
        position, lam = sys.project_position(x)
    except smallmat.NotPositiveDefinite as exc:
        raise RankDeficient(f"mass or constraint Gram matrix not SPD at x: {exc}") from exc
    jac_t = None
    if want_jacobian:
        if not any(lam.tolist()):
            # at lam = 0 the implicit Jacobian collapses to the projector
            jac_t = momentum_projector(sys, x)
        else:
            jac_t = _projection_jacobian_t(sys, x, position, lam)
    return ManifoldProjection(position, lam, jac_t)


def _projection_jacobian_t(sys, x, position, lam):
    """Transpose of d(position)/dx by implicit differentiation.

    Differentiating position = x + M^-1 G(x)^T lam(x) (constant M) and
    constraint(position(x)) = 0 gives, with D = M^-1 sum_k lam_k
    hess constraint_k(x) the x-derivative of the map
    x -> M^-1 G(x)^T lam at frozen lam and B = I + D:

        d(position)/dx = B - M^-1 G(x)^T S~^-1 G(position) B,
        S~ = G(position) M(x)^-1 G(x)^T.
    """
    minv_gt = mass_solve(sys, x, sys.constraint_jacobian(x).T)
    b = np.eye(sys.n) + mass_solve(sys, x, sys.constraint_hessian(x, lam))
    jac_pos = sys.constraint_jacobian(position)
    gram = jac_pos @ minv_gt  # m x m, generally non-symmetric
    try:
        coeff = smallmat.solve_dense(gram, jac_pos @ b)
    except smallmat.SingularMatrix as exc:
        raise RankDeficient(f"projection Jacobian system singular: {exc}") from exc
    return (b - minv_gt @ coeff).T


def consistent_state(sys: OscillatorySystem, x0, y0):
    """Consistent initial data for the constrained effective system.

    Positions are projected onto the manifold in the mass metric, then
    the momentum projector at the projected position removes the
    constraint-normal momentum component.
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    pos = project_to_manifold(sys, x0).position
    return pos, momentum_projector(sys, pos) @ y0
