"""Constraint-manifold geometry.

The momentum projector that removes constraint-normal momentum
components, the position projection onto the manifold with its exact
Jacobian, and the map to consistent initial data for the
constrained effective dynamics.  Runs apply the projector and the
projection Jacobian to vectors (project_momentum, projection_vjp); their
matrices, for the self-checks and tests, are assembled column by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import smallmat
from .model import OscillatorySystem


class RankDeficient(Exception):
    """Constraint Jacobian lost full rank (G G^T not SPD)."""


@dataclass
class ManifoldProjection:
    """Result of projecting a position onto the constraint manifold.

    position satisfies constraint(position) = 0; the multiplier lam
    realizes position = x + G(x)^T lam.  jacobian_t is the
    transpose of d(position)/dx when requested, None otherwise.
    """

    position: np.ndarray
    lam: np.ndarray
    jacobian_t: Optional[np.ndarray] = None


def project_momentum(sys: OscillatorySystem, x, v) -> np.ndarray:
    """P(x) v, P = I - G^T S^-1 G with S = G G^T, all evaluated at x
    (sys.project_momentum: on plain floats for the two-spring chain).
    P removes the constraint-normal momentum component: G P v = 0."""
    try:
        return sys.project_momentum(x, v)
    except smallmat.NotPositiveDefinite as exc:
        raise RankDeficient(f"constraint Gram matrix not SPD at x: {exc}") from exc


def momentum_projector(sys: OscillatorySystem, x) -> np.ndarray:
    """The n x n projector P(x), column j being project_momentum of the
    unit vector e_j."""
    return np.column_stack([project_momentum(sys, x, e) for e in np.eye(sys.n)])


def projection_vjp(sys: OscillatorySystem, x, projection: ManifoldProjection, v) -> np.ndarray:
    """J(x)^T v for the Jacobian J of the projection map at x, given the
    projection of x (sys.projection_vjp, on plain floats for the
    two-spring chain; at lam = 0, where J = P(x), project_momentum).  A
    singular system raises RankDeficient."""
    if not any(projection.lam.tolist()):
        return project_momentum(sys, x, v)
    try:
        return sys.projection_vjp(x, projection.position, projection.lam, v)
    except smallmat.SingularMatrix as exc:
        raise RankDeficient(f"projection Jacobian system singular: {exc}") from exc


def project_to_manifold(
    sys: OscillatorySystem, x, want_jacobian: bool = False
) -> ManifoldProjection:
    """Projection of x onto the constraint manifold along the normal
    directions at x.

    The position and its m multipliers come from sys.project_position:
    by default a Newton solve of constraint(x + G(x)^T lam) = 0
    from lam = 0 (tolerance 1e-12, at most 20 iterations), on plain
    floats for the two-spring chain.  A Gram matrix that is not SPD
    raises RankDeficient; a failed solve raises NoConvergence with the
    constraint residual at x before the solver's message.  With
    want_jacobian the exact implicit-function Jacobian transpose of the
    projection map is returned as well, column j being projection_vjp
    of e_j; on the manifold it equals the momentum projector exactly.
    """
    x = np.asarray(x, dtype=float)
    try:
        position, lam = sys.project_position(x)
    except smallmat.NotPositiveDefinite as exc:
        raise RankDeficient(f"constraint Gram matrix not SPD at x: {exc}") from exc
    except smallmat.NoConvergence as exc:
        start = ", ".join(f"{v:.3g}" for v in sys.constraint(x).tolist())
        raise smallmat.NoConvergence(f"start residual c(x) = ({start}): {exc}") from exc
    projection = ManifoldProjection(position, lam)
    if want_jacobian:
        projection.jacobian_t = np.column_stack(
            [projection_vjp(sys, x, projection, e) for e in np.eye(sys.n)]
        )
    return projection


def consistent_state(sys: OscillatorySystem, x0, y0):
    """Consistent initial data for the constrained effective system.

    Positions are projected onto the manifold, then the momentum
    projector at the projected position removes the constraint-normal
    momentum component.
    """
    pos = project_to_manifold(sys, x0).position
    return pos, project_momentum(sys, pos, y0)
