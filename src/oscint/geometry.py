"""Constraint-manifold geometry.

The momentum projector that removes constraint-normal momentum
components, the position projection onto the manifold with its exact
Jacobian, and the map to consistent initial data for the
constrained effective dynamics.
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


def momentum_projector(sys: OscillatorySystem, x) -> np.ndarray:
    """Orthogonal projector P = I - G^T S^-1 G with S = G G^T, all
    evaluated at x (sys.momentum_projector: on plain floats for the
    two-spring chain).  P removes the constraint-normal momentum
    component: G P = 0."""
    try:
        return sys.momentum_projector(x)
    except smallmat.NotPositiveDefinite as exc:
        raise RankDeficient(f"constraint Gram matrix not SPD at x: {exc}") from exc


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
    projection map is returned as well (sys.projection_jacobian_t, on
    plain floats for the two-spring chain); on the manifold it equals
    the momentum projector exactly.
    """
    x = np.asarray(x, dtype=float)
    try:
        position, lam = sys.project_position(x)
    except smallmat.NotPositiveDefinite as exc:
        raise RankDeficient(f"constraint Gram matrix not SPD at x: {exc}") from exc
    except smallmat.NoConvergence as exc:
        start = ", ".join(f"{v:.3g}" for v in sys.constraint(x).tolist())
        raise smallmat.NoConvergence(f"start residual c(x) = ({start}): {exc}") from exc
    jac_t = None
    if want_jacobian:
        if not any(lam.tolist()):
            # at lam = 0 the implicit Jacobian collapses to the projector
            jac_t = momentum_projector(sys, x)
        else:
            try:
                jac_t = sys.projection_jacobian_t(x, position, lam)
            except smallmat.SingularMatrix as exc:
                raise RankDeficient(f"projection Jacobian system singular: {exc}") from exc
    return ManifoldProjection(position, lam, jac_t)


def consistent_state(sys: OscillatorySystem, x0, y0):
    """Consistent initial data for the constrained effective system.

    Positions are projected onto the manifold, then the momentum
    projector at the projected position removes the constraint-normal
    momentum component.
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    pos = project_to_manifold(sys, x0).position
    return pos, momentum_projector(sys, pos) @ y0
