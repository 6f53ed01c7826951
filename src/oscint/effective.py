"""Constrained effective dynamics with frequency-correction force.

In the stiff limit the dynamics lives on the constraint manifold and is
governed by the slow potential plus a correction potential
sum_k I_k * omega_k(X), where the omega_k are the square roots of the
nonzero eigenvalues of the stiff Hessian and the I_k are the fixed mode
actions of the initial data.  A constrained leapfrog (RATTLE, from the
contract's projection and projector) integrates this system and serves
as the reference for the macro methods.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import smallmat
from .geometry import RankDeficient, consistent_state, project_momentum
from .integrators import Trajectory, _sampled_run
from .model import OscillatorySystem, State

DEFAULT_GAP_FACTOR = 1e-6


class GapViolation(Exception):
    """Stiff Hessian spectrum no longer splits into null and fast parts."""


class FrequencySet(NamedTuple):
    """Fast frequencies (ascending) with orthonormal mode vectors."""

    omegas: np.ndarray
    vectors: np.ndarray


def frequencies(
    sys: OscillatorySystem, x, gap_factor: float = DEFAULT_GAP_FACTOR
) -> FrequencySet:
    """Fast frequencies at a configuration on (or near) the manifold.

    Solves the symmetric eigenproblem of the stiff Hessian; the
    d = n - m smallest eigenvalues must be negligible against the
    (d+1)-st (factor gap_factor), otherwise the configuration left the
    validity region and GapViolation is raised.
    """
    x = np.asarray(x, dtype=float)
    m = sys.m
    if m == 0:
        return FrequencySet(np.zeros(0), np.zeros((sys.n, 0)))
    pairs = smallmat.sym_eig(sys.hess_stiff(x))
    values = pairs.values
    d = sys.n - m
    fast = values[d:]
    if fast[0] <= 0.0:
        raise GapViolation(f"fast Hessian eigenvalue not positive: {fast[0]:.3e}")
    null_size = float(np.max(np.abs(values[:d]))) if d > 0 else 0.0
    if null_size > gap_factor * fast[0]:
        raise GapViolation(
            f"null eigenvalues up to {null_size:.3e} vs fast eigenvalue "
            f"{fast[0]:.3e} (factor {gap_factor:.1e})"
        )
    return FrequencySet(np.sqrt(fast), pairs.vectors[:, d:])


def manifold_frequencies(sys: OscillatorySystem, x) -> FrequencySet:
    """Fast frequencies at a configuration x on the manifold.

    With stiff(x) = 1/2 sum_k K_k c_k(x)^2 (K from stiff_weights) the
    stiff Hessian at c = 0 is G^T K G, and its nonzero spectrum is that
    of the m x m SPD matrix S = K^1/2 G G^T K^1/2.  For S u = lambda u,
    omega = sqrt(lambda) and v = G^T K^1/2 u / omega is the orthonormal
    mode vector.
    Off the manifold the result differs from frequencies() by O(|c|).
    The pairs come from sys.manifold_frequencies(x), which reads K from
    the model itself, on plain floats for the two-spring chain.  Raises
    GapViolation when the smallest eigenvalue of S is not positive (G
    lost rank).  A system with m = 0 has no fast frequencies.
    """
    if sys.m == 0:
        return frequencies(sys, x)
    try:
        return FrequencySet(*sys.manifold_frequencies(x))
    except smallmat.NotPositiveDefinite as exc:
        raise GapViolation(str(exc)) from exc


def grad_frequencies(sys: OscillatorySystem, x) -> np.ndarray:
    """Row k holds the ambient-coordinate gradient of omega_k at a
    configuration x on the manifold.

    Exact by first-order perturbation of the stiff Hessian (orthonormal
    v_k, simple omega_k^2 guaranteed by the gap check):
    d omega_k / dx_j = v_k^T (d_j hess_stiff) v_k / (2 omega_k), with the
    eigenpairs of manifold_frequencies.  The matrix comes from
    sys.frequency_gradients(x), on plain floats for the two-spring
    chain.  Raises GapViolation where manifold_frequencies does.
    """
    if sys.m == 0:
        return np.empty((0, sys.n))
    try:
        return sys.frequency_gradients(x)
    except smallmat.NotPositiveDefinite as exc:
        raise GapViolation(str(exc)) from exc


def correction_force(sys: OscillatorySystem, x, actions) -> np.ndarray:
    """Force -sum_k I_k grad omega_k(x) exerted by the fast modes, for
    one action per fast mode (ValueError otherwise); zero actions need
    no gradients."""
    actions = np.asarray(actions, dtype=float)
    if actions.shape != (sys.m,):
        raise ValueError(f"actions must have shape ({sys.m},), got {actions.shape}")
    if not any(actions.tolist()):
        return np.zeros(sys.n)
    return -(grad_frequencies(sys, x).T @ actions)


def effective_energy(sys: OscillatorySystem, state: State, actions) -> float:
    """1/2 y^T y + slow(x) + sum_k I_k omega_k(x), x on the manifold."""
    omegas = manifold_frequencies(sys, state.x).omegas
    kinetic = 0.5 * float(state.y @ state.y)
    return kinetic + sys.slow_potential(state.x) + float(actions @ omegas)


def _applied_force(sys, x, actions):
    return correction_force(sys, x, actions) - sys.grad_slow(x)


def _rattle_step_cached(sys, state, actions, h, force0):
    """One constrained leapfrog step; returns (next state, end force).

    Kick, projection, kick, projector.  With mu = -(h^2/2) lam for the
    half-step multiplier lam, the position stage solves
    constraint(z + G(x0)^T mu) = 0 for the drifted point
    z = x0 + h (y0 + h/2 f0): sys.project_position with base z.
    The velocity stage applies the momentum projector at the end point.
    """
    x0 = state.x
    if force0 is None:
        force0 = _applied_force(sys, x0, actions)
    y_kick = state.y + 0.5 * h * force0
    try:
        x1, mu = sys.project_position(x0, base=x0 + h * y_kick)
    except smallmat.NotPositiveDefinite as exc:
        raise RankDeficient(f"constraint Gram matrix not SPD at x: {exc}") from exc
    y_half = y_kick + sys.constraint_jacobian(x0).T @ mu / h
    force1 = _applied_force(sys, x1, actions)
    y1 = project_momentum(sys, x1, y_half + 0.5 * h * force1)
    return State(x1, y1, state.t + h), force1


def rattle_step(sys: OscillatorySystem, state: State, actions, h: float) -> State:
    """One step of the constrained leapfrog on the effective system,
    with the run's frozen actions in the correction force."""
    return _rattle_step_cached(sys, state, actions, h, None)[0]


def constraint_residuals(sys: OscillatorySystem, state: State):
    """(position residual, momentum-tangency residual), both max-norm."""
    if sys.m == 0:
        return 0.0, 0.0
    pos = float(np.max(np.abs(sys.constraint(state.x))))
    mom = float(np.max(np.abs(sys.constraint_jacobian(state.x) @ state.y)))
    return pos, mom


def effective_reference(
    sys: OscillatorySystem,
    x0,
    y0,
    h_ref: float,
    t_end: float,
    stride: int = 1,
) -> Trajectory:
    """Reference trajectory of the constrained effective dynamics.

    Projects (x0, y0) to consistent data, fixes the actions from the
    raw initial state (the step holds them), then runs the constrained
    leapfrog from t = 0 to t_end, sampling, checking its input and
    reporting a failing step as integrators.integrate does.  The samples
    carry no records, as integrate's without an observer; the
    reference's health comes from its sampled states
    (effective_energy, constraint_residuals).
    """
    from .diagnostics import compute_actions

    actions = compute_actions(sys, x0, y0)
    xc, yc = consistent_state(sys, x0, y0)

    def step(state, force, count):
        return (*_rattle_step_cached(sys, state, actions, h_ref, force), None)

    return _sampled_run(sys, State(xc, yc, 0.0), step, h_ref, t_end, stride, None, "reference")
