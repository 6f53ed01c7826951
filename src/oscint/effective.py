"""Constrained effective dynamics with frequency-correction force.

In the stiff limit the dynamics lives on the constraint manifold and is
governed by the slow potential plus a correction potential
sum_k I_k * omega_k(X), where the omega_k are the square roots of the
nonzero generalized eigenvalues of the pencil (stiff Hessian, mass) and
the I_k are the fixed mode actions of the initial data.  A constrained
leapfrog (RATTLE, from the contract's projection and projector)
integrates this system and serves as the reference for the macro methods.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import smallmat
from .geometry import RankDeficient, consistent_state, momentum_projector
from .integrators import Trajectory, _sampled_run
from .model import OscillatorySystem, State, mass_solve, pencil_eig, require_constant_mass

DEFAULT_GAP_FACTOR = 1e-6


class GapViolation(Exception):
    """Pencil spectrum no longer splits into null and fast parts."""


class FrequencySet(NamedTuple):
    """Fast frequencies (ascending) with mass-orthonormal mode vectors."""

    omegas: np.ndarray
    vectors: np.ndarray


def frequencies(
    sys: OscillatorySystem, x, gap_factor: float = DEFAULT_GAP_FACTOR
) -> FrequencySet:
    """Fast frequencies at a configuration on (or near) the manifold.

    Solves the generalized eigenproblem of (stiff Hessian, mass); the
    d = n - m smallest eigenvalues must be negligible against the
    (d+1)-st (factor gap_factor), otherwise the configuration left the
    validity region and GapViolation is raised.
    """
    x = np.asarray(x, dtype=float)
    m = sys.m
    if m == 0:
        return FrequencySet(np.zeros(0), np.zeros((sys.n, 0)))
    pairs = pencil_eig(sys, x, sys.hess_stiff(x))
    values = pairs.values
    d = sys.n - m
    fast = values[d:]
    if fast[0] <= 0.0:
        raise GapViolation(f"fast pencil eigenvalue not positive: {fast[0]:.3e}")
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
    stiff Hessian at c = 0 is G^T K G, and the nonzero spectrum of the
    pencil (G^T K G, M) is that of the m x m SPD matrix
    S = K^1/2 G M^-1 G^T K^1/2.  For S u = lambda u, omega = sqrt(lambda)
    and v = M^-1 G^T K^1/2 u / omega is the mass-orthonormal mode vector.
    Off the manifold the result differs from frequencies() by O(|c|).
    The pairs come from sys.manifold_frequencies, on plain floats for
    the two-spring chain.  Raises GapViolation when the smallest
    eigenvalue of S is not positive (G lost rank).  A system without
    stiff_weights falls back to the full pencil, frequencies().
    """
    weights = sys.stiff_weights()
    if weights is None or sys.m == 0:
        return frequencies(sys, x)
    try:
        return FrequencySet(*sys.manifold_frequencies(x, weights))
    except smallmat.NotPositiveDefinite as exc:
        raise GapViolation(str(exc)) from exc


def grad_frequencies(sys: OscillatorySystem, x) -> np.ndarray:
    """Row k holds the ambient-coordinate gradient of omega_k at a
    configuration x on the manifold.

    Exact by first-order perturbation of the pencil (constant mass,
    mass-orthonormal v_k, simple omega_k^2 guaranteed by the gap check):
    d omega_k / dx_j = v_k^T (d_j hess_stiff) v_k / (2 omega_k), with the
    eigenpairs from manifold_frequencies.
    """
    x = np.asarray(x, dtype=float)
    fset = manifold_frequencies(sys, x)
    grad = np.empty((sys.m, sys.n))
    for k, omega in enumerate(fset.omegas):
        grad[k] = sys.hess_stiff_contract(x, fset.vectors[:, k]) / (2.0 * omega)
    return grad


def correction_force(sys: OscillatorySystem, x, actions) -> np.ndarray:
    """Force -sum_k I_k grad omega_k(x) exerted by the fast modes."""
    actions = np.asarray(actions, dtype=float)
    if sys.m == 0 or not np.any(actions):
        return np.zeros(sys.n)
    return -(grad_frequencies(sys, x).T @ actions)


def effective_energy(sys: OscillatorySystem, state: State, actions) -> float:
    """1/2 y^T M^-1 y + slow(x) + sum_k I_k omega_k(x), x on the manifold."""
    return _energy_at(sys, state, actions, manifold_frequencies(sys, state.x).omegas)


def _energy_at(sys, state, actions, omegas):
    """effective_energy with the frequencies omega_k(state.x) given."""
    kinetic = 0.5 * float(state.y @ mass_solve(sys, state.x, state.y))
    return kinetic + sys.slow_potential(state.x) + float(actions @ omegas)


def _applied_force(sys, x, actions):
    return -sys.grad_slow(x) + correction_force(sys, x, actions)


def _rattle_step_cached(sys, state, actions, h, force0):
    """One constrained leapfrog step; returns (next state, end force).

    Kick, projection, kick, projector.  With mu = -(h^2/2) lam for the
    half-step multiplier lam, the position stage solves
    constraint(z + M^-1 G(x0)^T mu) = 0 for the drifted point
    z = x0 + h M^-1 (y0 + h/2 f0): sys.project_position with base z.
    The velocity stage is the momentum projector at the end point.
    """
    require_constant_mass(sys)
    x0 = state.x
    if force0 is None:
        force0 = _applied_force(sys, x0, actions)
    y_kick = state.y + 0.5 * h * force0
    try:
        x1, mu = sys.project_position(x0, base=x0 + h * mass_solve(sys, x0, y_kick))
    except smallmat.NotPositiveDefinite as exc:
        raise RankDeficient(f"mass or constraint Gram matrix not SPD at x: {exc}") from exc
    y_half = y_kick + sys.constraint_jacobian(x0).T @ mu / h
    force1 = _applied_force(sys, x1, actions)
    y1 = momentum_projector(sys, x1) @ (y_half + 0.5 * h * force1)
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
    v = mass_solve(sys, state.x, state.y)
    mom = float(np.max(np.abs(sys.constraint_jacobian(state.x) @ v)))
    return pos, mom


def effective_reference(
    sys: OscillatorySystem,
    x0,
    y0,
    h_ref: float,
    t_end: float,
    stride: int = 1,
    with_records: bool = True,
) -> Trajectory:
    """Reference trajectory of the constrained effective dynamics.

    Projects (x0, y0) to consistent data, fixes the actions from the
    raw initial state (the step and the records hold them; the samples
    are plain States), then runs the constrained leapfrog from t = 0 to
    t_end, sampling, checking its input and reporting a failing step as
    integrators.integrate does.
    Sample records carry the effective energy and constraint residuals.
    """
    from .diagnostics import DiagnosticsRecord, compute_actions, resonance_monitor

    actions = compute_actions(sys, x0, y0)
    xc, yc = consistent_state(sys, x0, y0)

    def record(_, st, position):
        om = manifold_frequencies(sys, st.x).omegas
        gap, combo = resonance_monitor(om)
        pos_res, mom_res = constraint_residuals(sys, st)
        return DiagnosticsRecord(
            t=st.t,
            energy=_energy_at(sys, st, actions, om),
            actions=actions.copy(),
            min_gap=gap,
            min_combo=combo,
            constraint_residual=max(pos_res, mom_res),
        )

    def step(state, force, count):
        return (*_rattle_step_cached(sys, state, actions, h_ref, force), None)

    return _sampled_run(
        sys, State(xc, yc, 0.0), step, h_ref, t_end, stride,
        record if with_records else None, "reference",
    )
