"""Observable quantities: mode actions, energies, frequency-separation
monitors, the normal-direction convexity constant, and the error metrics
used by the convergence experiments.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .effective import frequencies, manifold_frequencies
from .geometry import momentum_projector, project_to_manifold
from .integrators import Trajectory
from .model import OscillatorySystem, State, hamiltonian, has_identity_mass


class TimeMismatch(Exception):
    """Trajectory sample times fall outside the reference time range."""


class DiagnosticsRecord:
    """Per-sample observables attached to trajectory states.

    t and actions are plain attributes.  energy, min_gap, min_combo and
    constraint_residual are either given to the constructor or, in a
    record made by from_sample, computed from the sampled state and
    frequencies when first read and then kept.
    """

    def __init__(self, t, energy, actions, min_gap, min_combo, constraint_residual):
        self.t = t
        self.energy = energy
        self.actions = actions
        self.min_gap = min_gap
        self.min_combo = min_combo
        self.constraint_residual = constraint_residual

    @classmethod
    def from_sample(cls, system, state, actions, omegas):
        """Record of a sampled state with its actions and fast
        frequencies; the other fields wait until they are read."""
        record = cls.__new__(cls)
        record.t = state.t
        record.actions = actions
        record._sample = (system, state, omegas)
        return record

    @functools.cached_property
    def energy(self):
        system, state, _ = self._sample
        return hamiltonian(system, state)

    @functools.cached_property
    def _monitors(self):
        return resonance_monitor(self._sample[2])

    @functools.cached_property
    def min_gap(self):
        return self._monitors[0]

    @functools.cached_property
    def min_combo(self):
        return self._monitors[1]

    @functools.cached_property
    def constraint_residual(self):
        system, state, _ = self._sample
        if not system.m:
            return 0.0
        return float(np.max(np.abs(system.constraint(state.x))))


@dataclass
class ErrorMetrics:
    """Max-norm errors against a reference, maximal over the samples."""

    max_err_x: float
    max_err_py: float


def _mode_split(sys, x, y, pos=None):
    """(projected position, frequency set, actions) of a raw state.

    The position is projected onto the manifold, unless the caller
    passes that projection as pos; the offset from it, expressed in the
    mass-orthonormal pencil modes, carries the fast oscillation.  Each
    mode's action is its energy over its frequency:

        c_k = v_k^T M (x - X),  cdot_k = v_k^T y,
        I_k = (cdot_k^2 / 2 + (omega_k/eps)^2 c_k^2 / 2) / omega_k.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if pos is None:
        pos = project_to_manifold(sys, x).position
    fset = manifold_frequencies(sys, pos)
    if sys.m == 0:
        return pos, fset, np.zeros(0)
    offset = x - pos
    if not has_identity_mass(sys, pos):
        offset = sys.mass_matrix(pos) @ offset
    coords = fset.vectors.T @ offset
    velocities = fset.vectors.T @ y
    energies = 0.5 * velocities ** 2 + 0.5 * (fset.omegas / sys.epsilon) ** 2 * coords ** 2
    return pos, fset, energies / fset.omegas


def compute_actions(sys: OscillatorySystem, x, y) -> np.ndarray:
    """Adiabatic mode actions of a bounded-energy state near the manifold."""
    return _mode_split(sys, x, y)[2]


@functools.lru_cache(maxsize=None)
def _combination_patterns(m):
    """(j, k, l, s2, s3) of every combination omega_j + s2 omega_k +
    s3 omega_l over m frequencies, in scan order."""
    return tuple(itertools.product(range(m), range(m), range(m), (1, -1), (1, -1)))


def resonance_monitor(omegas):
    """(min pairwise gap, min three-frequency combination).

    The combination scan runs over omega_j +/- omega_k +/- omega_l for
    all index triples and sign patterns.  None of them cancels
    identically: the integer coefficients of a combination sum to
    1 +/- 1 +/- 1, which is odd.  A single frequency has nothing to
    separate: both monitors are +inf for m <= 1.
    """
    om = [float(w) for w in np.asarray(omegas, dtype=float)]
    m = len(om)
    if m <= 1:
        return math.inf, math.inf
    min_gap = math.inf
    for j in range(m):
        for k in range(j + 1, m):
            min_gap = min(min_gap, abs(om[j] - om[k]))
    min_combo = math.inf
    for j, k, l, s2, s3 in _combination_patterns(m):
        value = om[j] + s2 * om[k] + s3 * om[l]
        min_combo = min(min_combo, abs(value))
    return min_gap, min_combo


def convexity_check(sys: OscillatorySystem, x) -> float:
    """Smallest squared fast frequency: the best convexity constant of
    the stiff potential along constraint-normal directions."""
    om = frequencies(sys, x).omegas
    return float(om[0] ** 2)


def make_observer(sys: OscillatorySystem):
    """Observer producing a DiagnosticsRecord per sampled state.

    The observer takes (system, state, position); position is the
    mass-metric projection of state.x onto the manifold when the caller
    has it, and None (the default) makes the observer project itself.
    A record computes t and the actions at once; energy, min_gap,
    min_combo and constraint_residual are computed from the sampled
    state and frequencies when first read (DiagnosticsRecord.from_sample).
    """

    def observer(system, state: State, position=None) -> DiagnosticsRecord:
        _, fset, actions = _mode_split(system, state.x, state.y, position)
        return DiagnosticsRecord.from_sample(system, state, actions, fset.omegas)

    return observer


def action_drift(records: List[DiagnosticsRecord]) -> float:
    """max over samples and modes of |I_k(t) - I_k(0)|."""
    base = records[0].actions
    drift = 0.0
    for rec in records:
        drift = max(drift, float(np.max(np.abs(rec.actions - base))) if base.size else 0.0)
    return drift


def _interp_rows(t_query, t_ref, rows_ref):
    """Row-wise linear interpolation of a (N, n) array in time."""
    out = np.empty((t_query.size, rows_ref.shape[1]))
    for j in range(rows_ref.shape[1]):
        out[:, j] = np.interp(t_query, t_ref, rows_ref[:, j])
    return out


def error_metrics(traj: Trajectory, ref: Trajectory, sys: OscillatorySystem) -> ErrorMetrics:
    """Max-norm position and projected-momentum errors against a
    reference trajectory.

    The reference is sampled much finer and interpolated linearly at the
    trajectory times.  Projected momenta compare P(x) y of each
    trajectory against the reference's own projected momenta, which for
    a constrained reference equals its momenta.
    """
    t_q = traj.t
    t_r = ref.t
    if t_q.size == 0 or t_r.size == 0:
        raise TimeMismatch("empty trajectory")
    tol = 1e-9 * max(1.0, float(t_r[-1]))
    if t_q[0] < t_r[0] - tol or t_q[-1] > t_r[-1] + tol:
        raise TimeMismatch(
            f"trajectory times [{t_q[0]:.6g}, {t_q[-1]:.6g}] outside reference "
            f"range [{t_r[0]:.6g}, {t_r[-1]:.6g}]"
        )
    x_ref = _interp_rows(t_q, t_r, ref.x)
    y_ref = _interp_rows(t_q, t_r, ref.y)
    err_x = np.empty(t_q.size)
    err_py = np.empty(t_q.size)
    for i, (x, y) in enumerate(zip(traj.x, traj.y)):
        err_x[i] = float(np.max(np.abs(x - x_ref[i])))
        p_traj = momentum_projector(sys, x) @ y
        p_ref = momentum_projector(sys, x_ref[i]) @ y_ref[i]
        err_py[i] = float(np.max(np.abs(p_traj - p_ref)))
    return ErrorMetrics(float(np.max(err_x)), float(np.max(err_py)))
