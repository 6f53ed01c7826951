"""Observable quantities: mode actions, energies, frequency-separation
monitors, and the error metrics used by the convergence experiments.

An observer sample (make_observer) costs one projection, unless the
integrator hands it in, and one call of the contract method
mode_actions for the frequencies, modes and actions (_mode_split); the
two-spring chain runs that call on plain floats.  action_drift reads
the records' actions as floats too.  Only observers make records: the
samples of effective.effective_reference carry none.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from . import smallmat
from .effective import FrequencySet, GapViolation, frequencies
from .geometry import project_momentum, project_to_manifold
from .integrators import Trajectory
from .model import OscillatorySystem, State, hamiltonian, modal_actions


class TimeMismatch(Exception):
    """Trajectory sample times fall outside the reference time range."""


class DiagnosticsRecord:
    """Observables of one sampled state, the records of make_observer.

    A record of a sampled state holds t and the actions at once.
    energy, min_gap, min_combo and constraint_residual
    (max_k |c_k(x)|) are computed from the sampled state and its fast
    frequencies omegas when first read, and then kept.
    """

    def __init__(self, system, state, actions, omegas):
        self.t = state.t
        self.actions = actions
        self._sample = (system, state, omegas)

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
    orthonormal fast modes, carries the fast oscillation
    (model.modal_actions).  The frequencies, modes and actions come from
    sys.mode_actions at pos with the model's stiff_weights, in one pass
    on plain floats for the two-spring chain, and a Gram eigenvalue that
    is not positive raises GapViolation, as in
    effective.manifold_frequencies.  A system with m = 0 has no fast
    modes: its frequencies and actions are empty.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if pos is None:
        pos = project_to_manifold(sys, x).position
    if sys.m == 0:
        fset = frequencies(sys, pos)
        return pos, fset, modal_actions(sys.epsilon, *fset, x, y, pos)
    try:
        omegas, vectors, actions = sys.mode_actions(x, y, pos, sys.stiff_weights())
    except smallmat.NotPositiveDefinite as exc:
        raise GapViolation(str(exc)) from exc
    return pos, FrequencySet(omegas, vectors), actions


def compute_actions(sys: OscillatorySystem, x, y) -> np.ndarray:
    """Adiabatic mode actions of a bounded-energy state near the manifold."""
    return _mode_split(sys, x, y)[2]


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
    for j, k, l, s2, s3 in itertools.product(range(m), range(m), range(m), (1, -1), (1, -1)):
        value = om[j] + s2 * om[k] + s3 * om[l]
        min_combo = min(min_combo, abs(value))
    return min_gap, min_combo


def make_observer(sys: OscillatorySystem):
    """Observer producing a DiagnosticsRecord per sampled state.

    The observer takes (system, state, position); position is the
    projection of state.x onto the manifold when the caller has it, and
    None (the default) makes the observer project itself.
    A record computes t and the actions at once; energy, min_gap,
    min_combo and constraint_residual are computed from the sampled
    state and frequencies when first read (DiagnosticsRecord).
    """

    def observer(system, state: State, position=None) -> DiagnosticsRecord:
        _, fset, actions = _mode_split(system, state.x, state.y, position)
        return DiagnosticsRecord(system, state, actions, fset.omegas)

    return observer


def action_drift(records: List[DiagnosticsRecord]) -> float:
    """max over samples and modes of |I_k(t) - I_k(0)|.

    A record with a nan difference is left out as a whole.
    """
    base = records[0].actions.tolist()
    drift = 0.0
    for rec in records:
        diffs = [abs(a - b) for a, b in zip(rec.actions.tolist(), base)]
        if not math.isnan(sum(diffs)):
            drift = max([drift, *diffs])
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
        p_traj = project_momentum(sys, x, y)
        p_ref = project_momentum(sys, x_ref[i], y_ref[i])
        err_py[i] = float(np.max(np.abs(p_traj - p_ref)))
    return ErrorMetrics(float(np.max(err_x)), float(np.max(err_py)))
