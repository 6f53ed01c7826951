import math
import pickle

import numpy as np
import pytest

from oscint import (
    benchmark_initial_state,
    compute_actions,
    convexity_check,
    error_metrics,
    frequencies,
    make_double_pendulum,
    make_spring_chain,
    momentum_projector,
    resonance_monitor,
)
from oscint import diagnostics, geometry, integrators
from oscint.diagnostics import TimeMismatch, action_drift, make_observer
from oscint.harness import random_bounded_energy_states
from oscint.integrators import MacroMethod, Trajectory, integrate, integrate_micro
from oscint.model import State, hamiltonian

LAZY_FIELDS = ("energy", "min_gap", "min_combo", "constraint_residual")


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


def averaged_actions_oracle(sys, state, periods=1, divisor=1000):
    """Brute-force action estimate: micro-integrate one fast period of
    the full system and average the instantaneous mode actions."""
    pos = __import__("oscint").project_to_manifold(sys, state.x).position
    om = frequencies(sys, pos).omegas
    period = periods * 2.0 * math.pi * sys.epsilon / om[-1]
    h_micro = sys.epsilon / divisor
    n = max(1, int(round(period / h_micro)))
    obs = make_observer(sys)
    traj = integrate_micro(sys, state, period / n, n, sample_stride=1, observer=obs)
    acts = np.array([rec.actions for rec in traj.records])
    return acts[:-1].mean(axis=0)


class TestComputeActions:
    def test_consistent_state_zero_actions(self, pendulum):
        s = math.sqrt(0.5)
        x = np.array([s, -s, math.sqrt(2.0), 0.0])
        p = momentum_projector(pendulum, x)
        y = p @ np.array([0.4, -0.1, 0.25, 0.3])
        actions = compute_actions(pendulum, x, y)
        assert np.max(np.abs(actions)) <= 50.0 * pendulum.epsilon ** 2

    def test_benchmark_leading_value(self, pendulum, bench_state):
        actions = compute_actions(pendulum, bench_state.x, bench_state.y)
        lead = 25.0 / (4.0 * math.sqrt(2.0))
        assert abs(actions[1] - lead) <= 20.0 * pendulum.epsilon
        assert abs(actions[0]) <= 50.0 * pendulum.epsilon ** 2

    def test_against_period_averaging_oracle(self, pendulum, bench_state):
        got = compute_actions(pendulum, bench_state.x, bench_state.y)
        oracle = averaged_actions_oracle(pendulum, bench_state)
        assert abs(got[1] - oracle[1]) / oracle[1] <= 0.05

    def test_oracle_agreement_improves_with_epsilon(self):
        rels = {}
        for eps in (1e-2, 2.5e-3):
            sys = make_double_pendulum(eps)
            s0 = benchmark_initial_state(eps)
            got = compute_actions(sys, s0.x, s0.y)
            oracle = averaged_actions_oracle(sys, s0)
            rels[eps] = abs(got[1] - oracle[1]) / oracle[1]
        assert rels[2.5e-3] <= rels[1e-2]

    def test_invariant_under_eigenvector_rescaling(self, pendulum, bench_state):
        # mass-orthonormality fixes the vectors up to sign, and signs
        # cancel in the squares: two independent evaluations agree
        a = compute_actions(pendulum, bench_state.x, bench_state.y)
        b = compute_actions(pendulum, bench_state.x.copy(), bench_state.y.copy())
        assert np.array_equal(a, b)


def scan_resonance(omegas):
    """The full resonance scan, pattern tests inside the loop: oracle for
    resonance_monitor's precomputed patterns."""
    om = [float(w) for w in omegas]
    m = len(om)
    if m <= 1:
        return math.inf, math.inf
    min_gap = math.inf
    for j in range(m):
        for k in range(j + 1, m):
            min_gap = min(min_gap, abs(om[j] - om[k]))
    min_combo = math.inf
    for j in range(m):
        for k in range(m):
            for l in range(m):
                for s2 in (1, -1):
                    for s3 in (1, -1):
                        coeff = [0] * m
                        coeff[j] += 1
                        coeff[k] += s2
                        coeff[l] += s3
                        if not any(coeff):
                            continue
                        value = om[j] + s2 * om[k] + s3 * om[l]
                        min_combo = min(min_combo, abs(value))
    return min_gap, min_combo


class TestResonanceMonitor:
    def test_matches_full_scan(self):
        rng = np.random.default_rng(61)
        for m in range(1, 7):
            for _ in range(40):
                om = rng.uniform(0.5, 3.0, m)
                assert resonance_monitor(om) == scan_resonance(om)
                # exact 2:1 resonances, omega_j = 2 omega_k
                base = rng.uniform(0.5, 1.5, m)
                om = np.concatenate([base[: (m + 1) // 2], 2.0 * base[: m // 2]])
                assert resonance_monitor(om) == scan_resonance(om)
                if m >= 2:
                    assert resonance_monitor(om)[1] == 0.0

    def test_pair_gap(self):
        gap, combo = resonance_monitor([1.0, math.sqrt(2.0)])
        assert gap == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-15)

    def test_pair_combination(self):
        # minimum over sign patterns: |1 + 1 - sqrt(2)|
        _, combo = resonance_monitor([1.0, math.sqrt(2.0)])
        assert combo == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-15)

    def test_single_frequency_infinite(self):
        assert resonance_monitor([3.0]) == (math.inf, math.inf)

    def test_permutation_invariant(self):
        a = resonance_monitor([1.0, 1.7, 2.9])
        b = resonance_monitor([2.9, 1.0, 1.7])
        assert a == b

    def test_triple_with_exact_resonance(self):
        # omega_3 = omega_1 + omega_2 drives the combination to zero
        gap, combo = resonance_monitor([1.0, 2.0, 3.0])
        assert gap == pytest.approx(1.0)
        assert combo == pytest.approx(0.0, abs=1e-15)


class TestConvexityCheck:
    def test_double_pendulum_initial_configuration(self, pendulum):
        s = math.sqrt(0.5)
        x = np.array([s, -s, math.sqrt(2.0), 0.0])
        assert convexity_check(pendulum, x) == pytest.approx(1.0, abs=1e-10)

    def test_single_pendulum_spring_constant(self):
        alpha = 1.9
        sys = make_spring_chain(1, 1e-2, [alpha], [1.0])
        x = np.array([0.0, -1.0])
        assert convexity_check(sys, x) == pytest.approx(alpha ** 2, abs=1e-10)

    def test_positive_along_reference(self, pendulum, bench_state):
        from oscint import effective_reference

        traj = effective_reference(
            pendulum, bench_state.x, bench_state.y, 1e-3, 1.0, stride=100
        )
        for x in traj.x:
            assert convexity_check(pendulum, x) > 0.0


class TestErrorMetrics:
    def _make_traj(self, sys, kind="projected", h=0.05, t_end=1.0):
        s0 = benchmark_initial_state(sys.epsilon)
        return integrate(sys, s0, MacroMethod(kind, h), t_end)

    def test_self_comparison_zero(self, pendulum):
        traj = self._make_traj(pendulum)
        met = error_metrics(traj, traj, pendulum)
        assert met.max_err_x == 0.0
        assert met.max_err_py == 0.0

    def test_constant_shift_detected(self, pendulum):
        traj = self._make_traj(pendulum)
        delta = 1e-3
        shifted = Trajectory(traj.t, traj.x + delta, traj.y, traj.records)
        met = error_metrics(shifted, traj, pendulum)
        assert met.max_err_x == pytest.approx(delta, rel=1e-9)

    def test_symmetric_on_identical_grids(self, pendulum):
        a = self._make_traj(pendulum, kind="projected")
        b = self._make_traj(pendulum, kind="mollified")
        ab = error_metrics(a, b, pendulum)
        ba = error_metrics(b, a, pendulum)
        assert ab.max_err_x == pytest.approx(ba.max_err_x, rel=1e-12)
        assert ab.max_err_py == pytest.approx(ba.max_err_py, rel=1e-12)

    def test_time_mismatch_rejected(self, pendulum):
        a = self._make_traj(pendulum, t_end=2.0)
        b = self._make_traj(pendulum, t_end=1.0)
        with pytest.raises(TimeMismatch):
            error_metrics(a, b, pendulum)

    def test_macro_method_halving_ratio(self):
        # stepsize halving reduces the error vs a much finer run by ~4
        # in the h^2-dominated range
        eps = 1e-3
        sys = make_double_pendulum(eps)
        s0 = benchmark_initial_state(eps)
        fine = integrate(sys, s0, MacroMethod("mollified", 0.0625), 2.0)
        e = {}
        for h in (0.5, 0.25):
            traj = integrate(sys, s0, MacroMethod("mollified", h), 2.0)
            e[h] = error_metrics(traj, fine, sys).max_err_x
        assert 2.5 <= e[0.5] / e[0.25] <= 6.0


class TestObserver:
    def test_record_fields(self, pendulum, bench_state):
        obs = make_observer(pendulum)
        rec = obs(pendulum, bench_state)
        assert rec.t == 0.0
        assert np.isfinite(rec.energy)
        assert rec.actions.shape == (2,)
        assert np.all(rec.actions >= 0.0)
        assert rec.min_gap == pytest.approx(math.sqrt(2.0) - 1.0, abs=5e-3)
        assert rec.min_combo == pytest.approx(2.0 - math.sqrt(2.0), abs=5e-3)
        assert rec.constraint_residual == pytest.approx(
            pendulum.constraint(bench_state.x)[1], abs=1e-15
        )

    def test_action_drift_helper(self, pendulum, bench_state):
        obs = make_observer(pendulum)
        traj = integrate(pendulum, bench_state, MacroMethod("projected", 0.05), 0.5, observer=obs)
        drift = action_drift(traj.records)
        base = traj.records[0].actions
        expect = max(
            float(np.max(np.abs(r.actions - base))) for r in traj.records
        )
        assert drift == expect

    def test_handed_over_position_gives_identical_records(self):
        # integrate hands the mollified kick's projection to the observer;
        # each record must equal the one the observer builds by projecting itself
        pendulum = make_double_pendulum(1e-2)
        chain = make_spring_chain(3, 1e-2, [1.0, 1.3, 0.8], [1.0, 0.7, 1.2])
        for sys in (pendulum, chain):
            s0 = random_bounded_energy_states(sys, 1, seed=43)[0]
            obs = make_observer(sys)
            traj = integrate(sys, s0, MacroMethod("mollified", 0.05), 0.3, observer=obs)
            for t, x, y, rec in zip(traj.t, traj.x, traj.y, traj.records):
                want = obs(sys, State(x, y, t))
                assert rec.t == want.t
                assert rec.energy == want.energy
                assert np.array_equal(rec.actions, want.actions)
                assert rec.min_gap == want.min_gap
                assert rec.min_combo == want.min_combo
                assert rec.constraint_residual == want.constraint_residual

    def test_lazy_fields_are_the_eager_expressions(self, monkeypatch):
        calls = []
        monitor = diagnostics.resonance_monitor

        def counted(omegas):
            calls.append(1)
            return monitor(omegas)

        monkeypatch.setattr(diagnostics, "resonance_monitor", counted)
        chain = make_spring_chain(3, 1e-2, [1.0, 1.3, 0.8], [1.0, 0.7, 1.2])
        for sys in (make_double_pendulum(1e-2), chain):
            for state in random_bounded_energy_states(sys, 3, seed=44):
                rec = make_observer(sys)(sys, state)
                assert "energy" not in vars(rec) and calls == []
                omegas = diagnostics.manifold_frequencies(
                    sys, geometry.project_to_manifold(sys, state.x).position
                ).omegas
                assert rec.t == state.t
                assert rec.energy == hamiltonian(sys, state)
                first = (rec.min_gap, rec.min_combo)
                assert first == monitor(omegas)
                assert rec.constraint_residual == float(np.max(np.abs(sys.constraint(state.x))))
                assert (rec.min_gap, rec.min_combo) == first
                assert calls == [1]  # both monitors from one scan, kept
                calls.clear()

    def test_pickled_record_reads_the_same(self):
        # the process-pool path returns records pickled, read or unread
        sys = make_double_pendulum(1e-2)
        s0 = random_bounded_energy_states(sys, 1, seed=45)[0]
        traj = integrate(sys, s0, MacroMethod("mollified", 0.05), 0.2, observer=make_observer(sys))
        for rec in traj.records:
            unread = pickle.loads(pickle.dumps(rec))
            values = [bits(getattr(rec, name)) for name in LAZY_FIELDS]
            read = pickle.loads(pickle.dumps(rec))
            for copy in (unread, read):
                assert copy.t == rec.t
                assert bits(copy.actions) == bits(rec.actions)
                assert [bits(getattr(copy, name)) for name in LAZY_FIELDS] == values

    def test_mollified_run_projects_once_for_the_observer(self, monkeypatch, bench_state):
        calls = []
        project = geometry.project_to_manifold

        def counted(sys, x, want_jacobian=False):
            calls.append(want_jacobian)
            return project(sys, x, want_jacobian)

        monkeypatch.setattr(diagnostics, "project_to_manifold", counted)
        monkeypatch.setattr(integrators, "project_to_manifold", counted)
        sys = make_double_pendulum(1e-2)
        obs = make_observer(sys)
        integrate(sys, bench_state, MacroMethod("mollified", 0.05), 0.5, observer=obs)
        # the initial sample projects; every later one reuses a closing kick's
        assert calls.count(False) == 1
        assert calls.count(True) == 10 + 1
