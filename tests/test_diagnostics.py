import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from oscint import (
    benchmark_initial_state,
    compute_actions,
    error_metrics,
    frequencies,
    make_double_pendulum,
    make_spring_chain,
    momentum_projector,
    resonance_monitor,
)
from oscint import diagnostics, effective, geometry, integrators
from oscint.diagnostics import TimeMismatch, action_drift, make_observer
from oscint.harness import random_bounded_energy_states
from oscint.integrators import MacroMethod, Trajectory, integrate, integrate_micro
from oscint.model import DomainError, OscillatorySystem, State, hamiltonian
from oscint.smallmat import NoConvergence, NotPositiveDefinite

from test_effective import zero_weight
from test_geometry import assert_same_failure_of, outcome
from test_mass_metric import Scaled, orthogonal

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
                omegas = effective.manifold_frequencies(
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

        def counted_in(module):
            def counted(sys, x, want_jacobian=False):
                calls.append((module, want_jacobian))
                return project(sys, x, want_jacobian)

            return counted

        monkeypatch.setattr(diagnostics, "project_to_manifold", counted_in("diagnostics"))
        monkeypatch.setattr(integrators, "project_to_manifold", counted_in("integrators"))
        sys = make_double_pendulum(1e-2)
        obs = make_observer(sys)
        integrate(sys, bench_state, MacroMethod("mollified", 0.05), 0.5, observer=obs)
        # the initial sample projects; every later one reuses a closing
        # kick's, and no projection assembles the Jacobian
        assert calls.count(("diagnostics", False)) == 1
        assert calls.count(("integrators", False)) == 10 + 1
        assert len(calls) == 12


def np_action_drift(records):
    """action_drift in numpy, one np.max per record: its oracle."""
    base = records[0].actions
    drift = 0.0
    for rec in records:
        drift = max(drift, float(np.max(np.abs(rec.actions - base))) if base.size else 0.0)
    return drift


def action_records(*actions):
    return [
        SimpleNamespace(
            t=float(t), energy=0.0, actions=np.array(a, dtype=float),
            min_gap=0.0, min_combo=0.0, constraint_residual=0.0,
        )
        for t, a in enumerate(actions)
    ]


class TestModeActionsKernel:
    """The two-spring chain's float mode_actions against the numpy
    default, which is its oracle, and the float action_drift against
    its numpy form."""

    # The largest difference measured over the states of
    # test_matches_default is 1.3e-15 of the action itself (the
    # four-term sums run in another order than numpy's matvec); omegas
    # and vectors come from the rotation shared with manifold_frequencies
    # and agree bit for bit.
    RTOL = 1e-14

    def test_double_pendulum_has_the_override(self, pendulum):
        assert type(pendulum).mode_actions is not OscillatorySystem.mode_actions

    @pytest.mark.parametrize("eps", [1e-3, 2e-2])
    @pytest.mark.parametrize("elongation", [1.0, 10.0])
    def test_matches_default(self, eps, elongation):
        sys = make_double_pendulum(eps, 1.3, 0.7, 1.1, 0.9)
        for state in random_bounded_energy_states(sys, 60, seed=650, elongation=elongation):
            proj = sys.project_position(state.x)[0]
            # about the projection, and about the raw position off the manifold
            for x, pos in ((state.x, proj), (proj, state.x)):
                got = sys.mode_actions(x, state.y, pos)
                want = OscillatorySystem.mode_actions(sys, x, state.y, pos)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])
                assert np.all(np.abs(got[2] - want[2]) <= self.RTOL * np.abs(want[2]))

    def test_observer_omegas_are_manifold_frequencies(self, pendulum):
        for state in random_bounded_energy_states(pendulum, 10, seed=651):
            pos, fset, _ = diagnostics._mode_split(pendulum, state.x, state.y)
            want = effective.manifold_frequencies(pendulum, pos)
            assert np.array_equal(fset.omegas, want.omegas)
            assert np.array_equal(fset.vectors, want.vectors)

    def test_same_failures(self, pendulum):
        s = math.sqrt(0.5)
        on_manifold = np.array([s, -s, math.sqrt(2.0), 0.0])
        y = np.array([0.1, 0.2, -0.3, 0.4])
        assert_same_failure_of(
            zero_weight(pendulum), "mode_actions", (on_manifold, y, on_manifold),
            NotPositiveDefinite,
        )
        for collapsed in (np.array([0.0, 1e-9, 0.7, -0.7]), np.array([0.7, -0.7, 0.7, -0.7])):
            assert_same_failure_of(
                pendulum, "mode_actions", (on_manifold, y, collapsed), DomainError
            )
        for k in range(4):
            x = on_manifold.copy()
            x[k] = math.nan
            assert_same_failure_of(pendulum, "mode_actions", (x, y, x), NoConvergence)

    def test_observer_failures(self, monkeypatch, pendulum):
        s = math.sqrt(0.5)
        on_manifold = np.array([s, -s, math.sqrt(2.0), 0.0])
        y = np.zeros(4)
        collapsed = np.array([0.0, 1e-9, 0.7, -0.7])
        with pytest.raises(DomainError, match="spring 0 length collapsed"):
            diagnostics._mode_split(pendulum, on_manifold, y, collapsed)
        monkeypatch.setattr(pendulum, "stiff_weights", lambda: np.array([1.0, 0.0]))
        want = outcome(lambda: effective.manifold_frequencies(pendulum, on_manifold))
        got = outcome(lambda: diagnostics._mode_split(pendulum, on_manifold, y, on_manifold))
        assert type(got) is type(want) is effective.GapViolation
        assert str(got) == str(want)

    def test_other_models_run_the_default(self, monkeypatch, pendulum):
        calls = []
        default = OscillatorySystem.mode_actions

        def spy(sys, *args):
            calls.append(type(sys).__name__)
            return default(sys, *args)

        monkeypatch.setattr(OscillatorySystem, "mode_actions", spy)
        chain = make_spring_chain(3, 1e-2, [1.0, 1.3, 0.8], [1.0, 0.7, 1.2])
        start = random_bounded_energy_states(chain, 1, seed=652)[0]
        compute_actions(chain, start.x, start.y)
        s = orthogonal(4, seed=652)
        state = random_bounded_energy_states(pendulum, 1, seed=652)[0]
        x = np.linalg.inv(s) @ state.x
        compute_actions(Scaled(pendulum, s), x, state.y)
        assert calls == ["StiffSpringChain", "Scaled"]
        compute_actions(pendulum, state.x, state.y)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "actions, want",
        [
            ([[1.0, 2.0], [1.5, 2.0], [1.0, 2.25]], 0.5),
            ([[math.nan, 2.0], [1.5, 2.0], [1.0, 2.25]], 0.0),  # every difference nan
            ([[1.0, 2.0], [9.0, math.nan], [1.0, 2.25]], 0.25),  # the middle record left out
            ([[1.0, 2.0], [1.5, 2.0], [9.0, math.nan]], 0.5),  # the last record left out
            ([[1.0, 2.0], [1.0, math.inf], [1.25, 2.0]], math.inf),
            ([[], []], 0.0),
        ],
        ids=["finite", "nan-in-base", "nan-in-middle", "nan-in-last", "inf", "no-modes"],
    )
    def test_action_drift_matches_numpy_form(self, actions, want):
        records = action_records(*actions)
        got = action_drift(records)
        assert bits(got) == bits(np_action_drift(records)) == bits(want)
