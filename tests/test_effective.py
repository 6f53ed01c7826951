import math

import numpy as np
import pytest

from oscint import (
    IntegrationError,
    RankDeficient,
    State,
    benchmark_initial_state,
    compute_actions,
    consistent_state,
    correction_force,
    frequencies,
    grad_frequencies,
    make_double_pendulum,
    make_spring_chain,
    make_observer,
    manifold_frequencies,
    rattle_step,
    resonance_monitor,
)
from oscint import effective
from oscint.effective import (
    GapViolation,
    constraint_residuals,
    effective_energy,
    effective_reference,
)

from oscint.model import DomainError, OscillatorySystem
from oscint.smallmat import NoConvergence, NotPositiveDefinite

from conftest import fd_grad_frequencies, np_rattle_step, sample_states
from test_geometry import assert_same_failure_of, outcome
from test_integrators import FreeSlowSystem, harmonic_1d
from test_mass_metric import Scaled, orthogonal


def on_manifold_config():
    s = math.sqrt(0.5)
    return np.array([s, -s, math.sqrt(2.0), 0.0])


def zero_weight(pendulum):
    """pendulum with stiff weights (1, 0): the zero weight leaves the
    Gram matrix S a zero row and column, so eigenvalue 0."""

    class Degenerate(type(pendulum)):
        def stiff_weights(self):
            return np.array([1.0, 0.0])

    return Degenerate(pendulum.epsilon, pendulum.alphas, pendulum.lengths)


class TestFrequencies:
    def test_single_pendulum_constant(self):
        alpha = 1.7
        sys = make_spring_chain(1, 1e-2, [alpha], [1.0])
        for theta in (0.0, 0.4, 2.2):
            x = np.array([math.sin(theta), -math.cos(theta)])
            fset = frequencies(sys, x)
            assert fset.omegas == pytest.approx([alpha], abs=1e-12)

    def test_double_pendulum_orthogonal_pair(self, pendulum):
        fset = frequencies(pendulum, on_manifold_config())
        assert np.max(np.abs(fset.omegas - [1.0, math.sqrt(2.0)])) <= 1e-10

    def test_vectors_mass_orthonormal(self, pendulum):
        for state in sample_states(pendulum, 10, seed=301, elongation=0.0):
            fset = frequencies(pendulum, state.x)
            gram = fset.vectors.T @ fset.vectors  # identity mass
            assert np.max(np.abs(gram - np.eye(2))) <= 1e-10

    def test_gap_violation_far_off_manifold(self, pendulum):
        # a strongly stretched configuration mixes null and fast spaces
        x = np.array([1.5, 0.0, 3.0, 0.1])
        with pytest.raises(GapViolation):
            frequencies(pendulum, x, gap_factor=1e-12)


class TestManifoldFrequencies:
    def test_double_pendulum_orthogonal_pair(self, pendulum):
        fset = manifold_frequencies(pendulum, on_manifold_config())
        assert np.max(np.abs(fset.omegas - [1.0, math.sqrt(2.0)])) <= 1e-12
        assert np.max(np.abs(fset.vectors.T @ fset.vectors - np.eye(2))) <= 1e-14

    def test_gap_violation_on_a_singular_gram_matrix(self, pendulum):
        with pytest.raises(GapViolation, match="not positive"):
            manifold_frequencies(zero_weight(pendulum), on_manifold_config())


class TestStiffWeightsRequired:
    """stiff_weights is a required contract method for m > 0; a model
    with m = 0 has no fast modes and never calls it."""

    class Unweighted(Scaled):
        stiff_weights = OscillatorySystem.stiff_weights

    def test_unweighted_model_raises(self, pendulum):
        sys = self.Unweighted(pendulum, orthogonal(4, seed=660))
        state = State(*sys.to_scaled(on_manifold_config(), np.array([0.1, 0.2, -0.3, 0.4])))
        observer = make_observer(sys)
        for call in (
            lambda: manifold_frequencies(sys, state.x),
            lambda: grad_frequencies(sys, state.x),
            lambda: observer(sys, state),
            lambda: observer(sys, state, state.x),
        ):
            with pytest.raises(NotImplementedError):
                call()

    @pytest.mark.parametrize("make", [FreeSlowSystem, harmonic_1d])
    def test_no_constraints_no_fast_modes(self, make):
        sys = make()
        state = State(np.linspace(0.5, 1.0, sys.n), np.linspace(-0.2, 0.3, sys.n), 0.25)
        fset = manifold_frequencies(sys, state.x)
        assert fset.omegas.shape == (0,) and fset.vectors.shape == (sys.n, 0)
        assert grad_frequencies(sys, state.x).shape == (0, sys.n)
        assert compute_actions(sys, state.x, state.y).shape == (0,)
        record = make_observer(sys)(sys, state)
        assert record.t == 0.25 and record.actions.shape == (0,)


class TestManifoldFrequenciesKernel:
    """The two-spring chain's float manifold_frequencies against the
    generic numpy default, which is its oracle."""

    TOL = 1e-14

    def test_double_pendulum_has_the_override(self, pendulum):
        assert type(pendulum).manifold_frequencies is not OscillatorySystem.manifold_frequencies

    @pytest.mark.parametrize("eps", [2e-2, 1e-2, 1e-3])
    @pytest.mark.parametrize("elongation", [1.0, 10.0, 30.0])
    def test_matches_generic_path(self, eps, elongation):
        sys = make_double_pendulum(eps, 1.3, 0.7, 1.1, 0.9)
        for state in sample_states(sys, 60, seed=640, elongation=elongation):
            # the raw position is a valid input too: S is SPD off the
            # manifold; a stalled projection is TestProjectionKernel's case
            projection = outcome(lambda: sys.project_position(state.x))
            starts = [state.x] if isinstance(projection, Exception) else [state.x, projection[0]]
            for x in starts:
                got = sys.manifold_frequencies(x)
                want = OscillatorySystem.manifold_frequencies(sys, x)
                assert np.max(np.abs(got[0] - want[0])) <= self.TOL
                assert np.max(np.abs(got[1] - want[1])) <= self.TOL

    def test_no_rotation_branch(self, pendulum):
        # springs at right angles: S is diagonal, so Jacobi rotates
        # nothing, and the weights (1, 0.25) put the larger entry first,
        # (0.25, 1) the smaller
        x = on_manifold_config()
        for alphas in ((1.0, 0.5), (0.5, 1.0)):
            sys = make_double_pendulum(pendulum.epsilon, *alphas)
            assert np.array_equal(sys.stiff_weights(), np.square(alphas))
            got = sys.manifold_frequencies(x)
            want = OscillatorySystem.manifold_frequencies(sys, x)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_same_failures(self, pendulum):
        for k in range(4):
            x = on_manifold_config()
            x[k] = math.nan
            assert_same_failure_of(pendulum, "manifold_frequencies", (x,), NoConvergence)
        for collapsed in (np.array([0.0, 1e-9, 0.7, -0.7]), np.array([0.7, -0.7, 0.7, -0.7])):
            assert_same_failure_of(pendulum, "manifold_frequencies", (collapsed,), DomainError)
        assert_same_failure_of(
            zero_weight(pendulum), "manifold_frequencies", (on_manifold_config(),),
            NotPositiveDefinite,
        )

    def test_other_models_run_the_default(self, monkeypatch, pendulum):
        calls = []
        default = OscillatorySystem.manifold_frequencies

        def spy(sys, x):
            calls.append(type(sys).__name__)
            return default(sys, x)

        monkeypatch.setattr(OscillatorySystem, "manifold_frequencies", spy)
        for sys in (
            make_spring_chain(1, 1e-2, [1.0], [1.0]),
            make_spring_chain(3, 1e-2, [1.0, 1.3, 0.8], [1.0, 0.7, 1.2]),
        ):
            manifold_frequencies(sys, sample_states(sys, 1, seed=641)[0].x)
        s = orthogonal(4, seed=640)
        x = np.linalg.inv(s) @ on_manifold_config()
        manifold_frequencies(Scaled(pendulum, s), x)
        assert calls == ["StiffSpringChain", "StiffSpringChain", "Scaled"]
        manifold_frequencies(pendulum, on_manifold_config())
        assert len(calls) == 3

    def test_inputs_not_modified(self, pendulum):
        for state in sample_states(pendulum, 5, seed=642, elongation=10.0):
            x = state.x.copy()
            weights = pendulum.stiff_weights().copy()
            pendulum.manifold_frequencies(state.x)
            assert np.array_equal(state.x, x)
            assert np.array_equal(weights, pendulum.stiff_weights())


class TestGradFrequencies:
    def test_constant_frequency_zero_gradient(self):
        sys = make_spring_chain(1, 1e-2, [2.0], [1.0])
        x = np.array([math.sin(0.3), -math.cos(0.3)])
        grad = grad_frequencies(sys, x)
        assert np.max(np.abs(grad)) <= 1e-8

    def test_richardson_second_order(self, pendulum):
        # generic configuration, frequencies vary with the bend angle
        x = _bent_config(0.3, 1.2)
        g1 = fd_grad_frequencies(pendulum, x, fd_step=2e-4)
        g2 = fd_grad_frequencies(pendulum, x, fd_step=1e-4)
        g3 = fd_grad_frequencies(pendulum, x, fd_step=5e-5)
        num = np.max(np.abs(g1 - g2))
        den = np.max(np.abs(g2 - g3))
        assert 3.0 <= num / den <= 5.0

    def test_rotation_invariance_single_pendulum(self):
        # frequency constant along the circle: tangential derivative zero
        sys = make_spring_chain(1, 1e-2, [1.3], [1.0])
        theta = 0.7
        x = np.array([math.sin(theta), -math.cos(theta)])
        tangent = np.array([math.cos(theta), math.sin(theta)])
        grad = grad_frequencies(sys, x)
        assert abs(float(grad[0] @ tangent)) <= 1e-8

    def test_matches_finite_difference_oracle(self):
        # bent on-manifold configurations, uneven parameters
        pendulum = make_double_pendulum(1e-2, 1.3, 0.7, 1.1, 0.9)
        x = _chain_config((0.3, 1.2), (1.1, 0.9))
        got = grad_frequencies(pendulum, x)
        assert np.max(np.abs(got - fd_grad_frequencies(pendulum, x, 1e-5))) <= 1e-7
        rng = np.random.default_rng(307)
        for n_springs in range(1, 9):
            alphas = rng.uniform(0.5, 2.0, n_springs)
            lengths = rng.uniform(0.5, 1.5, n_springs)
            chain = make_spring_chain(n_springs, 1e-2, alphas, lengths)
            x = _chain_config(rng.uniform(-1.5, 1.5, n_springs), lengths)
            assert np.max(np.abs(chain.constraint(x))) <= 1e-14
            got = grad_frequencies(chain, x)
            assert np.max(np.abs(got - fd_grad_frequencies(chain, x, 1e-5))) <= 1e-7


def _bent_config(theta1, theta2):
    x1 = np.array([math.sin(theta1), -math.cos(theta1)])
    x2 = x1 + np.array([math.sin(theta2), -math.cos(theta2)])
    return np.concatenate([x1, x2])


def _chain_config(angles, lengths):
    """Chain bobs at the given bend angles, every spring at rest length."""
    bobs = []
    pos = np.zeros(2)
    for theta, length in zip(angles, lengths):
        pos = pos + length * np.array([math.sin(theta), -math.cos(theta)])
        bobs.append(pos)
    return np.concatenate(bobs)


class TestCorrectionForce:
    def test_zero_actions_zero_force(self, pendulum):
        force = correction_force(pendulum, on_manifold_config(), np.zeros(2))
        assert np.array_equal(force, np.zeros(4))

    def test_linearity(self, pendulum):
        x = _bent_config(0.3, 1.2)
        actions = np.array([0.0, 25.0 / (4.0 * math.sqrt(2.0))])
        f1 = correction_force(pendulum, x, actions)
        f2 = correction_force(pendulum, x, 2.0 * actions)
        assert np.allclose(f2, 2.0 * f1, rtol=1e-12)

    def test_directional_derivative_oracle(self, pendulum):
        # compare against finite differences of the scalar potential
        # sum_k I_k omega_k along random directions
        actions = np.array([0.0, 25.0 / (4.0 * math.sqrt(2.0))])
        x = _bent_config(0.3, 1.2)
        force = correction_force(pendulum, x, actions)
        rng = np.random.default_rng(303)
        tau = 1e-6
        for _ in range(5):
            d = rng.standard_normal(4)
            d /= np.linalg.norm(d)
            # perturbed points sit off the manifold: relax the gap check
            # exactly as the gradient routine does internally
            wp = float(actions @ frequencies(pendulum, x + tau * d, gap_factor=1e-3).omegas)
            wm = float(actions @ frequencies(pendulum, x - tau * d, gap_factor=1e-3).omegas)
            assert abs((wp - wm) / (2 * tau) + float(force @ d)) <= 1e-5


class TestRattleStep:
    def test_equilibrium_is_stationary(self):
        # hanging chain at rest with zero actions and gravity balanced
        # by the multiplier: nothing moves
        sys = make_spring_chain(1, 1e-2, [1.0], [1.0])
        es = State(x=np.array([0.0, -1.0]), y=np.zeros(2))
        nxt = rattle_step(sys, es, np.zeros(1), 1e-2)
        assert np.max(np.abs(nxt.x - es.x)) <= 1e-14
        assert np.max(np.abs(nxt.y)) <= 1e-14

    def test_constraint_preservation_long_run(self, pendulum, bench_state):
        actions = compute_actions(pendulum, bench_state.x, bench_state.y)
        xc, yc = consistent_state(pendulum, bench_state.x, bench_state.y)
        es = State(xc, yc)
        worst = 0.0
        for _ in range(10_000):
            es = rattle_step(pendulum, es, actions, 1e-3)
            pos, mom = constraint_residuals(pendulum, es)
            worst = max(worst, pos, mom)
        assert worst <= 1e-10

    def test_self_convergence_second_order(self, pendulum, bench_state):
        actions = compute_actions(pendulum, bench_state.x, bench_state.y)
        xc, yc = consistent_state(pendulum, bench_state.x, bench_state.y)

        def advance(h, t_span=0.48):
            # t_span divisible by every h used, so end times coincide
            es = State(xc.copy(), yc.copy())
            for _ in range(int(round(t_span / h))):
                es = rattle_step(pendulum, es, actions, h)
            return es.x

        ref = advance(5e-4)
        err1 = np.max(np.abs(advance(8e-3) - ref))
        err2 = np.max(np.abs(advance(4e-3) - ref))
        assert 3.4 <= err1 / err2 <= 4.6


class Degenerate(OscillatorySystem):
    """Constraints x0 = 0 and x0 + x1^2 = 0 under gravity along x2, unit
    mass: the two rows of G coincide where x1 = 0."""

    n = 3
    m = 2
    epsilon = 1e-2
    def grad_slow(self, x):
        return np.array([0.0, 0.0, 1.0])

    def constraint(self, x):
        return np.array([x[0], x[0] + x[1] ** 2])

    def constraint_jacobian(self, x):
        return np.array([[1.0, 0.0, 0.0], [1.0, 2.0 * x[1], 0.0]])


class TestRattleOnTheContract:
    """The step built from project_position and project_momentum
    against the closure-based step it replaced (np_rattle_step)."""

    TOL = 1e-13

    @staticmethod
    def cases(which, pendulum):
        """(system, seeded states) of one model: the two-spring chain runs
        the float kernels, the other chains and Scaled (the two-spring
        chain in rotated coordinates) the contract defaults."""
        if which == "scaled":
            sys = Scaled(pendulum, orthogonal(4, seed=629))
            states = sample_states(pendulum, 8, seed=630)
            return sys, [State(*sys.to_scaled(st.x, st.y)) for st in states]
        springs = {"one-spring": 1, "two-spring": 2, "three-spring": 3}[which]
        alphas, lengths = [1.0, 1.3, 0.8][:springs], [1.0, 0.7, 1.2][:springs]
        sys = make_spring_chain(springs, 1e-2, alphas, lengths)
        return sys, sample_states(sys, 8, seed=630)

    @pytest.mark.parametrize("which", ["two-spring", "one-spring", "three-spring", "scaled"])
    def test_matches_closure_oracle(self, pendulum, which):
        sys, states = self.cases(which, pendulum)
        for state in states:
            actions = compute_actions(sys, state.x, state.y)
            es = State(*consistent_state(sys, state.x, state.y))
            for h in (1e-3, 1e-2, 5e-2):
                got = rattle_step(sys, es, actions, h)
                want = np_rattle_step(sys, es, actions, h)
                assert np.max(np.abs(got.x - want.x)) <= self.TOL
                assert np.max(np.abs(got.y - want.y)) <= self.TOL
                assert got.t == want.t

    def test_rank_deficient_start(self, pendulum):
        # the rank check at x0 fails before the Newton solve starts; the
        # closure-based step met the singular Newton Jacobian instead
        sys = Degenerate()
        es = State(np.array([0.0, 0.0, 0.5]), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(NoConvergence):
            np_rattle_step(sys, es, np.zeros(2), 1e-2)
        with pytest.raises(RankDeficient):
            rattle_step(sys, es, np.zeros(2), 1e-2)
        # the two-spring float path: G G^T fails its pivot test on a nan
        es = State(np.array([0.7, math.nan, 1.4, -0.7]), np.zeros(4))
        with pytest.raises(RankDeficient):
            rattle_step(pendulum, es, np.zeros(2), 1e-2)


class TestEffectiveReference:
    def test_zero_actions_matches_plain_constrained_dynamics(self, pendulum):
        # consistent data: the correction force vanishes identically
        x0 = on_manifold_config()
        traj = effective_reference(pendulum, x0, np.zeros(4), 1e-3, 0.2)
        assert np.max(np.abs(compute_actions(pendulum, x0, np.zeros(4)))) <= 1e-10
        # rerun with the correction force forcibly disabled
        es = State(*consistent_state(pendulum, x0, np.zeros(4)))
        for _ in range(200):
            es = rattle_step(pendulum, es, np.zeros(2), 1e-3)
        assert np.max(np.abs(traj.x[-1] - es.x)) <= 1e-12

    def test_step_not_dividing_horizon_rejected(self, pendulum, bench_state):
        # 0.2 / 0.003 rounds to 67 steps, ending at 0.201
        with pytest.raises(ValueError, match="does not divide t_end"):
            effective_reference(pendulum, bench_state.x, bench_state.y, 0.003, 0.2)

    @pytest.mark.parametrize("stride", [0, -3, 1.5])
    def test_stride_must_be_an_integer_at_least_one(self, pendulum, bench_state, stride):
        with pytest.raises(ValueError, match="stride must be an integer >= 1"):
            effective_reference(pendulum, bench_state.x, bench_state.y, 0.01, 0.1, stride=stride)

    @pytest.mark.parametrize("t_end", [0.0, -0.1])
    def test_horizon_must_be_positive(self, pendulum, bench_state, t_end):
        with pytest.raises(ValueError, match="t_end must be positive"):
            effective_reference(pendulum, bench_state.x, bench_state.y, 0.01, t_end)

    @pytest.mark.parametrize("h", [0.0, -0.01, math.nan])
    def test_step_must_be_positive(self, pendulum, bench_state, h):
        with pytest.raises(ValueError, match="must be positive and finite"):
            effective_reference(pendulum, bench_state.x, bench_state.y, h, 0.1)

    def test_step_failure_carries_partial_trajectory(self, pendulum, bench_state, monkeypatch):
        # the third RATTLE step fails: it starts at t = 2 h_ref, after the
        # samples at steps 0, 1 and 2
        h_ref = 0.01
        clean = effective_reference(pendulum, bench_state.x, bench_state.y, h_ref, 0.1)
        calls = []
        rattle = effective._rattle_step_cached
        cause = RuntimeError("synthetic reference failure")

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise cause
            return rattle(*args)

        monkeypatch.setattr(effective, "_rattle_step_cached", failing)
        with pytest.raises(IntegrationError) as err:
            effective_reference(pendulum, bench_state.x, bench_state.y, h_ref, 0.1)
        assert err.value.time == 2 * h_ref
        assert err.value.__cause__ is cause
        assert str(err.value) == f"reference step failed at t={2 * h_ref:.6g}: {cause}"
        got = err.value.partial
        assert np.array_equal(got.t, clean.t[:3])
        assert np.array_equal(got.x, clean.x[:3])
        assert np.array_equal(got.y, clean.y[:3])
        assert got.records == clean.records[:3] == [None] * 3

    def test_samples_carry_no_records(self, pendulum, bench_state):
        traj = effective_reference(pendulum, bench_state.x, bench_state.y, 1e-2, 0.2, stride=5)
        assert traj.records == [None] * len(traj.t) == [None] * 5

    def test_energy_conserved_and_frequencies_separated(self, pendulum, bench_state):
        # the reference's health, computed from its sampled states
        traj = effective_reference(pendulum, bench_state.x, bench_state.y, 1e-3, 10.0, stride=10)
        actions = compute_actions(pendulum, bench_state.x, bench_state.y)
        states = [State(x, y, t) for t, x, y in zip(traj.t, traj.x, traj.y)]
        energies = [effective_energy(pendulum, st, actions) for st in states]
        drift = max(abs(e - energies[0]) for e in energies)
        assert drift <= 1e-4  # no secular drift at h_ref^2 scale
        gaps = [resonance_monitor(manifold_frequencies(pendulum, st.x).omegas)[0] for st in states]
        assert min(gaps) >= 0.2
        assert max(max(constraint_residuals(pendulum, st)) for st in states) <= 1e-10

    def test_model_accuracy_scales_with_epsilon(self):
        # reference-vs-exact distance halves when epsilon halves
        from oscint.diagnostics import error_metrics
        from oscint.integrators import integrate_micro

        errs = {}
        errs_py = {}
        for eps in (1e-2, 5e-3):
            sys = make_double_pendulum(eps)
            s0 = benchmark_initial_state(eps)
            ref = effective_reference(sys, s0.x, s0.y, 1e-3, 2.0)
            h_micro = eps / 100
            n = int(round(2.0 / h_micro))
            micro = integrate_micro(sys, s0, h_micro, n, sample_stride=max(1, n // 200))
            met = error_metrics(micro, ref, sys)
            errs[eps] = met.max_err_x
            errs_py[eps] = met.max_err_py
        assert 1.5 <= errs[1e-2] / errs[5e-3] <= 3.0
        assert 1.5 <= errs_py[1e-2] / errs_py[5e-3] <= 3.0

    def test_effective_energy_definition(self, pendulum, bench_state):
        actions = compute_actions(pendulum, bench_state.x, bench_state.y)
        xc, yc = consistent_state(pendulum, bench_state.x, bench_state.y)
        es = State(xc, yc)
        om = frequencies(pendulum, xc).omegas
        expected = (
            0.5 * float(yc @ yc)
            + pendulum.slow_potential(xc)
            + float(actions @ om)
        )
        assert effective_energy(pendulum, es, actions) == pytest.approx(expected, rel=1e-14)
