import math

import numpy as np
import pytest

from oscint import (
    DomainError,
    compute_actions,
    fast_flow,
    hamiltonian,
    integrate,
    integrate_micro,
    integrators,
    macro_step,
    make_double_pendulum,
    make_observer,
    make_spring_chain,
    momentum_projector,
    project_to_manifold,
    smallmat,
    stormer_verlet,
)
from oscint.integrators import METHOD_KINDS, IntegrationError, MacroMethod, StabilityViolation
from oscint.harness import random_bounded_energy_states
from oscint.model import OscillatorySystem, State, StiffSpringChain


class RowSumChain(StiffSpringChain):
    """Spring chain whose stability guard takes the base-class bound."""

    stiff_eig_bound = OscillatorySystem.stiff_eig_bound


def count_eigensolves(monkeypatch):
    """Spy on the guard's exact eigensolve: the returned list gains one
    entry per call."""
    calls = []
    solve = smallmat.sym_eig

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(smallmat, "sym_eig", counted)
    return calls


class FreeSlowSystem(OscillatorySystem):
    """No constraints (m = 0): plain dynamics in a smooth potential."""

    def __init__(self, n=2, epsilon=1e-2, slow=None, grad=None):
        self.n = n
        self.m = 0
        self.epsilon = epsilon
        self._slow = slow or (lambda x: 0.0)
        self._grad = grad or (lambda x: np.zeros(n))

    def slow_potential(self, x):
        return self._slow(x)

    def grad_slow(self, x):
        return self._grad(x)

    def stiff_potential(self, x):
        return 0.0

    def grad_stiff(self, x):
        return np.zeros(self.n)

    def hess_stiff(self, x):
        return np.zeros((self.n, self.n))

    def constraint(self, x):
        return np.zeros(0)

    def constraint_jacobian(self, x):
        return np.zeros((0, self.n))


def harmonic_1d():
    """One-dimensional oscillator with unit frequency via the stiff part."""

    class Harmonic(FreeSlowSystem):
        def __init__(self):
            super().__init__(n=1, epsilon=1.0)
            self.m = 0  # treated as unconstrained: stiff part is quadratic

        def stiff_potential(self, x):
            return 0.5 * x[0] ** 2

        def grad_stiff(self, x):
            return np.array([x[0]])

        def hess_stiff(self, x):
            return np.array([[1.0]])

    return Harmonic()


class TestStormerVerlet:
    def test_free_flight(self):
        sys = FreeSlowSystem()
        s0 = State(np.array([1.0, 2.0]), np.array([0.5, -0.25]))
        out = stormer_verlet(sys, s0, 0.1, 10)
        assert np.allclose(out.x, s0.x + 1.0 * s0.y, atol=1e-14)
        assert np.array_equal(out.y, s0.y)
        assert out.t == pytest.approx(1.0)

    def test_harmonic_period(self):
        sys = harmonic_1d()
        s0 = State(np.array([1.0]), np.array([0.0]))
        n = int(round(2.0 * math.pi / 0.01))
        out = stormer_verlet(sys, s0, 2.0 * math.pi / n, n)
        assert abs(out.x[0] - 1.0) <= 1e-3
        assert abs(out.y[0]) <= 1e-3

    def test_second_order_self_convergence(self, pendulum, bench_state):
        t_span = 0.05
        ref = stormer_verlet(pendulum, bench_state, t_span / 6400, 6400)

        def err(nsteps):
            out = stormer_verlet(pendulum, bench_state, t_span / nsteps, nsteps)
            return np.max(np.abs(out.x - ref.x))

        ratio = err(160) / err(320)
        assert 3.4 <= ratio <= 4.6

    @pytest.mark.parametrize("include_slow", [False, True])
    @pytest.mark.parametrize("nsteps", [0, 1, 5])
    def test_result_never_aliases_the_input(self, include_slow, nsteps):
        # the stiff flow (the two-spring kernel and the generic loop) and
        # the full flow: leapfrog returns its inputs for nsteps = 0
        for sys in kernel_systems():
            state = random_bounded_energy_states(sys, 1, seed=512)[0]
            before = state.copy()
            out = stormer_verlet(sys, state, sys.epsilon / 100, nsteps, include_slow=include_slow)
            for got in (out.x, out.y):
                assert not np.shares_memory(got, state.x) and not np.shares_memory(got, state.y)
            assert np.array_equal(state.x, before.x) and np.array_equal(state.y, before.y)
            if nsteps == 0:
                assert np.array_equal(out.x, before.x) and np.array_equal(out.y, before.y)

    def test_stability_guard(self, pendulum, bench_state):
        # fastest frequency sqrt(2)/eps: steps above 2 eps/sqrt(2) blow up
        with pytest.raises(StabilityViolation):
            stormer_verlet(pendulum, bench_state, 2.0 * pendulum.epsilon, 1)

    def test_guard_checks_unconstrained_stiff_part(self):
        # m = 0, yet the stiff part x^2/2 oscillates with omega/eps = 1:
        # h_micro = 2.5 is past the limit 2, where the leapfrog blows up
        s0 = State(np.array([1.0]), np.array([0.0]))
        with pytest.raises(StabilityViolation, match="stability limit 2.000e"):
            stormer_verlet(harmonic_1d(), s0, 2.5, 40, include_slow=False)

    @pytest.mark.parametrize("cls", [StiffSpringChain, RowSumChain])
    def test_bound_falls_back_to_exact_spectrum(self, cls, monkeypatch, bench_state):
        # between the bound's limit and the exact one the eigensolve
        # decides and passes the step; just above the exact limit it raises
        sys = cls(1e-2, [1.0, 1.0], [1.0, 1.0])
        x = bench_state.x
        eps = sys.epsilon
        bound_limit = 2.0 * eps / math.sqrt(sys.stiff_eig_bound(x))
        exact_limit = 2.0 * eps / math.sqrt(float(np.linalg.eigvalsh(sys.hess_stiff(x))[-1]))
        assert bound_limit < 0.99 * exact_limit
        solves = count_eigensolves(monkeypatch)
        stormer_verlet(sys, bench_state, 0.5 * bound_limit, 1)
        assert solves == []
        stormer_verlet(sys, bench_state, 0.5 * (bound_limit + exact_limit), 1)
        assert solves == [1]
        with pytest.raises(StabilityViolation):
            stormer_verlet(sys, bench_state, 1.01 * exact_limit, 1)

    def test_bound_cleared_by_rounding_goes_to_exact_check(self, monkeypatch):
        # one spring attains the chain bound a^2: a step at the bound's
        # limit up to rounding must be decided by the eigensolve
        sys = make_spring_chain(1, 1e-2, [1.3], [1.0])
        state = State(np.array([0.6, -0.8]), np.zeros(2))
        limit = 2.0 * sys.epsilon / 1.3
        solves = count_eigensolves(monkeypatch)
        stormer_verlet(sys, state, limit * (1.0 - 1e-6), 1)
        assert solves == []
        stormer_verlet(sys, state, limit * (1.0 - 1e-13), 1)
        assert solves == [1]
        with pytest.raises(StabilityViolation):
            stormer_verlet(sys, state, limit * (1.0 + 1e-13), 1)
        assert solves == [1, 1]


class TestUnconstrainedSystem:
    """m = 0 runs the general code paths; they return what a system
    without constraints must get."""

    x = np.array([0.3, -0.2])
    y = np.array([0.1, 0.4])

    @staticmethod
    def free():
        grad = lambda x: np.array([2.0 * x[0], 1.0])
        return FreeSlowSystem(n=2, slow=lambda x: x[0] ** 2 + x[1], grad=grad)

    @pytest.mark.parametrize("want_jacobian", [False, True])
    def test_projection_is_identity(self, want_jacobian):
        proj = project_to_manifold(self.free(), self.x, want_jacobian=want_jacobian)
        assert np.array_equal(proj.position, self.x)
        assert proj.lam.shape == (0,)
        if want_jacobian:
            assert np.array_equal(proj.jacobian_t, np.eye(2))
        else:
            assert proj.jacobian_t is None

    def test_projector_is_identity(self):
        assert np.array_equal(momentum_projector(self.free(), self.x), np.eye(2))

    def test_no_actions(self):
        assert compute_actions(self.free(), self.x, self.y).shape == (0,)

    def test_macro_methods_agree_bitwise(self):
        # every kick force reduces to grad slow: identity projector and
        # projection Jacobian, projection onto x itself
        sys = self.free()
        s0 = State(self.x, self.y)
        runs = [
            integrate(sys, s0, MacroMethod(kind, 0.05, 1), 1.0, observer=make_observer(sys))
            for kind in METHOD_KINDS
        ]
        for traj in runs[1:]:
            assert np.array_equal(traj.t, runs[0].t)
            assert np.array_equal(traj.x, runs[0].x)
            assert np.array_equal(traj.y, runs[0].y)
        for traj in runs:
            for rec in traj.records:
                assert rec.actions.shape == (0,)
                assert rec.constraint_residual == 0.0


class TestFastFlow:
    def test_ignores_slow_potential(self, bench_state):
        plain = make_double_pendulum(1e-2)
        shifted = make_double_pendulum(1e-2)
        shifted.slow_potential = lambda x: 100.0 * (x[0] + x[3])  # type: ignore
        shifted.grad_slow = lambda x: np.array([100.0, 0.0, 0.0, 100.0])  # type: ignore
        out_a = fast_flow(plain, bench_state, 0.05, 100)
        out_b = fast_flow(shifted, bench_state, 0.05, 100)
        assert np.array_equal(out_a.x, out_b.x)
        assert np.array_equal(out_a.y, out_b.y)

    def test_fast_energy_conserved(self, pendulum, bench_state):
        def fast_energy(state):
            return hamiltonian(pendulum, state) - pendulum.slow_potential(state.x)

        e0 = fast_energy(bench_state)
        out = fast_flow(pendulum, bench_state, 0.05, 100)
        # leapfrog energy wobble at omega*h_micro/eps = sqrt(2)/100
        assert abs(fast_energy(out) - e0) / abs(e0) <= 1e-4

    def test_small_h_single_step(self, pendulum, bench_state):
        h = 1e-7  # below the micro stepsize eps/100 = 1e-4
        out = fast_flow(pendulum, bench_state, h, 100)
        direct = stormer_verlet(pendulum, bench_state, h, 1, include_slow=False)
        assert np.array_equal(out.x, direct.x)
        assert np.array_equal(out.y, direct.y)


def leapfrog_gradient(sys, include_slow):
    """(grad, coef) of the micro flow ydot = coef * grad(x)."""
    inv_eps2 = 1.0 / sys.epsilon ** 2
    if include_slow:
        return (lambda x: sys.grad_slow(x) + inv_eps2 * sys.grad_stiff(x)), -1.0
    return sys.grad_stiff, -inv_eps2


def inline_leapfrog(sys, state, h_micro, nsteps, include_slow):
    """The micro leapfrog written out with numpy arrays, identity mass,
    for nsteps >= 1: adjacent half kicks merged into one kick."""
    grad, coef = leapfrog_gradient(sys, include_slow)
    kick = coef * h_micro
    half = 0.5 * kick
    x, y = state.x.copy(), state.y.copy()
    y = y + half * grad(x)
    for step in range(nsteps):
        x = x + h_micro * y
        y = y + (kick if step < nsteps - 1 else half) * grad(x)
    return x, y


def unmerged_leapfrog(sys, state, h_micro, nsteps, include_slow):
    """The textbook kick-drift-kick leapfrog: two half kicks per step."""
    grad, coef = leapfrog_gradient(sys, include_slow)
    x, y = state.x.copy(), state.y.copy()
    f = coef * grad(x)
    for _ in range(nsteps):
        y = y + 0.5 * h_micro * f
        x = x + h_micro * y
        f = coef * grad(x)
        y = y + 0.5 * h_micro * f
    return x, y


def kernel_systems():
    """Two-spring chains with default and with uneven parameters (the
    unrolled kernel), and a three-spring chain (the generic loop)."""
    return [
        make_double_pendulum(1e-3),
        make_double_pendulum(1e-3, 1.3, 0.7, 1.1, 0.9),
        make_spring_chain(3, 1e-3, [1.0, 1.3, 0.8], [1.0, 0.7, 1.2]),
    ]


class TestStiffFlowKernels:
    @pytest.mark.parametrize("nsteps", [0, 1, 2, 7, 391])
    def test_kernels_match_generic_loop_bitwise(self, nsteps):
        for sys in kernel_systems():
            assert type(sys).stiff_flow is not OscillatorySystem.stiff_flow
            h_micro = sys.epsilon / 100
            for state in random_bounded_energy_states(sys, 4, seed=500):
                got = sys.stiff_flow(state.x, state.y, h_micro, nsteps)
                want = OscillatorySystem.stiff_flow(sys, state.x, state.y, h_micro, nsteps)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])

    def test_generic_loop_is_the_inline_leapfrog(self):
        for sys in kernel_systems():
            for state in random_bounded_energy_states(sys, 2, seed=510):
                got = OscillatorySystem.stiff_flow(sys, state.x, state.y, 1e-5, 50)
                want = inline_leapfrog(sys, state, 1e-5, 50, include_slow=False)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])

    def test_merged_kicks_match_unmerged_leapfrog(self):
        # merging the half kicks changes only the rounding: over 25 000
        # steps it stays at the scale of the accumulated roundoff
        sys = make_double_pendulum(1e-3)
        h_micro = sys.epsilon / 100
        for state in random_bounded_energy_states(sys, 4, seed=520):
            got = sys.stiff_flow(state.x, state.y, h_micro, 25_000)
            want = unmerged_leapfrog(sys, state, h_micro, 25_000, include_slow=False)
            assert np.max(np.abs(got[0] - want[0])) <= 1e-13
            assert np.max(np.abs(got[1] - want[1])) <= 1e-10

    def test_inputs_not_modified(self):
        for sys in kernel_systems():
            state = random_bounded_energy_states(sys, 1, seed=511)[0]
            before = state.copy()
            sys.stiff_flow(state.x, state.y, 1e-5, 10)
            assert np.array_equal(state.x, before.x)
            assert np.array_equal(state.y, before.y)

    def test_collapse_raises_inside_kernel(self):
        # bob 1 moves straight at the anchor and lands on it after the
        # first drift; the start state itself is admissible
        eps, h_micro, d = 0.5, 1e-3, 1e-3
        sys = make_double_pendulum(eps)
        x0 = np.array([0.0, -d, 0.0, -1.0 - d])
        kick = 0.5 * h_micro * (-(1.0 / eps ** 2)) * sys.grad_stiff(x0)
        y0 = np.array([0.0, d / h_micro - kick[1], 0.0, 0.0])
        messages = []
        for run in (
            lambda: sys.stiff_flow(x0, y0, h_micro, 3),
            lambda: OscillatorySystem.stiff_flow(sys, x0, y0, h_micro, 3),
            lambda: stormer_verlet(sys, State(x0, y0), h_micro, 3, include_slow=False),
        ):
            with pytest.raises(DomainError, match="spring 0 length collapsed") as err:
                run()
            messages.append(str(err.value))
        # the kernel raises the evaluators' own message
        assert messages[0] == messages[1] == messages[2]

    def test_collapse_on_the_final_micro_step(self):
        # as above, but bob 1 lands on the anchor with the last of three
        # drifts: the start momentum is tuned by secant iterations on
        # that drift's landing height
        eps, h_micro, nsteps = 0.5, 1e-3, 3
        sys = make_double_pendulum(eps)
        kick = -(1.0 / eps ** 2) * h_micro
        half = 0.5 * kick
        x0 = np.array([0.0, -1e-3, 0.0, -1.0 - 1e-3])

        def landing(v):
            # inline_leapfrog's merged kicks up to the last drift
            x, y = x0, np.array([0.0, v, 0.0, 0.0])
            y = y + half * sys.grad_stiff(x)
            for _ in range(nsteps - 1):
                x = x + h_micro * y
                y = y + kick * sys.grad_stiff(x)
            return (x + h_micro * y)[1]

        v0, v1 = 0.3, 0.4
        f0, f1 = landing(v0), landing(v1)
        while abs(f1) >= 1e-10:
            v0, v1, f0 = v1, v1 - f1 * (v1 - v0) / (f1 - f0), f1
            f1 = landing(v1)
        y0 = np.array([0.0, v1, 0.0, 0.0])
        sys.stiff_flow(x0, y0, h_micro, nsteps - 1)  # admissible before the last drift
        messages = []
        for run in (
            lambda: sys.stiff_flow(x0, y0, h_micro, nsteps),
            lambda: OscillatorySystem.stiff_flow(sys, x0, y0, h_micro, nsteps),
            lambda: stormer_verlet(sys, State(x0, y0), h_micro, nsteps, include_slow=False),
        ):
            with pytest.raises(DomainError, match="spring 0 length collapsed") as err:
                run()
            messages.append(str(err.value))
        assert messages[0] == messages[1] == messages[2]

    def test_fast_flow_enters_through_stiff_flow(self, pendulum, bench_state):
        calls = []
        kernel = pendulum.stiff_flow

        def spy(*args):
            calls.append(args[3])
            return kernel(*args)

        pendulum.stiff_flow = spy  # type: ignore
        fast_flow(pendulum, bench_state, 0.05, 100)
        assert calls == [500]

    def test_slow_force_path_keeps_generic_loop(self, pendulum, bench_state):
        def refuse(*args):
            raise AssertionError("include_slow=True must not use stiff_flow")

        pendulum.stiff_flow = refuse  # type: ignore
        out = stormer_verlet(pendulum, bench_state, 1e-4, 60)
        want = inline_leapfrog(pendulum, bench_state, 1e-4, 60, include_slow=True)
        assert np.array_equal(out.x, want[0])
        assert np.array_equal(out.y, want[1])

    @pytest.mark.parametrize("include_slow", [False, True])
    def test_generic_systems_unchanged(self, include_slow):
        grad = lambda x: np.array([2.0 * x[0], 1.0])
        free = FreeSlowSystem(n=2, slow=lambda x: x[0] ** 2 + x[1], grad=grad)
        for sys, state in (
            (free, State(np.array([0.3, -0.2]), np.array([0.1, 0.4]))),
            (harmonic_1d(), State(np.array([1.0]), np.array([0.25]))),
        ):
            assert type(sys).stiff_flow is OscillatorySystem.stiff_flow
            out = stormer_verlet(sys, state, 0.01, 37, include_slow=include_slow)
            want = inline_leapfrog(sys, state, 0.01, 37, include_slow)
            assert np.array_equal(out.x, want[0])
            assert np.array_equal(out.y, want[1])


class TestMacroSteps:
    def test_impulse_without_slow_equals_fast_flow(self, bench_state):
        sys = make_double_pendulum(1e-2)
        sys.grad_slow = lambda x: np.zeros(4)  # type: ignore
        method = MacroMethod("impulse", 0.05)
        a = macro_step(sys, bench_state, method)
        b = fast_flow(sys, bench_state, 0.05, 100)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_kicks_vanish_without_slow_all_methods(self, bench_state):
        base = fast_flow(make_double_pendulum(1e-2), bench_state, 0.05, 100)
        for kind in ("mollified", "projected"):
            sys = make_double_pendulum(1e-2)
            sys.grad_slow = lambda x: np.zeros(4)  # type: ignore
            out = macro_step(sys, bench_state, MacroMethod(kind, 0.05))
            assert np.allclose(out.x, base.x, atol=1e-15)
            assert np.allclose(out.y, base.y, atol=1e-15)

    def test_unconstrained_impulse_is_leapfrog(self):
        # with no stiff part one impulse step is one leapfrog macro step
        grad = lambda x: np.array([2.0 * x[0], 1.0])
        sys = FreeSlowSystem(n=2, slow=lambda x: x[0] ** 2 + x[1], grad=grad)
        s0 = State(np.array([0.3, -0.2]), np.array([0.1, 0.4]))
        h = 0.05
        got = macro_step(sys, s0, MacroMethod("impulse", h, micro_divisor=1))
        # direct kick-drift-kick with the slow force
        y_half = s0.y - 0.5 * h * grad(s0.x)
        x1 = s0.x + h * y_half
        y1 = y_half - 0.5 * h * grad(x1)
        assert np.allclose(got.x, x1, atol=1e-15)
        assert np.allclose(got.y, y1, atol=1e-15)

    def test_mollified_kick_on_manifold_is_projected_kick(self, pendulum):
        s = math.sqrt(0.5)
        x = np.array([s, -s, math.sqrt(2.0), 0.0])
        state = State(x, np.array([0.1, 0.2, -0.3, 0.4]))
        h = 0.01
        a = macro_step(pendulum, state, MacroMethod("mollified", h))
        b = macro_step(pendulum, state, MacroMethod("projected", h))
        # the first kick agrees exactly on the manifold, so positions match
        # bitwise; the closing kick differs at O(h*eps) off the manifold
        assert np.array_equal(a.x, b.x)
        assert np.max(np.abs(a.y - b.y)) <= 1e-5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MacroMethod("leapfrog", 0.05)

    @pytest.mark.parametrize("kind", ["projected", "mollified", "impulse"])
    def test_time_reversal_symmetry(self, kind):
        eps = 1e-2
        sys = make_double_pendulum(eps)
        from oscint import benchmark_initial_state

        s0 = benchmark_initial_state(eps)
        method = MacroMethod(kind, 0.01)
        state = s0.copy()
        for _ in range(100):
            state = macro_step(sys, state, method)
        state = State(state.x, -state.y, 0.0)
        for _ in range(100):
            state = macro_step(sys, state, method)
        err = max(
            float(np.max(np.abs(state.x - s0.x))),
            float(np.max(np.abs(-state.y - s0.y))),
        )
        assert err <= 1e-8

    def test_projected_and_mollified_steps_agree_to_order_eps(self):
        from oscint import benchmark_initial_state

        # per-step difference is O(h * eps) with a stable constant
        diffs = {}
        for eps in (1e-2, 5e-3):
            sys = make_double_pendulum(eps)
            s0 = benchmark_initial_state(eps)
            h = 0.01
            a = macro_step(sys, s0, MacroMethod("mollified", h))
            b = macro_step(sys, s0, MacroMethod("projected", h))
            diffs[eps] = max(
                float(np.max(np.abs(a.x - b.x))), float(np.max(np.abs(a.y - b.y)))
            )
        assert 1.5 <= diffs[1e-2] / diffs[5e-3] <= 3.0


class TestEnergyConservation:
    @pytest.mark.parametrize("kind", ["projected", "mollified", "impulse"])
    def test_no_secular_drift_at_fixed_stepsize(self, kind):
        # drift stays at the O(h^2) + O(eps) level and does not grow
        # proportionally with a 10x longer horizon (h = 0.05 is away
        # from the impulse method's action-pumping resonances)
        eps = 1e-2
        sys = make_double_pendulum(eps)
        from oscint import benchmark_initial_state

        s0 = benchmark_initial_state(eps)
        e0 = hamiltonian(sys, s0)
        method = MacroMethod(kind, 0.05)

        def max_drift(t_end):
            traj = integrate(sys, s0, method, t_end, stride=5)
            return max(
                abs(hamiltonian(sys, State(x, y)) - e0) for x, y in zip(traj.x, traj.y)
            )

        short = max_drift(10.0)
        long = max_drift(100.0)
        assert short <= 5.0 * (0.05 ** 2 + eps)
        assert long <= 4.0 * short


class TestIntegrate:
    def test_short_horizon_initial_sample_only(self, pendulum, bench_state):
        traj = integrate(pendulum, bench_state, MacroMethod("projected", 0.05), 0.02)
        assert len(traj.t) == len(traj.x) == len(traj.records) == 1
        assert traj.t[0] == 0.0

    def test_step_not_dividing_horizon_rejected(self, pendulum, bench_state):
        # 0.25 / 0.1 = 2.5 steps: rounding would end the run at 0.3
        with pytest.raises(ValueError, match="does not divide t_end"):
            integrate(pendulum, bench_state, MacroMethod("projected", 0.1), 0.25)

    def test_deterministic_reruns(self, pendulum, bench_state):
        method = MacroMethod("mollified", 0.05)
        a = integrate(pendulum, bench_state, method, 0.5)
        b = integrate(pendulum, bench_state, method, 0.5)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_benchmark_horizon_step_count(self, pendulum, bench_state):
        traj = integrate(pendulum, bench_state, MacroMethod("projected", 0.05), 10.0)
        times = traj.t
        assert len(times) == 201
        assert traj.x.shape == traj.y.shape == (201, 4)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(10.0, abs=1e-12)
        assert np.all(np.diff(times) > 0)

    def test_stride_sampling(self, pendulum, bench_state):
        traj = integrate(
            pendulum, bench_state, MacroMethod("projected", 0.05), 0.5, stride=3
        )
        # steps 0, 3, 6, 9 and the final 10th
        assert [round(t / 0.05) for t in traj.t] == [0, 3, 6, 9, 10]

    @pytest.mark.parametrize("stride", [0, -3, 1.5])
    def test_stride_must_be_an_integer_at_least_one(self, pendulum, bench_state, stride):
        with pytest.raises(ValueError, match="stride must be an integer >= 1"):
            integrate(pendulum, bench_state, MacroMethod("projected", 0.05), 0.5, stride=stride)

    @pytest.mark.parametrize("h", [0.0, -0.01, math.nan])
    def test_step_must_be_positive(self, pendulum, bench_state, h):
        with pytest.raises(ValueError, match="macro stepsize must be positive"):
            MacroMethod("projected", h)
        # a step set after construction meets the sampling loop's own check
        method = MacroMethod("projected", 0.05)
        method.h = h
        with pytest.raises(ValueError, match="must be positive and finite"):
            integrate(pendulum, bench_state, method, 0.5)

    def test_step_failure_carries_partial_trajectory(self, bench_state):
        sys = make_double_pendulum(1e-2)
        calls = {"n": 0}
        orig = sys.grad_slow

        def flaky(x):
            calls["n"] += 1
            if calls["n"] > 6:
                raise RuntimeError("synthetic failure")
            return orig(x)

        sys.grad_slow = flaky  # type: ignore
        with pytest.raises(IntegrationError) as err:
            integrate(sys, bench_state, MacroMethod("impulse", 0.05), 1.0)
        assert err.value.partial is not None
        assert len(err.value.partial.t) >= 1
        assert err.value.time is not None


def counting(kick_force, calls, fail_at=None):
    """kick_force that appends each position it sees to calls and raises
    on call number fail_at (1-based)."""

    def wrapped(sys, x):
        calls.append(np.array(x))
        if len(calls) == fail_at:
            raise RuntimeError("synthetic kick failure")
        return kick_force(sys, x)

    return wrapped


class TestKickForceReuse:
    """integrate evaluates each boundary kick force once and reuses it as
    the next step's opening force; the run stays macro_step's."""

    @staticmethod
    def cases():
        chain = make_spring_chain(3, 1e-2, [1.0, 1.3, 0.8], [1.0, 0.7, 1.2])
        pendulum = make_double_pendulum(1e-2)
        return [
            (pendulum, random_bounded_energy_states(pendulum, 1, seed=41)[0]),
            (chain, random_bounded_energy_states(chain, 1, seed=42)[0]),
        ]

    @pytest.mark.parametrize("kind", ["impulse", "mollified", "projected"])
    def test_matches_manual_loop_bitwise(self, kind):
        method = MacroMethod(kind, 0.05)
        for sys, s0 in self.cases():
            traj = integrate(sys, s0, method, 0.5)
            state = s0.copy()
            want = [state]
            for k in range(1, 11):
                state = macro_step(sys, state, method)
                state.t = s0.t + k * method.h
                want.append(state)
            assert len(traj.t) == len(want)
            for t, x, y, ref in zip(traj.t, traj.x, traj.y, want):
                assert np.array_equal(x, ref.x)
                assert np.array_equal(y, ref.y)
                assert t == ref.t

    @pytest.mark.parametrize("kind", ["impulse", "mollified", "projected"])
    def test_one_kick_force_per_step_plus_one(self, kind, monkeypatch, bench_state):
        calls = []
        monkeypatch.setitem(
            integrators._KICK_FORCES, kind, counting(integrators._KICK_FORCES[kind], calls)
        )
        sys = make_double_pendulum(1e-2)
        traj = integrate(sys, bench_state, MacroMethod(kind, 0.05), 0.35)
        assert len(calls) == 7 + 1
        # one force at the start and one at every step's end
        for x, want in zip(calls, traj.x, strict=True):
            assert np.array_equal(x, want)
        calls.clear()
        integrate(sys, bench_state, MacroMethod(kind, 0.05), 0.02)
        assert calls == []

    @pytest.mark.parametrize("kind", ["impulse", "mollified", "projected"])
    def test_closing_kick_failure(self, kind, monkeypatch, bench_state):
        # call 1 opens step 1 and call k + 1 closes step k: call 4 is the
        # closing kick of step 3, which starts at t = 2h
        calls = []
        monkeypatch.setitem(
            integrators._KICK_FORCES,
            kind,
            counting(integrators._KICK_FORCES[kind], calls, fail_at=4),
        )
        sys = make_double_pendulum(1e-2)
        method = MacroMethod(kind, 0.05)
        with pytest.raises(IntegrationError) as err:
            integrate(sys, bench_state, method, 0.5)
        assert err.value.time == 2 * method.h
        assert str(err.value) == (
            f"{kind} step failed at t={2 * method.h:.6g}: synthetic kick failure"
        )
        assert isinstance(err.value.__cause__, RuntimeError)
        monkeypatch.undo()
        state = bench_state.copy()
        want = [state]
        for k in (1, 2):
            state = macro_step(sys, state, method)
            state.t = k * method.h
            want.append(state)
        got = err.value.partial
        assert len(got.t) == len(want)
        for t, x, y, ref in zip(got.t, got.x, got.y, want):
            assert np.array_equal(x, ref.x)
            assert np.array_equal(y, ref.y)
            assert t == ref.t

    def test_failure_at_stride_reports_the_failing_step(self, monkeypatch, bench_state):
        # call 6 closes step 5, which starts at t = 4h; the samples before
        # it are those at steps 0 and 3
        calls = []
        monkeypatch.setitem(
            integrators._KICK_FORCES,
            "projected",
            counting(integrators._KICK_FORCES["projected"], calls, fail_at=6),
        )
        sys = make_double_pendulum(1e-2)
        method = MacroMethod("projected", 0.05)
        with pytest.raises(IntegrationError) as err:
            integrate(sys, bench_state, method, 0.5, stride=3)
        assert err.value.time == 4 * method.h
        assert isinstance(err.value.__cause__, RuntimeError)
        monkeypatch.undo()
        clean = integrate(sys, bench_state, method, 0.5, stride=3)
        got = err.value.partial
        assert [round(t / method.h) for t in got.t] == [0, 3]
        assert np.array_equal(got.t, clean.t[:2])
        assert np.array_equal(got.x, clean.x[:2])
        assert np.array_equal(got.y, clean.y[:2])


def spy_stormer_verlet(monkeypatch, fail_at=None):
    """Replace integrators.stormer_verlet by a wrapper that appends each
    call's step count to the returned list and raises on call number
    fail_at (1-based)."""
    calls = []
    step = integrators.stormer_verlet

    def spied(sys, state, h_micro, nsteps, *args, **kwargs):
        calls.append(nsteps)
        if len(calls) == fail_at:
            raise RuntimeError("synthetic micro failure")
        return step(sys, state, h_micro, nsteps, *args, **kwargs)

    monkeypatch.setattr(integrators, "stormer_verlet", spied)
    return calls


class TestIntegrateMicro:
    """integrate_micro samples as integrate does, with one stormer_verlet
    call per sample interval."""

    H_MICRO = 1e-4

    @staticmethod
    def start(bench_state):
        return State(bench_state.x, bench_state.y, 0.3)

    def test_one_call_per_sample_interval(self, pendulum, bench_state, monkeypatch):
        s0 = self.start(bench_state)
        calls = spy_stormer_verlet(monkeypatch)
        traj = integrate_micro(pendulum, s0, self.H_MICRO, 10, sample_stride=3)
        assert calls == [3, 3, 3, 1]
        assert traj.t.tolist() == [s0.t + k * self.H_MICRO for k in (0, 3, 6, 9, 10)]
        state = s0
        for count, x, y in zip((3, 3, 3, 1), traj.x[1:], traj.y[1:], strict=True):
            state = stormer_verlet(pendulum, state, self.H_MICRO, count)
            assert np.array_equal(x, state.x)
            assert np.array_equal(y, state.y)

    def test_failure_carries_partial_trajectory(self, pendulum, bench_state, monkeypatch):
        # the second interval fails: it starts at t0 + 3 h_micro, after the
        # samples at micro steps 0 and 3
        s0 = self.start(bench_state)
        clean = integrate_micro(pendulum, s0, self.H_MICRO, 10, sample_stride=3)
        spy_stormer_verlet(monkeypatch, fail_at=2)
        with pytest.raises(IntegrationError) as err:
            integrate_micro(pendulum, s0, self.H_MICRO, 10, sample_stride=3)
        assert err.value.time == s0.t + 3 * self.H_MICRO
        assert str(err.value.__cause__) == "synthetic micro failure"
        got = err.value.partial
        assert np.array_equal(got.t, clean.t[:2])
        assert np.array_equal(got.x, clean.x[:2])
        assert np.array_equal(got.y, clean.y[:2])

    @pytest.mark.parametrize("stride", [0, -3, 1.5])
    def test_stride_must_be_an_integer_at_least_one(self, pendulum, bench_state, stride):
        with pytest.raises(ValueError, match="stride must be an integer >= 1"):
            integrate_micro(pendulum, bench_state, self.H_MICRO, 10, sample_stride=stride)

    @pytest.mark.parametrize("h", [0.0, -0.01, math.nan])
    def test_step_must_be_positive(self, pendulum, bench_state, h):
        with pytest.raises(ValueError, match="must be positive and finite"):
            integrate_micro(pendulum, bench_state, h, 10, sample_stride=1)
