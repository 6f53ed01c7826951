import math

import numpy as np
import pytest

from oscint import (
    RankDeficient,
    consistent_state,
    make_double_pendulum,
    make_spring_chain,
    momentum_projector,
    project_to_manifold,
)
from oscint import smallmat
from oscint.model import DomainError, OscillatorySystem, StiffSpringChain
from oscint.smallmat import NoConvergence, NotPositiveDefinite

from conftest import sample_states
from test_mass_metric import Scaled


class TestMomentumProjector:
    def test_single_pendulum_closed_form(self):
        # one constraint at x = (1, 0): the projector keeps the vertical
        sys = make_spring_chain(1, 1e-2, [1.0], [1.0])
        proj = momentum_projector(sys, np.array([1.0, 0.0]))
        assert np.allclose(proj, np.diag([0.0, 1.0]), atol=1e-14)

    def test_idempotent(self, pendulum):
        for state in sample_states(pendulum, 50, seed=101):
            p = momentum_projector(pendulum, state.x)
            assert np.max(np.abs(p @ p - p)) <= 1e-10

    def test_annihilates_constraint_rows(self, pendulum):
        for state in sample_states(pendulum, 50, seed=102):
            p = momentum_projector(pendulum, state.x)
            jac = pendulum.constraint_jacobian(state.x)
            # identity mass: G M^-1 P = G P
            assert np.max(np.abs(jac @ p)) <= 1e-10


class TestProjectToManifold:
    def test_fixed_point_on_manifold(self, pendulum):
        s = math.sqrt(0.5)
        x = np.array([s, -s, math.sqrt(2.0), 0.0])
        moll = project_to_manifold(pendulum, x, want_jacobian=True)
        assert np.array_equal(moll.position, x)
        assert np.array_equal(moll.lam, np.zeros(2))
        p = momentum_projector(pendulum, x)
        assert np.array_equal(moll.jacobian_t, p)

    def test_benchmark_displacement(self, pendulum, bench_state):
        # stretched spring relaxes by half the elongation in each bob:
        # displacement e/sqrt(2) with e the measured elongation
        moll = project_to_manifold(pendulum, bench_state.x)
        moved = np.linalg.norm(bench_state.x - moll.position)
        assert moved == pytest.approx(2.5 * pendulum.epsilon, rel=0.05)
        assert np.max(np.abs(pendulum.constraint(moll.position))) <= 1e-12

    def test_linearized_oracle(self, pendulum):
        # one linearized projection step predicts the move to O(eps^2)
        for state in sample_states(pendulum, 20, seed=103):
            x = state.x
            jac = pendulum.constraint_jacobian(x)
            g = pendulum.constraint(x)
            lin = jac.T @ np.linalg.solve(jac @ jac.T, g)
            moll = project_to_manifold(pendulum, x)
            err = np.max(np.abs((x - moll.position) - lin))
            assert err <= 50.0 * pendulum.epsilon ** 2

    def test_displacement_scales_with_epsilon(self):
        # elongation scale eps implies displacement O(eps)
        sups = {}
        for eps in (1e-2, 5e-3):
            sys = make_double_pendulum(eps)
            worst = 0.0
            for state in sample_states(sys, 40, seed=104):
                moll = project_to_manifold(sys, state.x)
                worst = max(worst, float(np.max(np.abs(state.x - moll.position))))
            sups[eps] = worst
        assert 1.5 <= sups[1e-2] / sups[5e-3] <= 3.0

    def test_jacobian_approaches_projector(self):
        # the gap is O(eps) with a stable constant under halving
        sups = {}
        for eps in (1e-2, 5e-3):
            sys = make_double_pendulum(eps)
            worst = 0.0
            for state in sample_states(sys, 40, seed=105):
                moll = project_to_manifold(sys, state.x, want_jacobian=True)
                p = momentum_projector(sys, state.x)
                worst = max(worst, float(np.max(np.abs(moll.jacobian_t - p))))
            sups[eps] = worst
        assert 1.5 <= sups[1e-2] / sups[5e-3] <= 3.0

    def test_jacobian_matches_finite_differences(self, pendulum):
        # the implicit-function Jacobian against a direct FD of the map
        state = sample_states(pendulum, 1, seed=106)[0]
        moll = project_to_manifold(pendulum, state.x, want_jacobian=True)
        fd = 1e-7
        num = np.empty((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = fd
            xp = project_to_manifold(pendulum, state.x + e).position
            xm = project_to_manifold(pendulum, state.x - e).position
            num[:, j] = (xp - xm) / (2 * fd)
        assert np.max(np.abs(num.T - moll.jacobian_t)) <= 1e-6

    def test_far_point_no_convergence(self, pendulum):
        with pytest.raises(NoConvergence):
            project_to_manifold(pendulum, np.array([50.0, 0.0, -50.0, 80.0]))

    @pytest.mark.parametrize("index, start", [(73, "(0.498, 0.588)"), (197, "(0.548, 0.53)")])
    def test_failure_names_the_start_residual(self, index, start):
        # springs stretched by about half their length: the solve stalls,
        # and the message says how far off the manifold it started
        sys = make_double_pendulum(2e-2)
        x = sample_states(sys, 300, seed=7, elongation=30.0)[index].x
        with pytest.raises(NoConvergence) as err:
            project_to_manifold(sys, x)
        cause = err.value.__cause__
        assert isinstance(cause, NoConvergence)
        assert "line search stalled" in str(cause)
        assert str(err.value) == f"start residual c(x) = {start}: {cause}"


class TestVariableMassDeclared:
    """The exact projection Jacobian omits the x-derivative of M(x)^-1, so
    it must refuse a system that declares position-dependent mass."""

    @staticmethod
    def chain():
        class VariableMassChain(StiffSpringChain):
            def __post_init__(self):
                super().__post_init__()
                self.mass_is_constant = False

        return VariableMassChain(1e-2, [1.0, 1.0], [1.0, 1.0])

    def test_jacobian_rejected(self, bench_state):
        with pytest.raises(ValueError, match="constant mass"):
            project_to_manifold(self.chain(), bench_state.x, want_jacobian=True)

    def test_position_still_projected(self, pendulum, bench_state):
        got = project_to_manifold(self.chain(), bench_state.x)
        want = project_to_manifold(pendulum, bench_state.x)
        assert np.array_equal(got.position, want.position)


class TestConsistentState:
    def test_already_consistent_unchanged(self, pendulum):
        s = math.sqrt(0.5)
        x = np.array([s, -s, math.sqrt(2.0), 0.0])
        p = momentum_projector(pendulum, x)
        y = p @ np.array([0.3, -0.1, 0.2, 0.5])
        xc, yc = consistent_state(pendulum, x, y)
        assert np.max(np.abs(xc - x)) <= 1e-14
        assert np.max(np.abs(yc - y)) <= 1e-12

    def test_zero_momentum_stays_zero(self, pendulum, bench_state):
        xc, yc = consistent_state(pendulum, bench_state.x, bench_state.y)
        assert np.array_equal(yc, np.zeros(4))
        assert np.max(np.abs(pendulum.constraint(xc))) <= 1e-12

    def test_residuals_small_epsilon(self):
        sys = make_double_pendulum(1e-3)
        state = sample_states(sys, 1, seed=107)[0]
        xc, yc = consistent_state(sys, state.x, state.y)
        assert np.max(np.abs(sys.constraint(xc))) <= 1e-12
        jac = sys.constraint_jacobian(xc)
        assert np.max(np.abs(jac @ yc)) <= 1e-10

    def test_idempotent(self, pendulum):
        for state in sample_states(pendulum, 10, seed=108):
            x1, y1 = consistent_state(pendulum, state.x, state.y)
            x2, y2 = consistent_state(pendulum, x1, y1)
            assert np.max(np.abs(x2 - x1)) <= 1e-10
            assert np.max(np.abs(y2 - y1)) <= 1e-10


def outcome(run):
    """run()'s result, or the exception it raised."""
    try:
        return run()
    except Exception as exc:  # compared by type and message
        return exc


def assert_same_failure(sys, x, cls, same_message=True):
    got = outcome(lambda: sys.project_position(x))
    want = outcome(lambda: OscillatorySystem.project_position(sys, x))
    assert type(got) is type(want) is cls
    if same_message:
        assert str(got) == str(want)


class TestProjectionKernel:
    """The two-spring chain's float project_position against the generic
    numpy path, which is its oracle."""

    # both sum G^T lam, once in a numpy matvec and once in floats
    POS_TOL = 4e-15
    LAM_TOL = 4e-15

    def test_double_pendulum_has_the_override(self, pendulum):
        assert type(pendulum).project_position is not OscillatorySystem.project_position

    @pytest.mark.parametrize("eps", [2e-2, 1e-2, 1e-3])
    @pytest.mark.parametrize("elongation", [1.0, 10.0, 30.0])
    def test_matches_generic_path(self, eps, elongation):
        sys = make_double_pendulum(eps)
        for state in sample_states(sys, 60, seed=620, elongation=elongation):
            want = outcome(lambda: OscillatorySystem.project_position(sys, state.x))
            if isinstance(want, Exception):
                assert_same_failure(sys, state.x, type(want))
                continue
            pos, lam = sys.project_position(state.x)
            assert np.max(np.abs(pos - want[0])) <= self.POS_TOL
            assert np.max(np.abs(lam - want[1])) <= self.LAM_TOL
            assert np.max(np.abs(sys.constraint(pos))) <= 1e-12

    def test_far_point_same_failure(self, pendulum):
        assert_same_failure(pendulum, np.array([50.0, 0.0, -50.0, 80.0]), NoConvergence)

    def test_nan_entry_rank_deficient(self, pendulum):
        for k in range(4):
            x = np.array([0.7, -0.7, 1.4, 0.05])
            x[k] = math.nan
            # the kernel names the failing pivot of G G^T in its own words
            assert_same_failure(pendulum, x, NotPositiveDefinite, same_message=False)
            with pytest.raises(RankDeficient):
                project_to_manifold(pendulum, x)

    def test_collapsed_spring_at_x(self, pendulum):
        assert_same_failure(pendulum, np.array([0.0, 1e-9, 0.7, -0.7]), DomainError)
        assert_same_failure(pendulum, np.array([0.7, -0.7, 0.7, -0.7]), DomainError)

    def test_collapse_at_a_trial_point(self):
        # the first spring's rest length lies below the collapse limit, so
        # the first full Newton step from an admissible x collapses it
        sys = make_double_pendulum(1e-2, l1=1e-9)
        x = np.array([1e-6, 0.0, 1e-6, -1.0])
        sys.constraint_jacobian(x)  # admissible at x
        assert_same_failure(sys, x, DomainError)

    def test_halving_branch(self):
        # the full step and the half step raise the residual, the quarter
        # step is taken
        sys = make_double_pendulum(1e-2, l2=0.3)
        x = np.array([0.05, -0.8, 1.73, 0.86])
        norms = []
        constraint = sys.constraint

        def traced(z):
            c = constraint(z)
            norms.append(float(np.max(np.abs(c))))
            return c

        sys.constraint = traced
        want = OscillatorySystem.project_position(sys, x)
        del sys.constraint
        assert any(b >= a for a, b in zip(norms, norms[1:]))
        pos, lam = sys.project_position(x)
        assert np.max(np.abs(pos - want[0])) <= self.POS_TOL
        assert np.max(np.abs(lam - want[1])) <= self.LAM_TOL

    def test_base_defaults_to_x_bitwise(self, pendulum):
        chain = make_spring_chain(3, 1e-2, [1.0, 1.3, 0.8], [1.0, 0.7, 1.2])
        for sys in (pendulum, chain):
            for state in sample_states(sys, 10, seed=625, elongation=10.0):
                for project in (type(sys).project_position, OscillatorySystem.project_position):
                    pos, lam = project(sys, state.x)
                    pos_b, lam_b = project(sys, state.x, base=state.x.copy())
                    assert np.array_equal(pos, pos_b) and np.array_equal(lam, lam_b)

    @pytest.mark.parametrize("eps", [2e-2, 1e-2, 1e-3])
    def test_base_point_matches_generic_path(self, eps):
        # the RATTLE position stage: the drifted point of a consistent
        # state, projected along the directions at the state
        sys = make_double_pendulum(eps)
        for state in sample_states(sys, 30, seed=626):
            x, y = consistent_state(sys, state.x, state.y)
            for h in (1e-3, 1e-2, 1e-1):
                base = x + h * (y - 0.5 * h * sys.grad_slow(x))
                pos, lam = sys.project_position(x, base=base)
                want = OscillatorySystem.project_position(sys, x, base=base)
                assert np.max(np.abs(pos - want[0])) <= 1e-15
                assert np.max(np.abs(lam - want[1])) <= 1e-15
                assert np.max(np.abs(sys.constraint(pos))) <= 1e-12

    @staticmethod
    def assert_same_failure_at(sys, x, base, cls):
        got = outcome(lambda: sys.project_position(x, base=base))
        want = outcome(lambda: OscillatorySystem.project_position(sys, x, base=base))
        assert type(got) is type(want) is cls
        assert str(got) == str(want)

    def test_collapsed_base_point(self, pendulum):
        x = np.array([0.7, -0.7, 1.4, -1.4])
        for base in (np.array([0.0, 1e-9, 1.4, -1.4]), np.array([0.7, -0.7, 0.7, -0.7])):
            self.assert_same_failure_at(pendulum, x, base, DomainError)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_base_point(self, pendulum, bad):
        x = np.array([0.7, -0.7, 1.4, -1.4])
        for k in range(4):
            base = x.copy()
            base[k] = bad
            self.assert_same_failure_at(pendulum, x, base, NoConvergence)

    def test_other_models_run_the_default(self, monkeypatch, pendulum):
        calls = []
        default = OscillatorySystem.project_position

        def spy(sys, x):
            calls.append(type(sys).__name__)
            return default(sys, x)

        monkeypatch.setattr(OscillatorySystem, "project_position", spy)
        chains = [
            make_spring_chain(1, 1e-2, [1.0], [1.0]),
            make_spring_chain(3, 1e-2, [1.0, 1.3, 0.8], [1.0, 0.7, 1.2]),
        ]
        for sys in chains:
            state = sample_states(sys, 1, seed=621)[0]
            project_to_manifold(sys, state.x)
        scaled = Scaled(pendulum, np.diag([1.5, 0.7, 2.0, 1.2]))
        project_to_manifold(scaled, scaled.s_inv @ sample_states(pendulum, 1, seed=622)[0].x)
        assert calls == ["StiffSpringChain", "StiffSpringChain", "Scaled"]
        project_to_manifold(pendulum, sample_states(pendulum, 1, seed=623)[0].x)
        assert len(calls) == 3

    def test_inputs_not_modified(self, pendulum):
        for state in sample_states(pendulum, 5, seed=624, elongation=10.0):
            x = state.x.copy()
            pendulum.project_position(state.x)
            assert np.array_equal(state.x, x)


def assert_same_failure_of(sys, name, args, cls):
    """The override and the default of contract method `name` raise the
    same exception, of class cls, with the same message."""
    got = outcome(lambda: getattr(sys, name)(*args))
    want = outcome(lambda: getattr(OscillatorySystem, name)(sys, *args))
    assert type(got) is type(want) is cls
    assert str(got) == str(want)


def assert_same_outcome(got_run, want_run, tol):
    """Both runs raise the same exception class, or return arrays that
    agree within tol with nan in the same entries."""
    got = outcome(got_run)
    want = outcome(want_run)
    if isinstance(want, Exception):
        assert type(got) is type(want)
        return
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.max(np.abs(got[ok] - want[ok]), initial=0.0) <= tol


class TestProjectorAndJacobianKernels:
    """The two-spring chain's float momentum_projector and
    projection_jacobian_t against the generic numpy defaults, which are
    their oracles."""

    TOL = 1e-14

    def test_double_pendulum_has_the_overrides(self, pendulum):
        for name in ("momentum_projector", "projection_jacobian_t"):
            assert getattr(type(pendulum), name) is not getattr(OscillatorySystem, name)

    @pytest.mark.parametrize("eps", [2e-2, 1e-2, 1e-3])
    @pytest.mark.parametrize("elongation", [1.0, 10.0, 30.0])
    def test_matches_generic_path(self, eps, elongation):
        sys = make_double_pendulum(eps)
        for state in sample_states(sys, 60, seed=630, elongation=elongation):
            got = sys.momentum_projector(state.x)
            want = OscillatorySystem.momentum_projector(sys, state.x)
            assert np.max(np.abs(got - want)) <= self.TOL
            projection = outcome(lambda: sys.project_position(state.x))
            if isinstance(projection, Exception):
                continue  # a stalled projection: TestProjectionKernel's case
            pos, lam = projection
            got = sys.projection_jacobian_t(state.x, pos, lam)
            want = OscillatorySystem.projection_jacobian_t(sys, state.x, pos, lam)
            assert np.max(np.abs(got - want)) <= self.TOL

    def test_nan_entries(self, pendulum):
        x0 = np.array([0.7, -0.7, 1.4, 0.05])
        pos, lam = pendulum.project_position(x0)
        for k in range(4):
            x = x0.copy()
            x[k] = math.nan
            assert_same_failure_of(pendulum, "momentum_projector", (x,), NotPositiveDefinite)
            with pytest.raises(RankDeficient):
                momentum_projector(pendulum, x)
            with pytest.raises(RankDeficient):
                project_to_manifold(pendulum, x, want_jacobian=True)
            # the Jacobian itself raises nothing: nan spreads as in numpy
            for args in ((x, pos, lam), (x0, x, lam), (x0, pos, x[1::2])):
                assert_same_outcome(
                    lambda: pendulum.projection_jacobian_t(*args),
                    lambda: OscillatorySystem.projection_jacobian_t(pendulum, *args),
                    self.TOL,
                )

    def test_collapsed_spring(self, pendulum):
        fine = np.array([0.7, -0.7, 1.4, 0.05])
        lam = np.array([1e-3, -2e-3])
        for collapsed in (np.array([0.0, 1e-9, 0.7, -0.7]), np.array([0.7, -0.7, 0.7, -0.7])):
            assert_same_failure_of(pendulum, "momentum_projector", (collapsed,), DomainError)
            assert_same_failure_of(pendulum, "projection_jacobian_t", (collapsed, fine, lam), DomainError)
            assert_same_failure_of(pendulum, "projection_jacobian_t", (fine, collapsed, lam), DomainError)

    def test_pivoting_branches(self, pendulum):
        x = np.array([1.0, 0.0, 1.0, -1.0])  # first unit segment u = (1, 0)
        lam = np.array([1e-3, -2e-3])
        # the rows of G(position) G(x)^T must swap: the position's first
        # segment is orthogonal to u, its second one is u
        position = np.array([0.0, 1.0, 1.0, 1.0])
        got = pendulum.projection_jacobian_t(x, position, lam)
        want = OscillatorySystem.projection_jacobian_t(pendulum, x, position, lam)
        assert np.max(np.abs(got - want)) <= self.TOL
        # a zero first column: both of the position's segments are
        # orthogonal to u
        position = np.array([0.0, 1.0, 0.0, 2.0])
        assert_same_failure_of(
            pendulum, "projection_jacobian_t", (x, position, lam), smallmat.SingularMatrix
        )

    def test_other_models_run_the_default(self, monkeypatch, pendulum):
        calls = []
        for name in ("momentum_projector", "projection_jacobian_t"):
            default = getattr(OscillatorySystem, name)

            def spy(sys, *args, _name=name, _default=default):
                calls.append((_name, type(sys).__name__))
                return _default(sys, *args)

            monkeypatch.setattr(OscillatorySystem, name, spy)
        chains = [
            make_spring_chain(1, 1e-2, [1.0], [1.0]),
            make_spring_chain(3, 1e-2, [1.0, 1.3, 0.8], [1.0, 0.7, 1.2]),
        ]
        for sys in chains:
            x = sample_states(sys, 1, seed=631, elongation=10.0)[0].x
            momentum_projector(sys, x)
            project_to_manifold(sys, x, want_jacobian=True)
        scaled = Scaled(pendulum, np.diag([1.5, 0.7, 2.0, 1.2]))
        x = scaled.s_inv @ sample_states(pendulum, 1, seed=632, elongation=10.0)[0].x
        momentum_projector(scaled, x)
        project_to_manifold(scaled, x, want_jacobian=True)
        assert calls == [
            (name, model)
            for model in ("StiffSpringChain", "StiffSpringChain", "Scaled")
            for name in ("momentum_projector", "projection_jacobian_t")
        ]
        x = sample_states(pendulum, 1, seed=633, elongation=10.0)[0].x
        momentum_projector(pendulum, x)
        project_to_manifold(pendulum, x, want_jacobian=True)
        assert len(calls) == 6

    def test_inputs_not_modified(self, pendulum):
        for state in sample_states(pendulum, 5, seed=634, elongation=10.0):
            x = state.x.copy()
            pendulum.momentum_projector(state.x)
            pos, lam = pendulum.project_position(state.x)
            kept = (pos.copy(), lam.copy())
            pendulum.projection_jacobian_t(state.x, pos, lam)
            assert np.array_equal(state.x, x)
            assert np.array_equal(pos, kept[0]) and np.array_equal(lam, kept[1])
