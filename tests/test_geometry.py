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
from oscint.geometry import project_momentum, projection_vjp
from oscint import smallmat
from oscint.model import DomainError, OscillatorySystem
from oscint.smallmat import NoConvergence, NotPositiveDefinite

from conftest import sample_states
from test_mass_metric import Scaled, orthogonal


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


def assert_same_failure(sys, x, cls):
    got = outcome(lambda: sys.project_position(x))
    want = outcome(lambda: OscillatorySystem.project_position(sys, x))
    assert type(got) is type(want) is cls
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
            assert_same_failure(pendulum, x, NotPositiveDefinite)
            with pytest.raises(RankDeficient):
                project_to_manifold(pendulum, x)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_entry_rank_deficient(self, pendulum, bad):
        for k in range(4):
            x = np.array([0.7, -0.7, 1.4, 0.05])
            x[k] = bad
            assert_same_failure(pendulum, x, NotPositiveDefinite)

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

        def spy(sys, x, base=None):
            calls.append(type(sys).__name__)
            return default(sys, x, base)

        monkeypatch.setattr(OscillatorySystem, "project_position", spy)
        chains = [
            make_spring_chain(1, 1e-2, [1.0], [1.0]),
            make_spring_chain(3, 1e-2, [1.0, 1.3, 0.8], [1.0, 0.7, 1.2]),
        ]
        for sys in chains:
            state = sample_states(sys, 1, seed=621)[0]
            project_to_manifold(sys, state.x)
        scaled = Scaled(pendulum, orthogonal(4, seed=620))
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


def matrix_oracles(sys, x, position, lam):
    """P(x) and J(x)^T as n x n matrices from their closed forms, with
    numpy's own solver: P = I - G^T (G G^T)^-1 G and
    J = B - G(x)^T S~^-1 G(position) B, B = I + constraint_hessian(x, lam),
    S~ = G(position) G(x)^T."""
    g = sys.constraint_jacobian(x)
    g_pos = sys.constraint_jacobian(position)
    b = np.eye(sys.n) + sys.constraint_hessian(x, lam)
    p = np.eye(sys.n) - g.T @ np.linalg.solve(g @ g.T, g)
    return p, (b - g.T @ np.linalg.solve(g_pos @ g.T, g_pos @ b)).T


class TestProjectorAndJacobianKernels:
    """The two-spring chain's float project_momentum and projection_vjp
    against the generic numpy defaults, which are their oracles, and
    against the matrices applied to the vector: the assembled ones of
    geometry and the closed forms of matrix_oracles."""

    # relative to the largest entry of the product, or to 1
    TOL = 1e-14

    @classmethod
    def assert_close(cls, got, want):
        assert np.max(np.abs(got - want)) <= cls.TOL * max(1.0, float(np.max(np.abs(want))))

    def test_double_pendulum_has_the_overrides(self, pendulum):
        for name in ("project_momentum", "projection_vjp"):
            assert getattr(type(pendulum), name) is not getattr(OscillatorySystem, name)

    @pytest.mark.parametrize("eps", [2e-2, 1e-2, 1e-3])
    @pytest.mark.parametrize("elongation", [1.0, 10.0, 30.0])
    def test_matches_generic_path(self, eps, elongation):
        # 160 states per case: 640 at eps in {1e-3, 2e-2} and elongation
        # in {1, 10}
        sys = make_double_pendulum(eps)
        rng = np.random.default_rng(635)
        for state in sample_states(sys, 160, seed=630, elongation=elongation):
            x = state.x
            v = rng.standard_normal(4)
            want = OscillatorySystem.project_momentum(sys, x, v)
            self.assert_close(sys.project_momentum(x, v), want)
            self.assert_close(momentum_projector(sys, x) @ v, want)
            projection = outcome(lambda: project_to_manifold(sys, x, want_jacobian=True))
            if isinstance(projection, Exception):
                continue  # a stalled projection: TestProjectionKernel's case
            pos, lam = projection.position, projection.lam
            p, jac_t = matrix_oracles(sys, x, pos, lam)
            self.assert_close(p @ v, want)
            want = OscillatorySystem.projection_vjp(sys, x, pos, lam, v)
            self.assert_close(sys.projection_vjp(x, pos, lam, v), want)
            self.assert_close(projection.jacobian_t @ v, want)
            self.assert_close(jac_t @ v, want)

    def test_nan_entries(self, pendulum):
        x0 = np.array([0.7, -0.7, 1.4, 0.05])
        v0 = np.array([0.3, -1.2, 0.5, 2.0])
        pos, lam = pendulum.project_position(x0)
        for k in range(4):
            x = x0.copy()
            x[k] = math.nan
            v = v0.copy()
            v[k] = math.nan
            assert_same_failure_of(pendulum, "project_momentum", (x, v0), NotPositiveDefinite)
            for call in (
                lambda: project_momentum(pendulum, x, v0),
                lambda: momentum_projector(pendulum, x),
                lambda: project_to_manifold(pendulum, x, want_jacobian=True),
            ):
                with pytest.raises(RankDeficient):
                    call()
            # a nan in v, and anywhere in the Jacobian's product, raises
            # nothing: nan spreads as in numpy
            assert_same_outcome(
                lambda: pendulum.project_momentum(x0, v),
                lambda: OscillatorySystem.project_momentum(pendulum, x0, v),
                self.TOL,
            )
            for args in ((x, pos, lam, v0), (x0, x, lam, v0), (x0, pos, x[1::2], v0), (x0, pos, lam, v)):
                assert_same_outcome(
                    lambda: pendulum.projection_vjp(*args),
                    lambda: OscillatorySystem.projection_vjp(pendulum, *args),
                    self.TOL,
                )

    def test_collapsed_spring(self, pendulum):
        fine = np.array([0.7, -0.7, 1.4, 0.05])
        lam = np.array([1e-3, -2e-3])
        v = np.array([0.3, -1.2, 0.5, 2.0])
        for collapsed in (np.array([0.0, 1e-9, 0.7, -0.7]), np.array([0.7, -0.7, 0.7, -0.7])):
            assert_same_failure_of(pendulum, "project_momentum", (collapsed, v), DomainError)
            assert_same_failure_of(pendulum, "projection_vjp", (collapsed, fine, lam, v), DomainError)
            assert_same_failure_of(pendulum, "projection_vjp", (fine, collapsed, lam, v), DomainError)

    @staticmethod
    def gram_t(sys, x, position):
        """S~^T = G(x) G(position)^T, the matrix of the vjp's solve."""
        return sys.constraint_jacobian(x) @ sys.constraint_jacobian(position).T

    def test_pivoting_branches(self, pendulum):
        x = np.array([1.0, 0.0, 1.0, -1.0])  # unit segments u = (1, 0), w = (0, -1)
        lam = np.array([1e-3, -2e-3])
        v = np.array([0.3, -1.2, 0.5, 2.0])
        # no row swap: the position near x; a swap: the position's
        # first segment is -w, so the first column of S~^T is (0, 1)
        cases = ((np.array([0.9, 0.1, 1.1, -0.8]), False), (np.array([0.0, 1.0, 1.0, 1.0]), True))
        for position, swap in cases:
            s = self.gram_t(pendulum, x, position)
            assert bool(abs(s[1, 0]) > abs(s[0, 0])) is swap
            got = pendulum.projection_vjp(x, position, lam, v)
            want = OscillatorySystem.projection_vjp(pendulum, x, position, lam, v)
            self.assert_close(got, want)
        # a singular S~^T: both of the position's segments are w, so the
        # first row (u . w, -(u . w)) vanishes
        position = np.array([0.0, -1.0, 0.0, -2.0])
        assert not self.gram_t(pendulum, x, position)[0].any()
        assert_same_failure_of(
            pendulum, "projection_vjp", (x, position, lam, v), smallmat.SingularMatrix
        )

    def test_other_models_run_the_default(self, monkeypatch, pendulum):
        calls = []
        for name in ("project_momentum", "projection_vjp"):
            default = getattr(OscillatorySystem, name)

            def spy(sys, *args, _name=name, _default=default):
                calls.append((_name, type(sys).__name__))
                return _default(sys, *args)

            monkeypatch.setattr(OscillatorySystem, name, spy)

        def apply_both(sys, x):
            v = np.arange(1.0, sys.n + 1.0)
            project_momentum(sys, x, v)
            projection = project_to_manifold(sys, x)
            assert projection.lam.any()  # lam = 0 would take project_momentum
            projection_vjp(sys, x, projection, v)

        chains = [
            make_spring_chain(1, 1e-2, [1.0], [1.0]),
            make_spring_chain(3, 1e-2, [1.0, 1.3, 0.8], [1.0, 0.7, 1.2]),
        ]
        for sys in chains:
            apply_both(sys, sample_states(sys, 1, seed=631, elongation=10.0)[0].x)
        scaled = Scaled(pendulum, orthogonal(4, seed=630))
        apply_both(scaled, scaled.s_inv @ sample_states(pendulum, 1, seed=632, elongation=10.0)[0].x)
        assert calls == [
            (name, model)
            for model in ("StiffSpringChain", "StiffSpringChain", "Scaled")
            for name in ("project_momentum", "projection_vjp")
        ]
        apply_both(pendulum, sample_states(pendulum, 1, seed=633, elongation=10.0)[0].x)
        assert len(calls) == 6

    def test_inputs_not_modified(self, pendulum):
        rng = np.random.default_rng(636)
        for state in sample_states(pendulum, 5, seed=634, elongation=10.0):
            v = rng.standard_normal(4)
            x, kept_v = state.x.copy(), v.copy()
            pendulum.project_momentum(state.x, v)
            pos, lam = pendulum.project_position(state.x)
            kept = (pos.copy(), lam.copy())
            pendulum.projection_vjp(state.x, pos, lam, v)
            assert np.array_equal(state.x, x) and np.array_equal(v, kept_v)
            assert np.array_equal(pos, kept[0]) and np.array_equal(lam, kept[1])
