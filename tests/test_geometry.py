import math

import numpy as np
import pytest

from oscint import (
    consistent_state,
    make_double_pendulum,
    make_spring_chain,
    momentum_projector,
    project_to_manifold,
)
from oscint.model import StiffSpringChain
from oscint.smallmat import NoConvergence

from conftest import sample_states


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
