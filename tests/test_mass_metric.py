"""The contract defaults, checked by a change of coordinates.

Scaled(base, S) describes the same mechanics as `base` in coordinates x
with q = S x for a constant orthogonal S: its mass matrix S^T S is the
identity, its momenta are y = S^T p, and every evaluator is the base one
pulled back through S.  Every method must therefore reproduce the base
system's results, mapped back, up to rounding.  Scaled declares the
base's stiff weights and, of the contract's generic defaults, overrides
only hess_stiff_contract and constraint_hessian, so on a two-spring base
it checks the others against the chain's float kernels.  (A constant
SPD mass matrix M = S^T S with any invertible S is the same change of
coordinates; the contract fixes the mass to the identity and leaves that
to the model.)
"""

import numpy as np
import pytest

from oscint import (
    compute_actions,
    effective_reference,
    frequencies,
    grad_frequencies,
    hamiltonian,
    integrate,
    integrate_micro,
    make_observer,
    make_spring_chain,
    manifold_frequencies,
    momentum_projector,
    project_to_manifold,
)
from oscint.effective import constraint_residuals, effective_energy
from oscint.harness import random_bounded_energy_states
from oscint.integrators import MacroMethod
from oscint.model import OscillatorySystem, State

RTOL = 1e-11
# jacobian_t is exact (constraint_hessian): within 4.8e-15 here, where
# the central differences it replaced were off by 4.0e-12
JAC_RTOL = 1e-13


class Scaled(OscillatorySystem):
    def __init__(self, base, s):
        self.base = base
        self.s = np.asarray(s, dtype=float)
        self.s_inv = self.s.T
        self.n = base.n
        self.m = base.m
        self.epsilon = base.epsilon

    def q(self, x):
        return self.s @ np.asarray(x, dtype=float)

    def slow_potential(self, x):
        return self.base.slow_potential(self.q(x))

    def grad_slow(self, x):
        return self.s.T @ self.base.grad_slow(self.q(x))

    def stiff_potential(self, x):
        return self.base.stiff_potential(self.q(x))

    def grad_stiff(self, x):
        return self.s.T @ self.base.grad_stiff(self.q(x))

    def hess_stiff(self, x):
        return self.s.T @ self.base.hess_stiff(self.q(x)) @ self.s

    def hess_stiff_contract(self, x, v):
        return self.s.T @ self.base.hess_stiff_contract(self.q(x), self.s @ v)

    def constraint(self, x):
        return self.base.constraint(self.q(x))

    def constraint_jacobian(self, x):
        return self.base.constraint_jacobian(self.q(x)) @ self.s

    def constraint_hessian(self, x, w):
        return self.s.T @ self.base.constraint_hessian(self.q(x), w) @ self.s

    def stiff_weights(self):
        # the stiff potential is 1/2 sum_k K_k c_k(S x)^2: the base's K
        return self.base.stiff_weights()

    def to_scaled(self, q, p):
        """(x, y) of a base state (q, p)."""
        return self.s_inv @ q, self.s.T @ p


def assert_close(got, want, rtol=RTOL):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= rtol * scale


def orthogonal(n, seed):
    """A seeded orthogonal n x n matrix: the Q factor of a Gaussian one."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q


def cases():
    base = make_spring_chain(3, 1e-2, [1.0, 1.3, 0.8], [1.0, 0.7, 1.2])
    diagonal = np.diag([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])  # a reflection
    full = orthogonal(6, seed=61)
    state = random_bounded_energy_states(base, 1, seed=62)[0]
    return [(base, Scaled(base, s), state) for s in (diagonal, full)]


def two_spring_cases():
    """As cases(), on a two-spring base with unequal stiff weights: the
    base takes the chain's two-spring float kernels, Scaled the generic
    defaults of the contract."""
    base = make_spring_chain(2, 1e-2, [1.0, 1.6], [1.0, 0.8])
    diagonal = np.diag([-1.0, 1.0, 1.0, -1.0])  # a reflection
    full = orthogonal(4, seed=63)
    state = random_bounded_energy_states(base, 1, seed=64)[0]
    return [(base, Scaled(base, s), state) for s in (diagonal, full)]


def assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.t == b.t
        assert_close(a.energy, b.energy)
        assert_close(a.actions, b.actions)
        assert_close(a.constraint_residual, b.constraint_residual)


@pytest.mark.parametrize("which", ["diagonal", "full"])
class TestScaledMass:
    """Every method on Scaled against the base chain, mapped through S."""

    @staticmethod
    def case(which):
        return cases()[["diagonal", "full"].index(which)]

    def test_energy_frequencies_actions(self, which):
        base, sc, st = self.case(which)
        x, y = sc.to_scaled(st.x, st.y)
        assert_close(hamiltonian(sc, State(x, y)), hamiltonian(base, st))
        assert_close(compute_actions(sc, x, y), compute_actions(base, st.x, st.y))
        q_pos = project_to_manifold(base, st.x).position
        x_pos = sc.s_inv @ q_pos
        fb = frequencies(base, q_pos)
        fs = frequencies(sc, x_pos)
        assert_close(fs.omegas, fb.omegas)
        # mode vectors map as v_x = S^-1 v_q, up to sign
        for k in range(base.m):
            vx = sc.s_inv @ fb.vectors[:, k]
            sign = 1.0 if float(vx @ fs.vectors[:, k]) > 0.0 else -1.0
            assert_close(fs.vectors[:, k], sign * vx)
        assert_close(grad_frequencies(sc, x_pos), grad_frequencies(base, q_pos) @ sc.s)

    def test_projections(self, which):
        base, sc, st = self.case(which)
        x, _ = sc.to_scaled(st.x, st.y)
        pb = project_to_manifold(base, st.x, want_jacobian=True)
        ps = project_to_manifold(sc, x, want_jacobian=True)
        assert_close(ps.position, sc.s_inv @ pb.position)
        assert_close(ps.lam, pb.lam)
        # d pos_x / dx = S^-1 (d pos_q / dq) S
        assert_close(ps.jacobian_t, sc.s.T @ pb.jacobian_t @ sc.s_inv.T, JAC_RTOL)
        tb = momentum_projector(base, st.x)
        ts = momentum_projector(sc, x)
        assert_close(ts, sc.s.T @ tb @ sc.s_inv.T)

    @pytest.mark.parametrize("kind", ["impulse", "mollified", "projected"])
    def test_integrate(self, which, kind):
        base, sc, st = self.case(which)
        x, y = sc.to_scaled(st.x, st.y)
        method = MacroMethod(kind, 0.05)
        tb = integrate(base, st, method, 0.2, observer=make_observer(base))
        ts = integrate(sc, State(x, y), method, 0.2, observer=make_observer(sc))
        assert np.array_equal(ts.t, tb.t)
        assert_close(ts.x, tb.x @ sc.s_inv.T)
        assert_close(ts.y, tb.y @ sc.s)
        assert_same_records(ts.records, tb.records)

    def test_integrate_micro_with_slow_force(self, which):
        base, sc, st = self.case(which)
        x, y = sc.to_scaled(st.x, st.y)
        h_micro = base.epsilon / 100
        tb = integrate_micro(base, st, h_micro, 120, 40, observer=make_observer(base))
        ts = integrate_micro(sc, State(x, y), h_micro, 120, 40, observer=make_observer(sc))
        assert np.array_equal(ts.t, tb.t)
        assert_close(ts.x, tb.x @ sc.s_inv.T)
        assert_close(ts.y, tb.y @ sc.s)
        assert_same_records(ts.records, tb.records)

    def test_effective_reference(self, which):
        base, sc, st = self.case(which)
        x, y = sc.to_scaled(st.x, st.y)
        tb = effective_reference(base, st.x, st.y, 1e-2, 0.2, stride=5)
        ts = effective_reference(sc, x, y, 1e-2, 0.2, stride=5)
        assert np.array_equal(ts.t, tb.t)
        assert_close(ts.x, tb.x @ sc.s_inv.T)
        assert_close(ts.y, tb.y @ sc.s)
        # the reference's health on its samples: effective energy at the
        # frozen actions and the larger constraint residual
        actions_b = compute_actions(base, st.x, st.y)
        actions_s = compute_actions(sc, x, y)
        assert_close(actions_s, actions_b)
        for t, xb, yb, xs, ys in zip(tb.t, tb.x, tb.y, ts.x, ts.y):
            sb, ss = State(xb, yb, t), State(xs, ys, t)
            assert_close(effective_energy(sc, ss, actions_s), effective_energy(base, sb, actions_b))
            assert_close(max(constraint_residuals(sc, ss)), max(constraint_residuals(base, sb)))

    def test_manifold_frequencies_match_pencil(self, which):
        base, sc, st = self.case(which)
        x_pos = sc.s_inv @ project_to_manifold(base, st.x).position
        reduced = manifold_frequencies(sc, x_pos)
        full = frequencies(sc, x_pos)
        assert_close(reduced.omegas, full.omegas)
        assert_close(reduced.vectors.T @ reduced.vectors, np.eye(base.m))
        assert_close(reduced.vectors @ reduced.vectors.T, full.vectors @ full.vectors.T)


class TestWeightedScaledMass(TestScaledMass):
    """Every TestScaledMass check on the two-spring base with unequal
    weights, where the base's float kernels meet the generic defaults."""

    @staticmethod
    def case(which):
        return two_spring_cases()[["diagonal", "full"].index(which)]
