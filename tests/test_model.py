import math

import numpy as np
import pytest

from oscint import (
    DomainError,
    benchmark_initial_state,
    hamiltonian,
    make_double_pendulum,
    make_spring_chain,
)
from oscint.integrators import integrate_micro
from oscint.model import (
    OscillatorySystem,
    StiffSpringChain,
    State,
    _spring_block,
    _spring_contract,
)

from conftest import np_hess_chain, np_hess_double_pendulum, sample_states


class DoublePendulumOracle:
    """The two-spring chain written out by hand: bob 1 tied to the
    origin, bob 2 to bob 1, x = (bob1_x, bob1_y, bob2_x, bob2_y).  The
    independent oracle the chain must match bit for bit."""

    def __init__(self, alpha1, alpha2, l1, l2):
        self.alpha1, self.alpha2, self.l1, self.l2 = alpha1, alpha2, l1, l2

    def _lengths(self, x):
        r1 = math.hypot(x[0], x[1])
        d0 = x[2] - x[0]
        d1 = x[3] - x[1]
        return r1, d0, d1, math.hypot(d0, d1)

    def slow_potential(self, x):
        return x[1] + x[3]

    def grad_slow(self, x):
        return np.array([0.0, 1.0, 0.0, 1.0])

    def stiff_potential(self, x):
        r1, _, _, r2 = self._lengths(x)
        return 0.5 * (self.alpha1 * (r1 - self.l1)) ** 2 + 0.5 * (
            self.alpha2 * (r2 - self.l2)
        ) ** 2

    def grad_stiff(self, x):
        r1, d0, d1, r2 = self._lengths(x)
        c1 = self.alpha1 ** 2 * (r1 - self.l1) / r1
        c2 = self.alpha2 ** 2 * (r2 - self.l2) / r2
        return np.array([c1 * x[0] - c2 * d0, c1 * x[1] - c2 * d1, c2 * d0, c2 * d1])

    def hess_stiff(self, x):
        r1, d0, d1, r2 = self._lengths(x)
        p00, p01, p11 = _spring_block(self.alpha1 ** 2, self.l1, x[0], x[1], r1)
        q00, q01, q11 = _spring_block(self.alpha2 ** 2, self.l2, d0, d1, r2)
        return np.array([
            [p00 + q00, p01 + q01, -q00, -q01],
            [p01 + q01, p11 + q11, -q01, -q11],
            [-q00, -q01, q00, q01],
            [-q01, -q11, q01, q11],
        ])

    def hess_stiff_contract(self, x, v):
        r1, d0, d1, r2 = self._lengths(x)
        p0, p1 = _spring_contract(self.alpha1 ** 2, self.l1, x[0], x[1], r1, v[0], v[1])
        q0, q1 = _spring_contract(
            self.alpha2 ** 2, self.l2, d0, d1, r2, v[2] - v[0], v[3] - v[1]
        )
        return np.array([p0 - q0, p1 - q1, q0, q1])

    def constraint(self, x):
        r1, _, _, r2 = self._lengths(x)
        return np.array([r1 - self.l1, r2 - self.l2])

    def constraint_jacobian(self, x):
        r1, d0, d1, r2 = self._lengths(x)
        jac = np.zeros((2, 4))
        jac[0, 0] = x[0] / r1
        jac[0, 1] = x[1] / r1
        jac[1, 0] = -d0 / r2
        jac[1, 1] = -d1 / r2
        jac[1, 2] = d0 / r2
        jac[1, 3] = d1 / r2
        return jac


def independent_energy(x, y, eps, a1=1.0, a2=1.0, l1=1.0, l2=1.0):
    """Energy of the two-spring model written out directly."""
    r1 = math.sqrt(x[0] ** 2 + x[1] ** 2)
    r2 = math.sqrt((x[2] - x[0]) ** 2 + (x[3] - x[1]) ** 2)
    stiff = 0.5 * (a1 / eps) ** 2 * (r1 - l1) ** 2 + 0.5 * (a2 / eps) ** 2 * (r2 - l2) ** 2
    return 0.5 * float(np.dot(y, y)) + (x[1] + x[3]) + stiff


class TestBenchmarkInitialState:
    def test_elongations(self, pendulum, bench_state):
        g = pendulum.constraint(bench_state.x)
        assert abs(g[0]) <= 1e-15
        # |x2 - x1|^2 = 1 + 2*(5/sqrt 2)*eps + 25 eps^2
        eps = pendulum.epsilon
        exact = math.sqrt(1.0 + 10.0 * eps / math.sqrt(2.0) + 25.0 * eps ** 2) - 1.0
        assert abs(g[1] - exact) <= 1e-15
        assert abs(g[1] - 5.0 * eps / math.sqrt(2.0)) <= 30.0 * eps ** 2

    def test_stiff_potential_leading_order(self):
        # stiff energy approaches 6.25 as eps -> 0
        for eps in (1e-2, 1e-3, 1e-4):
            sys = make_double_pendulum(eps)
            s = benchmark_initial_state(eps)
            stiff = sys.stiff_potential(s.x) / eps ** 2
            assert abs(stiff - 6.25) <= 25.0 * eps

    def test_jacobian_row_norms(self, pendulum, bench_state):
        jac = pendulum.constraint_jacobian(bench_state.x)
        assert abs(np.linalg.norm(jac[0]) - 1.0) <= 1e-14
        assert abs(np.linalg.norm(jac[1]) - math.sqrt(2.0)) <= 1e-14


class TestHamiltonian:
    def test_on_manifold_rest(self, pendulum):
        s = math.sqrt(0.5)
        x = np.array([s, -s, math.sqrt(2.0), 0.0])
        state = State(x, np.zeros(4))
        assert hamiltonian(pendulum, state) == pytest.approx(
            pendulum.slow_potential(x), abs=1e-15
        )

    def test_benchmark_value_against_direct_formula(self, pendulum, bench_state):
        expected = independent_energy(bench_state.x, bench_state.y, pendulum.epsilon)
        got = hamiltonian(pendulum, bench_state)
        assert got == pytest.approx(expected, rel=1e-14)
        # slow part and leading stiff part as sanity anchors
        assert pendulum.slow_potential(bench_state.x) == pytest.approx(-0.65711, abs=5e-6)
        assert got == pytest.approx(5.80808, abs=1e-5)

    def test_kinetic_scaling(self, pendulum, bench_state):
        s1 = State(bench_state.x, np.ones(4))
        s2 = State(bench_state.x, 2.0 * np.ones(4))
        v = hamiltonian(pendulum, State(bench_state.x, np.zeros(4)))
        assert hamiltonian(pendulum, s2) - v == pytest.approx(
            4.0 * (hamiltonian(pendulum, s1) - v), rel=1e-12
        )


class TestRhsFull:
    def test_gradients_match_finite_differences(self, pendulum):
        fd = 1e-6
        for state in sample_states(pendulum, 20, seed=29):
            x = state.x
            grad_slow = pendulum.grad_slow(x)
            grad_stiff = pendulum.grad_stiff(x)
            for j in range(4):
                e = np.zeros(4)
                e[j] = fd
                dslow = (pendulum.slow_potential(x + e) - pendulum.slow_potential(x - e)) / (2 * fd)
                dstiff = (pendulum.stiff_potential(x + e) - pendulum.stiff_potential(x - e)) / (2 * fd)
                assert abs(dslow - grad_slow[j]) <= 1e-6
                assert abs(dstiff - grad_stiff[j]) <= 1e-6

    def test_hessian_matches_finite_differences(self, pendulum):
        fd = 1e-6
        for state in sample_states(pendulum, 10, seed=31):
            x = state.x
            hess = pendulum.hess_stiff(x)
            for j in range(4):
                e = np.zeros(4)
                e[j] = fd
                col = (pendulum.grad_stiff(x + e) - pendulum.grad_stiff(x - e)) / (2 * fd)
                assert np.max(np.abs(col - hess[:, j])) <= 1e-5

    def test_on_manifold_force_is_slow_only(self, pendulum):
        s = math.sqrt(0.5)
        x = np.array([s, -s, math.sqrt(2.0), 0.0])
        assert np.allclose(pendulum.grad_stiff(x), 0.0, atol=1e-12)


class TestSpringChain:
    def test_single_spring_pendulum(self):
        chain = make_spring_chain(1, 1e-2, [2.0], [1.5])
        x = np.array([1.5 * math.sin(0.3), -1.5 * math.cos(0.3)])
        assert chain.stiff_potential(x) == pytest.approx(0.0, abs=1e-28)
        assert np.allclose(chain.constraint(x), [0.0], atol=1e-15)
        assert chain.slow_potential(x) == x[1]

    def test_matches_double_pendulum_bitwise(self):
        rng = np.random.default_rng(36)
        for params in ((1.0, 1.0, 1.0, 1.0), (1.7, 0.6, 1.2, 0.8)):
            chain = make_double_pendulum(1e-2, *params)
            assert isinstance(chain, StiffSpringChain)
            oracle = DoublePendulumOracle(*params)
            for state in sample_states(chain, 50, seed=37):
                x = state.x
                v = rng.standard_normal(4)
                assert np.array_equal(
                    chain.hess_stiff_contract(x, v), oracle.hess_stiff_contract(x, v)
                )
                assert chain.slow_potential(x) == oracle.slow_potential(x)
                assert chain.stiff_potential(x) == oracle.stiff_potential(x)
                assert np.array_equal(chain.grad_stiff(x), oracle.grad_stiff(x))
                assert np.array_equal(chain.hess_stiff(x), oracle.hess_stiff(x))
                assert np.array_equal(chain.grad_slow(x), oracle.grad_slow(x))
                assert np.array_equal(chain.constraint(x), oracle.constraint(x))
                assert np.array_equal(
                    chain.constraint_jacobian(x), oracle.constraint_jacobian(x)
                )

    def test_chain_hessian_matches_double_pendulum(self, pendulum):
        chain = make_spring_chain(2, 1e-2, [1.0, 1.0], [1.0, 1.0])
        oracle = DoublePendulumOracle(1.0, 1.0, 1.0, 1.0)
        for state in sample_states(pendulum, 10, seed=38):
            assert np.allclose(chain.hess_stiff(state.x), oracle.hess_stiff(state.x), atol=1e-14)

    def test_float_hessians_match_outer_product_formula_bitwise(self):
        rng = np.random.default_rng(39)
        for params in ((1.0, 1.0, 1.0, 1.0), (1.7, 0.6, 1.2, 0.8)):
            pendulum = make_double_pendulum(1e-2, *params)
            states = sample_states(pendulum, 30, seed=40)
            for x in [st.x for st in states] + list(rng.standard_normal((30, 4))):
                assert np.array_equal(pendulum.hess_stiff(x), np_hess_double_pendulum(pendulum, x))
        for n_springs in range(1, 9):
            chain = make_spring_chain(
                n_springs, 1e-2, rng.uniform(0.5, 2.0, n_springs), rng.uniform(0.5, 2.0, n_springs)
            )
            states = sample_states(chain, 10, seed=40 + n_springs)
            for x in [st.x for st in states] + list(rng.standard_normal((10, chain.n))):
                assert np.array_equal(chain.hess_stiff(x), np_hess_chain(chain, x))

    def test_stiff_eig_bound_covers_spectrum(self):
        # the chain's constant bound and the base-class row-sum default,
        # on random positions and on chains with every spring compressed
        # or stretched; 1e-12 relative covers the rounding of eigvalsh
        # where the chain bound is attained (one spring)
        rng = np.random.default_rng(44)
        for n_springs in range(1, 9):
            alphas = rng.uniform(0.5, 2.0, n_springs)
            lengths = rng.uniform(0.5, 2.0, n_springs)
            chain = make_spring_chain(n_springs, 1e-2, alphas, lengths)
            assert chain.stiff_eig_bound(None) == alphas[0] ** 2 + 2.0 * np.sum(alphas[1:] ** 2)
            positions = list(rng.standard_normal((10, chain.n)))
            for lo, hi in ((0.05, 1.0), (1.0, 4.0)):
                for _ in range(10):
                    angles = rng.uniform(-math.pi, math.pi, n_springs)
                    r = lengths * rng.uniform(lo, hi, n_springs)
                    steps = np.stack([r * np.sin(angles), -r * np.cos(angles)], axis=1)
                    positions.append(np.cumsum(steps, axis=0).ravel())
            for x in positions:
                lam_max = float(np.linalg.eigvalsh(chain.hess_stiff(x))[-1])
                for bound in (chain.stiff_eig_bound(x), OscillatorySystem.stiff_eig_bound(chain, x)):
                    assert bound >= lam_max * (1.0 - 1e-12)
                if n_springs == 1:
                    assert chain.stiff_eig_bound(x) == pytest.approx(lam_max, rel=1e-12)

    def test_rest_chain_is_manifold_point(self):
        chain = make_spring_chain(3, 1e-2, [1.0, 2.0, 3.0], [1.0, 0.5, 0.25])
        x = np.array([0.0, -1.0, 0.0, -1.5, 0.0, -1.75])
        assert chain.stiff_potential(x) == 0.0
        assert np.max(np.abs(chain.grad_stiff(x))) == 0.0
        assert np.max(np.abs(chain.constraint(x))) == 0.0

    def test_collapsed_spring_raises(self):
        chain = make_spring_chain(2, 1e-2, [1.0, 1.0], [1.0, 1.0])
        x = np.array([1.0, 0.0, 1.0, 1e-12])
        with pytest.raises(DomainError):
            chain.constraint(x)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_spring_chain(2, 1e-2, [1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            make_spring_chain(1, 1e-2, [-1.0], [1.0])
        with pytest.raises(ValueError):
            make_double_pendulum(2.0)

    @pytest.mark.parametrize(
        "params, field",
        [
            (dict(alpha1=math.nan), "alphas"),
            (dict(alpha2=math.inf), "alphas"),
            (dict(l1=-math.inf), "lengths"),
            (dict(l2=math.inf), "lengths"),
        ],
        ids=["nan-alpha1", "inf-alpha2", "minus-inf-l1", "inf-l2"],
    )
    def test_non_finite_parameters_rejected(self, params, field):
        with pytest.raises(ValueError, match=f"spring {field} must be positive and finite"):
            make_double_pendulum(1e-2, **params)

    @pytest.mark.parametrize("n_springs", [1, 2, 3])
    def test_constant_vectors_are_read_only(self, n_springs):
        # built once per chain; the values of the per-call arrays they
        # replace, and a write into either fails instead of changing the
        # chain
        chain = make_spring_chain(n_springs, 2e-2, [1.0, 1.3, 0.8][:n_springs], [1.0, 0.7, 1.2][:n_springs])
        x = sample_states(chain, 1, seed=39)[0].x
        gravity = np.zeros(chain.n)
        gravity[1::2] = 1.0
        for got, want in ((chain.grad_slow(x), gravity), (chain.stiff_weights(), chain.alphas ** 2)):
            assert np.array_equal(got, want) and got.dtype == want.dtype
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 5.0
        assert chain.grad_slow(x) is chain.grad_slow(2.0 * x)
        assert chain.stiff_weights() is chain.stiff_weights()

    @pytest.mark.parametrize("n_springs", [2, 3])
    @pytest.mark.parametrize("name", [
        "constraint", "constraint_jacobian", "constraint_hessian", "grad_stiff",
        "hess_stiff_contract", "project_momentum", "projection_vjp",
        "manifold_frequencies", "mode_actions", "stiff_flow",
    ])
    def test_list_inputs(self, name, n_springs):
        # the float kernels of two springs and the chain's generic paths
        # take any array-like, as the contract's defaults do
        chain = make_spring_chain(n_springs, 2e-2, [1.0, 1.3, 0.8][:n_springs], [1.0, 0.7, 1.2][:n_springs])
        state = sample_states(chain, 1, seed=38, elongation=10.0)[0]
        x, y = state.x, state.y + 0.3
        position, lam = chain.project_position(x)
        weights = chain.stiff_weights()
        args = {
            "constraint": (x,),
            "constraint_jacobian": (x,),
            "constraint_hessian": (x, lam),
            "grad_stiff": (x,),
            "hess_stiff_contract": (x, y),
            "project_momentum": (x, y),
            "projection_vjp": (x, position, lam, y),
            "manifold_frequencies": (position, weights),
            "mode_actions": (x, y, position, weights),
            "stiff_flow": (x, y, 2e-4, 5),
        }[name]
        method = getattr(chain, name)
        got = method(*[a.tolist() if isinstance(a, np.ndarray) else a for a in args])
        want = method(*args)
        for g, w in zip(got, want) if isinstance(want, tuple) else [(got, want)]:
            assert np.array_equal(g, w)


class TestManifoldEquivalence:
    def test_zero_stiff_gradient_iff_zero_constraint(self, pendulum):
        chain = make_spring_chain(2, 1e-2, [1.0, 1.0], [1.0, 1.0])
        for sys in (pendulum, chain):
            for state in sample_states(sys, 10, seed=41, elongation=0.0):
                # on the manifold both vanish to machine precision
                assert np.max(np.abs(sys.constraint(state.x))) <= 1e-14
                assert np.max(np.abs(sys.grad_stiff(state.x))) <= 1e-14
            for state in sample_states(sys, 10, seed=42, elongation=1.0):
                g = np.max(np.abs(sys.constraint(state.x)))
                dv = np.max(np.abs(sys.grad_stiff(state.x)))
                # off the manifold the gradient is comparable to the
                # elongation (full-rank constraint Jacobian)
                assert dv >= 0.1 * g

    def test_pendulum_collapsed_spring_raises(self, pendulum):
        with pytest.raises(DomainError):
            pendulum.constraint(np.array([1e-12, 0.0, 1.0, 0.0]))


class TestExactFlowConservation:
    def test_energy_along_fine_integration(self):
        # h_micro = eps/1000 over [0, 1]
        eps = 1e-2
        sys = make_double_pendulum(eps)
        s0 = benchmark_initial_state(eps)
        h_micro = eps / 1000
        nsteps = int(round(1.0 / h_micro))
        traj = integrate_micro(sys, s0, h_micro, nsteps, sample_stride=nsteps // 100)
        energies = [hamiltonian(sys, State(x, y)) for x, y in zip(traj.x, traj.y)]
        drift = max(abs(e - energies[0]) for e in energies)
        e0 = energies[0]
        assert drift / abs(e0) <= 1e-4
