import math

import numpy as np
import pytest

from oscint import smallmat
from oscint.smallmat import (
    NoConvergence,
    NotPositiveDefinite,
    SingularMatrix,
    cholesky,
    gen_eig,
    newton_solve,
    solve_dense,
    solve_lower,
    solve_lower_t,
    solve_spd,
    sym_eig,
)

from conftest import (
    np_cholesky,
    np_solve_dense,
    np_solve_lower,
    np_solve_lower_t,
    random_spd,
)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_factorization(self):
        # [[4,2],[2,3]]: L = [[2,0],[1,sqrt(2)]], checked by L L^T
        lower = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        assert np.allclose(lower, expected, atol=1e-15)

    def test_indefinite_rejected(self):
        # eigenvalues of [[1,2],[2,1]] are 3 and -1
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_reconstruction_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 17))
            a = random_spd(rng, n)
            lower = cholesky(a)
            err = np.max(np.abs(lower @ lower.T - a)) / np.max(np.abs(a))
            assert err <= 1e-12


class TestSolveSpd:
    def test_identity(self):
        assert np.allclose(solve_spd(np.eye(2), [1.0, 2.0]), [1.0, 2.0])

    def test_diagonal(self):
        x = solve_spd(np.diag([2.0, 4.0]), [2.0, 4.0])
        assert np.allclose(x, [1.0, 1.0])

    def test_residual_random(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 5)
        b = rng.standard_normal(5)
        x = solve_spd(a, b)
        norm_a = np.max(np.abs(a))
        resid = np.max(np.abs(a @ x - b))
        assert resid <= 1e-10 * (norm_a * np.max(np.abs(x)) + np.max(np.abs(b)))

    def test_propagates_not_spd(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), [1.0, 1.0])


class TestSymEig:
    def test_diagonal_sorted(self):
        pairs = sym_eig(np.diag([2.0, 1.0]))
        assert np.allclose(pairs.values, [1.0, 2.0], atol=1e-15)

    def test_offdiagonal_pair(self):
        # characteristic polynomial of [[0,1],[1,0]] is l^2 - 1
        pairs = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(pairs.values, [-1.0, 1.0], atol=1e-14)
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(np.abs(pairs.vectors), [[s, s], [s, s]], atol=1e-12)

    def test_identity(self):
        pairs = sym_eig(np.eye(4))
        assert np.allclose(pairs.values, np.ones(4))

    def test_2x2_closed_form_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = smallmat.symmetrize(rng.standard_normal((2, 2)))
            half_tr = 0.5 * (m[0, 0] + m[1, 1])
            rad = math.sqrt((0.5 * (m[0, 0] - m[1, 1])) ** 2 + m[0, 1] ** 2)
            exact = np.array([half_tr - rad, half_tr + rad])
            assert np.max(np.abs(sym_eig(m).values - exact)) <= 1e-12

    def test_residual_and_orthogonality(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 17))
            a = smallmat.symmetrize(rng.standard_normal((n, n)))
            vals, vecs = sym_eig(a)
            norm_a = np.max(np.abs(a))
            assert np.max(np.abs(a @ vecs - vecs * vals)) <= 1e-9 * max(norm_a, 1e-30)
            assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-10

    def test_malformed_input_raises(self):
        with pytest.raises(NoConvergence):
            sym_eig(np.array([[np.nan, 1.0], [1.0, 0.0]]))


class TestGenEig:
    def test_identity_metric_matches_sym_eig(self):
        rng = np.random.default_rng(5)
        a = smallmat.symmetrize(rng.standard_normal((4, 4)))
        plain = sym_eig(a)
        gen = gen_eig(a, np.eye(4))
        assert np.allclose(gen.values, plain.values, atol=1e-12)

    def test_diagonal_pencil(self):
        pairs = gen_eig(np.diag([2.0, 8.0]), np.diag([1.0, 2.0]))
        assert np.allclose(pairs.values, [2.0, 4.0], atol=1e-14)

    def test_metric_orthonormality(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a = smallmat.symmetrize(rng.standard_normal((n, n)))
            b = random_spd(rng, n)
            vals, vecs = gen_eig(a, b)
            assert np.max(np.abs(vecs.T @ b @ vecs - np.eye(n))) <= 1e-10
            resid = a @ vecs - b @ vecs * vals
            assert np.max(np.abs(resid)) <= 1e-9 * max(np.max(np.abs(a)), 1.0)

    def test_indefinite_metric_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            gen_eig(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestNewton:
    def test_square_root_of_two(self):
        root = newton_solve(
            lambda x: x * x - 2.0,
            lambda x: np.array([[2.0 * x[0]]]),
            start=[1.0],
            tol=1e-12,
        )
        assert abs(root[0] - math.sqrt(2.0)) <= 1e-12

    def test_affine_single_iteration(self):
        rng = np.random.default_rng(17)
        a = random_spd(rng, 3)
        b = rng.standard_normal(3)
        calls = []

        def residual(x):
            calls.append(1)
            return a @ x - b

        x = newton_solve(residual, lambda x: a, start=np.zeros(3), tol=1e-10)
        assert np.max(np.abs(a @ x - b)) <= 1e-10
        # initial residual + the single accepted trial
        assert len(calls) == 2

    def test_no_real_root(self):
        with pytest.raises(NoConvergence):
            newton_solve(
                lambda x: x * x + 1.0,
                lambda x: np.array([[2.0 * x[0]]]),
                start=[1.0],
                tol=1e-12,
            )

    def test_max_iter_exhaustion(self):
        # contraction too slow to reach tol in 2 iterations
        with pytest.raises(NoConvergence):
            newton_solve(
                lambda x: x * x - 2.0,
                lambda x: np.array([[2.0 * x[0]]]),
                start=[100.0],
                tol=1e-12,
                max_iter=2,
            )


def right_hand_sides(rng, n):
    """A vector and matrices of one and three columns."""
    return [rng.standard_normal(n), rng.standard_normal((n, 1)), rng.standard_normal((n, 3))]


def outcome(fn, *args):
    """(result, None) or (None, (exception type, message))."""
    try:
        return fn(*args), None
    except (NotPositiveDefinite, SingularMatrix) as exc:
        return None, (type(exc), str(exc))


class TestListKernelsAgainstNumpyOracles:
    """The nested-list kernels against the numpy loops they replaced:
    bitwise up to order 2, where every dot product has at most one term,
    and to 1e-13 relative up to order 8, where numpy's dot may sum in
    another order."""

    @staticmethod
    def pairs(a, b, g):
        lower = np_cholesky(a)
        return [
            (cholesky(a), np_cholesky(a)),
            (solve_lower(lower, b), np_solve_lower(lower, b)),
            (solve_lower_t(lower, b), np_solve_lower_t(lower, b)),
            (solve_spd(a, b), np_solve_lower_t(lower, np_solve_lower(lower, b))),
            (solve_dense(g, b), np_solve_dense(g, b)),
        ]

    def test_bitwise_up_to_order_two(self):
        rng = np.random.default_rng(51)
        swaps = 0
        for _ in range(300):
            n = int(rng.integers(1, 3))
            a = random_spd(rng, n)
            g = rng.standard_normal((n, n))
            swaps += n == 2 and abs(g[1, 0]) > abs(g[0, 0])
            for b in right_hand_sides(rng, n):
                for got, want in self.pairs(a, b, g):
                    assert got.shape == want.shape
                    assert np.array_equal(got, want)
        assert swaps >= 50  # pivot swaps exercised

    def test_double_pendulum_systems_bitwise(self, pendulum):
        # the 2 x 2 Gram and Newton systems of the manifold projection
        from conftest import sample_states

        for state in sample_states(pendulum, 20, seed=52):
            jac = pendulum.constraint_jacobian(state.x)
            gram = jac @ jac.T
            for got, want in self.pairs(gram, jac, gram + 0.1 * jac[:, :2]):
                assert np.array_equal(got, want)

    def test_close_up_to_order_eight(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            n = int(rng.integers(3, 9))
            a = random_spd(rng, n)
            g = rng.standard_normal((n, n))
            for b in right_hand_sides(rng, n):
                for got, want in self.pairs(a, b, g):
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_empty_system(self):
        empty = np.zeros((0, 0))
        assert cholesky(empty).shape == (0, 0)
        assert solve_dense(empty, np.zeros(0)).shape == (0,)
        assert solve_lower(empty, np.zeros(0)).shape == (0,)
        assert solve_lower_t(empty, np.zeros((0, 2))).shape == (0, 2)

    def test_inputs_not_modified(self):
        rng = np.random.default_rng(54)
        g = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 2))
        g0, b0 = g.copy(), b.copy()
        solve_dense(g, b)
        solve_lower(np.tril(g) + 3.0 * np.eye(3), b)
        assert np.array_equal(g, g0)
        assert np.array_equal(b, b0)

    def test_same_exceptions_and_messages(self):
        # elimination in solve_dense is elementwise at every order, so its
        # breakdowns match exactly; Cholesky's pivots carry dot products
        # from order 3 on, so there only clear failures are compared
        rng = np.random.default_rng(55)
        fixed = [
            np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
            np.array([[1.0, 1.0], [1.0, 1.0]]),  # singular
            np.zeros((2, 2)),
            np.array([[0.0, 1.0], [0.0, 2.0]]),  # zero pivot column
            np.array([[1e-300, 0.0], [0.0, 1e-300]]),
            np.array([[-1.0]]),
            np.array([[4.0, 2.0, 2.0], [2.0, 1.0, 1.0], [2.0, 1.0, 5.0]]),
            # non-finite entries: nan tolerances, as numpy's max gives them
            np.array([[np.nan, 0.0], [0.0, 1.0]]),
            np.array([[1.0, 0.0], [0.0, np.nan]]),
            np.array([[np.inf, 0.0], [0.0, 1.0]]),
        ]
        exact_cholesky = list(fixed)
        exact_dense = list(fixed)
        clear_cholesky = []
        for _ in range(100):
            c = rng.standard_normal((2, 1))
            exact_cholesky.append(c @ c.T)  # rank 1: pivot at rounding level
            n = int(rng.integers(2, 7))
            g = rng.standard_normal((n, n))
            g[int(rng.integers(1, n))] = g[0]  # duplicate row
            exact_dense.append(g)
            exact_dense.append(rng.standard_normal((n, 1)) @ rng.standard_normal((1, n)))
            s = smallmat.symmetrize(rng.standard_normal((n + 1, n + 1)))
            if sym_eig(s).values[0] < -0.1 * np.max(np.abs(s)):
                clear_cholesky.append(s)
        raised = {cholesky: 0, solve_dense: 0}
        cases = [(cholesky, np_cholesky, a, True) for a in exact_cholesky]
        cases += [(cholesky, np_cholesky, a, False) for a in clear_cholesky]
        cases += [(solve_dense, np_solve_dense, a, True) for a in exact_dense]
        for new, old, a, same_message in cases:
            args = (a,) if new is cholesky else (a, np.ones(a.shape[0]))
            _, got = outcome(new, *args)
            _, want = outcome(old, *args)
            if same_message:
                assert got == want
            else:
                assert got is not None and want is not None and got[0] == want[0]
            raised[new] += got is not None
        assert raised[cholesky] >= 100
        assert raised[solve_dense] >= 150

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            cholesky(np.ones((2, 3)))
