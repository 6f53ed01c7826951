import math

import numpy as np
import pytest

from oscint import benchmark_initial_state, frequencies, make_double_pendulum
from oscint.effective import _applied_force
from oscint.model import State
from oscint.smallmat import NotPositiveDefinite, SingularMatrix, newton_solve, solve_spd

# near-manifold states with springs stretched by O(elongation*eps); the
# draws depend only on the seed, so rebuilding the system at another
# epsilon reuses the same geometry: the setup for epsilon-halving checks
from oscint.harness import random_bounded_energy_states as sample_states  # noqa: F401


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """The native stiff-flow kernel is built into this session's own
    cache directory, not the user's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture
def pendulum():
    return make_double_pendulum(1e-2)


@pytest.fixture
def bench_state(pendulum):
    return benchmark_initial_state(pendulum.epsilon)


def random_spd(rng, n):
    b = rng.standard_normal((n, n))
    return b @ b.T + 0.1 * np.eye(n)


def fd_grad_frequencies(sys, x, fd_step):
    """Central-difference oracle for effective.grad_frequencies.

    Perturbed configurations sit O(fd_step) off the manifold, which
    inflates the null eigenvalues of the stiff Hessian by the same order, so the
    gap check is relaxed accordingly.  Frequency branches between the two
    one-sided evaluations are identified by nearest-value matching; an
    ambiguous matching fails rather than mislabel branches.
    """
    x = np.asarray(x, dtype=float)
    m = sys.m
    n = sys.n
    gap_factor = max(1e-6, 1e2 * fd_step)
    grad = np.empty((m, n))
    for j in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[j] += fd_step
        xm[j] -= fd_step
        om_p = frequencies(sys, xp, gap_factor).omegas
        om_m = frequencies(sys, xm, gap_factor).omegas
        match = [int(np.argmin(np.abs(om_m - w))) for w in om_p]
        assert len(set(match)) == m, f"frequency branches not separable along coordinate {j}"
        grad[:, j] = (om_p - om_m[match]) / (2.0 * fd_step)
    return grad


# numpy versions of the small-matrix kernels and of the spring Hessians,
# as the library had them before its kernels moved to nested lists: the
# oracles the list kernels must match bit for bit at orders <= 2


def np_cholesky(a):
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("cholesky expects a square matrix")
    lower = np.zeros((n, n))
    if n == 0:
        return lower
    tol = 1e-14 * max(np.max(np.diag(a)), 0.0)
    for i in range(n):
        for j in range(i + 1):
            acc = a[i, j] - lower[i, :j] @ lower[j, :j]
            if i == j:
                if not acc > tol:
                    raise NotPositiveDefinite(
                        f"pivot {acc:.3e} at index {i} (tolerance {tol:.3e})"
                    )
                lower[i, i] = math.sqrt(acc)
            else:
                lower[i, j] = acc / lower[j, j]
    return lower


def np_solve_lower(lower, b):
    lower = np.asarray(lower, dtype=float)
    x = np.array(b, dtype=float, copy=True)
    n = lower.shape[0]
    for i in range(n):
        x[i] -= lower[i, :i] @ x[:i]
        x[i] /= lower[i, i]
    return x


def np_solve_lower_t(lower, b):
    lower = np.asarray(lower, dtype=float)
    x = np.array(b, dtype=float, copy=True)
    n = lower.shape[0]
    for i in range(n - 1, -1, -1):
        x[i] -= lower[i + 1:, i] @ x[i + 1:]
        x[i] /= lower[i, i]
    return x


def np_solve_dense(a, b):
    a = np.array(a, dtype=float, copy=True)
    x = np.array(b, dtype=float, copy=True)
    n = a.shape[0]
    if n == 0:
        return x
    scale = np.max(np.abs(a))
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) <= 1e-300 + 1e-15 * scale:
            raise SingularMatrix(f"pivot {a[p, k]:.3e} in column {k}")
        if p != k:
            a[[k, p]] = a[[p, k]]
            x[[k, p]] = x[[p, k]]
        for i in range(k + 1, n):
            f = a[i, k] / a[k, k]
            if f != 0.0:
                a[i, k + 1:] -= f * a[k, k + 1:]
                x[i] -= f * x[k]
    for i in range(n - 1, -1, -1):
        x[i] -= a[i, i + 1:] @ x[i + 1:]
        x[i] /= a[i, i]
    return x


def np_spring_block(alpha, length, d0, d1, r):
    """a^2 (u u^T + (r - l)/r (I - u u^T)) by outer products."""
    u = np.array([d0, d1]) / r
    return alpha ** 2 * (np.outer(u, u) + (r - length) / r * (np.eye(2) - np.outer(u, u)))


def np_hess_double_pendulum(sys, x):
    r1 = math.hypot(x[0], x[1])
    d0, d1 = x[2] - x[0], x[3] - x[1]
    r2 = math.hypot(d0, d1)
    b1 = np_spring_block(sys.alphas[0], sys.lengths[0], x[0], x[1], r1)
    b2 = np_spring_block(sys.alphas[1], sys.lengths[1], d0, d1, r2)
    h = np.zeros((4, 4))
    h[:2, :2] = b1 + b2
    h[:2, 2:] = -b2
    h[2:, :2] = -b2
    h[2:, 2:] = b2
    return h


def np_hess_chain(sys, x):
    h = np.zeros((sys.n, sys.n))
    px, py = 0.0, 0.0
    for k in range(sys.m):
        d0, d1 = x[2 * k] - px, x[2 * k + 1] - py
        blk = np_spring_block(sys.alphas[k], sys.lengths[k], d0, d1, math.hypot(d0, d1))
        px, py = x[2 * k], x[2 * k + 1]
        i = 2 * k
        h[i:i + 2, i:i + 2] += blk
        if k > 0:
            j = 2 * (k - 1)
            h[j:j + 2, j:j + 2] += blk
            h[j:j + 2, i:i + 2] -= blk
            h[i:i + 2, j:j + 2] -= blk
    return h


def np_rattle_step(sys, state, actions, h):
    """The RATTLE step as the library had it before it moved onto the
    projection contract: its own Newton closures on the half-step
    multiplier lam and one SPD solve for the velocity stage.  The oracle
    of effective.rattle_step."""
    x0 = state.x
    y0 = state.y
    jac0_t = sys.constraint_jacobian(x0).T
    force0 = _applied_force(sys, x0, actions)

    def position_of(lam):
        y_half = y0 + 0.5 * h * (force0 - jac0_t @ lam)
        return x0 + h * y_half

    def residual(lam):
        return sys.constraint(position_of(lam))

    def jacobian(lam):
        jac1 = sys.constraint_jacobian(position_of(lam))
        return -0.5 * h * h * (jac1 @ jac0_t)

    lam = newton_solve(residual, jacobian, np.zeros(sys.m), tol=1e-12)
    y_half = y0 + 0.5 * h * (force0 - jac0_t @ lam)
    x1 = x0 + h * y_half

    force1 = _applied_force(sys, x1, actions)
    jac1 = sys.constraint_jacobian(x1)
    y_free = y_half + 0.5 * h * force1
    gram = jac1 @ jac1.T
    mu = solve_spd(gram, jac1 @ y_free) * (2.0 / h)
    y1 = y_free - 0.5 * h * (jac1.T @ mu)
    return State(x1, y1, state.t + h)
