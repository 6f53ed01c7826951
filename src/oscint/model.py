"""Oscillatory mechanical systems with a stiff constraining potential.

A system bundles a smooth slow potential, a stiff potential (scaled
internally by 1/epsilon^2) whose zero set is the constraint manifold,
and the constraint function with its Jacobian.  The mass is the
identity:

    H(x, y) = 1/2 y^T y + slow(x) + stiff(x) / epsilon^2

A model with a constant SPD mass matrix M = S^T S is written in the
coordinates q = S x (momenta S^-T y), where its mass is the identity.

Shipped models are planar chains of stiff springs under gravity; the
double pendulum is the two-spring chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import native, smallmat


class DomainError(Exception):
    """State left the model's admissible region (a spring collapsed)."""


@dataclass
class State:
    """Phase-space point: positions x, momenta y, time t."""

    x: np.ndarray
    y: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)

    def copy(self) -> "State":
        return State(self.x.copy(), self.y.copy(), self.t)


HESS_FD_STEP = 1e-5  # step of the default second-derivative methods


class OscillatorySystem:
    """Contract every integrator and diagnostic consumes.

    Attributes:
        n: configuration dimension.
        m: number of constraints (= number of fast frequencies).
        epsilon: stiffness parameter in (0, 1).

    The mass matrix is the identity (see the module docstring).
    Subclasses provide slow_potential, grad_slow,
    stiff_potential, grad_stiff, hess_stiff, constraint,
    constraint_jacobian and, for m > 0, stiff_weights.  All evaluators
    must be pure.  stiff_flow, stiff_eig_bound, hess_stiff_contract,
    constraint_hessian, project_position, project_momentum,
    projection_vjp, manifold_frequencies and mode_actions have generic
    defaults; a model may override them with faster or exact versions.
    """

    n: int
    m: int
    epsilon: float

    def slow_potential(self, x) -> float:
        raise NotImplementedError

    def grad_slow(self, x) -> np.ndarray:
        raise NotImplementedError

    def stiff_potential(self, x) -> float:
        raise NotImplementedError

    def grad_stiff(self, x) -> np.ndarray:
        raise NotImplementedError

    def hess_stiff(self, x) -> np.ndarray:
        raise NotImplementedError

    def constraint(self, x) -> np.ndarray:
        raise NotImplementedError

    def constraint_jacobian(self, x) -> np.ndarray:
        raise NotImplementedError

    def stiff_weights(self):
        """Weights K_k of the stiff potential written in the constraints,
        stiff(x) = 1/2 sum_k K_k constraint(x)_k^2, as a vector of m
        positive entries.  They let frequencies on the manifold come
        from an m x m eigenproblem (effective.manifold_frequencies).
        """
        raise NotImplementedError

    def stiff_eig_bound(self, x) -> float:
        """An upper bound on the largest eigenvalue of hess_stiff(x).

        Default: the largest absolute row sum of hess_stiff(x)
        (Gershgorin), one Hessian evaluation.
        """
        return float(np.max(np.sum(np.abs(self.hess_stiff(x)), axis=1)))

    def hess_stiff_contract(self, x, v) -> np.ndarray:
        """Gradient over x of v^T hess_stiff(x) v for a fixed vector v.

        Default: central differences of hess_stiff with step
        HESS_FD_STEP, 2n Hessian evaluations.
        """
        v = np.asarray(v, dtype=float)
        return _central_differences(lambda z: v @ self.hess_stiff(z) @ v, x)

    def constraint_hessian(self, x, w) -> np.ndarray:
        """sum_k w_k hess constraint_k(x) for fixed weights w (n x n): the
        x-derivative of G(x)^T w.

        Default: central differences of constraint_jacobian with step
        HESS_FD_STEP, 2n Jacobian evaluations.
        """
        w = np.asarray(w, dtype=float)
        return _central_differences(lambda z: self.constraint_jacobian(z).T @ w, x).T

    def project_position(self, x, base=None):
        """Projection onto the constraint manifold along the normal
        directions at x: (position, lam) with constraint(position) = 0
        and position = base + G(x)^T lam, base = x by default.

        Default: a rank check by Cholesky of G G^T at x (raising
        smallmat.NotPositiveDefinite), then smallmat.newton_solve from
        lam = 0 (the base point): max-norm tolerance 1e-12, a full step
        then at most 8 halvings until the residual strictly falls, at
        most 20 iterations.  An override must keep every rule of this
        path (also the pivot test, the singularity threshold of the
        step, DomainError at x and at every trial point from the base
        on, and the exception classes); its results may differ by rounding.
        """
        x = np.asarray(x, dtype=float)
        base = x if base is None else np.asarray(base, dtype=float)
        frozen_jac = self.constraint_jacobian(x)  # m x n, frozen at x
        gt = frozen_jac.T
        smallmat.cholesky(frozen_jac @ gt)  # fail fast on rank loss before iterating

        def residual(lam):
            return self.constraint(base + gt @ lam)

        def jacobian(lam):
            return self.constraint_jacobian(base + gt @ lam) @ gt

        lam = smallmat.newton_solve(residual, jacobian, np.zeros(self.m), tol=1e-12)
        return base + gt @ lam, lam

    def project_momentum(self, x, v) -> np.ndarray:
        """P(x) v = v - G^T S^-1 G v with S = G G^T, all at x: the
        orthogonal projection of v onto the tangent space
        (geometry.project_momentum).

        Default: S by numpy, then smallmat.solve_spd, raising
        smallmat.NotPositiveDefinite when S is not SPD; for m = 0 the
        result is v.  An override must keep the pivot test and the
        exception classes.
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        jac = self.constraint_jacobian(x)
        return v - jac.T @ smallmat.solve_spd(jac @ jac.T, jac @ v)

    def projection_vjp(self, x, position, lam, v) -> np.ndarray:
        """J(x)^T v for J = d(position)/dx, the Jacobian of the
        projection (position, lam) of x (project_position), by implicit
        differentiation.

        Differentiating position = x + G(x)^T lam(x) and
        constraint(position(x)) = 0 gives, with D = sum_k lam_k
        hess constraint_k(x) the x-derivative of the map
        x -> G(x)^T lam at frozen lam and B = I + D (symmetric):

            J = B - G(x)^T S~^-1 G(position) B,  S~ = G(position) G(x)^T,
            J^T v = B (v - G(position)^T S~^-T G(x) v),

        one m x m solve with S~^T.  Default: numpy products and
        smallmat.solve_dense on S~^T, raising smallmat.SingularMatrix
        when it is singular.  An override must keep that threshold and
        the exception classes.
        """
        v = np.asarray(v, dtype=float)
        jac = self.constraint_jacobian(x)
        jac_pos = self.constraint_jacobian(position)
        u = v - jac_pos.T @ smallmat.solve_dense(jac @ jac_pos.T, jac @ v)
        return u + self.constraint_hessian(x, lam) @ u

    def manifold_frequencies(self, x, weights):
        """(omegas, vectors) from the m x m SPD matrix
        S = K^1/2 G G^T K^1/2 at x for the stiff weights K
        (effective.manifold_frequencies): for S u = lambda u, ascending,
        omega = sqrt(lambda) and the orthonormal mode vector
        v = G^T K^1/2 u / omega.

        Default: S by numpy, then smallmat.sym_eig, raising
        smallmat.NotPositiveDefinite when the smallest eigenvalue is not
        positive.  An override must keep sym_eig's rotation formulas,
        its order and its exceptions.
        """
        x = np.asarray(x, dtype=float)
        a = self.constraint_jacobian(x).T * np.sqrt(weights)  # G^T K^1/2, n x m
        pairs = smallmat.sym_eig(a.T @ a)
        if pairs.values[0] <= 0.0:
            raise smallmat.NotPositiveDefinite(
                f"constraint Gram eigenvalue not positive: {pairs.values[0]:.3e}"
            )
        omegas = np.sqrt(pairs.values)
        return omegas, (a @ pairs.vectors) / omegas

    def mode_actions(self, x, y, position, weights):
        """(omegas, vectors, actions) of the state (x, y) about the
        manifold point position (diagnostics._mode_split): the pairs of
        manifold_frequencies(position, weights), then modal_actions.

        An override must raise what this path raises (DomainError,
        smallmat.NoConvergence and smallmat.NotPositiveDefinite, with
        manifold_frequencies' messages); its results may differ by
        rounding, but its omegas must equal manifold_frequencies' bit
        for bit.
        """
        omegas, vectors = self.manifold_frequencies(position, weights)
        return omegas, vectors, modal_actions(self.epsilon, omegas, vectors, x, y, position)

    def stiff_flow(self, x, y, h_micro, nsteps):
        """Leapfrog of xdot = y, ydot = -grad stiff / epsilon^2 over
        nsteps micro steps of h_micro; returns the new (x, y).

        An override must reproduce this loop bit for bit and raise
        DomainError at every step where grad_stiff would: the same
        floating-point operations in the same order, with grad_stiff's
        own expressions (the two-spring chain's C kernel computes each
        spring length as sqrt(d0 * d0 + d1 * d1), as grad_stiff does).
        """
        return leapfrog(self.grad_stiff, -(1.0 / self.epsilon ** 2), x, y, h_micro, nsteps)


def modal_actions(epsilon, omegas, vectors, x, y, position):
    """Mode actions of (x, y) about the manifold point position, for
    the fast frequencies omegas and orthonormal mode vectors (columns of
    vectors).  Each mode's action is its energy over its frequency:

        c_k = v_k^T (x - X),  cdot_k = v_k^T y,
        I_k = (cdot_k^2 / 2 + (omega_k/eps)^2 c_k^2 / 2) / omega_k.
    """
    coords = vectors.T @ np.subtract(x, position)
    velocities = vectors.T @ y
    energies = 0.5 * velocities ** 2 + 0.5 * (omegas / epsilon) ** 2 * coords ** 2
    return energies / omegas


def _central_differences(f, x):
    """Central differences of f at x with step HESS_FD_STEP; entry j is
    the derivative along x_j."""
    x = np.asarray(x, dtype=float)
    out = []
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += HESS_FD_STEP
        xm[j] -= HESS_FD_STEP
        out.append((f(xp) - f(xm)) / (2.0 * HESS_FD_STEP))
    return np.array(out)


def leapfrog(grad, coef, x, y, h_micro, nsteps):
    """Leapfrog of xdot = y, ydot = coef * grad(x) over nsteps equal micro
    steps; returns (x, y).  One gradient evaluation per step.

    Kick-drift-kick with each step's closing half kick merged into the
    next step's opening one (Stoermer-Verlet, first same as last): a half
    kick, nsteps - 1 passes of drift and full kick y + kick * grad(x)
    with kick = coef * h_micro, a last drift and a closing half kick.
    grad(x) is evaluated before the loop, also for nsteps = 0.
    """
    kick = coef * h_micro
    half = 0.5 * kick
    g = grad(x)
    if nsteps == 0:
        return x, y
    y = y + half * g
    for k in [kick] * (nsteps - 1) + [half]:
        x = x + h_micro * y
        y = y + k * grad(x)
    return x, y


_MIN_SPRING_LENGTH = 1e-8


def _spring_block(a2, length, d0, d1, r):
    """Entries (b00, b01, b11) of the Hessian block of one spring,
    a2 (u u^T + (r - length)/r (I - u u^T)) with u = (d0, d1) / r."""
    u0 = d0 / r
    u1 = d1 / r
    c = (r - length) / r
    u00 = u0 * u0
    u01 = u0 * u1
    u11 = u1 * u1
    return (
        a2 * (u00 + c * (1.0 - u00)),
        a2 * (u01 - c * u01),
        a2 * (u11 + c * (1.0 - u11)),
    )


def _spring_contract(a2, length, d0, d1, r, w0, w1):
    """Gradient over the segment d = (d0, d1), |d| = r, of w^T B(d) w,
    B the Hessian of 1/2 a2 (|d| - length)^2 and w a fixed relative
    displacement: a2 length / r^2 ((|w|^2 - 3 s^2) u + 2 s w), with
    u = d / r and s = u . w."""
    u0 = d0 / r
    u1 = d1 / r
    s = u0 * w0 + u1 * w1
    c = a2 * length / (r * r)
    t = w0 * w0 + w1 * w1 - 3.0 * s * s
    return c * (t * u0 + 2.0 * s * w0), c * (t * u1 + 2.0 * s * w1)


def _chain_matrix(n, blocks):
    """n x n matrix of a chain from one symmetric 2x2 block (b00, b01,
    b11) per spring k, acting on the segment bob_k - bob_(k-1): the
    block is added on the diagonal blocks of bobs k and k - 1 and
    subtracted on their off-diagonal blocks (bob k only for the anchored
    first spring)."""
    h = [[0.0] * n for _ in range(n)]
    for k, (b00, b01, b11) in enumerate(blocks):
        blk = ((b00, b01), (b01, b11))
        i = 2 * k
        j = i - 2
        for a in range(2):
            for b in range(2):
                v = blk[a][b]
                h[i + a][i + b] += v
                if k > 0:
                    h[j + a][j + b] += v
                    h[j + a][i + b] -= v
                    h[i + a][j + b] -= v
    return np.array(h)


def _collapsed(k, r):
    return DomainError(f"spring {k} length collapsed: {r:.3e}")


def _normal_block(w, d0, d1, r):
    """Entries (b00, b01, b11) of w (I - u u^T) / r, u = (d0, d1) / r:
    the constraint Hessian of one spring of segment d = (d0, d1),
    |d| = r, with weight w, written as w / r^3 (d1^2, -d0 d1, d0^2)."""
    c = w / (r * r * r)
    return c * (d1 * d1), -c * (d0 * d1), c * (d0 * d0)


def _pair_segments(x0, x1, x2, x3):
    """(r1, d0, d1, r2) of the two-spring chain at x: the first
    segment's length, the second segment and its length; DomainError
    when either spring has collapsed."""
    r1 = math.sqrt(x0 * x0 + x1 * x1)
    if r1 < _MIN_SPRING_LENGTH:
        raise _collapsed(0, r1)
    d0 = x2 - x0
    d1 = x3 - x1
    r2 = math.sqrt(d0 * d0 + d1 * d1)
    if r2 < _MIN_SPRING_LENGTH:
        raise _collapsed(1, r2)
    return r1, d0, d1, r2


def _pair_modes(x0, x1, x2, x3, weights):
    """(omega_0, omega_1, mode vectors) of the two-spring chain at x:
    S = A^T A for A = G^T K^1/2, whose rows are (u_j k_0, -v_j k_1) for
    bob 1 and (0, v_j k_1) for bob 2, u and v the unit segments; then
    smallmat.sym_eig's single Jacobi rotation of a 2 x 2 matrix (its
    jacobi_rotation, the same stopping test and ascending order) and its
    exceptions, omega = sqrt(lambda) and the vectors A u / omega, the
    4 x 2 matrix as a flat row-major list.  The zero entries of A are left
    out of every sum."""
    w0, w1 = np.asarray(weights, dtype=float).tolist()
    k0 = math.sqrt(w0)
    k1 = math.sqrt(w1)
    r1, d0, d1, r2 = _pair_segments(x0, x1, x2, x3)
    a00 = x0 / r1 * k0
    a10 = x1 / r1 * k0
    a21 = d0 / r2 * k1
    a31 = d1 / r2 * k1
    a01 = -a21
    a11 = -a31
    s00 = a00 * a00 + a10 * a10
    s01 = a00 * a01 + a10 * a11
    s11 = a01 * a01 + a11 * a11 + a21 * a21 + a31 * a31
    if not (math.isfinite(s00) and math.isfinite(s01) and math.isfinite(s11)):
        raise smallmat.NoConvergence("matrix has non-finite entries")
    c, s = 1.0, 0.0
    norm = math.sqrt(s00 * s00 + s01 * s01 + s01 * s01 + s11 * s11)
    if math.sqrt(2.0 * (s01 * s01)) > 1e-15 * norm:
        t, c, s = smallmat.jacobi_rotation(s00, s11, s01)
        s00, s11 = s00 - t * s01, s11 + t * s01
    # eigenvector columns (c, -s) for s00 and (s, c) for s11
    if s11 < s00:
        lo, u0, u1, hi, v0, v1 = s11, s, c, s00, c, -s
    else:
        lo, u0, u1, hi, v0, v1 = s00, c, -s, s11, s, c
    if lo <= 0.0:
        raise smallmat.NotPositiveDefinite(f"constraint Gram eigenvalue not positive: {lo:.3e}")
    om0 = math.sqrt(lo)
    om1 = math.sqrt(hi)
    return om0, om1, [
        (a00 * u0 + a01 * u1) / om0, (a00 * v0 + a01 * v1) / om1,
        (a10 * u0 + a11 * u1) / om0, (a10 * v0 + a11 * v1) / om1,
        a21 * u1 / om0, a21 * v1 / om1,
        a31 * u1 / om0, a31 * v1 / om1,
    ]


@dataclass
class StiffSpringChain(OscillatorySystem):
    """Chain of N bobs joined by stiff springs, first spring anchored at
    the origin, gravity acting on every bob.

    Positions are x = (bob1_x, bob1_y, ..., bobN_x, bobN_y); spring k
    ties bob k to bob k - 1 (to the origin for k = 0).  Unit masses, unit
    gravitational constant:

        slow(x)  = sum_k bobk_y
        stiff(x) = sum_k 1/2 a_k^2 (|bob_k - bob_(k-1)| - l_k)^2

    Spring constants of the full problem are (a_k / epsilon)^2; the
    constraint vector carries the raw elongations so that the rows of its
    Jacobian are geometrically normalized.  The evaluators run on plain
    floats: on vectors of a few entries numpy's per-call overhead, not
    arithmetic, sets their cost.
    """

    epsilon: float
    alphas: np.ndarray
    lengths: np.ndarray
    n: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.lengths = np.asarray(self.lengths, dtype=float)
        if self.alphas.ndim != 1 or self.alphas.shape != self.lengths.shape:
            raise ValueError("alphas and lengths must be 1-D and equally long")
        if self.alphas.size < 1:
            raise ValueError("chain needs at least one spring")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        for name, values in (("alphas", self.alphas), ("lengths", self.lengths)):
            if not all(0.0 < v < math.inf for v in values.tolist()):
                raise ValueError(f"spring {name} must be positive and finite: {values.tolist()}")
        self.m = self.alphas.size
        self.n = 2 * self.m
        self._a2 = [a ** 2 for a in self.alphas.tolist()]
        self._len = self.lengths.tolist()
        self._eig_bound = self._a2[0] + 2.0 * sum(self._a2[1:])
        # constant vectors, built once and read-only: a write fails loudly
        self._weights = np.array(self._a2)
        self._gravity = np.zeros(self.n)
        self._gravity[1::2] = 1.0
        self._weights.flags.writeable = self._gravity.flags.writeable = False

    def _segments(self, x):
        """Per spring: (dx, dy, length), measured from the previous bob."""
        xs = np.asarray(x, dtype=float).tolist()
        segs = []
        px, py = 0.0, 0.0
        for k in range(self.m):
            qx, qy = xs[2 * k], xs[2 * k + 1]
            d0 = qx - px
            d1 = qy - py
            r = math.sqrt(d0 * d0 + d1 * d1)
            if r < _MIN_SPRING_LENGTH:
                raise _collapsed(k, r)
            segs.append((d0, d1, r))
            px, py = qx, qy
        return segs

    def slow_potential(self, x):
        total = x[1]
        for k in range(1, self.m):
            total = total + x[2 * k + 1]
        return total

    def grad_slow(self, x):
        return self._gravity

    def stiff_potential(self, x):
        segs = self._segments(x)
        alphas = self.alphas.tolist()
        total = 0.0
        for k, (_, _, r) in enumerate(segs):
            total = total + 0.5 * (alphas[k] * (r - self._len[k])) ** 2
        return total

    def grad_stiff(self, x):
        segs = self._segments(x)
        coef = [
            self._a2[k] * (segs[k][2] - self._len[k]) / segs[k][2]
            for k in range(self.m)
        ]
        g = []
        for k, (d0, d1, _) in enumerate(segs):
            if k + 1 < self.m:
                e0, e1, _ = segs[k + 1]
                g += [coef[k] * d0 - coef[k + 1] * e0, coef[k] * d1 - coef[k + 1] * e1]
            else:
                g += [coef[k] * d0, coef[k] * d1]
        return np.array(g)

    def hess_stiff(self, x):
        segs = self._segments(x)
        return _chain_matrix(self.n, [
            _spring_block(self._a2[k], self._len[k], d0, d1, r)
            for k, (d0, d1, r) in enumerate(segs)
        ])

    def stiff_eig_bound(self, x):
        """a_0^2 + 2 sum_(k>=1) a_k^2 at every x: a constant.

        hess_stiff = sum_k E_k^T B_k E_k: E_k maps a displacement v to
        the change of spring k's segment (v_0 for k = 0, v_k - v_(k-1)
        for k >= 1, v_k the 2-block of the k-th bob), and
        B_k = a_k^2 (u u^T + (1 - l_k/r_k)(I - u u^T)), u = d_k / r_k, is
        the spring's 2x2 block.  B_k has the eigenvalues a_k^2 and
        a_k^2 (1 - l_k/r_k) < a_k^2, so
        v^T hess_stiff v <= sum_k a_k^2 |E_k v|^2.  Since ||E_0||^2 = 1
        and ||E_k||^2 = 2 for k >= 1
        (|v_k - v_(k-1)|^2 <= 2 |v_k|^2 + 2 |v_(k-1)|^2), that sum is at
        most the bound times |v|^2.  A single spring attains it.
        """
        return self._eig_bound

    def hess_stiff_contract(self, x, v):
        segs = self._segments(x)
        v = np.asarray(v, dtype=float).tolist()
        g = [0.0] * self.n
        for k, (d0, d1, r) in enumerate(segs):
            i = 2 * k
            w0, w1 = v[i], v[i + 1]
            if k > 0:
                w0, w1 = w0 - v[i - 2], w1 - v[i - 1]
            t0, t1 = _spring_contract(self._a2[k], self._len[k], d0, d1, r, w0, w1)
            g[i] += t0
            g[i + 1] += t1
            if k > 0:
                g[i - 2] -= t0
                g[i - 1] -= t1
        return np.array(g)

    def stiff_weights(self):
        return self._weights

    def constraint(self, x):
        segs = self._segments(x)
        return np.array([segs[k][2] - self._len[k] for k in range(self.m)])

    def constraint_hessian(self, x, w):
        """Spring k adds w_k (I - u u^T) / r, u = d / r, on its segment d
        (_normal_block)."""
        segs = self._segments(x)
        w = np.asarray(w, dtype=float).tolist()
        return _chain_matrix(self.n, [
            _normal_block(w[k], d0, d1, r) for k, (d0, d1, r) in enumerate(segs)
        ])

    def constraint_jacobian(self, x):
        segs = self._segments(x)
        jac = np.zeros((self.m, self.n))
        for k, (d0, d1, r) in enumerate(segs):
            jac[k, 2 * k] = d0 / r
            jac[k, 2 * k + 1] = d1 / r
            if k > 0:
                jac[k, 2 * (k - 1)] = -d0 / r
                jac[k, 2 * k - 1] = -d1 / r
        return jac

    def project_position(self, x, base=None):
        """For two springs, the default's rank check and Newton solve on
        plain floats, under all of the default's rules: the rank check by
        smallmat.cholesky_2x2, each Newton step by smallmat.solve_2x2.
        The default sums G^T lam in a numpy matvec, so the two agree to
        rounding, not bit for bit.  Other chains run the default."""
        if self.m != 2:
            return super().project_position(x, base)
        l1, l2 = self._len
        tol = 1e-12
        x0, x1, x2, x3 = np.asarray(x, dtype=float).tolist()
        # G(x) has the rows (u, 0) and (-v, v), u and v the unit segments
        # of the two springs at x
        r1, d0, d1, r2 = _pair_segments(x0, x1, x2, x3)
        u0 = x0 / r1
        u1 = x1 / r1
        v0 = d0 / r2
        v1 = d1 / r2
        # the rank check: the Cholesky pivots of the Gram matrix G G^T
        smallmat.cholesky_2x2(u0 * u0 + u1 * u1, -(u0 * v0 + u1 * v1), 2.0 * (v0 * v0 + v1 * v1))
        if base is not None:
            # from here on (x0, x1, x2, x3) is the base point
            x0, x1, x2, x3 = np.asarray(base, dtype=float).tolist()
            r1, d0, d1, r2 = _pair_segments(x0, x1, x2, x3)
        # Newton on c(base + G(x)^T lam) = 0 from lam = 0, with (a, b)
        # the unit segments at the current point: the Newton Jacobian is
        # G(point) G(x)^T
        c0 = r1 - l1
        c1 = r2 - l2
        # nan on a nan residual, as smallmat._max makes it
        rnorm = math.nan if math.isnan(c0 + c1) else max(abs(c0), abs(c1))
        if rnorm <= tol:
            return np.array([x0, x1, x2, x3]), np.zeros(2)
        lam0 = lam1 = 0.0
        a0, a1, b0, b1 = x0 / r1, x1 / r1, d0 / r2, d1 / r2
        for _ in range(20):
            try:
                s0, s1 = smallmat.solve_2x2(
                    a0 * u0 + a1 * u1, -(a0 * v0 + a1 * v1),
                    -(b0 * u0 + b1 * u1), 2.0 * (b0 * v0 + b1 * v1),
                    -c0, -c1,
                )
            except smallmat.SingularMatrix as exc:
                raise smallmat.NoConvergence(f"singular Jacobian: {exc}") from exc
            frac = 1.0
            for _ in range(9):  # full step plus up to 8 halvings
                t0 = lam0 + frac * s0
                t1 = lam1 + frac * s1
                z0 = x0 + (u0 * t0 - v0 * t1)
                z1 = x1 + (u1 * t0 - v1 * t1)
                z2 = x2 + v0 * t1
                z3 = x3 + v1 * t1
                r1, d0, d1, r2 = _pair_segments(z0, z1, z2, z3)
                c0 = r1 - l1
                c1 = r2 - l2
                # both below rnorm: false on a nan, as for smallmat's max-norm
                if abs(c0) < rnorm and abs(c1) < rnorm:
                    break
                frac *= 0.5
            else:
                raise smallmat.NoConvergence(
                    f"line search stalled at residual {rnorm:.3e} (tol {tol:.3e})"
                )
            lam0 = t0
            lam1 = t1
            rnorm = max(abs(c0), abs(c1))
            if rnorm <= tol:
                return np.array([z0, z1, z2, z3]), np.array([lam0, lam1])
            a0 = z0 / r1
            a1 = z1 / r1
            b0 = d0 / r2
            b1 = d1 / r2
        raise smallmat.NoConvergence(f"no convergence after 20 iterations, residual {rnorm:.3e}")

    # The four kernels below replace, for two springs, a default's numpy
    # products and general smallmat kernel with one pass on floats, whose
    # 2 x 2 steps are smallmat's float primitives.  Numpy sums its
    # products in another order, so results agree with the default to
    # rounding, not bit for bit.  Other chains run the defaults.

    def project_momentum(self, x, v):
        """P v = v - G^T S^-1 G v through the Cholesky factor of
        S = G G^T (smallmat.cholesky_2x2), one forward and one back
        substitution."""
        if self.m != 2:
            return super().project_momentum(x, v)
        x0, x1, x2, x3 = np.asarray(x, dtype=float).tolist()
        v0, v1, v2, v3 = np.asarray(v, dtype=float).tolist()
        r1, d0, d1, r2 = _pair_segments(x0, x1, x2, x3)
        u0, u1, w0, w1 = x0 / r1, x1 / r1, d0 / r2, d1 / r2  # G = ((u, 0), (-w, w))
        l00, l10, l11 = smallmat.cholesky_2x2(
            u0 * u0 + u1 * u1, -(u0 * w0 + u1 * w1), 2.0 * (w0 * w0 + w1 * w1)
        )
        # S^-1 G v, then v - G^T of it
        z0 = (u0 * v0 + u1 * v1) / l00
        t1 = ((w0 * (v2 - v0) + w1 * (v3 - v1)) - l10 * z0) / l11 / l11
        t0 = (z0 - l10 * t1) / l00
        return np.array([
            v0 - (u0 * t0 - w0 * t1), v1 - (u1 * t0 - w1 * t1), v2 - w0 * t1, v3 - w1 * t1,
        ])

    def projection_vjp(self, x, position, lam, v):
        """One smallmat.solve_2x2 with S~^T, then B = I + D applied
        through constraint_hessian's blocks."""
        if self.m != 2:
            return super().projection_vjp(x, position, lam, v)
        x0, x1, x2, x3 = np.asarray(x, dtype=float).tolist()
        p0, p1, p2, p3 = np.asarray(position, dtype=float).tolist()
        v0, v1, v2, v3 = np.asarray(v, dtype=float).tolist()
        r1, d0, d1, r2 = _pair_segments(x0, x1, x2, x3)
        s1, e0, e1, s2 = _pair_segments(p0, p1, p2, p3)
        u0, u1, w0, w1 = x0 / r1, x1 / r1, d0 / r2, d1 / r2  # G(x) = ((u, 0), (-w, w))
        a0, a1, b0, b1 = p0 / s1, p1 / s1, e0 / s2, e1 / s2  # G(position)
        # S~^T = G(x) G(position)^T against G(x) v
        t0, t1 = smallmat.solve_2x2(
            a0 * u0 + a1 * u1, -(b0 * u0) - b1 * u1,
            -(a0 * w0) - a1 * w1, 2.0 * (b0 * w0 + b1 * w1),
            u0 * v0 + u1 * v1, w0 * (v2 - v0) + w1 * (v3 - v1),
        )
        # q = v - G(position)^T t, then B q = q + D q with D's blocks h
        # (spring 1, on bob 1) and k (spring 2, on the difference of the bobs)
        q0 = v0 - (a0 * t0 - b0 * t1)
        q1 = v1 - (a1 * t0 - b1 * t1)
        q2 = v2 - b0 * t1
        q3 = v3 - b1 * t1
        m0, m1 = np.asarray(lam, dtype=float).tolist()
        h00, h01, h11 = _normal_block(m0, x0, x1, r1)
        k00, k01, k11 = _normal_block(m1, d0, d1, r2)
        f0 = k00 * (q2 - q0) + k01 * (q3 - q1)
        f1 = k01 * (q2 - q0) + k11 * (q3 - q1)
        return np.array([
            q0 + (h00 * q0 + h01 * q1 - f0), q1 + (h01 * q0 + h11 * q1 - f1), q2 + f0, q3 + f1,
        ])

    def manifold_frequencies(self, x, weights):
        """The pairs of _pair_modes at x."""
        if self.m != 2:
            return super().manifold_frequencies(x, weights)
        om0, om1, vectors = _pair_modes(*np.asarray(x, dtype=float).tolist(), weights)
        return np.array([om0, om1]), np.array(vectors).reshape(4, 2)

    def mode_actions(self, x, y, position, weights):
        """The pairs of _pair_modes at position, then c_k, cdot_k and
        I_k on floats, each sum over the four coordinates in index
        order."""
        if self.m != 2:
            return super().mode_actions(x, y, position, weights)
        p0, p1, p2, p3 = np.asarray(position, dtype=float).tolist()
        om0, om1, vectors = _pair_modes(p0, p1, p2, p3, weights)
        v00, v01, v10, v11, v20, v21, v30, v31 = vectors
        x0, x1, x2, x3 = np.asarray(x, dtype=float).tolist()
        y0, y1, y2, y3 = np.asarray(y, dtype=float).tolist()
        d0 = x0 - p0
        d1 = x1 - p1
        d2 = x2 - p2
        d3 = x3 - p3
        c0 = v00 * d0 + v10 * d1 + v20 * d2 + v30 * d3
        c1 = v01 * d0 + v11 * d1 + v21 * d2 + v31 * d3
        q0 = v00 * y0 + v10 * y1 + v20 * y2 + v30 * y3
        q1 = v01 * y0 + v11 * y1 + v21 * y2 + v31 * y3
        w0 = om0 / self.epsilon
        w1 = om1 / self.epsilon
        return np.array([om0, om1]), np.array(vectors).reshape(4, 2), np.array([
            (0.5 * (q0 * q0) + 0.5 * (w0 * w0) * (c0 * c0)) / om0,
            (0.5 * (q1 * q1) + 0.5 * (w1 * w1) * (c1 * c1)) / om1,
        ])

    def stiff_flow(self, x, y, h_micro, nsteps):
        """For two springs, the C kernel of native.pair_flow: the generic
        loop's operations in the same order, each spring length the same
        sqrt(d0 * d0 + d1 * d1), so the result is bit-identical.  Other
        chains, and every chain when no kernel could be built, run the
        generic loop."""
        flow = native.pair_flow() if self.m == 2 else None
        if flow is None:
            return super().stiff_flow(x, y, h_micro, nsteps)
        kick = -(1.0 / self.epsilon ** 2) * h_micro
        state = native.PairState.from_buffer_copy(native.PAIR_ARGS.pack(
            *np.asarray(x, dtype=float).tolist(), *np.asarray(y, dtype=float).tolist(),
            *self._a2, *self._len, kick, 0.5 * kick, h_micro, _MIN_SPRING_LENGTH,
        ))
        k = flow(state, nsteps)
        if k >= 0:
            raise _collapsed(k, state[8])
        return np.array(state[0:4]), np.array(state[4:8])


def make_double_pendulum(epsilon, alpha1=1.0, alpha2=1.0, l1=1.0, l2=1.0):
    """Stiff spring double pendulum with unit gravity: the two-spring
    chain."""
    return StiffSpringChain(epsilon, [alpha1, alpha2], [l1, l2])


def make_spring_chain(n_springs, epsilon, alphas, lengths):
    """Chain of n_springs stiff springs hanging from the origin."""
    alphas = np.asarray(alphas, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    if alphas.shape != (n_springs,) or lengths.shape != (n_springs,):
        raise ValueError("alphas and lengths must have length n_springs")
    return StiffSpringChain(epsilon, alphas, lengths)


def benchmark_initial_state(epsilon) -> State:
    """Standard experiment start for the double pendulum.

    Both springs at right angles, the first at rest length, the second
    stretched by O(epsilon); momenta zero.  The energy stays bounded as
    epsilon decreases.
    """
    s = math.sqrt(0.5)
    return State(
        x=np.array([s, -s, math.sqrt(2.0), 5.0 * epsilon]),
        y=np.zeros(4),
        t=0.0,
    )


def hamiltonian(sys: OscillatorySystem, state: State) -> float:
    """Total energy 1/2 y^T y + slow(x) + stiff(x)/epsilon^2."""
    return (
        0.5 * float(state.y @ state.y)
        + sys.slow_potential(state.x)
        + sys.stiff_potential(state.x) / sys.epsilon ** 2
    )

