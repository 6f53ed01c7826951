"""Oscillatory mechanical systems with a stiff constraining potential.

A system bundles a mass matrix M(x), a smooth slow potential, a stiff
potential (scaled internally by 1/epsilon^2) whose zero set is the
constraint manifold, and the constraint function with its Jacobian:

    H(x, y) = 1/2 y^T M(x)^-1 y + slow(x) + stiff(x) / epsilon^2

Shipped models are planar chains of stiff springs under gravity; the
double pendulum is the two-spring chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import smallmat


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
        mass_is_constant: True when M(x) does not depend on x; the
            shipped explicit integrators require it.

    Subclasses provide mass_matrix, slow_potential, grad_slow,
    stiff_potential, grad_stiff, hess_stiff, constraint and
    constraint_jacobian.  All evaluators must be pure.  stiff_flow,
    stiff_eig_bound, hess_stiff_contract, constraint_hessian,
    project_position, momentum_projector, projection_jacobian_t and
    manifold_frequencies have generic defaults; a model may override
    them with faster or exact versions.
    stiff_weights is optional as well.
    """

    n: int
    m: int
    epsilon: float
    mass_is_constant: bool

    def mass_matrix(self, x) -> np.ndarray:
        raise NotImplementedError

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
        positive entries; None (the default) when the model does not
        declare that form.  They let frequencies on the manifold come
        from an m x m eigenproblem (effective.manifold_frequencies).
        """
        return None

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
        """Mass-metric projection onto the constraint manifold along the
        directions at x: (position, lam) with constraint(position) = 0
        and position = base + M(x)^-1 G(x)^T lam, base = x by default.

        Default: a rank check by Cholesky of G M^-1 G^T at x (raising
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
        minv_gt = mass_solve(self, x, frozen_jac.T)
        smallmat.cholesky(frozen_jac @ minv_gt)  # fail fast on rank loss before iterating

        def residual(lam):
            return self.constraint(base + minv_gt @ lam)

        def jacobian(lam):
            return self.constraint_jacobian(base + minv_gt @ lam) @ minv_gt

        lam = smallmat.newton_solve(residual, jacobian, np.zeros(self.m), tol=1e-12)
        return base + minv_gt @ lam, lam

    def momentum_projector(self, x) -> np.ndarray:
        """Oblique projector P = I - G^T S^-1 G M^-1 with S = G M^-1 G^T,
        all at x (geometry.momentum_projector).

        Default: S by numpy, then smallmat.solve_spd, raising
        smallmat.NotPositiveDefinite when M or S is not SPD.  An override
        must keep the pivot test and the exception classes.
        """
        x = np.asarray(x, dtype=float)
        jac = self.constraint_jacobian(x)
        minv_gt = mass_solve(self, x, jac.T)  # n x m
        coeff = smallmat.solve_spd(jac @ minv_gt, minv_gt.T)  # m x n, = S^-1 G M^-1
        return np.eye(self.n) - jac.T @ coeff

    def projection_jacobian_t(self, x, position, lam) -> np.ndarray:
        """Transpose of d(position)/dx for the projection (position, lam)
        of x (project_position), by implicit differentiation.

        Differentiating position = x + M^-1 G(x)^T lam(x) (constant M) and
        constraint(position(x)) = 0 gives, with D = M^-1 sum_k lam_k
        hess constraint_k(x) the x-derivative of the map
        x -> M^-1 G(x)^T lam at frozen lam and B = I + D:

            d(position)/dx = B - M^-1 G(x)^T S~^-1 G(position) B,
            S~ = G(position) M(x)^-1 G(x)^T.

        Default: numpy products and smallmat.solve_dense, raising
        smallmat.SingularMatrix when S~ is singular.  An override must
        keep that threshold and the exception classes.
        """
        minv_gt = mass_solve(self, x, self.constraint_jacobian(x).T)
        b = np.eye(self.n) + mass_solve(self, x, self.constraint_hessian(x, lam))
        jac_pos = self.constraint_jacobian(position)
        gram = jac_pos @ minv_gt  # m x m, generally non-symmetric
        coeff = smallmat.solve_dense(gram, jac_pos @ b)
        return (b - minv_gt @ coeff).T

    def manifold_frequencies(self, x, weights):
        """(omegas, vectors) from the m x m SPD matrix
        S = K^1/2 G M^-1 G^T K^1/2 at x for the stiff weights K
        (effective.manifold_frequencies): for S u = lambda u, ascending,
        omega = sqrt(lambda) and the mass-orthonormal mode vector
        v = M^-1 G^T K^1/2 u / omega.

        Default: S by numpy, then smallmat.sym_eig, raising
        smallmat.NotPositiveDefinite when the smallest eigenvalue is not
        positive.  An override must keep sym_eig's rotation formulas,
        its order and its exceptions.
        """
        x = np.asarray(x, dtype=float)
        a = self.constraint_jacobian(x).T * np.sqrt(weights)  # G^T K^1/2, n x m
        b = mass_solve(self, x, a)
        pairs = smallmat.sym_eig(a.T @ b)
        if pairs.values[0] <= 0.0:
            raise smallmat.NotPositiveDefinite(
                f"constraint Gram eigenvalue not positive: {pairs.values[0]:.3e}"
            )
        omegas = np.sqrt(pairs.values)
        return omegas, (b @ pairs.vectors) / omegas

    def stiff_flow(self, x, y, h_micro, nsteps):
        """Leapfrog of xdot = M^-1 y, ydot = -grad stiff / epsilon^2
        (constant mass) over nsteps micro steps of h_micro; returns the
        new (x, y).

        An override must reproduce this loop bit for bit and raise
        DomainError at every step where grad_stiff would.
        """
        scale = -(1.0 / self.epsilon ** 2)
        grad_stiff = self.grad_stiff
        return leapfrog(
            lambda z: scale * grad_stiff(z), x, y, h_micro, nsteps,
            lambda v: mass_solve(self, x, v),
        )


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


def leapfrog(force, x, y, h_micro, nsteps, velocity):
    """Kick-drift-kick leapfrog of xdot = velocity(y), ydot = force(x)
    over nsteps equal micro steps; returns (x, y).  One force evaluation
    per step."""
    half = 0.5 * h_micro
    f = force(x)
    for _ in range(nsteps):
        y = y + half * f
        x = x + h_micro * velocity(y)
        f = force(x)
        y = y + half * f
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


def _pair_columns(segs):
    """Columns (G_0j, G_1j), j = 0..3, of the two-spring constraint
    Jacobian, from the segments (d0, d1, r) of its springs."""
    (d0, d1, r1), (e0, e1, r2) = segs
    v0 = e0 / r2
    v1 = e1 / r2
    return (d0 / r1, -v0), (d1 / r1, -v1), (0.0, v0), (0.0, v1)


def _pair_gram(cols):
    """Entries (s00, s01, s11) of A^T A for the rows (a_j0, a_j1) of A."""
    s00 = s01 = s11 = 0.0
    for a0, a1 in cols:
        s00 += a0 * a0
        s01 += a0 * a1
        s11 += a1 * a1
    return s00, s01, s11


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
    mass_is_constant: bool = field(init=False, default=True)

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

    def _segments(self, x):
        """Per spring: (dx, dy, length), measured from the previous bob."""
        xs = x.tolist()
        segs = []
        px, py = 0.0, 0.0
        for k in range(self.m):
            qx, qy = xs[2 * k], xs[2 * k + 1]
            d0 = qx - px
            d1 = qy - py
            r = math.hypot(d0, d1)
            if r < _MIN_SPRING_LENGTH:
                raise _collapsed(k, r)
            segs.append((d0, d1, r))
            px, py = qx, qy
        return segs

    def mass_matrix(self, x):
        return np.eye(self.n)

    def slow_potential(self, x):
        total = x[1]
        for k in range(1, self.m):
            total = total + x[2 * k + 1]
        return total

    def grad_slow(self, x):
        g = np.zeros(self.n)
        g[1::2] = 1.0
        return g

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
        v = v.tolist()
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
        return np.array(self._a2)

    def constraint(self, x):
        segs = self._segments(x)
        return np.array([segs[k][2] - self._len[k] for k in range(self.m)])

    def constraint_hessian(self, x, w):
        """Spring k adds w_k (I - u u^T) / r, u = d / r, on its segment d,
        written as w_k / r^3 (d1^2, -d0 d1, d0^2)."""
        segs = self._segments(x)
        w = np.asarray(w, dtype=float).tolist()
        blocks = []
        for k, (d0, d1, r) in enumerate(segs):
            c = w[k] / (r * r * r)
            blocks.append((c * (d1 * d1), -c * (d0 * d1), c * (d0 * d0)))
        return _chain_matrix(self.n, blocks)

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
        """For two springs with identity mass, the default's rank check
        and Newton solve on plain floats, under all of the default's
        rules.  The default sums G^T lam in a numpy matvec, so the two
        agree to rounding, not bit for bit.  Other chains run the
        default."""
        if self.m != 2 or not has_identity_mass(self, x):
            if base is None:
                return super().project_position(x)
            return super().project_position(x, base)
        l1, l2 = self._len
        hypot = math.hypot
        tol = 1e-12
        x0, x1, x2, x3 = np.asarray(x, dtype=float).tolist()
        # G(x) has the rows (u, 0) and (-v, v), u and v the unit segments
        # of the two springs at x
        r1 = hypot(x0, x1)
        if r1 < _MIN_SPRING_LENGTH:
            raise _collapsed(0, r1)
        d0 = x2 - x0
        d1 = x3 - x1
        r2 = hypot(d0, d1)
        if r2 < _MIN_SPRING_LENGTH:
            raise _collapsed(1, r2)
        u0 = x0 / r1
        u1 = x1 / r1
        v0 = d0 / r2
        v1 = d1 / r2
        # Cholesky pivots of the Gram matrix G G^T
        g00 = u0 * u0 + u1 * u1
        g11 = 2.0 * (v0 * v0 + v1 * v1)
        pivot_tol = 1e-14 * max(g00, g11)
        pivot = g00
        if pivot > pivot_tol:
            l10 = -(u0 * v0 + u1 * v1) / math.sqrt(g00)
            pivot = g11 - l10 * l10
        if not pivot > pivot_tol:
            raise smallmat.NotPositiveDefinite(
                f"pivot {pivot:.3e} of G G^T (tolerance {pivot_tol:.3e})"
            )
        if base is not None:
            # from here on (x0, x1, x2, x3) is the base point
            x0, x1, x2, x3 = np.asarray(base, dtype=float).tolist()
            r1 = hypot(x0, x1)
            if r1 < _MIN_SPRING_LENGTH:
                raise _collapsed(0, r1)
            d0 = x2 - x0
            d1 = x3 - x1
            r2 = hypot(d0, d1)
            if r2 < _MIN_SPRING_LENGTH:
                raise _collapsed(1, r2)
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
            j00 = a0 * u0 + a1 * u1
            j01 = -(a0 * v0 + a1 * v1)
            j10 = -(b0 * u0 + b1 * u1)
            j11 = 2.0 * (b0 * v0 + b1 * v1)
            s0 = -c0
            s1 = -c1
            small = 1e-300 + 1e-15 * max(abs(j00), abs(j01), abs(j10), abs(j11))
            if abs(j10) > abs(j00):
                j00, j01, j10, j11, s0, s1 = j10, j11, j00, j01, s1, s0
            if abs(j00) <= small:
                raise smallmat.NoConvergence(f"singular Jacobian: pivot {j00:.3e} in column 0")
            f = j10 / j00
            if f != 0.0:
                j11 = j11 - f * j01
                s1 = s1 - f * s0
            if abs(j11) <= small:
                raise smallmat.NoConvergence(f"singular Jacobian: pivot {j11:.3e} in column 1")
            s1 = s1 / j11
            s0 = (s0 - j01 * s1) / j00
            frac = 1.0
            for _ in range(9):  # full step plus up to 8 halvings
                t0 = lam0 + frac * s0
                t1 = lam1 + frac * s1
                z0 = x0 + (u0 * t0 - v0 * t1)
                z1 = x1 + (u1 * t0 - v1 * t1)
                z2 = x2 + v0 * t1
                z3 = x3 + v1 * t1
                r1 = hypot(z0, z1)
                if r1 < _MIN_SPRING_LENGTH:
                    raise _collapsed(0, r1)
                d0 = z2 - z0
                d1 = z3 - z1
                r2 = hypot(d0, d1)
                if r2 < _MIN_SPRING_LENGTH:
                    raise _collapsed(1, r2)
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

    # The three kernels below replace, for two springs with identity
    # mass, a default's numpy products and smallmat solve with one pass
    # on floats under the same rules.  Numpy sums its products in another
    # order, so results agree with the default to rounding, not bit for
    # bit.  Other chains run the defaults.

    def momentum_projector(self, x):
        """P = I - G^T S^-1 G through the Cholesky factor of S = G G^T,
        with smallmat.cholesky's pivot test and message."""
        if self.m != 2 or not has_identity_mass(self, x):
            return super().momentum_projector(x)
        cols = _pair_columns(self._segments(x))
        s00, s01, s11 = _pair_gram(cols)
        # nan when the diagonal holds a nan, as smallmat._max makes it
        tol = math.nan if math.isnan(s00 + s11) else 1e-14 * max(s00, s11, 0.0)
        if not s00 > tol:
            raise smallmat.NotPositiveDefinite(f"pivot {s00:.3e} at index 0 (tolerance {tol:.3e})")
        l00 = math.sqrt(s00)
        l10 = s01 / l00
        pivot = s11 - l10 * l10
        if not pivot > tol:
            raise smallmat.NotPositiveDefinite(f"pivot {pivot:.3e} at index 1 (tolerance {tol:.3e})")
        l11 = math.sqrt(pivot)
        # column j of S^-1 G by the forward and the back substitution
        coeff = []
        for g0, g1 in cols:
            z0 = g0 / l00
            w1 = (g1 - l10 * z0) / l11 / l11
            coeff.append(((z0 - l10 * w1) / l00, w1))
        p = [[-(g0 * w0 + g1 * w1) for w0, w1 in coeff] for g0, g1 in cols]
        for i in range(4):
            p[i][i] += 1.0
        return np.array(p)

    def projection_jacobian_t(self, x, position, lam):
        """B = I + D from the constraint_hessian blocks, then the 2 x 2
        system S~ by elimination with partial pivoting and
        smallmat.solve_dense's singularity threshold and message."""
        if self.m != 2 or not has_identity_mass(self, x):
            return super().projection_jacobian_t(x, position, lam)
        (d0, d1, r1), (e0, e1, r2) = self._segments(x)
        (f0, f1, s1), (g0, g1, s2) = self._segments(position)
        u0, u1, v0, v1 = d0 / r1, d1 / r1, e0 / r2, e1 / r2  # G(x) = ((u, 0), (-v, v))
        p0, p1, q0, q1 = f0 / s1, f1 / s1, g0 / s2, g1 / s2  # G(position)
        # B = I + D from constraint_hessian's blocks h and k of the two
        # springs: h on bob 1, k with + on both bobs' diagonal blocks and
        # - off them
        w0, w1 = np.asarray(lam, dtype=float).tolist()
        t = w0 / (r1 * r1 * r1)
        h00, h01, h11 = t * (d1 * d1), -t * (d0 * d1), t * (d0 * d0)
        t = w1 / (r2 * r2 * r2)
        k00, k01, k11 = t * (e1 * e1), -t * (e0 * e1), t * (e0 * e0)
        b = (
            (1.0 + (h00 + k00), h01 + k01, -k00, -k01),
            (h01 + k01, 1.0 + (h11 + k11), -k01, -k11),
            (-k00, -k01, 1.0 + k00, k01),
            (-k01, -k11, k01, 1.0 + k11),
        )
        # S~ = G(position) G(x)^T and the right-hand side G(position) B,
        # B's columns being its rows
        j00 = p0 * u0 + p1 * u1
        j01 = -(p0 * v0) - p1 * v1
        j10 = -(q0 * u0) - q1 * u1
        j11 = 2.0 * (q0 * v0 + q1 * v1)
        rhs0 = [p0 * b0 + p1 * b1 for b0, b1, _, _ in b]
        rhs1 = [q0 * (b2 - b0) + q1 * (b3 - b1) for b0, b1, b2, b3 in b]
        small = 1e-300 + 1e-15 * max(abs(j00), abs(j01), abs(j10), abs(j11))
        if abs(j10) > abs(j00):
            j00, j01, j10, j11, rhs0, rhs1 = j10, j11, j00, j01, rhs1, rhs0
        if abs(j00) <= small:
            raise smallmat.SingularMatrix(f"pivot {j00:.3e} in column 0")
        f = j10 / j00
        if f != 0.0:
            j11 = j11 - f * j01
            rhs1 = [v - f * w for v, w in zip(rhs1, rhs0)]
        if abs(j11) <= small:
            raise smallmat.SingularMatrix(f"pivot {j11:.3e} in column 1")
        sol1 = [v / j11 for v in rhs1]
        sol0 = [(v - j01 * w) / j00 for v, w in zip(rhs0, sol1)]
        # row j of the transpose of B - G(x)^T S~^-1 G(position) B, from
        # column j of the solution
        return np.array([
            [b0 - (u0 * t0 - v0 * t1), b1 - (u1 * t0 - v1 * t1), b2 - v0 * t1, b3 - v1 * t1]
            for (b0, b1, b2, b3), t0, t1 in zip(b, sol0, sol1)
        ])

    def manifold_frequencies(self, x, weights):
        """S = A^T A with A = G^T K^1/2, then smallmat.sym_eig's single
        Jacobi rotation of a 2 x 2 matrix (the same tau, t, c and s, the
        same stopping test and ascending order) and its exceptions."""
        if self.m != 2 or not has_identity_mass(self, x):
            return super().manifold_frequencies(x, weights)
        k0, k1 = (math.sqrt(w) for w in np.asarray(weights, dtype=float).tolist())
        rows = [(g0 * k0, g1 * k1) for g0, g1 in _pair_columns(self._segments(x))]
        s00, s01, s11 = _pair_gram(rows)
        if not (math.isfinite(s00) and math.isfinite(s01) and math.isfinite(s11)):
            raise smallmat.NoConvergence("matrix has non-finite entries")
        c, s = 1.0, 0.0
        norm = math.sqrt(s00 * s00 + s01 * s01 + s01 * s01 + s11 * s11)
        if math.sqrt(2.0 * (s01 * s01)) > 1e-15 * norm:
            tau = (s11 - s00) / (2.0 * s01)
            t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            s00, s11 = s00 - t * s01, s11 + t * s01
        # eigenvector columns (c, -s) for s00 and (s, c) for s11
        pairs = [(s00, c, -s), (s11, s, c)]
        if s11 < s00:
            pairs.reverse()
        (lo, u0, u1), (hi, v0, v1) = pairs
        if lo <= 0.0:
            raise smallmat.NotPositiveDefinite(f"constraint Gram eigenvalue not positive: {lo:.3e}")
        om0 = math.sqrt(lo)
        om1 = math.sqrt(hi)
        return np.array([om0, om1]), np.array(
            [[(a0 * u0 + a1 * u1) / om0, (a0 * v0 + a1 * v1) / om1] for a0, a1 in rows]
        )

    def stiff_flow(self, x, y, h_micro, nsteps):
        """For two springs, the generic leapfrog unrolled on floats: same
        operations in the same order as grad_stiff, so the result is
        bit-identical.  The opening force is evaluated before the loop,
        and each pass runs kick, drift, force, kick.  Other chains run
        the generic loop."""
        if self.m != 2:
            return super().stiff_flow(x, y, h_micro, nsteps)
        a1, a2 = self._a2
        l1, l2 = self._len
        scale = -(1.0 / self.epsilon ** 2)
        half = 0.5 * h_micro
        hypot = math.hypot
        x0, x1, x2, x3 = x.tolist()
        y0, y1, y2, y3 = y.tolist()
        # the force block below is repeated inside the loop: a call per
        # micro step would cost a good part of the step
        r1 = hypot(x0, x1)
        if r1 < _MIN_SPRING_LENGTH:
            raise _collapsed(0, r1)
        d0 = x2 - x0
        d1 = x3 - x1
        r2 = hypot(d0, d1)
        if r2 < _MIN_SPRING_LENGTH:
            raise _collapsed(1, r2)
        c1 = a1 * (r1 - l1) / r1
        c2 = a2 * (r2 - l2) / r2
        k0 = half * (scale * (c1 * x0 - c2 * d0))
        k1 = half * (scale * (c1 * x1 - c2 * d1))
        k2 = half * (scale * (c2 * d0))
        k3 = half * (scale * (c2 * d1))
        for _ in range(nsteps):
            y0 = y0 + k0
            y1 = y1 + k1
            y2 = y2 + k2
            y3 = y3 + k3
            x0 = x0 + h_micro * y0
            x1 = x1 + h_micro * y1
            x2 = x2 + h_micro * y2
            x3 = x3 + h_micro * y3
            r1 = hypot(x0, x1)
            if r1 < _MIN_SPRING_LENGTH:
                raise _collapsed(0, r1)
            d0 = x2 - x0
            d1 = x3 - x1
            r2 = hypot(d0, d1)
            if r2 < _MIN_SPRING_LENGTH:
                raise _collapsed(1, r2)
            c1 = a1 * (r1 - l1) / r1
            c2 = a2 * (r2 - l2) / r2
            k0 = half * (scale * (c1 * x0 - c2 * d0))
            k1 = half * (scale * (c1 * x1 - c2 * d1))
            k2 = half * (scale * (c2 * d0))
            k3 = half * (scale * (c2 * d1))
            y0 = y0 + k0
            y1 = y1 + k1
            y2 = y2 + k2
            y3 = y3 + k3
        return np.array([x0, x1, x2, x3]), np.array([y0, y1, y2, y3])


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


def has_identity_mass(sys: OscillatorySystem, x) -> bool:
    """True when M(x) is the identity; memoized for constant-mass systems."""
    cached = getattr(sys, "_identity_mass", None)
    if cached is not None and sys.mass_is_constant:
        return cached
    result = _is_identity(sys.mass_matrix(x))
    if sys.mass_is_constant:
        sys._identity_mass = result
    return result


def require_constant_mass(sys: OscillatorySystem, what="leapfrog integration"):
    if not sys.mass_is_constant:
        raise ValueError(f"{what} requires a constant mass matrix")


def mass_solve(sys: OscillatorySystem, x, v):
    """M(x)^-1 v for a vector or a matrix of columns v; v itself for
    identity mass.  Raises smallmat.NotPositiveDefinite for a mass matrix
    that is not SPD."""
    if has_identity_mass(sys, x):
        return v
    return smallmat.solve_spd(sys.mass_matrix(x), v)


def pencil_eig(sys: OscillatorySystem, x, hess) -> smallmat.EigenPairs:
    """Eigenpairs of the pencil (hess, M(x)), ascending, with
    mass-orthonormal vectors: a symmetric eigensolve for identity mass."""
    if has_identity_mass(sys, x):
        return smallmat.sym_eig(hess)
    return smallmat.gen_eig(hess, sys.mass_matrix(x))


def hamiltonian(sys: OscillatorySystem, state: State) -> float:
    """Total energy 1/2 y^T M^-1 y + slow(x) + stiff(x)/epsilon^2."""
    return (
        0.5 * float(state.y @ mass_solve(sys, state.x, state.y))
        + sys.slow_potential(state.x)
        + sys.stiff_potential(state.x) / sys.epsilon ** 2
    )


def _is_identity(mass: np.ndarray) -> bool:
    return np.array_equal(mass, np.eye(mass.shape[0]))
