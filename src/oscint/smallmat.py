"""Dense linear-algebra kernels for small symmetric systems.

Everything here is self-contained (no LAPACK): Cholesky factorization,
SPD and general solves, a cyclic-Jacobi symmetric eigensolver, the
generalized symmetric eigensolver obtained by Cholesky reduction, and a
damped Newton iteration.  Intended for matrices of order <= ~64.  The
kernels run scalar loops on nested lists: at these orders numpy's
per-call overhead costs more than the arithmetic.

Three 2 x 2 primitives on plain floats serve the float kernels of the
two-spring chain: cholesky_2x2, solve_2x2 and jacobi_rotation.  Each
keeps the rules of the general kernel beside it, which is its oracle
(cholesky, solve_dense and sym_eig, whose rotation it is).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np


class NotPositiveDefinite(Exception):
    """Cholesky factorization hit a non-positive pivot."""


class NoConvergence(Exception):
    """Iteration (Jacobi sweeps or Newton) failed to converge."""


class SingularMatrix(Exception):
    """Gaussian elimination hit a zero pivot column."""


class EigenPairs(NamedTuple):
    """Eigenvalues in ascending order with matching eigenvector columns.

    Vectors are orthonormal in the metric of the solve: the identity for
    :func:`sym_eig`, the second matrix for :func:`gen_eig`.
    """

    values: np.ndarray
    vectors: np.ndarray


def symmetrize(a):
    """Return 0.5*(A + A^T); entries (i,j) and (j,i) become bitwise equal."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def _columns(b):
    """b as nested row lists of a matrix, with the shape to restore:
    a vector becomes a one-column matrix."""
    b = np.asarray(b, dtype=float)
    return (b[:, None] if b.ndim == 1 else b).tolist(), b.shape


def _max(values):
    """max(values), nan when any value is nan, as numpy's max."""
    top = max(values)
    return math.nan if any(map(math.isnan, values)) else top


def _dot(u, v):
    """Sum of u[i] * v[i], accumulated from 0.0 in index order."""
    acc = 0.0
    for ui, vi in zip(u, v):
        acc += ui * vi
    return acc


def _substitute(xi, coeffs, rows, pivot):
    """Row (xi - sum_j coeffs[j] rows[j]) / pivot of a triangular solve,
    each column's sum accumulated from 0.0 in order of j."""
    acc = [0.0] * len(xi)
    for cj, row in zip(coeffs, rows):
        acc = [s + cj * v for s, v in zip(acc, row)]
    return [(v - s) / pivot for v, s in zip(xi, acc)]


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L L^T = A.

    Raises NotPositiveDefinite when a pivot drops below
    1e-14 * max(diag(A)).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("cholesky expects a square matrix")
    if n == 0:
        return np.zeros((0, 0))
    rows = a.tolist()
    tol = 1e-14 * max(_max([rows[i][i] for i in range(n)]), 0.0)
    lower = [[0.0] * n for _ in range(n)]
    for i in range(n):
        li = lower[i]
        for j in range(i + 1):
            lj = lower[j]
            acc = rows[i][j] - _dot(li[:j], lj[:j])
            if i == j:
                if not acc > tol:
                    raise NotPositiveDefinite(
                        f"pivot {acc:.3e} at index {i} (tolerance {tol:.3e})"
                    )
                li[i] = math.sqrt(acc)
            else:
                li[j] = acc / lj[j]
    return np.array(lower)


def cholesky_2x2(s00, s01, s11):
    """(l00, l10, l11) of cholesky([[s00, s01], [s01, s11]]) on floats,
    with its pivot test, tolerance (nan when the diagonal holds a nan)
    and message."""
    tol = math.nan if math.isnan(s00) or math.isnan(s11) else 1e-14 * max(s00, s11, 0.0)
    if not s00 > tol:
        raise NotPositiveDefinite(f"pivot {s00:.3e} at index 0 (tolerance {tol:.3e})")
    l00 = math.sqrt(s00)
    l10 = s01 / l00
    pivot = s11 - l10 * l10
    if not pivot > tol:
        raise NotPositiveDefinite(f"pivot {pivot:.3e} at index 1 (tolerance {tol:.3e})")
    return l00, l10, math.sqrt(pivot)


def solve_lower(lower, b):
    """Solve L x = b for lower-triangular L; b may be a vector or matrix."""
    low = np.asarray(lower, dtype=float).tolist()
    x, shape = _columns(b)
    for i, li in enumerate(low):
        x[i] = _substitute(x[i], li[:i], x[:i], li[i])
    return np.array(x).reshape(shape)


def solve_lower_t(lower, b):
    """Solve L^T x = b for lower-triangular L."""
    low = np.asarray(lower, dtype=float).tolist()
    x, shape = _columns(b)
    n = len(low)
    for i in range(n - 1, -1, -1):
        col = [low[j][i] for j in range(i + 1, n)]
        x[i] = _substitute(x[i], col, x[i + 1:], low[i][i])
    return np.array(x).reshape(shape)


def solve_spd(a, b):
    """Solve A x = b for symmetric positive definite A via Cholesky."""
    lower = cholesky(a)
    return solve_lower_t(lower, solve_lower(lower, b))


def solve_dense(a, b):
    """Solve A x = b by Gaussian elimination with partial pivoting.

    For the small, generally non-symmetric systems that appear inside
    Newton iterations; b may be a vector or a matrix.  Raises
    SingularMatrix on pivot breakdown.
    """
    a = np.asarray(a, dtype=float)
    x, shape = _columns(b)
    if a.shape[0] == 0:
        return np.array(b, dtype=float, copy=True)
    return np.array(_eliminate(a.tolist(), x)).reshape(shape)


def _eliminate(a, x):
    """Solve A X = B on nested lists, a holding the n >= 1 rows of A and
    x the rows of B; both are overwritten, and x is returned as the
    solution.  Partial pivoting takes the first row of largest
    magnitude; raises SingularMatrix on pivot breakdown."""
    n = len(a)
    scale = _max([abs(v) for row in a for v in row])
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(a[i][k]) > abs(a[p][k]):
                p = i
        if abs(a[p][k]) <= 1e-300 + 1e-15 * scale:
            raise SingularMatrix(f"pivot {a[p][k]:.3e} in column {k}")
        if p != k:
            a[k], a[p] = a[p], a[k]
            x[k], x[p] = x[p], x[k]
        ak = a[k]
        xk = x[k]
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k] / ak[k]
            if f != 0.0:
                for j in range(k + 1, n):
                    ai[j] = ai[j] - f * ak[j]
                x[i] = [v - f * w for v, w in zip(x[i], xk)]
    for i in range(n - 1, -1, -1):
        ai = a[i]
        x[i] = _substitute(x[i], ai[i + 1:], x[i + 1:], ai[i])
    return x


def solve_2x2(j00, j01, j10, j11, b0, b1):
    """(s0, s1) of solve_dense([[j00, j01], [j10, j11]], [b0, b1]) on
    floats, with _eliminate's first-largest pivot, singularity threshold
    and message.  The back substitution subtracts j01 * s1 from b0
    directly where _eliminate subtracts 0.0 + j01 * s1, so only the sign
    of a zero s0 may differ."""
    a00, a01, a10, a11 = abs(j00), abs(j01), abs(j10), abs(j11)
    # nan when an entry is nan, as _max makes it
    scale = math.nan if math.isnan(a00 + a01 + a10 + a11) else max(a00, a01, a10, a11)
    small = 1e-300 + 1e-15 * scale
    if a10 > a00:
        j00, j01, j10, j11, b0, b1 = j10, j11, j00, j01, b1, b0
    if abs(j00) <= small:
        raise SingularMatrix(f"pivot {j00:.3e} in column 0")
    f = j10 / j00
    if f != 0.0:
        j11 = j11 - f * j01
        b1 = b1 - f * b0
    if abs(j11) <= small:
        raise SingularMatrix(f"pivot {j11:.3e} in column 1")
    s1 = b1 / j11
    return (b0 - j01 * s1) / j00, s1


def jacobi_rotation(app, aqq, apq):
    """(t, c, s) of the Jacobi rotation that zeroes apq of a symmetric
    matrix: t = tan, c = cos and s = sin of its angle, the new diagonal
    being app - t apq and aqq + t apq."""
    tau = (aqq - app) / (2.0 * apq)
    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    return t, c, t * c


def sym_eig(a) -> EigenPairs:
    """All eigenpairs of a symmetric matrix by the cyclic Jacobi method.

    Returns values ascending with orthonormal vector columns.  Raises
    NoConvergence after 100 sweeps, which signals malformed (e.g.
    non-finite) input rather than a hard problem: for symmetric input
    Jacobi converges in a handful of sweeps.
    """
    a_in = symmetrize(a)
    n = a_in.shape[0]
    norm = math.sqrt(float(np.sum(a_in * a_in)))
    # a finite norm proves finite entries; an infinite one may come from
    # finite entries whose squares overflow
    if not math.isfinite(norm) and not np.all(np.isfinite(a_in)):
        raise NoConvergence("matrix has non-finite entries")
    if n <= 1:
        return EigenPairs(np.diag(a_in).copy(), np.eye(n))
    if norm == 0.0:
        return EigenPairs(np.zeros(n), np.eye(n))
    # scalar rotations on nested lists: far less per-op overhead than
    # numpy slicing at the orders (<= ~16) this solver is meant for
    a = a_in.tolist()
    vec = [[0.0] * n for _ in range(n)]
    for i in range(n):
        vec[i][i] = 1.0
    stop = 1e-15 * norm
    skip = 0.01 * stop / n
    for _ in range(100):
        # off-diagonal norm summed directly: forming it by subtraction
        # from the full norm drowns in rounding noise
        off2 = 0.0
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                off2 += ap[q] * ap[q]
        if math.sqrt(2.0 * off2) <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= skip:
                    continue
                app = a[p][p]
                aqq = a[q][q]
                t, c, s = jacobi_rotation(app, aqq, apq)
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = 0.0
                a[q][p] = 0.0
                for k in range(n):
                    if k != p and k != q:
                        akp = a[k][p]
                        akq = a[k][q]
                        a[k][p] = c * akp - s * akq
                        a[p][k] = a[k][p]
                        a[k][q] = s * akp + c * akq
                        a[q][k] = a[k][q]
                for row in vec:
                    vkp = row[p]
                    vkq = row[q]
                    row[p] = c * vkp - s * vkq
                    row[q] = s * vkp + c * vkq
    else:
        raise NoConvergence("Jacobi did not converge within 100 sweeps")
    values = [a[i][i] for i in range(n)]
    order = sorted(range(n), key=values.__getitem__)  # stable, as argsort's
    return EigenPairs(
        np.array([values[i] for i in order]),
        np.array([[row[i] for i in order] for row in vec]),
    )


def gen_eig(a, b) -> EigenPairs:
    """Eigenpairs of A v = lambda B v for symmetric A and SPD B.

    Reduces with B = L L^T to the ordinary symmetric problem on
    L^-1 A L^-T; the returned vectors satisfy v_i^T B v_j = delta_ij.
    """
    a = np.asarray(a, dtype=float)
    lower = cholesky(b)
    reduced = solve_lower(lower, solve_lower(lower, a.T).T)
    values, z = sym_eig(reduced)
    return EigenPairs(values, solve_lower_t(lower, z))


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    start,
    tol: float = 1e-12,
    max_iter: int = 20,
) -> np.ndarray:
    """Damped Newton iteration on a square nonlinear system.

    Takes full Newton steps, halving (at most 8 times) until the residual
    max-norm decreases.  Returns x with ||residual(x)||_inf <= tol, or
    raises NoConvergence after max_iter iterations, on a singular
    Jacobian, or when the line search stalls.
    """
    x = np.atleast_1d(np.array(start, dtype=float))
    r = np.array(residual(x), dtype=float, ndmin=1).tolist()
    rnorm = _max([abs(v) for v in r]) if r else 0.0
    if rnorm <= tol:
        return x
    for _ in range(max_iter):
        jac = np.array(jacobian(x), dtype=float, ndmin=2).tolist()
        try:
            step = _eliminate(jac, [[-v] for v in r])
        except SingularMatrix as exc:
            raise NoConvergence(f"singular Jacobian: {exc}") from exc
        xs = x.tolist()
        frac = 1.0
        best = None
        for _ in range(9):  # full step plus up to 8 halvings
            x_try = np.array([a + frac * b for a, (b,) in zip(xs, step)])
            r_try = np.array(residual(x_try), dtype=float, ndmin=1).tolist()
            n_try = _max([abs(v) for v in r_try])
            if n_try < rnorm:
                best = (x_try, r_try, n_try)
                break
            frac *= 0.5
        if best is None:
            raise NoConvergence(
                f"line search stalled at residual {rnorm:.3e} (tol {tol:.3e})"
            )
        x, r, rnorm = best
        if rnorm <= tol:
            return x
    raise NoConvergence(
        f"no convergence after {max_iter} iterations, residual {rnorm:.3e}"
    )
