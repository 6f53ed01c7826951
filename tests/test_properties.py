"""Property tests: every analytic model derivative against central
differences, on random near-manifold chains (N = 1..8) and random
double-pendulum parameters; the chain's constraint Hessian against the
stiff Hessian it splits; the reduced manifold frequencies against the
full pencil on the same chains, projected onto the manifold."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oscint import (
    frequencies,
    make_double_pendulum,
    make_spring_chain,
    manifold_frequencies,
    project_to_manifold,
)
from oscint.model import OscillatorySystem

FD = 1e-6
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)

unit = st.floats(-1.0, 1.0)
angle = st.floats(-math.pi, math.pi)
alpha = st.floats(0.5, 3.0)
rest_length = st.floats(0.5, 2.0)
# spring elongation relative to its rest length: near the manifold
stretch = st.floats(-0.1, 0.1)


def _bobs(angles, lengths, stretches):
    """Positions of the bobs, spring k of length lengths[k] * (1 + stretch)."""
    x = []
    px, py = 0.0, 0.0
    for theta, length, e in zip(angles, lengths, stretches):
        px += length * (1.0 + e) * math.sin(theta)
        py -= length * (1.0 + e) * math.cos(theta)
        x += [px, py]
    return np.array(x)


@st.composite
def chains(draw):
    """(system, configuration, direction) for a random chain."""
    m = draw(st.integers(1, 8))
    alphas = draw(st.lists(alpha, min_size=m, max_size=m))
    lengths = draw(st.lists(rest_length, min_size=m, max_size=m))
    x = _bobs(
        draw(st.lists(angle, min_size=m, max_size=m)),
        lengths,
        draw(st.lists(stretch, min_size=m, max_size=m)),
    )
    v = np.array(draw(st.lists(unit, min_size=2 * m, max_size=2 * m)))
    return make_spring_chain(m, 1e-2, alphas, lengths), x, v


@st.composite
def double_pendulums(draw):
    a1, a2 = draw(alpha), draw(alpha)
    l1, l2 = draw(rest_length), draw(rest_length)
    x = _bobs([draw(angle), draw(angle)], [l1, l2], [draw(stretch), draw(stretch)])
    v = np.array(draw(st.lists(unit, min_size=4, max_size=4)))
    return make_double_pendulum(1e-2, a1, a2, l1, l2), x, v


def _central(f, x, step=FD):
    """Central differences of f at x; column j is the derivative along x_j."""
    cols = []
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = step
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * step))
    return np.stack(cols, axis=-1)


def _check_derivatives(sys, x, v):
    grad = sys.grad_stiff(x)
    assert np.max(np.abs(grad - _central(sys.stiff_potential, x))) <= 1e-6 * (
        1.0 + np.max(np.abs(grad))
    )
    hess = sys.hess_stiff(x)
    assert np.max(np.abs(hess - _central(sys.grad_stiff, x))) <= 1e-5 * (
        1.0 + np.max(np.abs(hess))
    )
    jac = sys.constraint_jacobian(x)
    assert np.max(np.abs(jac - _central(sys.constraint, x))) <= 1e-6
    contract = sys.hess_stiff_contract(x, v)
    fd_contract = OscillatorySystem.hess_stiff_contract(sys, x, v)
    assert np.max(np.abs(contract - fd_contract)) <= 1e-6 * (
        1.0 + np.max(np.abs(contract))
    )


@PROPERTY
@given(chains())
def test_chain_derivatives_match_central_differences(case):
    _check_derivatives(*case)


@PROPERTY
@given(double_pendulums())
def test_double_pendulum_derivatives_match_central_differences(case):
    _check_derivatives(*case)


@PROPERTY
@given(chains())
def test_constraint_hessian_matches_central_differences(case):
    sys, x, v = case
    w = v[: sys.m]
    hess = sys.constraint_hessian(x, w)
    scale = 1e-6 * (1.0 + np.max(np.abs(hess)))
    fd = _central(lambda z: sys.constraint_jacobian(z).T @ w, x)
    assert np.max(np.abs(hess - fd)) <= scale
    default = OscillatorySystem.constraint_hessian(sys, x, w)
    assert np.max(np.abs(hess - default)) <= scale


@PROPERTY
@given(chains())
def test_hess_stiff_splits_over_constraints(case):
    # stiff = 1/2 sum_k K_k c_k^2, so hess stiff = G^T K G + sum_k K_k c_k hess c_k
    sys, x, _ = case
    k = sys.stiff_weights()
    jac = sys.constraint_jacobian(x)
    split = jac.T @ (k[:, None] * jac) + sys.constraint_hessian(x, k * sys.constraint(x))
    hess = sys.hess_stiff(x)
    assert np.max(np.abs(hess - split)) <= 1e-12 * (1.0 + np.max(np.abs(hess)))


@PROPERTY
@given(chains())
def test_manifold_frequencies_match_full_pencil(case):
    sys, x, _ = case
    pos = project_to_manifold(sys, x).position
    reduced = manifold_frequencies(sys, pos)
    full = frequencies(sys, pos)
    assert np.max(np.abs(reduced.omegas - full.omegas) / full.omegas) <= 1e-10
    # the projector V V^T M onto the fast space (M = I) is the same for any
    # sign or basis choice inside a degenerate frequency
    proj = reduced.vectors @ reduced.vectors.T
    assert np.max(np.abs(proj - full.vectors @ full.vectors.T)) <= 1e-9
