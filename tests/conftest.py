import numpy as np
import pytest

from oscint import benchmark_initial_state, make_double_pendulum

# near-manifold states with springs stretched by O(elongation*eps); the
# draws depend only on the seed, so rebuilding the system at another
# epsilon reuses the same geometry: the setup for epsilon-halving checks
from oscint.harness import random_bounded_energy_states as sample_states  # noqa: F401


@pytest.fixture
def pendulum():
    return make_double_pendulum(1e-2)


@pytest.fixture
def bench_state(pendulum):
    return benchmark_initial_state(pendulum.epsilon)


def random_spd(rng, n):
    b = rng.standard_normal((n, n))
    return b @ b.T + 0.1 * np.eye(n)
