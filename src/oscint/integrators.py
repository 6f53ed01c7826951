"""Time steppers for the stiff oscillatory system.

The micro level is the leapfrog model.leapfrog, in its merged-kick
(Stoermer-Verlet) form: one kick per step, half kicks only at the ends
of a call.  The fast-flow solver runs it with the slow force switched
off.  That stiff sub-flow goes through the system's stiff_flow, which
the two-spring chain runs in a C kernel (oscint.native, compiled on
first use) with results bit-identical to the generic loop, and in the
generic loop itself when no kernel can be built.  stormer_verlet stays
the single entry point and runs the micro stability guard on every call.
The guard takes the model's stiff_eig_bound, which for the spring chain
is a constant, and runs an eigensolve only when that bound does not
clear the step.
On the macro level macro_step runs one of three splitting methods; they
share the oscillate step and differ only in the kick force:

    impulse    kick with -grad slow(x)
    mollified  kick with -J(x)^T grad slow(p(x)), p the manifold
               projection of the position and J its exact Jacobian
    projected  kick with -P(x) grad slow(x), P the momentum projector

Both projecting kicks apply their operator to the one vector
(geometry.projection_vjp and project_momentum) and never assemble it.

integrate, integrate_micro and effective.effective_reference share one
sampling loop, _sampled_run: the same stride and horizon checks, samples,
clock and IntegrationError on a failing step; each keeps only its step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import smallmat
from .geometry import project_momentum, project_to_manifold, projection_vjp
from .model import OscillatorySystem, State, leapfrog

METHOD_KINDS = ("impulse", "mollified", "projected")


class StabilityViolation(Exception):
    """Micro stepsize too large for the fastest oscillation."""


class IntegrationError(Exception):
    """A macro step failed; carries the partial trajectory."""

    def __init__(self, message, partial=None, time=None):
        super().__init__(message)
        self.partial = partial
        self.time = time


# observer(sys, state, position) -> record, where position is the
# projection of state.x onto the manifold or None when the integrator
# has not computed it
Observer = Callable[[OscillatorySystem, State, Optional[np.ndarray]], object]


def step_count(t_end: float, h: float) -> int:
    """Number n = round(t_end / h) of steps h that make up t_end.

    Raises ValueError unless |n h - t_end| <= 1e-9 t_end: a step that
    does not divide t_end would end the run before or after it.
    """
    n = t_end / h
    if not math.isfinite(n) or abs(round(n) * h - t_end) > 1e-9 * t_end:
        raise ValueError(f"step {h!r} does not divide t_end {t_end!r}")
    return round(n)


@dataclass
class MacroMethod:
    """Macro stepper selection: kind, stepsize h, and the micro divisor
    fixing the micro stepsize epsilon / micro_divisor."""

    kind: str
    h: float
    micro_divisor: int = 100

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}")
        if not 0.0 < self.h < math.inf:
            raise ValueError("macro stepsize must be positive")
        if self.micro_divisor < 1:
            raise ValueError("micro_divisor must be >= 1")


@dataclass
class Trajectory:
    """Time-ordered samples: times t (N,), positions x and momenta y
    (N, n), and one diagnostics record per sample (None without an
    observer)."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    records: list


# relative margin by which stiff_eig_bound must clear a step, so that a
# step it clears only by rounding goes to the exact eigensolve
_BOUND_MARGIN = 1e-9


def _check_micro_stability(sys, x, h_micro):
    """Entry guard: h_micro * (fastest frequency) must stay below 2.

    sys.stiff_eig_bound(x) bounds the largest eigenvalue of the stiff
    Hessian; the exact eigensolve runs only when that bound does not
    clear the step with a margin of _BOUND_MARGIN.
    Unconstrained systems (m = 0) are checked too: their stiff part may
    still oscillate, and a zero stiff Hessian clears every step.
    """
    bound = sys.stiff_eig_bound(x)
    if h_micro * math.sqrt(bound) / sys.epsilon < 2.0 * (1.0 - _BOUND_MARGIN):
        return
    values = smallmat.sym_eig(sys.hess_stiff(x)).values
    omega_max = math.sqrt(max(float(values[-1]), 0.0))
    if h_micro * omega_max / sys.epsilon >= 2.0:
        raise StabilityViolation(
            f"h_micro={h_micro:.3e} exceeds stability limit "
            f"{2.0 * sys.epsilon / omega_max:.3e} for omega_max/eps="
            f"{omega_max / sys.epsilon:.3e}"
        )


def stormer_verlet(
    sys: OscillatorySystem,
    state: State,
    h_micro: float,
    nsteps: int,
    include_slow: bool = True,
) -> State:
    """Leapfrog over nsteps equal micro steps (see model.leapfrog).

    Integrates xdot = y, ydot = -[include_slow] grad slow
    - grad stiff / epsilon^2.  One stiff-force evaluation per step.
    The stiff sub-flow runs in sys.stiff_flow, the full flow in the
    generic model.leapfrog with grad slow + grad stiff / epsilon^2 and
    coefficient -1.
    """
    _check_micro_stability(sys, state.x, h_micro)
    if include_slow:
        inv_eps2 = 1.0 / sys.epsilon ** 2
        grad_stiff = sys.grad_stiff
        grad_slow = sys.grad_slow

        def grad(z):
            return grad_slow(z) + inv_eps2 * grad_stiff(z)

        x, y = leapfrog(grad, -1.0, state.x, state.y, h_micro, nsteps)
    else:
        x, y = sys.stiff_flow(state.x, state.y, h_micro, nsteps)
    if nsteps == 0:  # leapfrog returns its inputs; with steps both flows return new arrays
        x, y = x.copy(), y.copy()
    return State(x, y, state.t + nsteps * h_micro)


def fast_flow(
    sys: OscillatorySystem, state: State, h: float, micro_divisor: int
) -> State:
    """Oscillate step: advance the system with the slow potential
    switched off over time h, in equal micro steps of at most
    epsilon / micro_divisor."""
    h_micro = sys.epsilon / micro_divisor
    nsteps = max(1, math.ceil(h / h_micro))
    return stormer_verlet(sys, state, h / nsteps, nsteps, include_slow=False)


# Each kick force returns (force, position): position is the projection
# of x onto the manifold when the force needs it anyway (the mollified
# kick), None otherwise.


def _kick_force_impulse(sys, x):
    return sys.grad_slow(x), None


def _kick_force_mollified(sys, x):
    moll = project_to_manifold(sys, x)
    return projection_vjp(sys, x, moll, sys.grad_slow(moll.position)), moll.position


def _kick_force_projected(sys, x):
    return project_momentum(sys, x, sys.grad_slow(x)), None


_KICK_FORCES = {
    "impulse": _kick_force_impulse,
    "mollified": _kick_force_mollified,
    "projected": _kick_force_projected,
}


def _splitting_step(sys, state, method, f_start=None):
    """One kick-oscillate-kick step; returns (State, f_end, position).

    f_start is the kick force at state.x when the caller already has it.
    A kick changes only the momenta, so the closing force f_end is the
    next step's opening force (first same as last).  position is the
    closing kick's manifold projection of the new state.x, or None when
    the kick does not project.
    """
    kick_force = _KICK_FORCES[method.kind]
    half = 0.5 * method.h
    if f_start is None:
        f_start = kick_force(sys, state.x)[0]
    y = state.y - half * f_start
    mid = fast_flow(sys, State(state.x, y, state.t), method.h, method.micro_divisor)
    f_end, position = kick_force(sys, mid.x)
    return State(mid.x, mid.y - half * f_end, mid.t), f_end, position


def macro_step(sys: OscillatorySystem, state: State, method: MacroMethod) -> State:
    """One kick-oscillate-kick step of the method's kind."""
    return _splitting_step(sys, state, method)[0]


def _sampled_run(sys, state, step, h, t_end, stride, observer, label, chunk=1):
    """Run step from state over t_end in units h: the one sampling loop
    of integrate, integrate_micro and effective_reference.

    The unit h must be positive and finite, and t_end > 0 a whole number
    of units (see step_count); a horizon shorter than one unit keeps the
    initial sample only.
    step(state, carry, count) advances count units (one, or up to chunk
    without passing a sample) and returns (state, carry, position):
    carry goes to the next call (None on the first), position to the
    observer.  After unit k the clock reads t0 + k h.  Samples: the
    start, every stride-th unit and the last, one observer call each.  A
    failing call raises IntegrationError with the samples so far and the
    time at which the call started.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"step {h!r} must be positive and finite")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if type(stride) is not int or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, not {stride!r}")
    nsteps = 0 if t_end < h else step_count(t_end, h)
    samples = []

    def sample(state, position=None):
        record = observer(sys, state, position) if observer else None
        samples.append((state.t, state.x, state.y, record))

    def trajectory():
        t, x, y, records = zip(*samples)
        return Trajectory(np.array(t), np.array(x), np.array(y), list(records))

    sample(state)
    t0 = state.t
    carry = None
    k = 0
    while k < nsteps:
        count = min(chunk, nsteps - k)
        try:
            state, carry, position = step(state, carry, count)
        except Exception as exc:
            raise IntegrationError(
                f"{label} step failed at t={state.t:.6g}: {exc}",
                partial=trajectory(),
                time=state.t,
            ) from exc
        k += count
        state.t = t0 + k * h  # multiplicative clock, no accumulation
        if k % stride == 0 or k == nsteps:
            sample(state, position)
    return trajectory()


def integrate(
    sys: OscillatorySystem,
    state0: State,
    method: MacroMethod,
    t_end: float,
    observer: Optional[Observer] = None,
    stride: int = 1,
) -> Trajectory:
    """Run the selected macro method from state0 up to t_end.

    Samples the initial state, every `stride`-th macro step and the
    final one (see _sampled_run for the horizon, stride and failure
    rules).  Each step reuses the previous step's closing kick force, so
    a run evaluates the kick force nsteps + 1 times; the states are
    those of macro_step applied in turn.  The observer receives the
    closing kick's manifold projection of each sampled position when the
    kick made one.
    """

    def step(state, force, count):
        return _splitting_step(sys, state, method, force)

    return _sampled_run(sys, state0, step, method.h, t_end, stride, observer, method.kind)


def integrate_micro(
    sys: OscillatorySystem,
    state0: State,
    h_micro: float,
    nsteps: int,
    sample_stride: int,
    observer: Optional[Observer] = None,
) -> Trajectory:
    """Plain leapfrog run of the full system over nsteps >= 1 micro steps,
    sampled as integrate samples macro steps, one stormer_verlet call per
    sample interval.  Used for fine reference integrations of the
    oscillatory dynamics itself.  The observer's position is None."""

    def step(state, _, count):
        return stormer_verlet(sys, state, h_micro, count), None, None

    return _sampled_run(
        sys, state0, step, h_micro, nsteps * h_micro, sample_stride, observer, "micro",
        chunk=sample_stride,
    )
