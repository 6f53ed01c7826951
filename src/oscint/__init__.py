"""Multiscale integrators for Hamiltonian systems with a stiff
anharmonic potential and solution-dependent high frequencies."""

from .diagnostics import (
    DiagnosticsRecord,
    ErrorMetrics,
    TimeMismatch,
    compute_actions,
    convexity_check,
    error_metrics,
    make_observer,
    resonance_monitor,
)
from .effective import (
    EffectiveState,
    FrequencySet,
    GapViolation,
    correction_force,
    effective_reference,
    frequencies,
    grad_frequencies,
    manifold_frequencies,
    rattle_step,
)
from .geometry import (
    ManifoldProjection,
    RankDeficient,
    consistent_state,
    momentum_projector,
    project_to_manifold,
)
from .integrators import (
    IntegrationError,
    MacroMethod,
    StabilityViolation,
    Trajectory,
    fast_flow,
    integrate,
    integrate_micro,
    macro_step,
    stormer_verlet,
)
from .model import (
    DomainError,
    OscillatorySystem,
    State,
    StiffSpringChain,
    benchmark_initial_state,
    hamiltonian,
    make_double_pendulum,
    make_spring_chain,
    mass_solve,
)
from .smallmat import (
    EigenPairs,
    NoConvergence,
    NotPositiveDefinite,
    cholesky,
    gen_eig,
    newton_solve,
    solve_spd,
    sym_eig,
)

__version__ = "0.1.0"
