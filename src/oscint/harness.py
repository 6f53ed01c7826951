"""Experiment runner: convergence sweeps, action-drift studies, single
simulations, and a self-check suite.  JSON config in, CSV out.

CSV files use a fixed header, 17-significant-digit floats and LF line
endings so that identical configs reproduce byte-identical outputs.
Wall times are collected per run for reporting but never written to the
CSV (they would break reproducibility).
"""

from __future__ import annotations

import json
import math
import os
import sys as _sys
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import diagnostics, effective, geometry, integrators, model, smallmat
from .integrators import MacroMethod, integrate
from .model import State

DEFAULT_STEPSIZES = [2.0 ** -k for k in range(2, 10)]


class ConfigError(Exception):
    """Malformed or inconsistent experiment configuration."""


@dataclass
class SweepConfig:
    """Complete description of one experiment.

    model_params may carry "x0"/"y0" lists overriding the model's
    benchmark initial state.
    """

    model: str = "double_pendulum"
    model_params: dict = field(default_factory=dict)
    epsilon: float = 1e-3
    methods: List[str] = field(default_factory=lambda: list(integrators.METHOD_KINDS))
    stepsizes: List[float] = field(default_factory=lambda: list(DEFAULT_STEPSIZES))
    t_end: float = 10.0
    micro_divisor: int = 100
    h_ref: float = 1e-3
    out: str = "result.csv"
    stride: int = 1
    workers: int = 1

    def validate(self):
        if self.model not in ("double_pendulum", "spring_chain"):
            raise ConfigError(f"unknown model {self.model!r}")
        if not isinstance(self.model_params, dict):
            raise ConfigError("model_params must be an object")
        if not self.methods:
            raise ConfigError("methods list is empty")
        for kind in self.methods:
            if kind not in integrators.METHOD_KINDS:
                raise ConfigError(f"unknown method {kind!r}")
        if not self.stepsizes:
            raise ConfigError("stepsizes list is empty")
        if not all(0.0 < h < math.inf for h in self.stepsizes):
            raise ConfigError("stepsizes must be positive and finite")
        if any(a <= b for a, b in zip(self.stepsizes, self.stepsizes[1:])):
            raise ConfigError("stepsizes must be strictly descending")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in (0, 1)")
        for name in ("t_end", "h_ref"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, not {value!r}")
        for h in [*self.stepsizes, self.h_ref]:
            try:
                integrators.step_count(self.t_end, h)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        for name in ("micro_divisor", "stride", "workers"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, not {value!r}")
        build_system(self)  # fail fast on bad model parameters
        return self


def load_config(path) -> SweepConfig:
    """Read a JSON config file; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> SweepConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, not {type(raw).__name__}")
    known = set(SweepConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return SweepConfig(**raw).validate()
    except TypeError as exc:  # a value of the wrong type, e.g. a string epsilon
        raise ConfigError(f"malformed config value: {exc}") from exc


def build_system(cfg: SweepConfig):
    params = {k: v for k, v in cfg.model_params.items() if k not in ("x0", "y0")}
    try:
        if cfg.model == "double_pendulum":
            return model.make_double_pendulum(cfg.epsilon, **params)
        n_springs = int(params.pop("N"))
        return model.make_spring_chain(n_springs, cfg.epsilon, **params)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot build model {cfg.model!r}: {exc}") from exc


def initial_state(cfg: SweepConfig, sys) -> State:
    x0 = cfg.model_params.get("x0")
    y0 = cfg.model_params.get("y0")
    if x0 is None and cfg.model == "double_pendulum":
        base = model.benchmark_initial_state(cfg.epsilon)
        x0 = base.x
    elif x0 is None:
        raise ConfigError("spring_chain config requires model_params.x0")
    try:
        x0 = np.asarray(x0, dtype=float)
        y0 = np.zeros(sys.n) if y0 is None else np.asarray(y0, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"initial state is not numeric: {exc}") from exc
    if x0.shape != (sys.n,) or y0.shape != (sys.n,):
        raise ConfigError(f"initial state must have dimension {sys.n}")
    for name, values in (("x0", x0), ("y0", y0)):
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"initial state {name} must be finite, not {values.tolist()}")
    return State(x0, y0, 0.0)


@dataclass
class SweepRow:
    method: str
    h: float
    max_err_x: float
    max_err_py: float
    max_action_drift: float
    wall_time: float
    status: str = "ok"


@dataclass
class SweepResult:
    rows: List[SweepRow]
    reference_guard: Optional[float] = None  # max ref change under h_ref halving


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_csv(path, header, rows):
    """Header and rows as CSV: strings as they are, numbers with _fmt."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n")


def write_rows_csv(path, rows: Sequence[SweepRow]):
    _write_csv(
        path,
        ["method", "h", "max_err_x", "max_err_Py", "max_action_drift", "status"],
        [(r.method, r.h, r.max_err_x, r.max_err_py, r.max_action_drift, r.status) for r in rows],
    )


def _run_one(job):
    """One (method, h) run; returns (SweepRow, series).

    job is (system, start state, config, kind, h, reference).  A sweep
    job (reference not None) measures the errors against the reference;
    an action-study job returns its series as (t, *actions) tuples of
    plain floats.  The series is None otherwise, and a failed run becomes
    a row tagged with the exception name, its figures nan, and the study
    goes on.  Module-level so that process pools can pickle it.
    """
    sys, s0, cfg, kind, h, ref = job
    method = MacroMethod(kind, h, cfg.micro_divisor)
    observer = diagnostics.make_observer(sys)
    start = time.perf_counter()
    err_x = err_py = math.nan
    series = None
    try:
        traj = integrate(sys, s0, method, cfg.t_end, observer=observer, stride=cfg.stride)
        drift = diagnostics.action_drift(traj.records)
        if ref is not None:
            metrics = diagnostics.error_metrics(traj, ref, sys)
            err_x, err_py = metrics.max_err_x, metrics.max_err_py
        else:
            series = [(rec.t, *rec.actions.tolist()) for rec in traj.records]
        status = "ok"
    except Exception as exc:
        drift = math.nan
        status = type(exc).__name__
    wall = time.perf_counter() - start
    return SweepRow(kind, h, err_x, err_py, drift, wall, status), series


def _run_jobs(cfg, sys, s0, ref=None):
    """_run_one for every configured method at every stepsize, in
    configured order, on cfg.workers processes."""
    jobs = [(sys, s0, cfg, kind, h, ref) for kind in cfg.methods for h in cfg.stepsizes]
    if cfg.workers > 1:
        # imported here: a serial run need not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            return list(pool.map(_run_one, jobs))
    return [_run_one(job) for job in jobs]


def _reference_and_guard(sys, s0, h_ref, t_end):
    """Reference trajectory at h_ref, and the largest change of its
    positions when h_ref is halved, at their shared sample times (the
    clock puts every second half step exactly on a reference time)."""
    ref = effective.effective_reference(sys, s0.x, s0.y, h_ref, t_end, with_records=False)
    half = effective.effective_reference(
        sys, s0.x, s0.y, 0.5 * h_ref, t_end, stride=2, with_records=False
    )
    if not np.array_equal(ref.t, half.t):
        raise diagnostics.TimeMismatch("reference and half-step sample times differ")
    return ref, float(np.max(np.abs(half.x - ref.x)))


def run_convergence_sweep(cfg: SweepConfig) -> SweepResult:
    """Every configured method at every stepsize against one reference.

    Also integrates the reference at h_ref/2 and records the resulting
    change as the reference guard; rows are written to cfg.out ordered
    as configured regardless of worker scheduling.
    """
    cfg.validate()
    sys = build_system(cfg)
    s0 = initial_state(cfg, sys)
    ref, guard = _reference_and_guard(sys, s0, cfg.h_ref, cfg.t_end)
    rows = [row for row, _ in _run_jobs(cfg, sys, s0, ref)]
    write_rows_csv(cfg.out, rows)
    return SweepResult(rows=rows, reference_guard=guard)


def run_action_study(cfg: SweepConfig) -> SweepResult:
    """Action time series per method at a single stepsize.

    The series goes to cfg.out; summary rows (with the maximal drift per
    method) go to cfg.out with a .summary.csv suffix.
    """
    cfg.validate()
    if len(cfg.stepsizes) != 1:
        raise ConfigError("action study expects exactly one stepsize")
    sys = build_system(cfg)
    s0 = initial_state(cfg, sys)
    results = _run_jobs(cfg, sys, s0)
    _write_csv(
        cfg.out,
        ["method", "h", "t"] + [f"I{k}" for k in range(sys.m)],
        [
            (row.method, row.h, *sample)
            for row, series in results
            if series is not None
            for sample in series
        ],
    )
    rows = [row for row, _ in results]
    write_rows_csv(_summary_path(cfg.out), rows)
    return SweepResult(rows=rows)


def _summary_path(out: str) -> str:
    return os.path.splitext(out)[0] + ".summary.csv"


def run_single(cfg: SweepConfig) -> str:
    """One method, one stepsize, full diagnostics series to cfg.out."""
    cfg.validate()
    if len(cfg.methods) != 1 or len(cfg.stepsizes) != 1:
        raise ConfigError("single run expects exactly one method and one stepsize")
    sys = build_system(cfg)
    s0 = initial_state(cfg, sys)
    method = MacroMethod(cfg.methods[0], cfg.stepsizes[0], cfg.micro_divisor)
    observer = diagnostics.make_observer(sys)
    traj = integrate(sys, s0, method, cfg.t_end, observer=observer, stride=cfg.stride)
    header = (
        ["t"]
        + [f"x{i}" for i in range(sys.n)]
        + [f"y{i}" for i in range(sys.n)]
        + ["energy"]
        + [f"I{k}" for k in range(sys.m)]
        + ["min_gap", "min_combo", "constraint_residual"]
    )
    _write_csv(
        cfg.out,
        header,
        [
            [t, *x, *y, rec.energy, *rec.actions, rec.min_gap, rec.min_combo,
             rec.constraint_residual]
            for t, x, y, rec in zip(traj.t, traj.x, traj.y, traj.records)
        ],
    )
    return cfg.out


# ---------------------------------------------------------------------------
# self-check suite


@dataclass
class CheckResult:
    name: str
    measured: float
    bound: tuple  # ("le", tol) or ("window", lo, hi)
    passed: bool

    def describe(self) -> str:
        if self.bound[0] == "le":
            detail = f"measured={self.measured:.6e} tolerance={self.bound[1]:.6e}"
        else:
            detail = (
                f"measured={self.measured:.6e} "
                f"window=[{self.bound[1]:.3g}, {self.bound[2]:.3g}]"
            )
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {detail}"


def random_bounded_energy_states(sys, count, seed, elongation=1.0, momentum=1.0):
    """Spring-chain states with O(eps)-stretched springs and O(1) momenta.

    Bob k sits at distance l_k + elongation*eps*u from bob k-1 along a
    random direction, u uniform in [-1, 1]; scaling `elongation` by the
    same factor as eps reuses the identical draws at another stiffness.
    """
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        angles = rng.uniform(-math.pi, math.pi, sys.m)
        stretch = rng.uniform(-1.0, 1.0, sys.m)
        x = np.empty(sys.n)
        px, py = 0.0, 0.0
        for k in range(sys.m):
            r = sys.lengths[k] + elongation * sys.epsilon * stretch[k]
            px += r * math.sin(angles[k])
            py += -r * math.cos(angles[k])
            x[2 * k] = px
            x[2 * k + 1] = py
        y = momentum * rng.uniform(-1.0, 1.0, sys.n)
        states.append(State(x, y, 0.0))
    return states


def _check_kernels():
    rng = np.random.default_rng(202401)
    worst_chol = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        b = rng.standard_normal((n, n))
        a = b @ b.T + 0.1 * np.eye(n)
        lower = smallmat.cholesky(a)
        err = np.max(np.abs(lower @ lower.T - a)) / np.max(np.abs(a))
        worst_chol = max(worst_chol, float(err))

    worst_eig = 0.0
    for _ in range(100):
        m = smallmat.symmetrize(rng.standard_normal((2, 2)))
        half_tr = 0.5 * (m[0, 0] + m[1, 1])
        rad = math.sqrt((0.5 * (m[0, 0] - m[1, 1])) ** 2 + m[0, 1] ** 2)
        exact = np.array([half_tr - rad, half_tr + rad])
        got = smallmat.sym_eig(m).values
        worst_eig = max(worst_eig, float(np.max(np.abs(got - exact))))

    worst_orth = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = smallmat.symmetrize(rng.standard_normal((n, n)))
        c = rng.standard_normal((n, n))
        b = c @ c.T + 0.5 * np.eye(n)
        vec = smallmat.gen_eig(a, b).vectors
        worst_orth = max(worst_orth, float(np.max(np.abs(vec.T @ b @ vec - np.eye(n)))))
    return worst_chol, worst_eig, worst_orth


def _check_frequency_pair():
    sys = model.make_double_pendulum(1e-2)
    s = math.sqrt(0.5)
    x = np.array([s, -s, math.sqrt(2.0), 0.0])  # springs at right angles
    om = effective.frequencies(sys, x).omegas
    return float(np.max(np.abs(om - np.array([1.0, math.sqrt(2.0)]))))


def _check_geometry(eps=1e-2, count=50):
    sys = model.make_double_pendulum(eps)
    states = random_bounded_energy_states(sys, count, seed=77)
    worst_idem = worst_ann = worst_moll = 0.0
    for st in states:
        p = geometry.momentum_projector(sys, st.x)
        worst_idem = max(worst_idem, float(np.max(np.abs(p @ p - p))))
        jac = sys.constraint_jacobian(st.x)
        worst_ann = max(worst_ann, float(np.max(np.abs(jac @ p))))
        moll = geometry.project_to_manifold(sys, st.x)
        worst_moll = max(worst_moll, float(np.max(np.abs(sys.constraint(moll.position)))))
    return worst_idem, worst_ann, worst_moll


def _mollifier_jacobian_gap(eps, count=50):
    sys = model.make_double_pendulum(eps)
    states = random_bounded_energy_states(sys, count, seed=78)
    worst = 0.0
    for st in states:
        moll = geometry.project_to_manifold(sys, st.x, want_jacobian=True)
        p = geometry.momentum_projector(sys, st.x)
        worst = max(worst, float(np.max(np.abs(moll.jacobian_t - p))))
    return worst


def _check_reversibility(kind, eps=1e-2, h=0.01, nsteps=100):
    sys = model.make_double_pendulum(eps)
    s0 = model.benchmark_initial_state(eps)
    method = MacroMethod(kind, h)
    state = s0.copy()
    for _ in range(nsteps):
        state = integrators.macro_step(sys, state, method)
    state = State(state.x, -state.y, 0.0)
    for _ in range(nsteps):
        state = integrators.macro_step(sys, state, method)
    return float(
        max(np.max(np.abs(state.x - s0.x)), np.max(np.abs(-state.y - s0.y)))
    )


CHECK_NAMES = (
    "cholesky_reconstruction",
    "sym_eig_2x2_closed_form",
    "gen_eig_orthonormality",
    "frequency_pair",
    "projector_idempotent",
    "projector_annihilates",
    "projection_onto_manifold",
    "mollifier_jacobian_scaling",
    "reversibility_projected",
    "reversibility_mollified",
    "reference_convergence",
)


def run_check(inject_fault: Optional[str] = None):
    """Desk-scale validation suite.  Returns (results, all_passed).

    inject_fault names one check of CHECK_NAMES whose bound is set to
    zero (a negative control); any other name raises ConfigError.
    """
    if inject_fault is not None and inject_fault not in CHECK_NAMES:
        raise ConfigError(
            f"unknown check {inject_fault!r} for --inject-fault; "
            f"valid names: {', '.join(CHECK_NAMES)}"
        )
    results: List[CheckResult] = []

    def add_le(name, measured, tol):
        if inject_fault == name:
            tol = 0.0
        results.append(CheckResult(name, measured, ("le", tol), measured <= tol))

    def add_window(name, measured, lo, hi):
        if inject_fault == name:
            lo, hi = 0.0, 0.0
        results.append(
            CheckResult(name, measured, ("window", lo, hi), lo <= measured <= hi)
        )

    chol, eig2, orth = _check_kernels()
    add_le("cholesky_reconstruction", chol, 1e-12)
    add_le("sym_eig_2x2_closed_form", eig2, 1e-12)
    add_le("gen_eig_orthonormality", orth, 1e-10)
    add_le("frequency_pair", _check_frequency_pair(), 1e-10)

    idem, ann, moll = _check_geometry()
    add_le("projector_idempotent", idem, 1e-10)
    add_le("projector_annihilates", ann, 1e-10)
    add_le("projection_onto_manifold", moll, 1e-10)

    gap_coarse = _mollifier_jacobian_gap(1e-2)
    gap_fine = _mollifier_jacobian_gap(5e-3)
    add_window("mollifier_jacobian_scaling", gap_coarse / gap_fine, 1.5, 3.0)

    add_le("reversibility_projected", _check_reversibility("projected"), 1e-8)
    add_le("reversibility_mollified", _check_reversibility("mollified"), 1e-8)

    # proxy bound: 1% of the epsilon-level floor the macro methods reach
    _, guard = _reference_and_guard(
        model.make_double_pendulum(1e-2), model.benchmark_initial_state(1e-2), 1e-3, 2.0
    )
    add_le("reference_convergence", guard, 1e-4)

    assert [r.name for r in results] == list(CHECK_NAMES)
    return results, all(r.passed for r in results)


def print_check_report(results, stream=None):
    stream = stream or _sys.stdout
    for res in results:
        print(res.describe(), file=stream)
    failed = [r for r in results if not r.passed]
    print(
        f"{len(results) - len(failed)}/{len(results)} checks passed",
        file=stream,
    )
