"""The benchmark's workloads: seeded inputs, the harness calls each one
makes, its nominal work, and the checks on what those calls return and
write.

Every workload runs in one process with workers = 1 and reaches oscint
only through public harness functions: config_from_dict, build_system,
random_bounded_energy_states, run_convergence_sweep and run_action_study.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

import numpy as np

from oscint import harness

METHODS = ("impulse", "mollified", "projected")
MICRO_DIVISOR = 100
ROWS_HEADER = "method,h,max_err_x,max_err_Py,max_action_drift,status"
ACCURACY = ("max_err_x", "max_err_py", "max_action_drift")
# the `oscint check` suite's tolerance on the reference guard
GUARD_TOL = 1e-4


class CheckFailed(Exception):
    """An output of the program is missing, malformed or out of bounds."""


@dataclass(frozen=True)
class Spec:
    """One workload.  `bounds` maps each method to upper limits on its
    ACCURACY figures over all rows and starts (nan: not checked).

    Each bound is the next round value above both 10x the figure of the
    default seed 0 and 3x the largest figure over seeds 0-29, so that an
    unlucky start passes and a loss of accuracy does not."""

    kind: str  # "sweep" or "actions"
    model: str
    model_params: dict
    epsilon: float
    stepsizes: Tuple[float, ...]
    t_end: float
    h_ref: float
    starts: int
    bounds: dict


SPECS = {
    # Canonical convergence sweep, shortened: the oscillate stage
    # (stormer_verlet + grad_stiff) dominates, the reference is the rest.
    "sweep-dp": Spec(
        kind="sweep",
        model="double_pendulum",
        model_params={},
        epsilon=1e-3,
        stepsizes=tuple(2.0 ** -k for k in range(3, 9)),
        t_end=0.25,
        h_ref=1e-3,
        starts=1,
        bounds={
            "impulse": (1e-2, 5e-2, 1.0),
            "mollified": (1e-2, 2e-2, 5e-2),
            "projected": (1e-2, 2e-2, 5e-2),
        },
    ),
    # Same harness path on a 4-spring chain: the effective reference
    # (grad_frequencies -> 16 sym_eig 8x8 per RATTLE step) dominates.
    "sweep-chain4": Spec(
        kind="sweep",
        model="spring_chain",
        model_params={"N": 4, "alphas": [1.0] * 4, "lengths": [1.0] * 4},
        epsilon=1e-2,
        stepsizes=(0.1, 0.05, 0.025),
        t_end=0.4,
        h_ref=5e-3,
        starts=1,
        bounds={
            "impulse": (0.1, 0.5, 3.0),
            "mollified": (0.1, 0.5, 3.0),
            "projected": (0.1, 0.5, 3.0),
        },
    ),
    # Action studies over several starts: short oscillate stages and an
    # observer sample every macro step, so per-call overhead, kicks,
    # observer and series CSV writing matter; there is no reference.
    "actions-ensemble": Spec(
        kind="actions",
        model="double_pendulum",
        model_params={},
        epsilon=2e-2,
        stepsizes=(0.01,),
        t_end=2.0,
        h_ref=1e-3,
        starts=6,
        bounds={
            "impulse": (math.nan, math.nan, 10.0),
            "mollified": (math.nan, math.nan, 10.0),
            "projected": (math.nan, math.nan, 10.0),
        },
    ),
}


@dataclass
class Workload:
    name: str
    spec: Spec
    configs: List[harness.SweepConfig]  # one validated config per start


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Validate the configs, build the model and draw the seeded starts.

    The seed only chooses the start states; the program sees them as the
    x0/y0 entries of model_params.
    """
    spec = SPECS[name]
    base = {
        "model": spec.model,
        "model_params": dict(spec.model_params),
        "epsilon": spec.epsilon,
        "methods": list(METHODS),
        "stepsizes": list(spec.stepsizes),
        "t_end": spec.t_end,
        "micro_divisor": MICRO_DIVISOR,
        "h_ref": spec.h_ref,
        "stride": 1,
        "workers": 1,
    }
    system = harness.build_system(harness.config_from_dict(base))
    states = harness.random_bounded_energy_states(system, spec.starts, seed)
    configs = []
    for i, state in enumerate(states):
        params = dict(spec.model_params, x0=state.x.tolist(), y0=state.y.tolist())
        out = str(workdir / f"{name}-{i}.csv")
        configs.append(harness.config_from_dict(dict(base, model_params=params, out=out)))
    return Workload(name, spec, configs)


def run(wl: Workload):
    """All of the workload's harness calls; each writes its CSVs."""
    if wl.spec.kind == "sweep":
        return [harness.run_convergence_sweep(cfg) for cfg in wl.configs]
    return [harness.run_action_study(cfg) for cfg in wl.configs]


def macro_steps(t_end: float, h: float) -> int:
    return 0 if t_end < h else int(math.floor(t_end / h + 0.5))


def nominal(spec: Spec) -> dict:
    """Exact work one iteration of the workload asks for."""
    per_start = {"rows": 0, "macro_steps": 0, "micro_steps": 0, "observer_samples": 0}
    for h in spec.stepsizes:
        n = macro_steps(spec.t_end, h)
        micro = max(1, math.ceil(h * MICRO_DIVISOR / spec.epsilon))
        per_start["rows"] += len(METHODS)
        per_start["macro_steps"] += len(METHODS) * n
        per_start["micro_steps"] += len(METHODS) * n * micro
        per_start["observer_samples"] += len(METHODS) * (n + 1)
    if spec.kind == "sweep":
        per_start["rattle_steps"] = macro_steps(spec.t_end, spec.h_ref) + macro_steps(
            spec.t_end, 0.5 * spec.h_ref
        )
    else:
        per_start["rattle_steps"] = 0
    return {key: spec.starts * value for key, value in per_start.items()}


# ---------------------------------------------------------------------------
# output checks


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _lines(text: str, what: str) -> List[str]:
    if not text.endswith("\n"):
        raise CheckFailed(f"{what}: missing final newline")
    return text[:-1].split("\n")


def check_rows_csv(text: str, cfg, rows, with_errors: bool) -> None:
    """Header, row order, status and values of a rows CSV against the
    config and the rows the harness returned."""
    lines = _lines(text, "rows csv")
    if lines[0] != ROWS_HEADER:
        raise CheckFailed(f"rows csv header {lines[0]!r}")
    expected = [(m, h) for m in cfg.methods for h in cfg.stepsizes]
    body = lines[1:]
    if len(body) != len(expected) or len(rows) != len(expected):
        raise CheckFailed(
            f"{len(body)} csv rows and {len(rows)} returned rows, {len(expected)} expected"
        )
    for i, (line, (method, h), row) in enumerate(zip(body, expected, rows)):
        fields = line.split(",")
        if len(fields) != 6:
            raise CheckFailed(f"row {i}: {len(fields)} fields")
        if fields[0] != method or float(fields[1]) != h:
            raise CheckFailed(f"row {i}: ({fields[0]}, {fields[1]}) where ({method}, {h!r}) expected")
        if row.method != method or row.h != h:
            raise CheckFailed(f"returned row {i}: ({row.method}, {row.h!r}) out of order")
        if fields[5] != "ok" or row.status != "ok":
            raise CheckFailed(f"row {i} ({method}, h={h!r}): status {fields[5]}")
        values = [float(v) for v in fields[2:5]]
        returned = [row.max_err_x, row.max_err_py, row.max_action_drift]
        if not all(_same(a, b) for a, b in zip(values, returned)):
            raise CheckFailed(f"row {i}: csv values {values} differ from returned {returned}")
        errors = values[:2]
        if with_errors and not all(math.isfinite(v) and v >= 0.0 for v in errors):
            raise CheckFailed(f"row {i}: errors {errors} not finite")
        if not with_errors and not all(math.isnan(v) for v in errors):
            raise CheckFailed(f"row {i}: action-study errors {errors} should be nan")
        if not (math.isfinite(values[2]) and values[2] >= 0.0):
            raise CheckFailed(f"row {i}: action drift {values[2]}")


def check_series_csv(text: str, cfg, rows, n_modes: int) -> None:
    """Action time series: header, one block per method in order, one
    sample per macro step at t = k h, and a drift that matches the
    summary row exactly."""
    lines = _lines(text, "series csv")
    labels = ",".join(f"I{k}" for k in range(n_modes))
    if lines[0] != f"method,h,t,{labels}":
        raise CheckFailed(f"series csv header {lines[0]!r}")
    h = cfg.stepsizes[0]
    n = macro_steps(cfg.t_end, h)
    body = lines[1:]
    if len(body) != len(cfg.methods) * (n + 1):
        raise CheckFailed(f"{len(body)} series rows, {len(cfg.methods) * (n + 1)} expected")
    for b, (method, row) in enumerate(zip(cfg.methods, rows)):
        block = [line.split(",") for line in body[b * (n + 1):(b + 1) * (n + 1)]]
        base = None
        drift = 0.0
        for k, fields in enumerate(block):
            if len(fields) != 3 + n_modes:
                raise CheckFailed(f"{method} sample {k}: {len(fields)} fields")
            if fields[0] != method or float(fields[1]) != h or float(fields[2]) != k * h:
                raise CheckFailed(f"{method} sample {k}: ({fields[0]}, {fields[1]}, {fields[2]})")
            actions = np.array([float(v) for v in fields[3:]])
            if not np.all(np.isfinite(actions)) or np.any(actions < 0.0):
                raise CheckFailed(f"{method} sample {k}: actions {actions}")
            if base is None:
                base = actions
            drift = max(drift, float(np.max(np.abs(actions - base))))
        if drift != row.max_action_drift:
            raise CheckFailed(
                f"{method}: series drift {drift!r} differs from summary {row.max_action_drift!r}"
            )


def _summary_path(out: str) -> str:
    stem, dot, _ = out.rpartition(".")
    return (stem if dot else out) + ".summary.csv"


def read_outputs(wl: Workload) -> List[dict]:
    """The CSV texts each harness call wrote, keyed by role."""
    outputs = []
    for cfg in wl.configs:
        if wl.spec.kind == "sweep":
            outputs.append({"rows": Path(cfg.out).read_text(encoding="utf-8")})
        else:
            outputs.append({
                "rows": Path(_summary_path(cfg.out)).read_text(encoding="utf-8"),
                "series": Path(cfg.out).read_text(encoding="utf-8"),
            })
    return outputs


def digest(outputs: List[dict]) -> str:
    sha = hashlib.sha256()
    for texts in outputs:
        for role in sorted(texts):
            sha.update(texts[role].encode("utf-8"))
    return sha.hexdigest()


def check(wl: Workload, results, outputs: List[dict]) -> dict:
    """Check every output of one iteration; returns the accuracy figures
    as {name: (value, bound)}.

    Raises CheckFailed on the first malformed output, failed row,
    reference guard above GUARD_TOL, or accuracy figure above its bound.
    """
    sweep = wl.spec.kind == "sweep"
    n_modes = harness.build_system(wl.configs[0]).m
    accuracy = {m: [0.0, 0.0, 0.0] for m in METHODS}
    guard = 0.0
    for cfg, res, texts in zip(wl.configs, results, outputs):
        check_rows_csv(texts["rows"], cfg, res.rows, with_errors=sweep)
        if sweep:
            g = res.reference_guard
            if not (g is not None and math.isfinite(g) and g <= GUARD_TOL):
                raise CheckFailed(f"reference guard {g!r} above {GUARD_TOL}")
            guard = max(guard, g)
        else:
            check_series_csv(texts["series"], cfg, res.rows, n_modes)
        for row in res.rows:
            acc = accuracy[row.method]
            for j, v in enumerate((row.max_err_x, row.max_err_py, row.max_action_drift)):
                if not math.isnan(v):
                    acc[j] = max(acc[j], v)
    figures = {}
    for method, acc in accuracy.items():
        for name, value, bound in zip(ACCURACY, acc, wl.spec.bounds[method]):
            if not math.isnan(bound):
                figures[f"{name}.{method}"] = (value, bound)
    if sweep:
        figures["ref_guard"] = (guard, GUARD_TOL)
    for name, (value, bound) in figures.items():
        if not value <= bound:
            raise CheckFailed(f"{name} = {value:.3e} above bound {bound:.3e}")
    return figures


def _with_line(lines: List[str], index: int, line: str) -> str:
    return "\n".join(lines[:index] + [line] + lines[index + 1:])


def _with_field(lines: List[str], index: int, field: int, value: str) -> str:
    fields = lines[index].split(",")
    fields[field] = value
    return _with_line(lines, index, ",".join(fields))


def negative_control(wl: Workload, results, outputs: List[dict]) -> int:
    """Feed corrupted copies of the first call's CSVs to the checkers.

    Returns how many corruptions were tried; raises CheckFailed if a
    checker accepts one.
    """
    cfg, res, texts = wl.configs[0], results[0], outputs[0]
    sweep = wl.spec.kind == "sweep"
    rows = texts["rows"].split("\n")
    drift = float(rows[1].split(",")[4])
    cases = [
        ("status", _with_field(rows, 1, 5, "StabilityViolation")),
        ("order", "\n".join(rows[:1] + [rows[2], rows[1]] + rows[3:])),
        ("header", _with_field(rows, 0, 3, "max_err_py")),
        ("value", _with_field(rows, 1, 4, f"{np.nextafter(drift, math.inf):.17g}")),
        ("truncated", "\n".join(rows[:-2] + [""])),
    ]
    checks = [(label, text, lambda t: check_rows_csv(t, cfg, res.rows, sweep)) for label, text in cases]
    if not sweep:
        n_modes = harness.build_system(cfg).m
        series = texts["series"].split("\n")
        cases = [
            ("dropped sample", "\n".join(series[:1] + series[2:])),
            ("time", _with_field(series, 2, 2, "0.011")),
            ("action", _with_field(series, 1, 3, "0.5")),
        ]
        checks += [
            (label, text, lambda t: check_series_csv(t, cfg, res.rows, n_modes))
            for label, text in cases
        ]
    for label, text, checker in checks:
        try:
            checker(text)
        except CheckFailed:
            continue
        raise CheckFailed(f"negative control: checker accepted corruption {label!r}")
    return len(checks)
