"""oscint benchmark: three harness workloads, end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload sweep-dp --seed 1 --seconds 55 --trace 0

Workloads: sweep-dp, sweep-chain4, actions-ensemble (see bench/README.md).
The seed draws the workload's start states; the program receives them as
model_params x0/y0.  The run repeats the workload for about --seconds
(it starts another iteration only if a typical one ends in time), checks
the CSVs of every iteration, and reports medians over the iterations.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced iterations and reports the per-layer metrics, the tracing
overhead, and writes the spans to .bench_out/ once at the end.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Without oscint sources under
src/ the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep-dp", "sweep-chain4", "actions-ensemble")
SETUP_SAMPLES = 9
PROBE_LOOP = 200_000

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup(workload, seed, workdir):
    """Import oscint, validate the configs, build the models and draw the
    seeded inputs; returns (workloads module, workload)."""
    sys.path.insert(0, str(SRC))
    import oscint
    import workloads

    if Path(oscint.__file__).resolve().parent != SRC / "oscint":
        raise ImportError(f"oscint imported from {oscint.__file__}, not from {SRC}")
    return workloads, workloads.build(workload, seed, workdir)


def setup_samples(args):
    """Set-up times of fresh processes, each measured inside the process."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def probe():
    """Fixed pure-Python loop; its time shows how fast the machine is now."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    return time.perf_counter() - start


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return f"unknown ({ref})"


def machine_block():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


class Run:
    """One benchmark run: iterations, their checks and their figures."""

    def __init__(self, wmod, wl):
        self.wmod = wmod
        self.wl = wl
        self.nominal = wmod.nominal(wl.spec)
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.accuracy = {}
        self.probes = []
        self.corruptions = 0

    def fail(self, message):
        if message not in self.failures:
            self.failures.append(message)

    def iterate(self):
        """One timed pass over the workload's harness calls, then its checks."""
        self.probes.append(probe())
        wall0, cpu0 = time.perf_counter(), time.process_time()
        results = self.wmod.run(self.wl)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        outputs = self.wmod.read_outputs(self.wl)
        for res in results:
            self.attempted += len(res.rows)
            self.failed += sum(row.status != "ok" for row in res.rows)
        try:
            self.accuracy = self.wmod.check(self.wl, results, outputs)
        except self.wmod.CheckFailed as exc:
            self.fail(str(exc))
        digest = self.wmod.digest(outputs)
        if self.reference is None:
            self.reference = digest
            self.negative_control(results, outputs)
        elif digest != self.reference:
            self.fail("outputs differ from the first iteration's (same seed)")
        return wall, cpu

    def negative_control(self, results, outputs):
        try:
            self.corruptions = self.wmod.negative_control(self.wl, results, outputs)
        except self.wmod.CheckFailed as exc:
            self.fail(str(exc))


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(run, seconds, trace):
    """Timed iterations for about `seconds`.

    There is no warm-up: the program keeps no caches across calls, and
    set-up is measured on its own.  Returns (untraced samples, traced
    samples, per-layer snapshots, tracer).
    """
    plain, traced, layers = [], [], []
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        plain.append(run.iterate())
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run.iterate())
            finally:
                tracer.uninstall()
            snap = tracer.metrics()
            layers.append(snap)
            check_counts(run, snap)
        # start another pass only if a typical pass ends before the deadline
        now = time.perf_counter()
        if now + (now - start) / len(plain) > deadline:
            break
    return plain, traced, layers, tracer


def check_counts(run, snap):
    nominal = run.nominal
    if snap["integrators.micro_steps"] != nominal["micro_steps"]:
        run.fail(
            f"traced micro steps {snap['integrators.micro_steps']} != nominal {nominal['micro_steps']}"
        )
    if snap["diagnostics.observer.calls"] != nominal["observer_samples"]:
        run.fail(
            f"traced observer samples {snap['diagnostics.observer.calls']} "
            f"!= nominal {nominal['observer_samples']}"
        )


def per_layer_metrics(run, plain, traced, layers, tracer):
    metrics = {}
    for key, first in layers[0].items():
        values = [snap[key] for snap in layers]
        # counts stay whole numbers; they repeat exactly across iterations
        metrics[key] = statistics.median_low(values) if isinstance(first, int) else median(values)
    us_per_step = [
        1e6 * snap["integrators.stormer_verlet.total_s"] / snap["integrators.micro_steps"]
        for snap in layers
    ]
    metrics["integrators.us_per_micro_step"] = median(us_per_step)
    rattle = run.nominal["rattle_steps"]
    metrics["effective.ms_per_rattle_step"] = median(
        [1e3 * snap["effective.effective_reference.total_s"] / rattle for snap in layers]
    ) if rattle else 0.0
    # each traced pass runs right after an untraced one, on a machine in
    # the same state, so the overhead is the median of pairwise differences
    metrics["trace.overhead_s"] = median([t - p for (p, _), (t, _) in zip(plain, traced)])
    metrics["trace.spans"] = len(tracer.spans) // len(layers)
    metrics["machine.probe_ms"] = 1e3 * median(run.probes)
    units = {key: "s" if key.endswith("_s") else "count" for key in metrics}
    units["integrators.us_per_micro_step"] = "us"
    units["effective.ms_per_rattle_step"] = "ms"
    units["machine.probe_ms"] = "ms"
    return {key: {"value": metrics[key], "unit": units[key]} for key in metrics}


def print_block(title, rows):
    print(f"== {title}")
    for name, value, unit in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<48} {text:>14} {unit}")


def main(argv=None):
    args = parse_args(argv)
    # The program is single-threaded (workers = 1, matrices of order <= 8),
    # so one BLAS thread changes no result; it keeps the start-up of
    # numpy's BLAS thread pool, which varies widely, out of setup_s.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    if not (SRC / "oscint" / "__init__.py").is_file():
        print(f"error: no oscint sources under {SRC}", file=sys.stderr)
        return 2

    if args.setup_only:
        start = time.perf_counter()
        setup(args.workload, args.seed, OUT)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    setups = setup_samples(args)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wmod, wl = setup(args.workload, args.seed, workdir)
        machine = machine_block()
        run = Run(wmod, wl)
        plain, traced, layers, tracer = measure(run, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"oscint benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print_block("machine", [(k, v, "") for k, v in machine.items()] + [
        ("probe (median over iterations)", 1e3 * median(run.probes), "ms"),
        ("probe (min .. max)", f"{1e3 * min(run.probes):.3f} .. {1e3 * max(run.probes):.3f}", "ms"),
    ])
    print_block("nominal work per iteration", [(k, v, "count") for k, v in run.nominal.items()])

    walls = [w for w, _ in plain]
    end_to_end = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "cpu_s": median([c for _, c in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    q1, q3 = quartiles(walls)
    print_block("end to end (untraced iterations)", [
        (name, value, END_TO_END_UNITS[name]) for name, value in end_to_end.items()
    ] + [
        ("failed_fraction", run.failed / run.attempted, "1"),
        ("timed iterations", len(walls), "count"),
        ("wall_s quartiles", f"{q1:.4f} .. {q3:.4f}", "s"),
    ])
    print(f"  wall_s samples: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"  setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    print_block("accuracy (checked against bound)", [
        (name, value, f"1 (bound {bound:.3g})") for name, (value, bound) in run.accuracy.items()
    ])

    if args.trace:
        metrics = per_layer_metrics(run, plain, traced, layers, tracer)
        print_block("per layer (median over traced iterations)", [
            (k, m["value"], m["unit"]) for k, m in metrics.items()
        ])
        print(f"  traced wall_s samples: {' '.join(f'{w:.4f}' for w, _ in traced)}")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans_path)
        print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end.items()
        }

    print_block("checks", [
        ("rows attempted", run.attempted, ""),
        ("rows failed", run.failed, ""),
        ("corrupted CSVs rejected (negative control)", run.corruptions, ""),
    ])
    for message in run.failures:
        print(f"  FAIL {message}")
    correct = not run.failures and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
