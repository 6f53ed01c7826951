"""Per-layer tracing from outside the program.

Wraps oscint's public functions in place, in every oscint module that
holds a reference to them, and restores them afterwards.  Each wrapped
function records a span (id, parent id, name, start, end); spans stay in
memory until the run writes them out once.  The stiff-force evaluations
run once per micro step, so they are aggregated counters instead of
spans; their time still counts as child time of the enclosing span, so
the enclosing span's self time excludes it.

Self time of a span is its duration minus the time covered by its
children (spans and counted leaf calls).
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict

# Span functions, named <module>.<function>; all of them report
# .calls, .total_s and .self_s.
SPANS = (
    "harness.run_convergence_sweep",
    "harness.run_action_study",
    "harness.write_rows_csv",
    "integrators.integrate",
    "integrators.stormer_verlet",
    "effective.effective_reference",
    "effective.grad_frequencies",
    "effective.frequencies",
    "geometry.project_to_manifold.jac",
    "geometry.project_to_manifold.nojac",
    "geometry.momentum_projector",
    "geometry.consistent_state",
    "diagnostics.observer",
    "diagnostics.error_metrics",
    "diagnostics.resonance_monitor",
    "smallmat.sym_eig",
    "smallmat.newton_solve",
    "smallmat.cholesky",
    "smallmat.solve_spd",
    "smallmat.solve_dense",
)
# Leaf functions counted without spans; they report .calls and .total_s.
LEAVES = ("model.grad_stiff", "model.hess_stiff")
# sym_eig calls and self time are split by the innermost of these spans
# that encloses them: the stability guard, the reference, the observer.
SYM_EIG_OWNERS = {
    "integrators.stormer_verlet": "integrators",
    "effective.effective_reference": "effective",
    "diagnostics.observer": "diagnostics",
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start, end)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.micro_steps = 0
        self.residual_evals = 0
        self._ids = itertools.count()
        self._stack = []  # open spans: [id, name, child_s]
        self._patches = []

    def reset(self):
        """Zero the statistics of earlier iterations; spans are kept.

        Zeroed in place: leaf wrappers hold their stats entry."""
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self.micro_steps = 0
        self.residual_evals = 0

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, split=None):
        """fn wrapped in a span; split(args, kwargs, stack) may give the
        span another name or a second stats key, as (name, extra)."""
        stack = self._stack
        spans = self.spans
        stats = self.stats
        ids = self._ids
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key, extra = split(args, kwargs, stack) if split else (name, None)
            parent = stack[-1] if stack else None
            frame = [next(ids), key, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                own = duration - frame[2]
                st = stats[key]
                st[0] += 1
                st[1] += duration
                st[2] += own
                if extra is not None:
                    st = stats[extra]
                    st[0] += 1
                    st[1] += duration
                    st[2] += own
                if parent is not None:
                    parent[2] += duration
                spans.append((frame[0], parent[0] if parent else -1, key, start, end))

        return wrapper

    def leaf(self, name, fn):
        stack = self._stack
        st = self.stats[name]
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            start = perf()
            out = fn(*args, **kwargs)
            duration = perf() - start
            st[0] += 1
            st[1] += duration
            st[2] += duration
            if stack:
                stack[-1][2] += duration
            return out

        return wrapper

    # -- installing --------------------------------------------------------

    def _replace(self, modules, original, wrapped):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self):
        """Wrap the traced functions of the imported oscint package."""
        from oscint import diagnostics, geometry, model

        modules = [m for name, m in sys.modules.items() if name == "oscint" or name.startswith("oscint.")]
        special = {
            "integrators.stormer_verlet": self._count_micro_steps,
            "smallmat.newton_solve": self._count_residuals,
            "smallmat.sym_eig": self._split_sym_eig,
        }
        for name in SPANS:
            if name.startswith(("geometry.project_to_manifold", "diagnostics.observer")):
                continue  # wrapped below: split by argument, and a closure
            layer, func = name.split(".")
            original = getattr(sys.modules[f"oscint.{layer}"], func)
            wrap = special.get(name, self.span)
            self._replace(modules, original, wrap(name, original))

        project = geometry.project_to_manifold

        def jac_or_not(args, kwargs, stack):
            jac = kwargs.get("want_jacobian", args[2] if len(args) > 2 else False)
            return ("geometry.project_to_manifold.jac" if jac else "geometry.project_to_manifold.nojac"), None

        self._replace(modules, project, self.span("geometry.project_to_manifold", project, jac_or_not))

        make_observer = diagnostics.make_observer

        @functools.wraps(make_observer)
        def traced_make_observer(system):
            return self.span("diagnostics.observer", make_observer(system))

        self._replace(modules, make_observer, traced_make_observer)

        for cls in model.OscillatorySystem.__subclasses__():
            for name in LEAVES:
                attr = name.split(".")[1]
                original = vars(cls).get(attr)
                if original is not None:
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr, self.leaf(name, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- special spans -----------------------------------------------------

    def _count_micro_steps(self, name, fn):
        traced = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(sys_, state, h_micro, nsteps, *args, **kwargs):
            self.micro_steps += nsteps
            return traced(sys_, state, h_micro, nsteps, *args, **kwargs)

        return wrapper

    def _count_residuals(self, name, fn):
        traced = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(residual, *args, **kwargs):
            def counted(x):
                self.residual_evals += 1
                return residual(x)

            return traced(counted, *args, **kwargs)

        return wrapper

    def _split_sym_eig(self, name, fn):
        def owner(args, kwargs, stack):
            for frame in reversed(stack):
                layer = SYM_EIG_OWNERS.get(frame[1])
                if layer is not None:
                    return name, f"{name}.by_{layer}"
            return name, f"{name}.by_other"

        return self.span(name, fn, owner)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures of the iterations since the last reset."""
        out = {}
        for name in SPANS:
            calls, total, own = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = own
        for name in LEAVES:
            calls, total, _ = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
        for layer in sorted(set(SYM_EIG_OWNERS.values())) + ["other"]:
            calls, _, own = self.stats.get(f"smallmat.sym_eig.by_{layer}", (0, 0.0, 0.0))
            out[f"smallmat.sym_eig.by_{layer}.calls"] = calls
            out[f"smallmat.sym_eig.by_{layer}.self_s"] = own
        out["integrators.micro_steps"] = self.micro_steps
        out["smallmat.newton_solve.residual_evals"] = self.residual_evals
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f}\n")
