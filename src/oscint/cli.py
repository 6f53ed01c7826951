"""Command-line entry point.

Subcommands: converge, actions, simulate, check.  A JSON config file
provides the experiment description; command-line flags override
individual fields.  Exit codes: 0 success, 1 numerical failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .harness import ConfigError, SweepConfig


def _add_common_flags(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--epsilon", type=float, help="stiffness parameter")
    parser.add_argument("--t-end", type=float, dest="t_end", help="integration horizon")
    parser.add_argument(
        "--method",
        action="append",
        dest="methods",
        help="method kind (repeatable): impulse, mollified, projected",
    )
    parser.add_argument(
        "--h",
        action="append",
        dest="stepsizes",
        type=float,
        help="macro stepsize (repeatable)",
    )
    parser.add_argument("--micro-divisor", type=int, dest="micro_divisor")
    parser.add_argument("--h-ref", type=float, dest="h_ref", help="reference stepsize")
    parser.add_argument("--stride", type=int, help="sampling stride")
    parser.add_argument("--workers", type=int, help="parallel workers")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oscint",
        description="Multiscale impulse-type integrators for stiff oscillatory "
        "Hamiltonian systems: experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
        ("converge", "stepsize sweep of every method against the reference"),
        ("actions", "action time series per method at one stepsize"),
        ("simulate", "one method, one stepsize, full diagnostics series"),
        ("check", "run the validation suite"),
    ):
        p = sub.add_parser(name, help=descr)
        _add_common_flags(p)
        if name == "check":
            p.add_argument(
                "--inject-fault",
                dest="inject_fault",
                help="corrupt the named check's tolerance (negative control)",
            )
    return parser


def _merged_config(args) -> SweepConfig:
    cfg = harness.load_config(args.config) if args.config else SweepConfig()
    for name in SweepConfig.__dataclass_fields__:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    return cfg.validate()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merged_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "converge":
            result = harness.run_convergence_sweep(cfg)
            for row in result.rows:
                print(
                    f"{row.method} h={row.h:g} err_x={row.max_err_x:.3e} "
                    f"err_Py={row.max_err_py:.3e} drift={row.max_action_drift:.3e} "
                    f"[{row.status}] {row.wall_time:.1f}s",
                    file=sys.stderr,
                )
            print(f"reference guard: {result.reference_guard:.3e}", file=sys.stderr)
            print(f"wrote {cfg.out}")
            return 0 if all(r.status == "ok" for r in result.rows) else 1
        if args.command == "actions":
            result = harness.run_action_study(cfg)
            for row in result.rows:
                print(
                    f"{row.method} h={row.h:g} drift={row.max_action_drift:.3e} "
                    f"[{row.status}] {row.wall_time:.1f}s",
                    file=sys.stderr,
                )
            print(f"wrote {cfg.out}")
            return 0 if all(r.status == "ok" for r in result.rows) else 1
        if args.command == "simulate":
            path = harness.run_single(cfg)
            print(f"wrote {path}")
            return 0
        results, passed = harness.run_check(inject_fault=getattr(args, "inject_fault", None))
        harness.print_check_report(results)
        return 0 if passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failures map to exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
