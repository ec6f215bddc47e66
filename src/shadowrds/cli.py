"""Command line entry point.

    shadow-rds run --config experiment.cfg
    shadow-rds list-scenarios
    shadow-rds selftest

Exit codes: 0 success; 1 a certificate failed or the solver did not
converge; 2 a usage or config error, including configs the numerics reject
(a ValueError such as q >= 1 or inadmissible weights, or a failed backward
inversion).  Errors print one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import load_config, run_experiment
from .shadowing import InversionError, NonConvergenceError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadow-rds",
        description="Shadowing and Lyapunov-exponent experiments for random dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment described by a config file")
    run.add_argument("--config", required=True, help="path to a key = value config file")
    sub.add_parser("list-scenarios", help="list the builtin scenarios")
    sub.add_parser("selftest", help="validate every builtin scenario")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        try:
            cfg = load_config(args.config)
            return run_experiment(cfg)
        except (ValueError, InversionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except NonConvergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.command == "list-scenarios":
        from .scenarios import builtin_scenarios

        for scenario in builtin_scenarios():
            print(f"{scenario.name:22s} d={scenario.cocycle.dim}  {scenario.notes}")
        return 0
    if args.command == "selftest":
        from .checks import scenario_self_test
        from .scenarios import builtin_scenarios

        failed = False
        for scenario in builtin_scenarios():
            report = scenario_self_test(scenario)
            status = "ok" if report.passed else "FAIL"
            print(f"{scenario.name:22s} {status}")
            if not report.passed:
                print(report.describe())
                failed = True
        return 1 if failed else 0
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
