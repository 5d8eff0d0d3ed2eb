"""Command line entry point.

``spincert run`` executes verification suites and prints a certificate
table (or one JSON document); ``spincert list-suites`` names them.  Exit
codes: 0 all selected suites passed, 1 at least one check failed, 2 usage
error.  Flags are the only way in: the environment sets no option.
``--suites all``, the default, names every suite.
"""

from __future__ import annotations

import argparse
import json
import sys

from .kernels import backend
from .suites import SUITES, RunConfig, report_to_dict, run_selected


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincert",
        description="Exact certificates for spin, octonion and matrix-pair representation geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run verification suites")
    run.add_argument(
        "--suites",
        default="all",
        help="comma-separated suite names, or 'all' (default)",
    )
    run.add_argument("--prime", type=int, default=RunConfig.prime)
    run.add_argument("--confirm-prime", type=int, default=RunConfig.confirm_prime)
    run.add_argument("--seed", type=int, default=RunConfig.seed)
    run.add_argument("--trials", type=int, default=RunConfig.trials)
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument(
        "--stretch",
        action="store_true",
        help="enable the budgeted degree-4 invariant computation",
    )

    sub.add_parser("list-suites", help="list suite names with their certificate anchors")
    return parser


def _config_from_args(args) -> RunConfig:
    names = [s.strip() for s in args.suites.split(",") if s.strip()]
    return RunConfig(
        suites=list(SUITES) if names in ([], ["all"]) else names,
        prime=args.prime,
        confirm_prime=args.confirm_prime,
        seed=args.seed,
        trials=args.trials,
        stretch=args.stretch,
    )


def _print_text(reports) -> None:
    for rep in reports:
        flag = "PASS" if rep.passed else "FAIL"
        print(f"suite {rep.suite:<16} [{flag}]  primes={rep.primes}  seed={rep.seed}  {rep.elapsed_ms} ms")
        width = max((len(c.id) for c in rep.checks), default=10)
        for c in rep.checks:
            mark = "ok " if c.passed else "FAIL"
            print(f"  {mark} {c.id:<{width}}  expected={c.expected!r}  observed={c.observed!r}  [{c.provenance}]")
    total = sum(1 for r in reports if r.passed)
    print(f"suites passed: {total}/{len(reports)}  (elimination backend: {backend()})")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list-suites":
        for name, (_, anchor) in SUITES.items():
            print(f"{name} - {anchor}")
        return 0

    cfg = _config_from_args(args)
    try:
        cfg.validate()
    except ValueError as exc:
        parser.error(str(exc))  # exits with code 2

    reports = run_selected(cfg)
    if args.format == "json":
        doc = {
            "suites": [report_to_dict(r) for r in reports],
            "seed": cfg.seed,
            "primes": list(cfg.primes),
            "trials": cfg.trials,
            "pass": all(r.passed for r in reports),
        }
        json.dump(doc, sys.stdout, indent=1)
        print()
    else:
        _print_text(reports)
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
