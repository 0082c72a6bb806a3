"""Command-line entry point.

Subcommands::

    robustpd run-ocp         --instance FILE [--replications K] [--seed S] ...
    robustpd run-welfare     --instance FILE ...
    robustpd run-loadbalance --instance FILE ...
    robustpd verify          [--seed S] [--count N] [--check SCOPE] [--mutation M]

The run commands replay an instance file K >= 1 times, check every
per-realization and in-expectation inequality, and write one CSV or JSON
report into ``--out-dir``; an instance file that cannot be read, is not
JSON or violates the schema, an invalid ``--seed``, or a configuration
outside the guarantee regime, such as K < 1, is an error (exit status 2)
and writes nothing.
``verify`` runs the randomized property suite and prints a
check-by-outcome matrix.  Exit status is 0 exactly when no check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter

from robustpd.harness import (
    evaluate_loadbalance_instance,
    evaluate_ocp_instance,
    evaluate_welfare_instance,
    report_to_csv,
    report_to_json,
    run_verify_suite,
)
from robustpd.instances import SchemaError, load_instance
from robustpd.oco import ConfigError


def _add_run_flags(sub):
    sub.add_argument("--instance", required=True, help="instance JSON file (schema v1)")
    sub.add_argument("--replications", type=int, default=100)
    sub.add_argument("--seed", type=int, default=None, help="override the instance seed")
    sub.add_argument("--out-dir", default=".")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser():
    parser = argparse.ArgumentParser(prog="robustpd", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("run-ocp", "run-welfare", "run-loadbalance"):
        _add_run_flags(subs.add_parser(name))
    verify = subs.add_parser("verify")
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--count", type=int, default=200)
    verify.add_argument(
        "--check", choices=("all", "core", "oco", "ocp", "welfare"), default="all"
    )
    verify.add_argument(
        "--mutation",
        choices=("shift", "regularizer"),
        default=None,
        help="test-only: inject a known bug; the suite must then fail",
    )
    return parser


_EVALUATORS = {
    "run-ocp": ("ocp", evaluate_ocp_instance),
    "run-welfare": ("welfare", evaluate_welfare_instance),
    "run-loadbalance": ("loadbalance", evaluate_loadbalance_instance),
}


def _cmd_run(args):
    kind, evaluate = _EVALUATORS[args.command]
    try:
        inst = load_instance(args.instance)
        if args.seed is not None:
            inst = dataclasses.replace(inst, seed=args.seed)
    except SchemaError as err:
        print(f"error: {args.instance}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if inst.problem != ("welfare" if kind == "welfare" else "ocp"):
        print(
            f"error: {args.instance} is a {inst.problem!r} instance, "
            f"not usable with {args.command}",
            file=sys.stderr,
        )
        return 2
    stem = os.path.splitext(os.path.basename(args.instance))[0]
    try:
        report = evaluate(inst, args.replications, label=stem)
    except ConfigError as err:
        print(f"error: {args.instance}: {err}", file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, f"{stem}_{kind}.{args.format}")
    if args.format == "csv":
        payload = report_to_csv(report)
    else:
        payload = json.dumps(report_to_json(report), indent=1) + "\n"
    with open(out_path, "w") as fh:
        fh.write(payload)
    status = "PASS" if report.all_pass else "FAIL"
    print(f"{status} {stem}: mean={report.mean!r} stderr={report.stderr!r}")
    for check in report.checks:
        mark = "pass" if check.passed else "FAIL"
        print(f"  [{mark}] {check.check} slack={check.slack:.3e}")
    bad = [name for name in report.failed_names() if name not in {c.check for c in report.checks}]
    if bad:
        print(f"  per-replication failures: {', '.join(bad)}")
    print(f"wrote {out_path}")
    return 0 if report.all_pass else 1


def _cmd_verify(args):
    results = run_verify_suite(
        seed=args.seed, count=args.count, mutation=args.mutation, scope=args.check
    )
    by_check = Counter()
    failed_by_check = Counter()
    for r in results:
        by_check[r.check] += 1
        if not r.passed:
            failed_by_check[r.check] += 1
    width = max((len(k) for k in by_check), default=5)
    print(f"{'check'.ljust(width)}  runs  fail  outcome")
    for name in sorted(by_check):
        fails = failed_by_check[name]
        outcome = "ok" if fails == 0 else "FAIL"
        print(f"{name.ljust(width)}  {by_check[name]:4d}  {fails:4d}  {outcome}")
    failures = [r for r in results if not r.passed]
    for r in failures[:20]:
        print(f"FAIL {r.check} [{r.config}] slack={r.slack:.3e}")
    total = len(results)
    print(f"{total - len(failures)}/{total} checks passed")
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
