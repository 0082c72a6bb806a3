"""Report emission against the per-line formatter it replaced, byte for byte.

``report_to_csv`` formats each value column once and builds the text its
lines share once per report; ``report_to_json`` builds its rows in one
comprehension.  The reference below is the earlier formatter, which built
every replication's line and row on its own; both forms must give the same
CSV bytes and the same ``json.dumps(..., indent=1)`` text (the run
commands' JSON) on passing and failing replications, on K = 1, on the
welfare ``profit`` column and on load balancing's ``cost`` and ``norm``.
"""

import json
from itertools import compress
from pathlib import Path

import numpy as np
import pytest

from robustpd.harness import (
    InstanceReport,
    evaluate_loadbalance_instance,
    evaluate_ocp_instance,
    evaluate_welfare_instance,
    report_to_csv,
    report_to_json,
)
from robustpd.instances import load_instance
from robustpd.oco import Verdict

DATA = Path(__file__).parent / "data"

# -- reference: the per-line formatter -------------------------------------------

REF_HEADER = (
    "instance,replication,seed,n,m,p,family,cost,profit,norm,"
    "opt_adv,opt_stoch,bound_rhs,checks_failed,all_pass"
)
REF_REPORTED = {"ocp": "cost", "welfare": "profit", "loadbalance": "norm"}


def ref_fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def ref_failed_checks(report):
    failed = [[] for _ in range(report.replications)]
    for rep in np.flatnonzero(report.rows.any(axis=1)).tolist():
        failed[rep] = list(compress(report.rep_checks, report.rows[rep]))
    return failed


def ref_replication_lines(report, absent):
    k = report.replications
    columns = [
        report.values[name].tolist() if name in report.values else [absent] * k
        for name in REF_REPORTED.values()
    ]
    return zip(range(k), *columns, ref_failed_checks(report))


def ref_report_to_csv(report):
    instance = ref_fmt(report.instance)
    shape = ",".join(ref_fmt(x) for x in (report.seed, report.n, report.m, report.p, report.family))
    oracles = f"{ref_fmt(report.opt_adv)},{ref_fmt(report.opt_stoch)}"
    lines = [REF_HEADER]
    lines += [
        f"{instance},{rep},{shape},{cost!s},{profit!s},{norm!s},{oracles},,"
        f"{';'.join(failed)},{not failed}"
        for rep, cost, profit, norm, failed in ref_replication_lines(report, "")
    ]
    means = [report.mean if report.problem == problem else None for problem in REF_REPORTED]
    lines.append(
        f"{instance},mean,{shape},{','.join(ref_fmt(x) for x in means)},{oracles},"
        f"{ref_fmt(report.bound_rhs)},{';'.join(report.failed_names())},{report.all_pass}"
    )
    return "\n".join(lines) + "\n"


def ref_report_to_json(report):
    return {
        "instance": report.instance,
        "problem": report.problem,
        "seed": report.seed,
        "n": report.n,
        "m": report.m,
        "p": report.p,
        "family": report.family,
        "replications": report.replications,
        "mean": report.mean,
        "stderr": report.stderr,
        "opt_adv": report.opt_adv,
        "opt_stoch": report.opt_stoch,
        "bound_rhs": report.bound_rhs,
        "details": report.details,
        "checks": [
            {"name": c.check, "passed": c.passed, "slack": c.slack} for c in report.checks
        ],
        "rows": [
            {"replication": rep, "cost": cost, "profit": profit, "norm": norm, "failed": failed}
            for rep, cost, profit, norm, failed in ref_replication_lines(report, None)
        ],
        "all_pass": report.all_pass,
    }


def assert_same_emission(report):
    assert report_to_csv(report).encode() == ref_report_to_csv(report).encode()
    got = json.dumps(report_to_json(report), indent=1)
    assert got.encode() == json.dumps(ref_report_to_json(report), indent=1).encode()
    assert report_to_json(report) == ref_report_to_json(report)


# -- synthetic reports -------------------------------------------------------------

# Values whose repr takes every form: short, 17 digits, exponents, a signed zero.
ODD_VALUES = [0.1 + 0.2, 1e16, 1.5e-7, -0.0, 5e-324, 123456789.125, 3.0, 2.0**60]


def synthetic(problem, values, rows, *, passes=True, stoch=True):
    k, checks = rows.shape[0], ["cost_bound", "best_response", "tie"][: rows.shape[1]]
    return InstanceReport(
        instance=f"{problem}-synthetic",
        problem=problem,
        seed=17,
        n=12,
        m=2,
        p=3.0,
        family="sum_of_powers",
        replications=k,
        values={name: np.asarray(col) for name, col in values.items()},
        rep_checks=checks,
        rows=rows,
        opt_adv=4.25,
        opt_stoch=0.1 + 0.7 if stoch else None,
        mean=float(np.mean(next(iter(values.values())))),
        stderr=0.01,
        bound_rhs=7.5 if stoch else None,
        checks=[Verdict("end_to_end", 0.5 if passes else -0.5, passes)],
        details={"beta": 1.5, "note": "x"} if stoch else {},
    )


# The value columns of each problem's report.
COLUMNS = [("ocp", ["cost"]), ("welfare", ["profit"]), ("loadbalance", ["cost", "norm"])]


def failure_rows(k, width, every):
    """A ``(k, width)`` failure matrix failing check ``rep % width`` on every ``every``-th row."""
    rows = np.zeros((k, width), dtype=bool)
    for rep in range(0, k, every):
        rows[rep, rep % width] = True
        if rep % (2 * every) == 0:
            rows[rep, -1] = True
    return rows


@pytest.mark.parametrize("every", [1, 2, 3, 50])
@pytest.mark.parametrize("problem, names", COLUMNS, ids=[problem for problem, _ in COLUMNS])
def test_mixed_passing_and_failing_replications(problem, names, every):
    rng = np.random.default_rng(every)
    k = 40
    values = {name: rng.uniform(-3.0, 30.0, k) for name in names}
    values[names[0]][: len(ODD_VALUES)] = ODD_VALUES
    report = synthetic(problem, values, failure_rows(k, 3, every), passes=every != 3)
    failing = report.rows.any(axis=1)
    assert failing.any() and failing.all() == (every == 1)
    assert_same_emission(report)


@pytest.mark.parametrize("failed", [False, True])
@pytest.mark.parametrize("problem, names", COLUMNS, ids=[problem for problem, _ in COLUMNS])
def test_one_replication(problem, names, failed):
    values = {name: [ODD_VALUES[i]] for i, name in enumerate(names)}
    rows = np.array([[failed, False]])
    assert_same_emission(synthetic(problem, values, rows, stoch=failed))


def test_integer_columns_and_absent_oracles():
    values = {"cost": np.arange(5), "norm": np.arange(5) * 2}
    report = synthetic("loadbalance", values, failure_rows(5, 2, 2), stoch=False)
    assert_same_emission(report)


# -- evaluated reports ----------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 7])
def test_ocp_reports(k):
    assert_same_emission(evaluate_ocp_instance(load_instance(DATA / "ocp_small.json"), k))


@pytest.mark.parametrize("k", [1, 7])
def test_loadbalance_reports(k):
    report = evaluate_loadbalance_instance(load_instance(DATA / "ocp_small.json"), k)
    assert set(report.values) == {"cost", "norm"}
    assert_same_emission(report)


@pytest.mark.parametrize("k", [1, 7])
def test_welfare_reports(k):
    report = evaluate_welfare_instance(load_instance(DATA / "welfare_small.json"), k)
    assert set(report.values) == {"profit"}
    assert_same_emission(report)


def test_failing_evaluated_report(monkeypatch):
    # The worst option instead of the best: every replication fails best_response.
    from robustpd import ocp

    def worst_rows(options, Y, rows, out=None):
        idx = ocp._vecdot(options, Y[..., None, :]).argmax(axis=1, out=out)
        return idx, options.reshape(-1, options.shape[-1]).take(idx + rows, 0)

    monkeypatch.setattr(ocp, "_best_rows", worst_rows)
    report = evaluate_ocp_instance(load_instance(DATA / "ocp_small.json"), 9)
    assert report.rows.any() and not report.all_pass
    assert_same_emission(report)
