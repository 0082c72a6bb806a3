"""Experiment harness: replicated runs, oracle-anchored bound checks, reports.

One instance is evaluated by computing the offline optima once, drawing K
seeded realizations and running them through the engine in lockstep,
checking the per-realization inequalities on every replication, and
finally the in-expectation bounds on the Monte-Carlo means (always with a
3-standard-error allowance, since the guarantees are statements about
expectations).

The end-to-end cost bound is checked with explicit constants::

    mean cost(load/8) <= C_adv * cost(vOPT_adv) + C_stoch * cost(E vOPT_stoch)
                         + 1.5 * cost(p*ones) + 3*SE

where ``C_adv`` is ``(2p)**p`` for separable costs and ``e*(2ep^2)**p``
otherwise, and ``C_stoch`` is ``beta**p`` (``beta = n/|Stoch|``), improving
to 1 for homogeneous costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from robustpd.costs import (
    LinearPlusPower,
    SeparableGeneric,
    SumOfPowers,
    check_growth,
    check_superadditivity,
    conjugate_numeric,
    fenchel_gap,
)
from robustpd.instances import GeneratorParams, generate, sample_realization
from robustpd.oco import (
    OcoState,
    check_be_the_leader,
    check_oco_guarantees,
    check_stability,
    dominating_set,
)
# run_loadbalance and run_welfare are not called here since the replications
# run in lockstep; they stay importable from this module, where
# perfbench/tracer.py wraps them.
from robustpd.ocp import (
    check_adversarial_charging,
    check_cost_bound,
    check_homogeneous_equivalence,
    effective_norm_power,
    run_loadbalance,
    run_ocp,
    run_ocp_many,
)
from robustpd.oracles import opt_adv_ocp, opt_stoch_ocp, opt_stoch_welfare
from robustpd.welfare import PLAY_SCALE, check_profit_chain_step, run_welfare, run_welfare_many

__all__ = [
    "CheckOutcome",
    "RepRow",
    "InstanceReport",
    "evaluate_ocp_instance",
    "evaluate_welfare_instance",
    "evaluate_loadbalance_instance",
    "run_verify_suite",
    "report_to_csv",
    "report_to_json",
    "CSV_HEADER",
    "SLACK_TOL",
]

SLACK_TOL = 1e-8


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    slack: float


@dataclass
class RepRow:
    replication: int
    cost: float | None = None
    profit: float | None = None
    norm: float | None = None
    failed: list[str] = field(default_factory=list)


@dataclass
class InstanceReport:
    instance: str
    problem: str
    seed: int
    n: int
    m: int
    p: float
    family: str
    replications: int
    rows: list[RepRow]
    opt_adv: float | None
    opt_stoch: float | None
    mean: float
    stderr: float
    bound_rhs: float | None
    checks: list[CheckOutcome]
    details: dict = field(default_factory=dict)

    @property
    def all_pass(self):
        return all(c.passed for c in self.checks) and not any(r.failed for r in self.rows)

    def failed_names(self):
        names = {name for r in self.rows for name in r.failed}
        names.update(c.name for c in self.checks if not c.passed)
        return sorted(names)


def _mean_se(values):
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def _at_most(name, value, rhs):
    """Outcome of the claim ``value <= rhs``, slack normalized by ``max(1, |rhs|)``."""
    slack = (rhs - value) / max(1.0, abs(rhs))
    return CheckOutcome(name, slack >= -SLACK_TOL, slack)


# The field of RepRow whose mean and standard error each problem reports.
_REPORTED = {"ocp": "cost", "welfare": "profit", "loadbalance": "norm"}


def _evaluate(inst, replications, label, problem, f, adv_report, stoch_report, engine,
              replicate, bound):
    """Replicate one instance against its oracle answers and check its bound.

    ``engine(sequences, f, labels)`` plays the realized sequences of all
    replications in lockstep and returns one trace per replication;
    ``replicate(rep, realization, trace)`` returns the replication's row
    and the extra values the bound needs; ``bound(mean, se, extras)`` gets
    the reported value's mean and standard error and the list of those
    extras, and returns ``(bound_rhs, checks, details)``.
    """
    realizations = [sample_realization(inst, rep) for rep in range(replications)]
    traces = engine([real.points for real in realizations], f, inst.stoch_mask)
    rows, extras = [], []
    for rep, (real, trace) in enumerate(zip(realizations, traces)):
        row, extra = replicate(rep, real, trace)
        rows.append(row)
        extras.append(extra)
    mean, se = _mean_se([getattr(r, _REPORTED[problem]) for r in rows])
    rhs, checks, details = bound(mean, se, extras)
    return InstanceReport(
        instance=label,
        problem=problem,
        seed=inst.seed,
        n=inst.n,
        m=inst.m,
        p=f.p,
        family=f.family,
        replications=replications,
        rows=rows,
        opt_adv=adv_report.value if adv_report else None,
        opt_stoch=stoch_report.value if stoch_report else None,
        mean=mean,
        stderr=se,
        bound_rhs=rhs,
        checks=checks,
        details=details,
    )


def _ocp_oracles(inst, f):
    """The adversarial sets and the adversarial and stochastic offline optima."""
    adv_sets = [e.data for e in inst.timeline if e.kind == "adv"]
    adv_report = opt_adv_ocp(adv_sets, f)
    n_stoch = inst.n_stoch
    stoch_report = opt_stoch_ocp(inst.support, inst.probs, n_stoch, f) if n_stoch else None
    return adv_sets, adv_report, stoch_report


def evaluate_ocp_instance(inst, replications, label="ocp") -> InstanceReport:
    """Replicated run of one mixed instance with the full check battery."""
    f = inst.cost_function()
    labels = inst.stoch_mask
    n_stoch = inst.n_stoch
    beta = inst.n / n_stoch if n_stoch else None
    adv_sets, adv_report, stoch_report = _ocp_oracles(inst, f)
    alphas = (2.0 * f.p, 2.0 * math.e * f.p**2)

    def replicate(rep, real, trace):
        rep_checks = [check_cost_bound(trace)] + [
            check_adversarial_charging(trace, alpha, adv_report.choices) for alpha in alphas
        ]
        failed = [c.name for c in rep_checks if not c.passed(SLACK_TOL)]
        stoch_fake = 0.0
        if stoch_report is not None:
            v_star = np.stack([stoch_report.selector[j] for j in real.drawn[labels]])
            stoch_fake = float(
                np.einsum("tm,tm->", trace.y[labels], v_star)
                - trace.gamma * trace.conj_y[labels].sum()
            )
        row = RepRow(replication=rep, cost=trace.cost, failed=failed)
        return row, (f.eval(trace.load / 8.0), stoch_fake)

    def bound(mean, se, extras):
        mean_scaled, se_scaled = _mean_se([e[0] for e in extras])
        checks, rhs = [], None
        # The mean-form bounds anchor to the *optimal* selector; when the
        # oracle fell back to Monte Carlo they are not certified, so skip.
        stoch_exact = stoch_report.exact if stoch_report is not None else True
        if n_stoch and stoch_exact:
            mean_fake, se_fake = _mean_se([e[1] for e in extras])
            rhs = f.eval(beta * stoch_report.load) / beta + 3.0 * se_fake
            checks.append(_at_most("stoch_mean", mean_fake, rhs))
        if stoch_exact:
            if f.separable:
                c_adv = (2.0 * f.p) ** f.p
            else:
                c_adv = math.e * (2.0 * math.e * f.p**2) ** f.p
            c_stoch = 1.0 if f.homogeneous else (beta**f.p if n_stoch else 0.0)
            rhs = 1.5 * f.cost_at_p_ones() + 3.0 * se_scaled
            if adv_sets:
                rhs += c_adv * f.eval(adv_report.load)
            if n_stoch:
                rhs += c_stoch * f.eval(stoch_report.load)
            checks.append(_at_most("end_to_end", mean_scaled, rhs))
        # Both stochastic-optimum forms: the selector value E cost(sum v*) and
        # the cost of the mean offline load, which is what the bound charges.
        details = {"mean_scaled_cost": mean_scaled}
        if n_stoch:
            details["opt_stoch_selector_value"] = stoch_report.value
            details["cost_of_mean_stoch_load"] = f.eval(stoch_report.load)
            details["beta"] = beta
            details["stoch_oracle_method"] = stoch_report.method
        return rhs, checks, details

    return _evaluate(
        inst, replications, label, "ocp", f, adv_report, stoch_report, run_ocp_many,
        replicate, bound,
    )


def evaluate_welfare_instance(inst, replications, label="welfare") -> InstanceReport:
    f = inst.cost_function()
    n_stoch = inst.n_stoch
    beta = inst.n / n_stoch if n_stoch else None
    stoch_report = opt_stoch_welfare(inst.support, inst.probs, n_stoch, f) if n_stoch else None

    def replicate(rep, real, trace):
        chain = check_profit_chain_step(
            trace,
            beta=beta,
            opt_selector=stoch_report.selector if stoch_report else None,
            drawn=real.drawn,
        )
        failed = [] if chain.passed(SLACK_TOL) else [chain.name]
        return RepRow(replication=rep, profit=trace.profit, failed=failed), None

    def bound(mean, se, extras):
        rhs = -PLAY_SCALE * f.cost_at_p_ones() - 3.0 * se
        if n_stoch:
            rhs += PLAY_SCALE * stoch_report.value / beta
        # The claim is a lower bound on the profit: -profit <= -rhs.
        return rhs, [_at_most("profit_bound", -mean, -rhs)], {}

    return _evaluate(
        inst, replications, label, "welfare", f, None, stoch_report, run_welfare_many,
        replicate, bound,
    )


def evaluate_loadbalance_instance(inst, replications, label="loadbalance") -> InstanceReport:
    """Norm-space bound on the machine loads.

    Checked with the explicit constants obtained by taking p-th roots of
    the end-to-end cost bound::

        mean ||load||_p <= e*(2e p^2)*||vOPT_adv||_p + e*beta*||E vOPT_stoch||_p
                           + e*p*m**(1/p) + 3*SE
    """
    p_req = inst.cost["p"]
    m = inst.m
    p_eff = effective_norm_power(p_req, m)
    f = SumOfPowers(np.ones(m), p_eff)
    adv_sets, adv_report, stoch_report = _ocp_oracles(inst, f)

    def replicate(rep, real, trace):
        # The effective norm as run_loadbalance reports it.
        norm_eff = float(trace.cost ** (1.0 / p_eff))
        return RepRow(replication=rep, cost=trace.cost, norm=norm_eff), None

    def norm_of(load):
        return float(np.sum(np.asarray(load) ** p_eff) ** (1.0 / p_eff))

    def bound(mean, se, extras):
        rhs = math.e * p_eff * m ** (1.0 / p_eff) + 3.0 * se
        if adv_sets:
            rhs += math.e * (2.0 * math.e * p_eff**2) * norm_of(adv_report.load)
        if stoch_report is not None:
            beta = inst.n / inst.n_stoch
            rhs += math.e * beta * norm_of(stoch_report.load)
        return rhs, [_at_most("norm_bound", mean, rhs)], {}

    return _evaluate(
        inst, replications, label, "loadbalance", f, adv_report, stoch_report,
        run_ocp_many, replicate, bound,
    )


# -- randomized verification suite -----------------------------------------------


def _gamma_schedule(pattern, n, p, rng):
    """Multiplier schedule: values in {0, 1/K} summing to 1, K >= 4p."""
    k_min = math.ceil(4.0 * p)
    if pattern == "all":
        active = np.ones(n, dtype=bool)
    elif pattern == "alternating" and n >= 2 * k_min:
        active = np.zeros(n, dtype=bool)
        active[::2] = True
    elif pattern == "block_start":
        active = np.zeros(n, dtype=bool)
        active[: max(k_min, n // 2)] = True
    elif pattern == "block_end":
        active = np.zeros(n, dtype=bool)
        active[n - max(k_min, n // 2) :] = True
    elif pattern == "random" and n > k_min:
        k = int(rng.integers(k_min, n + 1))
        active = np.zeros(n, dtype=bool)
        active[rng.choice(n, size=k, replace=False)] = True
    else:
        active = np.ones(n, dtype=bool)
    k = int(active.sum())
    gamma_bar = 1.0 / k
    return active, gamma_bar


def _load_stream(pattern, n, m, rng):
    if pattern == "uniform":
        return rng.uniform(0.0, 1.0, size=(n, m))
    if pattern == "ones":
        return np.ones((n, m))
    if pattern == "sparse":
        v = rng.uniform(0.0, 1.0, size=(n, m))
        return v * (rng.uniform(size=(n, m)) < 0.3)
    if pattern == "zero_block":
        v = rng.uniform(0.0, 1.0, size=(n, m))
        v[: n // 2] = 0.0
        return v
    if pattern == "spiky":
        v = np.zeros((n, m))
        hits = rng.uniform(size=(n, m)) < 0.15
        v[hits] = 1.0
        return v
    raise ValueError(pattern)


def _random_cost(rng, m, p, family):
    if family == "sum_of_powers":
        return SumOfPowers(rng.uniform(0.3, 2.0, m), p)
    if family == "linear_plus_power":
        return LinearPlusPower(rng.uniform(0.4, 1.6, m), rng.uniform(0.0, 1.0, m), p)
    # Generic: mildly inhomogeneous power mix with known growth order p.
    weights = rng.uniform(0.5, 1.5, m)
    comps = [
        (
            lambda x, w=w, p=p: w * (x**p + 0.5 * x**2),
            lambda x, w=w, p=p: w * (p * x ** (p - 1) + x),
        )
        for w in weights
    ]
    return SeparableGeneric(comps, p)


@dataclass
class SuiteResult:
    check: str
    config: str
    passed: bool
    slack: float


def _oco_configs(count, seed):
    rng = np.random.default_rng(seed)
    fams = ["sum_of_powers", "linear_plus_power", "separable_generic"]
    g_patterns = ["all", "alternating", "block_start", "block_end", "random"]
    v_patterns = ["uniform", "ones", "sparse", "zero_block", "spiky"]
    for i in range(count):
        m = int(rng.choice([1, 2, 3, 5]))
        p = float(rng.choice([2.0, 3.0, 4.0]))
        n = int(rng.integers(math.ceil(4 * p), 65))
        fam = fams[i % len(fams)]
        gp = g_patterns[int(rng.integers(len(g_patterns)))]
        vp = v_patterns[int(rng.integers(len(v_patterns)))]
        yield i, rng, m, p, n, fam, gp, vp


def run_oco_suite(count=200, seed=42, mutation=None):
    """Randomized dual-learner runs with the full post-run check battery."""
    results = []
    for i, rng, m, p, n, fam, gp, vp in _oco_configs(count, seed):
        f = _random_cost(rng, m, p, fam)
        active, gamma_bar = _gamma_schedule(gp, n, p, rng)
        loads = _load_stream(vp, n, m, rng)
        state = OcoState(
            f,
            gamma_bar,
            disable_shift=(mutation == "shift"),
            disable_regularizer=(mutation == "regularizer"),
        )
        for t in range(n):
            state.observe(loads[t], gamma_bar if active[t] else 0.0)
        config = f"{fam},m={m},p={p:g},n={n},gamma={gp},load={vp}"
        for report in (
            check_oco_guarantees(state),
            check_be_the_leader(state),
            check_stability(state),
            dominating_set(state)[2],
        ):
            results.append(
                SuiteResult(report.name, config, report.passed(SLACK_TOL), report.worst_slack)
            )
    return results


def run_core_suite(samples=1000, seed=42):
    """Conjugate and growth checks on random points, per cost family."""
    rng = np.random.default_rng(seed)
    results = []
    for fam in ("sum_of_powers", "linear_plus_power", "separable_generic"):
        for p in (2.0, 3.0):
            m = int(rng.integers(1, 4))
            f = _random_cost(rng, m, p, fam)
            config = f"{fam},m={m},p={p:g}"
            worst_gap = math.inf
            for _ in range(samples // 10):
                u = rng.uniform(0.0, 4.0, m)
                y = f.grad(rng.uniform(0.0, 4.0, m))
                worst_gap = min(worst_gap, fenchel_gap(f, u, y))
            results.append(
                SuiteResult("fenchel_gap", config, worst_gap >= -1e-9, worst_gap)
            )
            grow_samples = [
                (rng.uniform(0.0, 3.0, m), rng.uniform(1.0, 4.0), rng.uniform(0.01, 1.0))
                for _ in range(samples // 10)
            ]
            rep = check_growth(f, grow_samples)
            results.append(
                SuiteResult("growth", config, rep.passed(1e-9), -rep.max_violation)
            )
            super_ok = all(
                check_superadditivity(f, rng.uniform(0, 3, m), rng.uniform(0, 3, m))
                for _ in range(samples // 10)
            )
            results.append(SuiteResult("superadditivity", config, super_ok, 0.0))
            if fam != "separable_generic":
                worst = math.inf
                for _ in range(20):
                    y = f.grad(rng.uniform(0.0, 4.0, m))
                    closed = f.conjugate_value(y)
                    numeric = conjugate_numeric(f, y)
                    worst = min(
                        worst, 1e-6 - abs(closed - numeric) / max(1.0, abs(numeric))
                    )
                results.append(SuiteResult("conjugate_numeric", config, worst >= 0, worst))
    return results


def _instance_result(check, report):
    slack = min((c.slack for c in report.checks), default=0.0)
    return SuiteResult(check, f"{report.instance},seed={report.seed}", report.all_pass, slack)


def run_engine_suite(count=10, seed=42, replications=20, mutation=None, problems=("ocp", "welfare")):
    """Small randomized end-to-end instances through the engines."""
    rng = np.random.default_rng(seed)
    results = []
    for i in range(count):
        p = float(rng.choice([2.0, 3.0]))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(math.ceil(4 * p), 25))
        n_adv = int(rng.integers(0, min(6, n // 2) + 1))
        fam = "sum_of_powers" if i % 2 == 0 else "linear_plus_power"
        placement = str(rng.choice(["prefix", "suffix", "random", "interleaved"]))
        seed_ocp = int(rng.integers(10**6))
        seed_wel = int(rng.integers(10**6))
        shape = dict(n=n, m=m, p=p, family=fam, n_adv=n_adv)
        if "ocp" in problems:
            params = GeneratorParams(problem="ocp", adv_placement=placement, **shape)
            inst = generate(params, seed_ocp)
            report = evaluate_ocp_instance(inst, replications, label=f"ocp-{i}")
            results.append(_instance_result("ocp_instance", report))
            if fam == "sum_of_powers" and n - n_adv >= 4 * p:
                real = sample_realization(inst, 0)
                f = inst.cost_function()
                trace = run_ocp(real.points, f, inst.stoch_mask,
                                disable_shift=(mutation == "shift"),
                                disable_regularizer=(mutation == "regularizer"))
                rep = check_homogeneous_equivalence(trace, inst.stoch_mask, real.points)
                results.append(
                    SuiteResult(rep.name, f"ocp-{i},seed={inst.seed}",
                                rep.passed(SLACK_TOL), rep.worst_slack)
                )
        if "welfare" in problems:
            wparams = GeneratorParams(problem="welfare", adv_placement="random", **shape)
            winst = generate(wparams, seed_wel)
            wreport = evaluate_welfare_instance(winst, replications, label=f"welfare-{i}")
            results.append(_instance_result("welfare_instance", wreport))
    return results


def run_verify_suite(seed=42, count=200, mutation=None, scope="all"):
    """The complete randomized property suite; returns all results.

    ``count`` scales the randomized configurations; 0 means an empty run.
    """
    if count <= 0:
        return []
    results = []
    if scope in ("all", "core") and mutation is None:
        results += run_core_suite(seed=seed)
    if scope in ("all", "oco"):
        results += run_oco_suite(count=count, seed=seed, mutation=mutation)
    if scope in ("all", "ocp", "welfare"):
        problems = ("ocp", "welfare") if scope == "all" else (scope,)
        results += run_engine_suite(
            count=max(1, count // 40), seed=seed, mutation=mutation, problems=problems
        )
    return results


# -- report emission ----------------------------------------------------------

CSV_HEADER = (
    "instance,replication,seed,n,m,p,family,cost,profit,norm,"
    "opt_adv,opt_stoch,bound_rhs,checks_failed,all_pass"
)


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def report_to_csv(report) -> str:
    lines = [CSV_HEADER]
    fixed = [
        report.instance,
        None,
        report.seed,
        report.n,
        report.m,
        report.p,
        report.family,
    ]
    for row in report.rows:
        rec = list(fixed)
        rec[1] = row.replication
        rec += [
            row.cost,
            row.profit,
            row.norm,
            report.opt_adv,
            report.opt_stoch,
            None,
            ";".join(row.failed),
            not row.failed,
        ]
        lines.append(",".join(_fmt(x) for x in rec))
    summary = list(fixed)
    summary[1] = "mean"
    mean_cost = report.mean if report.problem == "ocp" else None
    mean_profit = report.mean if report.problem == "welfare" else None
    mean_norm = report.mean if report.problem == "loadbalance" else None
    summary += [
        mean_cost,
        mean_profit,
        mean_norm,
        report.opt_adv,
        report.opt_stoch,
        report.bound_rhs,
        ";".join(report.failed_names()),
        report.all_pass,
    ]
    lines.append(",".join(_fmt(x) for x in summary))
    return "\n".join(lines) + "\n"


def report_to_json(report) -> dict:
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
            {"name": c.name, "passed": c.passed, "slack": c.slack} for c in report.checks
        ],
        "rows": [
            {
                "replication": r.replication,
                "cost": r.cost,
                "profit": r.profit,
                "norm": r.norm,
                "failed": r.failed,
            }
            for r in report.rows
        ],
        "all_pass": report.all_pass,
    }
