"""Experiment harness: replicated runs, oracle-anchored bound checks, reports.

One instance is evaluated by computing the offline optima once, drawing
the support indices of K seeded realizations as one ``(K, n)`` matrix,
running them through the engine in lockstep, checking the per-realization
inequalities of all K replications at once (each check is one array
formula over the run record), and finally the in-expectation bounds on
the Monte-Carlo means (always with a 3-standard-error allowance, since the
guarantees are statements about expectations).

The end-to-end cost bound is checked with explicit constants::

    mean cost(load/8) <= C_adv * cost(vOPT_adv) + C_stoch * cost(E vOPT_stoch)
                         + 1.5 * cost(p*ones) + 3*SE

where ``C_adv`` is ``(2p)**p`` and ``C_stoch`` is ``beta**p``
(``beta = n/|Stoch|``), improving to 1 for homogeneous costs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from itertools import compress

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
from robustpd.instances import GeneratorParams, draw_matrix, generate, sample_realization
from robustpd.oco import (
    SLACK_TOL,
    ConfigError,
    OcoState,
    Verdict,
    check_be_the_leader,
    check_oco_guarantees,
    check_stability,
    dominating_set,
)
# run_loadbalance and run_welfare are imported only for perfbench/tracer.py, which wraps them here.
from robustpd.ocp import (
    _effective_norm,
    _fake_total,
    _loadbalance_cost,
    _p_norm,
    check_adversarial_charging,
    check_best_response,
    check_cost_bound,
    check_homogeneous_equivalence,
    run_loadbalance,
    run_ocp,
    run_ocp_batch,
)
from robustpd.oracles import opt_adv_ocp, opt_stoch_ocp, opt_stoch_welfare
from robustpd.welfare import (
    PLAY_SCALE,
    check_accept_rule,
    check_profit_chain_step,
    run_welfare,
    run_welfare_batch,
)

__all__ = [
    "InstanceReport",
    "evaluate_ocp_instance",
    "evaluate_welfare_instance",
    "evaluate_loadbalance_instance",
    "run_verify_suite",
    "VERIFY_SCOPES",
    "MUTATIONS",
    "report_to_csv",
    "report_to_json",
    "CSV_HEADER",
    "SLACK_TOL",
]

@dataclass
class InstanceReport:
    """The evaluation of one instance, its replications held as columns.

    ``values`` maps each reported name (``cost``, ``profit`` or ``norm``)
    to its ``(K,)`` values, one per replication; ``rows`` is the ``(K,
    len(rep_checks))`` failure matrix of the per-replication checks named
    in ``rep_checks``, row k for replication k; ``checks`` holds the
    verdicts on the Monte-Carlo means.
    """

    instance: str
    problem: str
    seed: int
    n: int
    m: int
    p: float
    family: str
    replications: int
    values: dict
    rep_checks: list[str]
    rows: np.ndarray
    opt_adv: float | None
    opt_stoch: float | None
    mean: float
    stderr: float
    bound_rhs: float | None
    checks: list[Verdict]
    details: dict = field(default_factory=dict)

    @property
    def all_pass(self):
        return all(c.passed for c in self.checks) and not self.rows.any()

    def failed_names(self):
        names = set(compress(self.rep_checks, self.rows.any(axis=0)))
        names.update(c.check for c in self.checks if not c.passed)
        return sorted(names)


def _mean_se(values):
    """The bits of ``mean()`` and ``std(ddof=1) / sqrt(n)``, by numpy's own steps
    in their order: sum / n, then the squared deviations' sum / (n - 1), its root."""
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    mean = np.add.reduce(arr, axis=None) / n
    if n < 2:
        return float(mean), 0.0
    dev = np.subtract(arr, mean)
    var = np.add.reduce(np.square(dev, out=dev), axis=None) / (n - 1)
    return float(mean), float(np.sqrt(var) / math.sqrt(n))


def _at_most(name, value, rhs):
    """Verdict on the claim ``value <= rhs``, slack normalized by ``max(1, |rhs|)``."""
    return Verdict.of(name, (rhs - value) / max(1.0, abs(rhs)))


# The value whose mean and standard error each problem reports, in the
# order of the cost, profit and norm columns of the CSV.
_REPORTED = {"ocp": "cost", "welfare": "profit", "loadbalance": "norm"}


def _evaluate(inst, replications, label, problem, f, adv_report, stoch_report, engine,
              replicate, bound):
    """Replicate one instance against its oracle answers and check its bound.

    Draws the ``(K, n)`` support indices of all K replications, plays them
    with ``engine(points, at, f, labels)``, which returns the trace of all
    K runs, and checks every replication at once: ``replicate(runs,
    drawn)`` returns the report values (name -> ``(K,)`` column), the
    per-replication verdicts (``(K,)`` pass columns) and the extra values
    the bound needs; ``bound(mean, se, extras)`` gets the reported value's
    mean and standard error and those extras, and returns ``(bound_rhs,
    checks, details)``.
    """
    drawn = draw_matrix(inst, range(replications))
    runs = engine(*inst.point_table(drawn), f, inst.stoch_mask)
    columns, verdicts, extras = replicate(runs, drawn)
    passed = np.array([v.passed for v in verdicts], dtype=bool)
    mean, se = _mean_se(columns[_REPORTED[problem]])
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
        values=columns,
        rep_checks=[v.check for v in verdicts],
        rows=~passed.reshape(len(verdicts), replications).T,
        opt_adv=adv_report.value if adv_report else None,
        opt_stoch=stoch_report.value if stoch_report else None,
        mean=mean,
        stderr=se,
        bound_rhs=rhs,
        checks=checks,
        details=details,
    )


def _in_float64(evaluate):
    """Refuse, as a :class:`ConfigError`, an evaluation that overflows float64.

    Costs whose values or duals leave the float64 range along the run have
    no meaningful report; the first overflow or invalid operation of the
    evaluation stops it.
    """

    @functools.wraps(evaluate)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return evaluate(*args, **kwargs)
        except (FloatingPointError, OverflowError) as err:
            raise ConfigError(f"the evaluation leaves the float64 range: {err}") from err

    return checked


def _prologue(inst, replications, f, problem):
    """Refuse, before any oracle runs, a run the evaluation ``problem`` cannot check.

    The instance must be of its kind (load balancing runs OCP instances), with
    K >= 1 and ``n >= 4p`` for the run cost ``f``, outside of which the oracles
    can overflow.  An OCP-engine evaluation then gets the adversarial sets and optima.
    """
    kind = "welfare" if problem == "welfare" else "ocp"
    if inst.problem != kind:
        raise ConfigError(
            f"the instance is a {inst.problem!r} instance, not usable with the {problem} evaluation"
        )
    if replications < 1:
        raise ConfigError(f"need at least 1 replication, got {replications}")
    if inst.n < 4.0 * f.p:
        raise ConfigError(f"need n >= 4p, got n={inst.n} with p={f.p}")
    if kind == "ocp":
        adv_sets = [e.data for e in inst.timeline if e.kind == "adv"]
        adv_report = opt_adv_ocp(adv_sets, f)
        n_stoch = inst.n_stoch
        stoch_report = opt_stoch_ocp(inst.support, inst.probs, n_stoch, f) if n_stoch else None
        return adv_sets, adv_report, stoch_report


def _ocp_checks(runs, adv_report):
    """The OCP per-replication verdicts of K runs under their cost ``runs.f``."""
    alphas = (2.0 * runs.f.p, 2.0 * math.e * runs.f.p**2)
    choices = np.asarray(adv_report.choices, dtype=np.float64).reshape(-1, runs.f.m)
    return [
        check_cost_bound(runs),
        *(check_adversarial_charging(runs, alpha, choices) for alpha in alphas),
        check_best_response(runs),
    ]


@_in_float64
def evaluate_ocp_instance(inst, replications, label="ocp") -> InstanceReport:
    """Replicated run of one mixed instance with the full check battery."""
    f = inst.cost_function()
    adv_sets, adv_report, stoch_report = _prologue(inst, replications, f, "ocp")
    labels, n_stoch = inst.stoch_mask, inst.n_stoch
    beta = inst.n / n_stoch if n_stoch else None

    def replicate(runs, drawn):
        stoch_fake = np.zeros(replications)
        if stoch_report is not None:
            selector = np.array(stoch_report.selector, dtype=np.float64)
            stoch_fake = _fake_total(runs, labels, selector.take(drawn.compress(labels, 1), 0))
        extras = (runs._scaled_cost, stoch_fake)
        return {"cost": runs.cost}, _ocp_checks(runs, adv_report), extras

    def bound(mean, se, extras):
        scaled, stoch_fake = extras
        mean_scaled, se_scaled = _mean_se(scaled)
        checks, rhs = [], None
        # The mean-form bounds anchor to the *optimal* selector; when the
        # oracle fell back to Monte Carlo they are not certified, so skip.
        stoch_exact = stoch_report.exact if stoch_report is not None else True
        # The oracles' loads are sums of checked menu rows: no point to validate.
        cost_stoch = float(f.eval_rows(stoch_report.load)) if n_stoch else None
        if n_stoch and stoch_exact:
            mean_fake, se_fake = _mean_se(stoch_fake)
            rhs = float(f.eval_rows(beta * stoch_report.load)) / beta + 3.0 * se_fake
            checks.append(_at_most("stoch_mean", mean_fake, rhs))
        if stoch_exact:
            c_adv = (2.0 * f.p) ** f.p
            c_stoch = 1.0 if f.homogeneous else (beta**f.p if n_stoch else 0.0)
            rhs = 1.5 * f.cost_at_p_ones() + 3.0 * se_scaled
            if adv_sets:
                rhs += c_adv * float(f.eval_rows(adv_report.load))
            if n_stoch:
                rhs += c_stoch * cost_stoch
            checks.append(_at_most("end_to_end", mean_scaled, rhs))
        # Both stochastic-optimum forms: the selector value E cost(sum v*) and
        # the cost of the mean offline load, which is what the bound charges.
        details = {"mean_scaled_cost": mean_scaled}
        if n_stoch:
            details["opt_stoch_selector_value"] = stoch_report.value
            details["cost_of_mean_stoch_load"] = cost_stoch
            details["beta"] = beta
            details["stoch_oracle_method"] = stoch_report.method
        return rhs, checks, details

    return _evaluate(
        inst, replications, label, "ocp", f, adv_report, stoch_report, run_ocp_batch,
        replicate, bound,
    )


@_in_float64
def evaluate_welfare_instance(inst, replications, label="welfare") -> InstanceReport:
    f = inst.cost_function()
    _prologue(inst, replications, f, "welfare")
    n_stoch = inst.n_stoch
    beta = inst.n / n_stoch if n_stoch else None
    stoch_report = opt_stoch_welfare(inst.support, inst.probs, n_stoch, f) if n_stoch else None

    def replicate(runs, drawn):
        selector = stoch_report.selector if stoch_report else None
        chain = check_profit_chain_step(runs, beta=beta, opt_selector=selector, drawn=drawn)
        return {"profit": runs.profit}, [chain, check_accept_rule(runs)], None

    def bound(mean, se, extras):
        rhs = -PLAY_SCALE * f.cost_at_p_ones() - 3.0 * se
        if n_stoch:
            rhs += PLAY_SCALE * stoch_report.value / beta
        # The claim is a lower bound on the profit: -profit <= -rhs.
        return rhs, [_at_most("profit_bound", -mean, -rhs)], {}

    return _evaluate(
        inst, replications, label, "welfare", f, None, stoch_report, run_welfare_batch,
        replicate, bound,
    )


@_in_float64
def evaluate_loadbalance_instance(inst, replications, label="loadbalance") -> InstanceReport:
    """The OCP evaluation under the cost ``||x||_p ** p`` at the effective norm power p.

    Each replication gets the OCP checks (``_ocp_checks``) under that cost.
    The report adds each run's effective norm, as ``run_loadbalance`` gives
    it, and checks its mean by the p-th root of the end-to-end cost bound::

        mean ||load||_p <= e*(2e p^2)*||vOPT_adv||_p + e*beta*||E vOPT_stoch||_p
                           + e*p*m**(1/p) + 3*SE
    """
    m = inst.m
    f = _loadbalance_cost(inst.cost["p"], m)
    adv_sets, adv_report, stoch_report = _prologue(inst, replications, f, "loadbalance")
    p_eff = f.p

    def replicate(runs, drawn):
        norm = np.array([_effective_norm(cost, p_eff) for cost in runs.cost.tolist()])
        return {"cost": runs.cost, "norm": norm}, _ocp_checks(runs, adv_report), None

    def bound(mean, se, extras):
        rhs = math.e * p_eff * m ** (1.0 / p_eff) + 3.0 * se
        if adv_sets:
            rhs += math.e * (2.0 * math.e * p_eff**2) * _p_norm(adv_report.load, p_eff)
        if stoch_report is not None:
            beta = inst.n / inst.n_stoch
            rhs += math.e * beta * _p_norm(stoch_report.load, p_eff)
        return rhs, [_at_most("norm_bound", mean, rhs)], {}

    return _evaluate(
        inst, replications, label, "loadbalance", f, adv_report, stoch_report,
        run_ocp_batch, replicate, bound,
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
    return active, 1.0 / int(active.sum())


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
    weights = rng.uniform(0.5, 1.5, m).tolist()  # Python floats for the conjugate search
    comps = [
        (
            lambda x, w=w, p=p: w * (x**p + 0.5 * x**2),
            lambda x, w=w, p=p: w * (p * x ** (p - 1) + x),
        )
        for w in weights
    ]
    return SeparableGeneric(comps, p)


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
        state.observe_steps(loads, np.where(active, gamma_bar, 0.0))
        config = f"{fam},m={m},p={p:g},n={n},gamma={gp},load={vp}"
        for verdict in (
            check_oco_guarantees(state),
            check_be_the_leader(state),
            check_stability(state),
            dominating_set(state)[2],
        ):
            results.append(replace(verdict, config=config))
    return results


def _draw_pairs(rng, k, high, m):
    """k pairs of uniform rows on ``[0, high)``, drawn pair by pair, as two ``(k, m)`` batches."""
    rows = [rng.uniform(0.0, high, m) for _ in range(2 * k)]
    return np.reshape(rows, (k, 2, m)).swapaxes(0, 1).copy()


def run_core_suite(samples=1000, seed=42):
    """Conjugate and growth checks on random points, per cost family, each on its stacked draws."""
    rng = np.random.default_rng(seed)
    results = []
    for fam in ("sum_of_powers", "linear_plus_power", "separable_generic"):
        for p in (2.0, 3.0):
            m = int(rng.integers(1, 4))
            f = _random_cost(rng, m, p, fam)
            u, x = _draw_pairs(rng, samples // 10, 4.0, m)
            gaps = fenchel_gap(f, u, f.grad_many(x))
            # Python's running min from inf: NaN never enters, the first of equal values stays.
            worst_gap = float(np.fmin.reduce(gaps, initial=math.inf))
            verdicts = [Verdict.of("fenchel_gap", worst_gap, tol=1e-9)]
            grow_samples = [
                (rng.uniform(0.0, 3.0, m), rng.uniform(1.0, 4.0), rng.uniform(0.01, 1.0))
                for _ in range(samples // 10)
            ]
            verdicts.append(check_growth(f, grow_samples))
            state = rng.bit_generator.state
            super_ok = check_superadditivity(f, *_draw_pairs(rng, samples // 10, 3.0, m))
            if not super_ok.all():
                # A per-sample all() stops drawing after the first failure: so does the generator.
                rng.bit_generator.state = state
                _draw_pairs(rng, int(super_ok.argmin()) + 1, 3.0, m)
            verdicts.append(Verdict("superadditivity", 0.0, bool(super_ok.all())))
            if fam != "separable_generic":
                worst = math.inf
                y = f.grad_many(np.array([rng.uniform(0.0, 4.0, m) for _ in range(20)]))
                for y_i, closed in zip(y, f.conj_many(y).tolist()):
                    numeric = conjugate_numeric(f, y_i)
                    worst = min(worst, 1e-6 - abs(closed - numeric) / max(1.0, abs(numeric)))
                verdicts.append(Verdict.of("conjugate_numeric", worst, tol=0.0))
            config = f"{fam},m={m},p={p:g}"
            results += [replace(v, config=config) for v in verdicts]
    return results


def _instance_result(check, report):
    # Passes only if the per-replication checks passed too.
    slack = min((c.slack for c in report.checks), default=0.0)
    return Verdict(check, slack, report.all_pass, f"{report.instance},seed={report.seed}")


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
                verdict = check_homogeneous_equivalence(trace)
                results.append(replace(verdict, config=f"ocp-{i},seed={inst.seed}"))
        if "welfare" in problems:
            wparams = GeneratorParams(problem="welfare", adv_placement="random", **shape)
            winst = generate(wparams, seed_wel)
            wreport = evaluate_welfare_instance(winst, replications, label=f"welfare-{i}")
            results.append(_instance_result("welfare_instance", wreport))
    return results


VERIFY_SCOPES = ("all", "core", "oco", "ocp", "welfare")
MUTATIONS = ("shift", "regularizer")


def run_verify_suite(seed=42, count=200, mutation=None, scope="all"):
    """The complete randomized property suite; returns all results.

    ``scope`` is one of :data:`VERIFY_SCOPES` and ``mutation`` None or one
    of :data:`MUTATIONS`; ``count`` scales the randomized configurations,
    and 0 means an empty run.  A :class:`ConfigError` refuses an unknown
    scope or mutation, a negative count, and a mutation of the ``core``
    scope, which runs no dual learner, so the mutation could not make it
    fail.
    """
    if scope not in VERIFY_SCOPES:
        raise ConfigError(f"unknown scope {scope!r}, expected one of {', '.join(VERIFY_SCOPES)}")
    if mutation is not None and mutation not in MUTATIONS:
        raise ConfigError(f"unknown mutation {mutation!r}, expected one of {', '.join(MUTATIONS)}")
    if mutation is not None and scope == "core":
        raise ConfigError(f"mutation {mutation!r} needs a dual learner, and scope 'core' runs none")
    if count < 0:
        raise ConfigError(f"count must be at least 0, got {count}")
    if not count:
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
    return "" if x is None else repr(x) if isinstance(x, float) else str(x)


def _failures(report):
    """The names of the checks each failing replication failed, in verdict order, by replication."""
    fails = np.flatnonzero(report.rows.any(axis=1)).tolist()
    return {rep: list(compress(report.rep_checks, report.rows[rep])) for rep in fails}


def _columns(report, blank):
    """The cost, profit and norm columns as lists of Python floats; ``blank`` where not held."""
    values = report.values
    return [values[name].tolist() if name in values else blank for name in _REPORTED.values()]


def report_to_csv(report) -> str:
    """One line per replication, then the summary line; see ``CSV_HEADER``.

    Each value column is formatted once, by ``repr`` as ``_fmt`` formats a float; what the
    lines share is built once per report, with its own suffix for each failing line.
    """
    instance = _fmt(report.instance)
    shape = ",".join(_fmt(x) for x in (report.seed, report.n, report.m, report.p, report.family))
    oracles = f"{_fmt(report.opt_adv)},{_fmt(report.opt_stoch)}"
    between, passed = f",{shape},", f",{oracles},,,True"
    ends = {rep: f",{oracles},,{';'.join(names)},False" for rep, names in _failures(report).items()}
    blank = [""] * report.replications
    columns = [col if col is blank else map(repr, col) for col in _columns(report, blank)]
    lines = [CSV_HEADER]
    lines += [
        f"{instance},{rep}{between}{cost},{profit},{norm}{ends.get(rep, passed)}"
        for rep, cost, profit, norm in zip(range(report.replications), *columns)
    ]
    means = [report.mean if report.problem == problem else None for problem in _REPORTED]
    lines.append(
        f"{instance},mean,{shape},{','.join(_fmt(x) for x in means)},{oracles},"
        f"{_fmt(report.bound_rhs)},{';'.join(report.failed_names())},{report.all_pass}"
    )
    return "\n".join(lines) + "\n"


def report_to_json(report) -> dict:
    failures, columns = _failures(report), _columns(report, [None] * report.replications)
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
            {"replication": rep, "cost": cost, "profit": profit, "norm": norm,
             "failed": failures.get(rep, [])}
            for rep, cost, profit, norm in zip(range(report.replications), *columns)
        ],
        "all_pass": report.all_pass,
    }
