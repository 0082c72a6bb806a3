import copy
import functools
import importlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpd import costs, harness
from robustpd.costs import SumOfPowers
from robustpd.harness import (
    evaluate_loadbalance_instance,
    evaluate_ocp_instance,
    evaluate_welfare_instance,
    report_to_csv,
    run_core_suite,
    run_verify_suite,
)
from robustpd.instances import (
    GeneratorParams,
    SchemaError,
    generate,
    instance_from_dict,
    load_instance,
    sample_realization,
)
from robustpd.oco import ConfigError, Verdict
from robustpd.ocp import check_adversarial_charging, check_cost_bound, run_ocp
from robustpd.welfare import check_profit_chain_step, run_welfare


def test_pure_adversarial_instance_k1():
    # No stochastic steps: the mean-form checks drop the beta term and the
    # single replication is fully deterministic.
    inst = generate(GeneratorParams(problem="ocp", n=16, m=2, p=2.0, n_adv=16), 71)
    report = evaluate_ocp_instance(inst, 1)
    assert report.all_pass
    assert report.opt_stoch is None
    assert report.stderr == 0.0
    names = [c.check for c in report.checks]
    assert "stoch_mean" not in names and "end_to_end" in names


def test_pure_stochastic_instance():
    inst = generate(GeneratorParams(problem="ocp", n=16, m=2, p=2.0, n_adv=0), 72)
    report = evaluate_ocp_instance(inst, 50)
    assert report.all_pass
    assert report.opt_adv == 0.0


def test_welfare_without_stochastic_steps():
    inst = generate(GeneratorParams(problem="welfare", n=12, m=1, p=2.0, n_adv=12), 73)
    report = evaluate_welfare_instance(inst, 1)
    # profit >= -cost(p*ones)/64 must hold since declining everything is free
    assert report.all_pass
    assert report.opt_stoch is None


def test_gamma_schedules_sum_to_one():
    from robustpd.harness import _gamma_schedule

    rng = np.random.default_rng(76)
    for pattern in ("all", "alternating", "block_start", "block_end", "random"):
        for p in (2.0, 3.0):
            n = int(rng.integers(math.ceil(8 * p), 65))
            active, gamma_bar = _gamma_schedule(pattern, n, p, rng)
            assert gamma_bar <= 1.0 / (4 * p) + 1e-12
            assert active.sum() * gamma_bar == pytest.approx(1.0)


def test_load_streams_stay_in_unit_box():
    from robustpd.harness import _load_stream

    rng = np.random.default_rng(77)
    for pattern in ("uniform", "ones", "sparse", "zero_block", "spiky"):
        v = _load_stream(pattern, 24, 3, rng)
        assert v.shape == (24, 3)
        assert v.min() >= 0.0 and v.max() <= 1.0


def test_core_suite_shapes():
    results = run_core_suite(samples=100, seed=3)
    names = {r.check for r in results}
    assert {"fenchel_gap", "growth", "superadditivity", "conjugate_numeric"} <= names
    assert all(r.passed for r in results)


def test_verify_suite_scope_welfare():
    results = run_verify_suite(seed=5, count=40, scope="welfare")
    assert any(r.check == "welfare_instance" for r in results)
    assert all(r.passed for r in results)


def test_loadbalance_report_has_no_per_replication_check():
    report = evaluate_loadbalance_instance(
        load_instance("tests/data/ocp_small.json"), 3, label="ocp_small"
    )
    assert report.rep_checks == [] and report.rows.shape == (3, 0)
    assert sorted(report.values) == ["cost", "norm"]
    golden = Path(__file__).parent / "data" / "ocp_small_loadbalance_golden.csv"
    assert report_to_csv(report).encode() == golden.read_bytes()


@pytest.mark.parametrize("replications", [0, -2])
@pytest.mark.parametrize(
    "evaluate,path",
    [
        (evaluate_ocp_instance, "tests/data/ocp_small.json"),
        (evaluate_loadbalance_instance, "tests/data/ocp_small.json"),
        (evaluate_welfare_instance, "tests/data/welfare_small.json"),
    ],
    ids=["ocp", "loadbalance", "welfare"],
)
def test_needs_at_least_one_replication(evaluate, path, replications):
    # Without a replication the mean and every bound slack would be NaN.
    with pytest.raises(ConfigError, match="at least 1 replication"):
        evaluate(load_instance(path), replications)


@pytest.mark.parametrize(
    "evaluate,path",
    [
        (evaluate_ocp_instance, "tests/data/ocp_small.json"),
        (evaluate_welfare_instance, "tests/data/welfare_small.json"),
    ],
    ids=["ocp", "welfare"],
)
def test_regime_is_checked_before_the_oracles(evaluate, path):
    # At p = 973472 every adversarial combination costs inf: the oracle
    # used to find no minimum and fail with a TypeError.
    with open(path) as fh:
        obj = json.load(fh)
    obj["cost"]["p"] = 973472
    with pytest.raises(ConfigError, match="n >= 4p"):
        evaluate(instance_from_dict(obj), 2)


@functools.cache
def _golden(name):
    with open(f"tests/data/{name}_small.json") as fh:
        return json.load(fh)


@st.composite
def golden_fields(draw):
    """A golden instance and the key path of one of its fields.

    The path descends one level at a time and stops at each container with
    probability 1/2, so the few top-level fields are not swamped by the
    many option coordinates.
    """
    name = draw(st.sampled_from(["ocp", "welfare"]))
    node, path = _golden(name), ()
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (key,), node[key]
        if not (isinstance(node, (dict, list)) and node and draw(st.booleans())):
            return name, path


def _flip(value):
    if isinstance(value, list):
        return [_flip(v) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return -value
    return value


MUTATIONS = st.one_of(
    st.sampled_from(["drop", "flip", "wrap", "unwrap"]),
    st.tuples(
        st.just("set"),
        st.one_of(
            st.none(), st.booleans(), st.integers(-3, 40), st.integers(), st.floats(),
            st.text(max_size=3), st.just([]), st.just({}),
            st.lists(st.floats(-2.0, 3.0), max_size=3),
        ),
    ),
)


def _mutate(obj, path, mutation):
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if mutation == "drop":
        del parent[key]
    elif mutation == "flip":
        parent[key] = _flip(parent[key])
    elif mutation == "wrap":
        parent[key] = [parent[key]]
    elif mutation == "unwrap":
        if isinstance(parent[key], list) and parent[key]:
            parent[key] = parent[key][0]
    else:
        parent[key] = mutation[1]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(field=golden_fields(), mutation=MUTATIONS)
def test_mutated_golden_instance_reports_or_refuses(field, mutation):
    # One field of a golden instance replaced: the boundary either refuses
    # it with a typed error or the evaluation reports a finite mean.
    name, path = field
    obj = copy.deepcopy(_golden(name))
    _mutate(obj, path, mutation)
    try:
        inst = instance_from_dict(obj)
        if inst.problem == "ocp":
            reports = [evaluate_ocp_instance(inst, 2), evaluate_loadbalance_instance(inst, 2)]
        else:
            reports = [evaluate_welfare_instance(inst, 2)]
    except (SchemaError, ConfigError):
        return
    assert all(math.isfinite(report.mean) for report in reports)


VERIFY_GOLDEN = Path(__file__).parent / "data" / "verify_golden.txt"


def test_verify_output_matches_golden():
    # One line per verdict of the seed-42 suite at count 40, then the same
    # under each mutation; recorded once and never regenerated.
    lines = [
        f"{r.check},{r.config},{r.passed},{float(r.slack)!r}\n"
        for mutation in (None, "shift", "regularizer")
        for r in run_verify_suite(seed=42, count=40, mutation=mutation)
    ]
    assert "".join(lines).encode() == VERIFY_GOLDEN.read_bytes()


def test_every_check_returns_a_verdict():
    results = run_verify_suite(seed=3, count=40)
    report = evaluate_ocp_instance(load_instance("tests/data/ocp_small.json"), 3)
    inst = generate(GeneratorParams(problem="ocp", n=12, m=2, p=2.0, n_adv=3), 78)
    trace = run_ocp(sample_realization(inst, 0).points, inst.cost_function(), inst.stoch_mask)
    winst = load_instance("tests/data/welfare_small.json")
    wtrace = run_welfare(
        sample_realization(winst, 0).points, winst.cost_function(), winst.stoch_mask
    )
    per_run = [
        check_cost_bound(trace),
        check_adversarial_charging(trace, 4.0, trace.v[~trace.labels]),
        check_profit_chain_step(wtrace),
    ]
    for verdict in results + report.checks + per_run:
        assert isinstance(verdict, Verdict)
        # An attribute holding a bool: json.dumps rejects numpy booleans,
        # and a bound method would always be truthy.
        assert type(verdict.passed) is bool
    assert all(r.config for r in results)


def test_traced_benchmark_names_resolve():
    # perfbench/tracer.py wraps these names where callers look them up; a
    # refactor that drops one breaks the traced benchmark run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    defined = set()
    for (module, cls), methods in tracer.METHODS.items():
        owner = getattr(importlib.import_module(module), cls)
        for attr in methods:
            assert callable(getattr(owner, attr)), (cls, attr)
        defined.update(attr for attr in methods if attr in vars(owner))
    # A method that no listed class defines itself is never wrapped, and its
    # per-layer metrics would read 0.
    assert defined == {attr for methods in tracer.METHODS.values() for attr in methods}
    # The traced run wraps and restores every name with bare lookups.
    before = {key: getattr(importlib.import_module(key[0]), key[1]) for key in tracer.FUNCTIONS}
    with tracer.Tracer().installed():
        pass
    for (module, attr), original in before.items():
        assert getattr(importlib.import_module(module), attr) is original, (module, attr)


def _mean_se_reference(values):
    # The form _mean_se replaced: numpy's mean() and std(ddof=1).
    arr = np.asarray(values, dtype=np.float64)
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return float(arr.mean()), se


@pytest.mark.parametrize("n", [1, 2, 50, 2000])
@pytest.mark.parametrize("scale", [1e-150, 1e-8, 1.0, 1e8, 1e150])
def test_mean_se_matches_numpy_bit_for_bit(n, scale):
    rng = np.random.default_rng(n)
    cases = [
        rng.standard_normal(n) * scale,
        rng.uniform(0.0, 1.0, n) * scale + 3.0 * scale,
        np.full(n, 0.1 * scale),
        np.where(rng.uniform(size=n) < 0.5, -0.0, 0.0),
        np.where(rng.uniform(size=n) < 0.5, -0.0, scale),
    ]
    for values in cases:
        assert repr(harness._mean_se(values)) == repr(_mean_se_reference(values))


def test_ocp_evaluation_validates_no_internal_point(monkeypatch):
    # Points that are sums of checked menu rows go to the batch kernels: the
    # single-point validation runs only at the public boundary.
    calls = []
    original = costs._as_point
    monkeypatch.setattr(costs, "_as_point", lambda *a, **k: calls.append(a) or original(*a, **k))
    for m, family in ((1, "sum_of_powers"), (2, "linear_plus_power")):
        params = GeneratorParams(problem="ocp", n=16, m=m, p=2.0, family=family, n_adv=4)
        assert evaluate_ocp_instance(generate(params, 74), 20).all_pass
    assert calls == []
    assert SumOfPowers([1.0, 2.0], 2.0).eval([1.0, 1.0]) == 3.0 and len(calls) == 1
