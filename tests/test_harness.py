import importlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from robustpd.harness import (
    evaluate_loadbalance_instance,
    evaluate_ocp_instance,
    evaluate_welfare_instance,
    run_core_suite,
    run_verify_suite,
)
from robustpd.instances import GeneratorParams, generate, load_instance, sample_realization
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


def test_ocp_trace_json_round_trips_through_json():
    inst = generate(GeneratorParams(problem="ocp", n=12, m=2, p=2.0, n_adv=3), 74)
    real = sample_realization(inst, 0)
    trace = run_ocp(real.points, inst.cost_function(), inst.stoch_mask)
    blob = json.dumps(trace.to_json())
    obj = json.loads(blob)
    assert obj["kind"] == "ocp_trace"
    assert len(obj["steps"]) == 12
    origins = {s["origin"] for s in obj["steps"]}
    assert origins == {"adv", "stoch"}
    assert obj["cost"] == trace.cost
    t0 = obj["steps"][0]
    assert t0["fake"] == pytest.approx(
        float(np.dot(t0["y"], t0["v"])) - trace.gamma * trace.conj_y[0], abs=1e-10
    )


def test_welfare_trace_json():
    inst = generate(GeneratorParams(problem="welfare", n=12, m=2, p=2.0, n_adv=3), 75)
    real = sample_realization(inst, 0)
    trace = run_welfare(real.points, inst.cost_function(), inst.stoch_mask)
    obj = json.loads(json.dumps(trace.to_json()))
    assert obj["kind"] == "welfare_trace"
    assert all(s["x_virtual"] in (0.0, 1.0) for s in obj["steps"])
    assert all(s["x_played"] == s["x_virtual"] / 64.0 for s in obj["steps"])
    assert obj["profit"] == trace.profit


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
    for (module, cls), methods in tracer.METHODS.items():
        owner = getattr(importlib.import_module(module), cls)
        for attr in methods:
            assert callable(getattr(owner, attr)), (cls, attr)
