"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live) and enforces its runtime budget.  The randomized parts are fully
seeded; reruns are bit-identical.
"""

import math
import time

import numpy as np
import pytest

from robustpd.costs import SumOfPowers, check_growth, check_superadditivity, conjugate_numeric, fenchel_gap
from robustpd.harness import (
    evaluate_loadbalance_instance,
    evaluate_ocp_instance,
    evaluate_welfare_instance,
    run_oco_suite,
)
from robustpd.instances import GeneratorParams, generate, sample_realization
from robustpd.ocp import FeasibleSet, check_homogeneous_equivalence, run_loadbalance, run_ocp
from robustpd.welfare import run_welfare

from test_costs import make_family

REPLICATIONS = 2000


def announce(num, ok, detail, started):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail} ({time.time() - started:.1f}s)")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_fenchel_suite():
    started = time.time()
    rng = np.random.default_rng(101)
    worst_gap = math.inf
    worst_eq = 0.0
    worst_conj = 0.0
    for family in ("sum_of_powers", "linear_plus_power", "separable_generic"):
        f = make_family(family, 2, 3.0, rng)
        for _ in range(1000):
            u = rng.uniform(0.0, 5.0, f.m)
            y = f.grad(rng.uniform(0.0, 5.0, f.m))
            worst_gap = min(worst_gap, fenchel_gap(f, u, y))
            gap_at_grad = fenchel_gap(f, u, f.grad(u))
            worst_eq = max(worst_eq, abs(gap_at_grad) / max(1.0, f.eval(u)))
        if family != "separable_generic":
            for _ in range(100):
                y = f.grad(rng.uniform(0.0, 5.0, f.m))
                closed = f.conjugate_value(y)
                numeric = conjugate_numeric(f, y)
                worst_conj = max(
                    worst_conj, abs(closed - numeric) / max(1e-12, abs(numeric))
                )
    elapsed = time.time() - started
    ok = worst_gap >= -1e-9 and worst_eq <= 1e-9 and worst_conj <= 1e-6 and elapsed < 5.0
    announce(
        1,
        ok,
        f"gap>={worst_gap:.2e}, grad-equality<={worst_eq:.2e}, "
        f"conj-vs-numeric<={worst_conj:.2e}, runtime {elapsed:.1f}s<5s",
        started,
    )


def test_criterion_2_growth_suite():
    started = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    super_failures = 0
    for family in ("sum_of_powers", "linear_plus_power", "separable_generic"):
        for p in (2.0, 3.0):
            f = make_family(family, 2, p, rng)
            n_samples = 1000 if family != "separable_generic" else 350
            samples = [
                (rng.uniform(0, 4, f.m), rng.uniform(1, 5), rng.uniform(0.01, 1.0))
                for _ in range(n_samples)
            ]
            report = check_growth(f, samples)
            worst = max(worst, -report.slack)
            for _ in range(n_samples):
                if not check_superadditivity(f, rng.uniform(0, 3, f.m), rng.uniform(0, 3, f.m)):
                    super_failures += 1
    elapsed = time.time() - started
    ok = worst <= 1e-9 and super_failures == 0 and elapsed < 5.0
    announce(
        2,
        ok,
        f"growth-claims violation<={worst:.2e}, superadditivity failures={super_failures}, "
        f"runtime {elapsed:.1f}s<5s",
        started,
    )


def test_criterion_3_dual_learner_suite():
    started = time.time()
    results = run_oco_suite(count=200, seed=42)
    failures = [r for r in results if not r.passed]
    elapsed = time.time() - started
    ok = not failures and elapsed < 30.0
    announce(
        3,
        ok,
        f"200 runs x {{guarantees, leader-gain, stability, dominating-set}}: "
        f"{len(results) - len(failures)}/{len(results)} pass, runtime {elapsed:.1f}s<30s",
        started,
    )


def _ocp_instance_grid():
    configs = []
    for i in range(20):
        configs.append(
            GeneratorParams(
                problem="ocp",
                n=(16, 20, 24, 28)[i % 4],
                m=(1, 2, 3)[i % 3],
                p=(2.0, 2.0, 3.0)[i % 3],
                family=("sum_of_powers", "linear_plus_power")[i % 2],
                n_adv=(0, 2, 4, 6, 8)[i % 5],
                adv_placement=("prefix", "suffix", "random", "interleaved")[i % 4],
                support_size=(2, 3),
                options_range=(2, 3),
            )
        )
    return configs


def test_criterion_4_ocp_end_to_end():
    started = time.time()
    reports = []
    for i, params in enumerate(_ocp_instance_grid()):
        inst = generate(params, 4000 + i)
        reports.append(evaluate_ocp_instance(inst, REPLICATIONS, label=f"ocp-acc-{i}"))
    bad = [r.instance for r in reports if not r.all_pass]
    # pure-adversarial boundary case: beta term absent, deterministic
    pure = generate(
        GeneratorParams(problem="ocp", n=16, m=2, p=2.0, n_adv=16), 4999
    )
    pure_report = evaluate_ocp_instance(pure, 1, label="ocp-pure-adv")
    elapsed = time.time() - started
    ok = not bad and pure_report.all_pass and elapsed < 60.0
    announce(
        4,
        ok,
        f"20 instances x {REPLICATIONS} reps: per-realization cost bound + "
        f"adversarial charging, mean stochastic + end-to-end bounds within 3 SE; "
        f"failures={bad}, runtime {elapsed:.1f}s<60s",
        started,
    )


def homogeneous_instances():
    """The 50 seeded homogeneous OCP instances of criterion 5, each with its realization."""
    rng = np.random.default_rng(105)
    for i in range(50):
        p = float(rng.choice([2.0, 3.0]))
        n = int(rng.integers(math.ceil(8 * p), 33))
        n_adv = int(rng.integers(0, n - math.ceil(4 * p) + 1))
        params = GeneratorParams(
            problem="ocp",
            n=n,
            m=int(rng.integers(1, 4)),
            p=p,
            family="sum_of_powers",
            n_adv=n_adv,
            adv_placement=("prefix", "suffix", "random", "interleaved")[i % 4],
        )
        inst = generate(params, 5000 + i)
        yield inst, sample_realization(inst, 0)


def test_criterion_5_homogeneous_equivalence():
    started = time.time()
    worst_spread_slack = math.inf
    mismatches = 0
    for inst, real in homogeneous_instances():
        trace = run_ocp(real.points, inst.cost_function(), inst.stoch_mask)
        rep = check_homogeneous_equivalence(trace)
        worst_spread_slack = min(worst_spread_slack, rep.slack)
        mismatches += rep.detail["choice_mismatches"]
    # slack = 1e-9 - spread, so nonnegative slack means spread <= 1e-9
    ok = worst_spread_slack >= 0.0 and mismatches == 0
    announce(
        5,
        ok,
        f"50 homogeneous runs: max ratio spread <= 1e-9 "
        f"(min slack {worst_spread_slack:.2e}), choice mismatches={mismatches}",
        started,
    )


def loadbalance_instances():
    """The 20 seeded OCP instances of criterion 6."""
    for i in range(20):
        params = GeneratorParams(
            problem="ocp",
            n=(16, 24, 32)[i % 3],
            m=(2, 3, 5)[i % 3],
            p=(2.0, 3.0, 4.0)[i % 3],
            family="sum_of_powers",
            n_adv=(0, 3, 6)[i % 3],
            adv_placement="random",
        )
        yield generate(params, 6000 + i)


def test_criterion_6_load_balancing():
    started = time.time()
    # the 8-job / 2-machine worked instance, exactly
    trace, norm_req, norm_eff = run_loadbalance(
        [FeasibleSet([[1.0, 0.0], [0.0, 1.0]])] * 8, 2, 2
    )
    exact_ok = np.array_equal(trace.load, [4.0, 4.0]) and norm_req == math.sqrt(32.0)
    bad = []
    for i, inst in enumerate(loadbalance_instances()):
        report = evaluate_loadbalance_instance(inst, 200, label=f"lb-acc-{i}")
        if not report.all_pass:
            bad.append(report.instance)
    ok = exact_ok and not bad
    announce(
        6,
        ok,
        f"worked instance load (4,4) norm sqrt(32) exact={exact_ok}; "
        f"20 random instances within explicit-constant norm bound, failures={bad}",
        started,
    )


def test_criterion_7_welfare():
    started = time.time()
    # deterministic worked instance reproduces the exact profit
    trace = run_welfare([(100.0, np.array([1.0]))] * 8, SumOfPowers([1.0], 2))
    exact_ok = trace.profit == 12.484375
    bad = []
    for i in range(10):
        params = GeneratorParams(
            problem="welfare",
            n=(16, 20, 24)[i % 3],
            m=(1, 2)[i % 2],
            p=(2.0, 3.0)[i % 2],
            family=("sum_of_powers", "linear_plus_power")[i % 2],
            n_adv=(0, 2, 4, 6)[i % 4],
            adv_placement=("random", "prefix", "interleaved")[i % 3],
            reward_range=(-1.0, 5.0),
        )
        inst = generate(params, 7000 + i)
        report = evaluate_welfare_instance(inst, REPLICATIONS, label=f"welfare-acc-{i}")
        if not report.all_pass:
            bad.append(report.instance)
    elapsed = time.time() - started
    ok = exact_ok and not bad and elapsed < 60.0
    announce(
        7,
        ok,
        f"worked profit exact={exact_ok}; 10 instances x {REPLICATIONS} reps: "
        f"per-realization chain + mean profit bound within 3 SE, failures={bad}, "
        f"runtime {elapsed:.1f}s<60s",
        started,
    )


def test_criterion_8_mutation_smoke():
    started = time.time()
    broke = {}
    for mutation in ("shift", "regularizer"):
        results = run_oco_suite(count=40, seed=42, mutation=mutation)
        failed = sorted({r.check for r in results if not r.passed})
        broke[mutation] = failed
    ok = all(broke.values())
    announce(
        8,
        ok,
        f"disabling the shift breaks {broke['shift']}; "
        f"disabling the regularizer breaks {broke['regularizer']}",
        started,
    )


def test_criterion_9_determinism(tmp_path):
    from robustpd.cli import main

    started = time.time()
    identical = True
    for command, instance in (
        ("run-ocp", "tests/data/ocp_small.json"),
        ("run-welfare", "tests/data/welfare_small.json"),
        ("run-loadbalance", "tests/data/ocp_small.json"),
    ):
        outputs = []
        for sub in ("x", "y"):
            out = tmp_path / command / sub
            code = main(
                [command, "--instance", instance, "--replications", "6",
                 "--seed", "31", "--out-dir", str(out)]
            )
            assert code == 0
            (csv_file,) = list(out.glob("*.csv"))
            outputs.append(csv_file.read_bytes())
        identical &= outputs[0] == outputs[1]
    announce(9, identical, "byte-identical CSV outputs for all run commands", started)
