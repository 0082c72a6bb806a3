"""The four benchmark workloads: seeded instance lists and the items run on them.

An item is one unit the benchmark times: one instance evaluation through a
``robustpd.harness.evaluate_*_instance`` call plus its CSV and JSON report
emission, or one ``run_verify_suite`` call.  A workload is an ordered list
of items, one pass; a run repeats whole passes.

The workload seed only picks the generator seeds of the instances (and the
suite seeds); every shape (n, m, p, family, n_adv, placement, menu and
support sizes) is fixed by the workload, so two seeds cost about the same.
The library receives only the generated instances.

Every library call goes through a module attribute looked up at call time,
so the traced run can wrap it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

SCALES = ("full", "tiny")
PLACEMENTS = ("prefix", "suffix", "random", "interleaved")

# Replications per instance evaluation.  The engine workloads use many per
# instance so the engines dominate; oracle_exact uses few so the oracles do.
# Not fewer than five: the harness's mean checks allow three standard errors
# estimated from the replications, and at two replications that estimate is
# so loose that about 6 in 100 runs of oracle_exact failed a correct check.
ENGINE_REPS = {"full": 50, "tiny": 4}
ORACLE_REPS = 5
# ``run_engine_suite`` evaluates each of its instances at this many
# replications (its default), which is what a verify item's replication
# count is derived from.
ENGINE_SUITE_REPS = 20


@dataclass
class Outcome:
    """What one item produced: its CSV text and the counts behind the rates."""

    csv: str
    passed: bool
    reps: int  # replications simulated and checked
    verdicts: int  # check verdicts: suite results, or report rows plus checks


@dataclass
class Item:
    label: str
    run: Callable[[], Outcome]


def _seeds(seed, workload, count):
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def _evaluate(lib, kind, inst, reps, label):
    def run():
        harness = lib.harness
        report = getattr(harness, f"evaluate_{kind}_instance")(inst, reps, label=label)
        csv = harness.report_to_csv(report)
        json.dumps(harness.report_to_json(report))
        return Outcome(csv, report.all_pass, reps, len(report.rows) + len(report.checks))

    return Item(label, run)


def _verify(lib, seed, count, scope):
    def run():
        results = lib.harness.run_verify_suite(seed=seed, count=count, scope=scope)
        csv = "".join(
            f"{r.check},{r.config},{r.passed},{float(r.slack)!r}\n" for r in results
        )
        instances = sum(r.check in ("ocp_instance", "welfare_instance") for r in results)
        return Outcome(
            csv,
            all(r.passed for r in results),
            ENGINE_SUITE_REPS * instances,
            len(results),
        )

    return Item(f"verify-{scope}-{seed}", run)


def _ocp_mixed(lib, seed, scale):
    """Criterion-4 OCP shapes, plus criterion-6 load-balancing shapes."""
    GP = lib.instances.GeneratorParams
    shapes = [
        ("ocp", GP(
            problem="ocp",
            n=(16, 20, 24, 28)[i % 4],
            m=(1, 2, 3)[i % 3],
            p=(2.0, 2.0, 3.0)[i % 3],
            family=("sum_of_powers", "linear_plus_power")[i % 2],
            n_adv=(0, 2, 4, 6, 8)[i % 5],
            adv_placement=PLACEMENTS[i % 4],
            support_size=(2, 3),
            options_range=(2, 3),
        ))
        for i in range(20)
    ]
    shapes += [
        ("loadbalance", GP(
            problem="ocp",
            n=(16, 24, 32)[i % 3],
            m=(2, 3, 5)[i % 3],
            p=(2.0, 3.0, 4.0)[i % 3],
            family="sum_of_powers",
            n_adv=(0, 3, 6)[i % 3],
            adv_placement="random",
        ))
        for i in range(7)
    ]
    if scale == "tiny":
        shapes = shapes[:2] + shapes[-1:]
    return [
        _evaluate(lib, kind, lib.instances.generate(params, s), ENGINE_REPS[scale], f"{kind}-{i}")
        for i, ((kind, params), s) in enumerate(zip(shapes, _seeds(seed, "ocp_mixed", len(shapes))))
    ]


def _welfare_mixed(lib, seed, scale):
    """Criterion-7 welfare shapes, five instances of each.

    Item costs depend on the data, so a pass holds 50 items to keep the
    90th percentile from moving much between seeds.
    """
    GP = lib.instances.GeneratorParams
    shapes = [
        GP(
            problem="welfare",
            n=(16, 20, 24)[i % 3],
            m=(1, 2)[i % 2],
            p=(2.0, 3.0)[i % 2],
            family=("sum_of_powers", "linear_plus_power")[i % 2],
            n_adv=(0, 2, 4, 6)[i % 4],
            adv_placement=("random", "prefix", "interleaved")[i % 3],
            reward_range=(-1.0, 5.0),
        )
        for i in range(10)
    ] * 5
    if scale == "tiny":
        shapes = shapes[:2]
    return [
        _evaluate(lib, "welfare", lib.instances.generate(params, s), ENGINE_REPS[scale], f"welfare-{i}")
        for i, (params, s) in enumerate(zip(shapes, _seeds(seed, "welfare_mixed", len(shapes))))
    ]


def _oracle_exact(lib, seed, scale):
    """Large adversarial parts, large stochastic supports, few replications.

    Menus are pinned (2 options on the adversarial instances, 3 on the
    stochastic ones) so the enumeration sizes do not depend on the seed:
    ``2**n_adv`` menu combinations, and ``3**s`` selectors over
    ``C(n_stoch + s - 1, s - 1)`` draw multisets.  The sizes keep one item
    under 0.2 s, so a run holds enough items for a 90th percentile.
    """
    GP = lib.instances.GeneratorParams
    adv = [
        ("ocp", GP(problem="ocp", n=16, m=2, p=2.0, family=fam, n_adv=n_adv,
                   adv_placement=placement, support_size=(3, 3), options_range=(2, 2)))
        for n_adv, fam, placement in (
            (12, "sum_of_powers", "prefix"),
            (13, "linear_plus_power", "random"),
            (12, "linear_plus_power", "interleaved"),
            (13, "sum_of_powers", "suffix"),
        )
    ]
    stoch = [
        ("ocp", GP(problem="ocp", n=n, m=2, p=2.0, family=fam, n_adv=n_adv,
                   adv_placement="random", support_size=(s, s), options_range=(3, 3)))
        for n, s, n_adv, fam in (
            (16, 5, 0, "sum_of_powers"),
            (20, 5, 4, "linear_plus_power"),
            (12, 6, 0, "sum_of_powers"),
            (14, 6, 2, "linear_plus_power"),
        )
    ]
    welfare = [
        ("welfare", GP(problem="welfare", n=n, m=m, p=2.0, family=fam, n_adv=n_adv,
                       adv_placement="random", support_size=(s, s), reward_range=(-1.0, 5.0)))
        for n, s, n_adv, m, fam in (
            (8, 5, 0, 2, "sum_of_powers"),
            (10, 5, 2, 1, "linear_plus_power"),
            (8, 6, 0, 1, "sum_of_powers"),
            (8, 5, 0, 1, "linear_plus_power"),
        )
    ]
    # The welfare oracle's work depends on the data, so its instances are
    # kept lighter than the others: the items around the median and the
    # 90th percentile do fixed work.  Each shape has three instances.
    shapes = (adv + stoch + welfare) * 3
    if scale == "tiny":
        shapes = [adv[0], stoch[0], welfare[0]]
    return [
        _evaluate(lib, kind, lib.instances.generate(params, s), ORACLE_REPS, f"oracle-{kind}-{i}")
        for i, ((kind, params), s) in enumerate(zip(shapes, _seeds(seed, "oracle_exact", len(shapes))))
    ]


def _verify_suite(lib, seed, scale):
    """``run_verify_suite`` split by scope over seeds derived from the workload seed.

    One pass keeps the mix of ``robustpd verify``: mostly dual-learner
    configurations (six per item, two per cost family, as the suite cycles
    through them), core items and one engine instance per 40
    configurations.  The suite draws each configuration's size from its
    seed, so a pass holds 720 of them to make two seeds cost about the
    same, and an item sums six so that item times spread less.  A core item
    comes first: set-up warms up on it, and its cost hardly depends on the
    seed, unlike that of an oco item.
    """
    oco, per_item, core, engine = (120, 6, 2, 9) if scale == "full" else (2, 3, 1, 1)
    seeds = iter(_seeds(seed, "verify_suite", oco + core + 2 * engine))
    return (
        [_verify(lib, next(seeds), 1, "core") for _ in range(core)]
        + [_verify(lib, next(seeds), per_item, "oco") for _ in range(oco)]
        + [_verify(lib, next(seeds), 1, scope) for scope in ("ocp", "welfare") for _ in range(engine)]
    )


_BUILDERS = {
    "ocp_mixed": _ocp_mixed,
    "welfare_mixed": _welfare_mixed,
    "oracle_exact": _oracle_exact,
    "verify_suite": _verify_suite,
}
WORKLOADS = tuple(_BUILDERS)


def build(lib, workload, seed, scale="full"):
    """The items of one pass of ``workload``, generated from ``seed``."""
    return _BUILDERS[workload](lib, seed, scale)
