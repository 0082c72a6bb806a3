"""Span tracer for the traced benchmark run.

The tracer wraps public functions of ``robustpd`` at the places where their
callers look them up (module globals and class attributes), records one
span per call in memory, and restores the originals on exit.  Nothing in
``src/`` knows about it, and the untraced runs never import this module.

A span is ``(id, parent id, name, start, end)``; ids grow in start order,
so a parent always has a smaller id than its children.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import math
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) -> span name.  A function that several modules look
# up is wrapped at each of them under one span name.
FUNCTIONS = {
    ("robustpd.harness", "sample_realization"): "instances.sample_realization",
    ("robustpd.harness", "generate"): "instances.generate",
    ("robustpd.instances", "generate"): "instances.generate",
    ("robustpd.harness", "run_ocp"): "ocp.run_ocp",
    ("robustpd.ocp", "run_ocp"): "ocp.run_ocp",
    ("robustpd.harness", "run_loadbalance"): "ocp.run_loadbalance",
    ("robustpd.harness", "check_cost_bound"): "ocp.check_cost_bound",
    ("robustpd.harness", "check_adversarial_charging"): "ocp.check_adversarial_charging",
    ("robustpd.harness", "check_homogeneous_equivalence"): "ocp.check_homogeneous_equivalence",
    ("robustpd.harness", "run_welfare"): "welfare.run_welfare",
    ("robustpd.harness", "check_profit_chain_step"): "welfare.check_profit_chain_step",
    ("robustpd.harness", "opt_adv_ocp"): "oracles.opt_adv_ocp",
    ("robustpd.harness", "opt_stoch_ocp"): "oracles.opt_stoch_ocp",
    ("robustpd.harness", "opt_stoch_welfare"): "oracles.opt_stoch_welfare",
    ("robustpd.harness", "check_oco_guarantees"): "oco.check_oco_guarantees",
    ("robustpd.harness", "check_be_the_leader"): "oco.check_be_the_leader",
    ("robustpd.harness", "check_stability"): "oco.check_stability",
    ("robustpd.harness", "dominating_set"): "oco.dominating_set",
    ("robustpd.harness", "evaluate_ocp_instance"): "harness.evaluate_ocp_instance",
    ("robustpd.harness", "evaluate_welfare_instance"): "harness.evaluate_welfare_instance",
    ("robustpd.harness", "evaluate_loadbalance_instance"): "harness.evaluate_loadbalance_instance",
    ("robustpd.harness", "report_to_csv"): "harness.report_to_csv",
    ("robustpd.harness", "report_to_json"): "harness.report_to_json",
    ("robustpd.harness", "run_verify_suite"): "harness.run_verify_suite",
    ("robustpd.harness", "run_oco_suite"): "harness.run_oco_suite",
    ("robustpd.harness", "run_core_suite"): "harness.run_core_suite",
    ("robustpd.harness", "run_engine_suite"): "harness.run_engine_suite",
}

# Methods are wrapped on every class that defines them itself.
METHODS = {
    ("robustpd.oco", "OcoState"): {"observe": "oco.OcoState.observe"},
    **{
        ("robustpd.costs", cls): {
            "grad": "costs.grad",
            "conjugate_value": "costs.conjugate_value",
            "eval": "costs.eval",
            "eval_many": "costs.eval_many",
        }
        for cls in ("CostFunction", "SumOfPowers", "LinearPlusPower", "SeparableGeneric")
    },
}

ENGINE_SPANS = ("ocp.run_ocp", "welfare.run_welfare")


def _count_opt_adv(counters, args, result):
    counters["oracles.opt_adv_ocp.combos"] += math.prod(len(s) for s in args[0])


def _count_opt_stoch_ocp(counters, args, result):
    from robustpd.oracles import count_multisets

    support, _, n_stoch = args[:3]
    if n_stoch:
        counters["oracles.opt_stoch_ocp.selectors"] += math.prod(len(s) for s in support)
        counters["oracles.opt_stoch_ocp.multisets"] += count_multisets(n_stoch, len(support))
    counters["oracles.opt_stoch_ocp.mc_fallbacks"] += result.method == "monte-carlo"


def _count_opt_stoch_welfare(counters, args, result):
    from robustpd.oracles import count_multisets

    support, _, n_stoch = args[:3]
    if n_stoch:
        counters["oracles.opt_stoch_welfare.multisets"] += count_multisets(
            n_stoch, len(support)
        )


def _count_run_ocp(counters, args, result):
    counters["ocp.run_ocp.steps"] += len(args[0])


def _count_run_welfare(counters, args, result):
    counters["welfare.run_welfare.steps"] += len(args[0])
    counters["welfare.accepts"] += int(result.x_virtual.sum())


# Boundary counters, computed from the arguments and results of a call.
COUNTER_NAMES = (
    "oracles.opt_adv_ocp.combos",
    "oracles.opt_stoch_ocp.selectors",
    "oracles.opt_stoch_ocp.multisets",
    "oracles.opt_stoch_ocp.mc_fallbacks",
    "oracles.opt_stoch_welfare.multisets",
    "ocp.run_ocp.steps",
    "welfare.run_welfare.steps",
    "welfare.accepts",
)
COUNTERS = {
    "oracles.opt_adv_ocp": _count_opt_adv,
    "oracles.opt_stoch_ocp": _count_opt_stoch_ocp,
    "oracles.opt_stoch_welfare": _count_opt_stoch_welfare,
    "ocp.run_ocp": _count_run_ocp,
    "welfare.run_welfare": _count_run_welfare,
}


class Tracer:
    """In-memory span recorder; use :meth:`installed` around traced code."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack = [-1]

    def _wrap(self, fn, name):
        count = COUNTERS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(self.starts)
            self.names.append(name)
            self.parents.append(stack[-1])
            self.ends.append(0.0)
            stack.append(sid)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[sid] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every listed function and method; restore them on exit."""
        saved = []
        try:
            for (module, attr), name in FUNCTIONS.items():
                owner = importlib.import_module(module)
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._wrap(getattr(owner, attr), name))
            for (module, cls), methods in METHODS.items():
                owner = getattr(importlib.import_module(module), cls)
                for attr, name in methods.items():
                    if attr in vars(owner):
                        saved.append((owner, attr, vars(owner)[attr]))
                        setattr(owner, attr, self._wrap(vars(owner)[attr], name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        """Write the recorded spans as CSV, times in microseconds."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_us,end_us\n")
            t0 = self.starts[0] if self.starts else 0.0
            for sid, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(
                    f"{sid},{parent},{name},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f}\n"
                )


def summarize(tracer, wall_s):
    """Per-span-name calls and self time, boundary counters and layer shares.

    ``wall_s`` is the traced section's wall time; time outside every span is
    the benchmark's own and is reported as the ``bench`` layer.  Time in
    ``costs`` spans is charged to the layer of the nearest enclosing span
    outside ``costs``, since every other layer calls into it.
    """
    names, parents, starts, ends = tracer.names, tracer.parents, tracer.starts, tracer.ends
    n = len(names)
    dur = [ends[i] - starts[i] for i in range(n)]
    self_s = list(dur)
    layer = [""] * n
    under_engine = [False] * n
    for i in range(n):
        parent = parents[i]
        module = names[i].split(".", 1)[0]
        if parent >= 0:
            self_s[parent] -= dur[i]
            under_engine[i] = under_engine[parent] or names[parent] in ENGINE_SPANS
            layer[i] = layer[parent] if module == "costs" else module
        else:
            layer[i] = module
    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    incl_by_name: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    engine_grads = 0
    for i in range(n):
        name = names[i]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + self_s[i]
        self_by_layer[layer[i]] = self_by_layer.get(layer[i], 0.0) + self_s[i]
        if parents[i] < 0 or names[parents[i]] != name:
            incl_by_name[name] = incl_by_name.get(name, 0.0) + dur[i]
        if name == "costs.grad" and under_engine[i]:
            engine_grads += 1
    self_by_layer["bench"] = wall_s - sum(dur[i] for i in range(n) if parents[i] < 0)
    return {
        "calls": calls,
        "self_s": self_by_name,
        "inclusive_s": incl_by_name,
        "layer_s": self_by_layer,
        "engine_grads": engine_grads,
        "counters": dict(tracer.counters),
    }


# Layers whose share of the traced wall time is reported.  ``costs`` has no
# share of its own: its time is charged to the layer that called it.
LAYERS = ("instances", "oco", "ocp", "welfare", "oracles", "harness", "bench")

_CALLS = (
    "instances.sample_realization",
    "oco.OcoState.observe",
    "costs.grad",
    "costs.conjugate_value",
    "costs.eval",
    "costs.eval_many",
    "ocp.run_ocp",
    "welfare.run_welfare",
    "oracles.opt_adv_ocp",
)
_SELF_MS = (
    "instances.sample_realization",
    "instances.generate",
    "oco.OcoState.observe",
    "oco.check_oco_guarantees",
    "oco.check_be_the_leader",
    "oco.check_stability",
    "oco.dominating_set",
    "costs.grad",
    "costs.conjugate_value",
    "costs.eval",
    "costs.eval_many",
    "ocp.run_ocp",
    "ocp.check_cost_bound",
    "ocp.check_adversarial_charging",
    "ocp.run_loadbalance",
    "welfare.run_welfare",
    "welfare.check_profit_chain_step",
    "oracles.opt_adv_ocp",
    "oracles.opt_stoch_ocp",
    "oracles.opt_stoch_welfare",
    "harness.evaluate_ocp_instance",
    "harness.evaluate_welfare_instance",
    "harness.evaluate_loadbalance_instance",
    "harness.report_to_csv",
    "harness.report_to_json",
    "harness.run_oco_suite",
    "harness.run_core_suite",
    "harness.run_engine_suite",
)
_COUNTS = (
    "ocp.run_ocp.steps",
    "welfare.run_welfare.steps",
    "oracles.opt_adv_ocp.combos",
    "oracles.opt_stoch_ocp.selectors",
    "oracles.opt_stoch_ocp.multisets",
    "oracles.opt_stoch_ocp.mc_fallbacks",
    "oracles.opt_stoch_welfare.multisets",
)

# Every per-layer metric as (name, unit, better), in report order.
PER_LAYER = (
    [(f"{name}.calls", "count", "lower") for name in _CALLS]
    + [(f"{name}.self_ms", "ms", "lower") for name in _SELF_MS]
    + [(name, "count", "lower") for name in _COUNTS]
    + [
        ("costs.grad_per_step", "grad/step", "lower"),
        ("welfare.accept_ratio", "ratio", "higher"),
        ("oracles.opt_adv_ocp.combos_per_s", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    + [(f"share.{layer}", "ratio", "lower") for layer in LAYERS]
)


def layer_metrics(summary, factor=1.0):
    """The per-layer metrics of one traced pass, from :func:`summarize`.

    Times are multiplied by ``factor``, the pass's scale to the reference
    machine.
    """
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]
    metrics = {f"{name}.calls": calls.get(name, 0) for name in _CALLS}
    metrics.update(
        {f"{name}.self_ms": self_s.get(name, 0.0) * factor * 1e3 for name in _SELF_MS}
    )
    metrics.update({name: counters.get(name, 0) for name in _COUNTS})
    steps = counters["ocp.run_ocp.steps"] + counters["welfare.run_welfare.steps"]
    metrics["costs.grad_per_step"] = summary["engine_grads"] / steps if steps else 0.0
    w_steps = counters["welfare.run_welfare.steps"]
    metrics["welfare.accept_ratio"] = counters["welfare.accepts"] / w_steps if w_steps else 0.0
    adv_s = summary["inclusive_s"].get("oracles.opt_adv_ocp", 0.0) * factor
    metrics["oracles.opt_adv_ocp.combos_per_s"] = (
        counters["oracles.opt_adv_ocp.combos"] / adv_s if adv_s else 0.0
    )
    total = sum(summary["layer_s"].values())
    for layer in LAYERS:
        metrics[f"share.{layer}"] = summary["layer_s"].get(layer, 0.0) / total
    return metrics
