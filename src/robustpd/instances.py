"""Mixed-model instances: timeline, distribution, sampling, JSON format.

An instance fixes everything before any randomness is drawn: the cost
function, a timeline of n entries that are either adversarial (data given
verbatim) or stochastic (a marker), a finite-support distribution for the
stochastic entries, and a seed.  Non-adaptivity is structural; the
adversarial data cannot react to the draws.

On-disk format is JSON, schema version ``"v1"``; see the package README
for the field-by-field description and the golden files under ``tests/``.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from robustpd.costs import cost_from_config
from robustpd.ocp import FeasibleSet

__all__ = [
    "SchemaError",
    "TimelineEntry",
    "MixedInstance",
    "Realization",
    "GeneratorParams",
    "sample_realization",
    "load_instance",
    "save_instance",
    "instance_to_dict",
    "instance_from_dict",
    "generate",
]

SCHEMA_VERSION = "v1"


class SchemaError(ValueError):
    """Instance file violates the schema; carries the offending JSON path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class TimelineEntry:
    kind: str  # "adv" | "stoch"
    data: object | None = None  # FeasibleSet for ocp, (c, a) for welfare


@dataclass
class Realization:
    """One concrete draw of an instance's stochastic entries."""

    points: list  # per step: FeasibleSet (ocp) or (c, a) pair (welfare)
    stoch_mask: np.ndarray  # True where the step was stochastic
    drawn: np.ndarray  # support index drawn at each step, -1 at adv steps


@dataclass
class MixedInstance:
    problem: str  # "ocp" | "welfare"
    n: int
    m: int
    cost: dict  # cost-function config, see costs.cost_from_config
    timeline: list[TimelineEntry] = field(default_factory=list)
    support: list = field(default_factory=list)
    probs: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        _check_problem(self.problem)
        p = _numbers(self.cost.get("p"), "cost.p")
        if p.ndim or p < 2.0:
            raise SchemaError(
                "cost.p", f"the guarantees need one number p >= 2, got {self.cost['p']!r}"
            )
        try:
            cost_from_config(self.cost)
        except (ValueError, TypeError) as exc:
            raise SchemaError("cost", str(exc)) from exc
        if len(self.timeline) != self.n:
            raise SchemaError("timeline", f"length {len(self.timeline)} != n={self.n}")
        if self.n_stoch > 0:
            if not self.support:
                raise SchemaError(
                    "distribution.support", "stochastic entries need a support"
                )
            p = np.asarray(self.probs, dtype=np.float64)
            if p.shape != (len(self.support),):
                raise SchemaError(
                    "distribution.probs", "needs one probability per support element"
                )
            if not np.all(np.isfinite(p)) or np.any(p < 0):
                raise SchemaError(
                    "distribution.probs", "probabilities must be finite and >= 0"
                )
            if abs(p.sum() - 1.0) > 1e-12:
                raise SchemaError(
                    "distribution.probs", f"probabilities sum to {p.sum()!r}, not 1"
                )
            self.probs = p

    @property
    def n_stoch(self):
        return sum(1 for e in self.timeline if e.kind == "stoch")

    @property
    def n_adv(self):
        return self.n - self.n_stoch

    @property
    def stoch_mask(self):
        return np.array([e.kind == "stoch" for e in self.timeline])

    def cost_function(self):
        return cost_from_config(self.cost)


def _stream(seed, *key):
    # Counter-based generator; one stream per (seed, replication).
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def sample_realization(inst, replication) -> Realization:
    """Deterministic draw of the stochastic entries of one replication.

    A single counter-based stream is keyed by ``(seed, replication)`` and
    always yields n categorical draws, one per timeline position, so the
    value at step t depends only on ``(seed, replication, t)``; adversarial
    entries pass through verbatim and ignore their draw.
    """
    rng = _stream(inst.seed, replication)
    draws = rng.choice(len(inst.support) if inst.support else 1, size=inst.n, p=inst.probs)
    points = []
    mask = np.zeros(inst.n, dtype=bool)
    drawn = np.full(inst.n, -1, dtype=np.int64)
    for t, entry in enumerate(inst.timeline):
        if entry.kind == "adv":
            points.append(entry.data)
        else:
            mask[t] = True
            drawn[t] = int(draws[t])
            points.append(inst.support[drawn[t]])
    return Realization(points, mask, drawn)


# -- JSON round trip ---------------------------------------------------------


def _point_to_json(problem, data):
    if problem == "ocp":
        return {"options": data.options.tolist()}
    c, a = data
    return {"c": float(c), "a": np.asarray(a, dtype=np.float64).tolist()}


def _numbers(value, path, unit=False):
    """``value`` as a float64 array of finite numbers, in [0, 1] if ``unit``."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise SchemaError(path, f"expected finite numbers, got {value!r}")
    if unit and (np.any(arr < 0) or np.any(arr > 1)):
        raise SchemaError(path, "coordinates must lie in [0, 1]")
    return arr.astype(np.float64)


def _check_problem(problem):
    if problem not in ("ocp", "welfare"):
        raise SchemaError("problem", f"unknown problem kind {problem!r}")


def _integer(value, path, low):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise SchemaError(path, f"expected an integer >= {low}, got {value!r}")
    return int(value)


def _point_from_json(problem, obj, path, m):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    for key in ("options",) if problem == "ocp" else ("c", "a"):
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing field")
    if problem == "ocp":
        options = _numbers(obj["options"], f"{path}.options", unit=True)
        if options.ndim != 2 or options.shape[1] != m:
            raise SchemaError(f"{path}.options", f"expected shape (k, {m})")
        return FeasibleSet(options)
    a = _numbers(obj["a"], f"{path}.a", unit=True)
    if a.shape != (m,):
        raise SchemaError(f"{path}.a", f"expected length {m}")
    c = _numbers(obj["c"], f"{path}.c")
    if c.ndim:
        raise SchemaError(f"{path}.c", "expected a number")
    return (float(c), a)


def instance_to_dict(inst) -> dict:
    timeline = []
    for entry in inst.timeline:
        if entry.kind == "adv":
            timeline.append(
                {"kind": "adv", "data": _point_to_json(inst.problem, entry.data)}
            )
        else:
            timeline.append({"kind": "stoch"})
    dist = None
    if inst.support:
        dist = {
            "support": [_point_to_json(inst.problem, s) for s in inst.support],
            "probs": np.asarray(inst.probs).tolist(),
        }
    return {
        "version": SCHEMA_VERSION,
        "problem": inst.problem,
        "n": inst.n,
        "m": inst.m,
        "cost": inst.cost,
        "seed": inst.seed,
        "timeline": timeline,
        "distribution": dist,
    }


def instance_from_dict(obj) -> MixedInstance:
    if not isinstance(obj, dict):
        raise SchemaError("$", "expected a JSON object")
    version = obj.get("version")
    if version != SCHEMA_VERSION:
        raise SchemaError("version", f"unsupported schema version {version!r}")
    for key in ("problem", "n", "m", "cost", "seed", "timeline"):
        if key not in obj:
            raise SchemaError(key, "missing field")
    problem = obj["problem"]
    _check_problem(problem)
    n, m = _integer(obj["n"], "n", 1), _integer(obj["m"], "m", 1)
    seed = _integer(obj["seed"], "seed", 0)
    cost = obj["cost"]
    if not isinstance(cost, dict):
        raise SchemaError("cost", "expected an object")
    if _numbers(cost.get("coeffs"), "cost.coeffs").shape[:1] != (m,):
        raise SchemaError("cost.coeffs", f"expected one entry per coordinate, m={m}")
    timeline_json = obj["timeline"]
    if not isinstance(timeline_json, list):
        raise SchemaError("timeline", "expected an array")
    timeline = []
    for t, entry in enumerate(timeline_json):
        path = f"timeline[{t}]"
        kind = entry.get("kind") if isinstance(entry, dict) else None
        if kind == "adv":
            timeline.append(
                TimelineEntry("adv", _point_from_json(problem, entry.get("data"), f"{path}.data", m))
            )
        elif kind == "stoch":
            timeline.append(TimelineEntry("stoch"))
        else:
            raise SchemaError(f"{path}.kind", f"expected 'adv' or 'stoch', got {kind!r}")
    support, probs = [], None
    dist = obj.get("distribution")
    if dist is not None:
        if not isinstance(dist, dict):
            raise SchemaError("distribution", "expected an object")
        for key in ("support", "probs"):
            if key not in dist:
                raise SchemaError(f"distribution.{key}", "missing field")
        if not isinstance(dist["support"], list):
            raise SchemaError("distribution.support", "expected an array")
        support = [
            _point_from_json(problem, s, f"distribution.support[{j}]", m)
            for j, s in enumerate(dist["support"])
        ]
        probs = _numbers(dist["probs"], "distribution.probs")
    return MixedInstance(
        problem=problem,
        n=n,
        m=m,
        cost=cost,
        timeline=timeline,
        support=support,
        probs=probs,
        seed=seed,
    )


def save_instance(inst, path):
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1)
        fh.write("\n")


def load_instance(path) -> MixedInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


# -- generation ---------------------------------------------------------------


@dataclass
class GeneratorParams:
    """Knobs for random instance generation.

    ``adv_placement`` is one of ``prefix``, ``suffix``, ``random``,
    ``interleaved``.  Option counts and support size are inclusive ranges.
    For welfare instances the per-request reward is uniform on
    ``reward_range`` (which may dip below zero to produce never-accepted
    requests).
    """

    problem: str = "ocp"
    n: int = 16
    m: int = 2
    p: float = 2.0
    family: str = "sum_of_powers"
    n_adv: int = 4
    adv_placement: str = "random"
    support_size: tuple = (2, 3)
    options_range: tuple = (2, 3)
    reward_range: tuple = (-1.0, 4.0)


def _adv_positions(params, rng):
    n, k = params.n, params.n_adv
    if k > n:
        raise ValueError(f"n_adv={k} exceeds n={n}")
    if params.adv_placement == "prefix":
        return list(range(k))
    if params.adv_placement == "suffix":
        return list(range(n - k, n))
    if params.adv_placement == "interleaved":
        if k == 0:
            return []
        step = n / k
        return sorted({min(n - 1, int(i * step)) for i in range(k)})
    if params.adv_placement == "random":
        return sorted(rng.choice(n, size=k, replace=False).tolist())
    raise ValueError(f"unknown adv placement {params.adv_placement!r}")


def _random_cost_config(params, rng):
    if params.family == "sum_of_powers":
        coeffs = rng.uniform(0.3, 2.0, size=params.m)
        return {
            "family": "sum_of_powers",
            "m": params.m,
            "p": params.p,
            "coeffs": coeffs.tolist(),
        }
    if params.family == "linear_plus_power":
        scales = rng.uniform(0.4, 1.6, size=params.m)
        slopes = rng.uniform(0.0, 1.0, size=params.m)
        return {
            "family": "linear_plus_power",
            "m": params.m,
            "p": params.p,
            "coeffs": [[float(l), float(c)] for l, c in zip(scales, slopes)],
        }
    raise ValueError(f"cannot generate cost family {params.family!r}")


def _random_point(params, rng):
    if params.problem == "ocp":
        k = int(rng.integers(params.options_range[0], params.options_range[1] + 1))
        return FeasibleSet(rng.uniform(0.0, 1.0, size=(k, params.m)))
    c = float(rng.uniform(*params.reward_range))
    return (c, rng.uniform(0.0, 1.0, size=params.m))


def generate(params, seed) -> MixedInstance:
    """Deterministically generate an instance from ``(params, seed)``."""
    rng = _stream(seed)
    adv_at = set(_adv_positions(params, rng))
    timeline = []
    for t in range(params.n):
        if t in adv_at:
            timeline.append(TimelineEntry("adv", _random_point(params, rng)))
        else:
            timeline.append(TimelineEntry("stoch"))
    support, probs = [], None
    if len(adv_at) < params.n:
        size = int(rng.integers(params.support_size[0], params.support_size[1] + 1))
        support = [_random_point(params, rng) for _ in range(size)]
        w = rng.uniform(0.5, 1.5, size=size)
        probs = w / w.sum()
        # Exact unit total so the schema invariant holds bit-for-bit.
        probs[-1] = 1.0 - probs[:-1].sum()
    return MixedInstance(
        problem=params.problem,
        n=params.n,
        m=params.m,
        cost=_random_cost_config(params, rng),
        timeline=timeline,
        support=support,
        probs=probs,
        seed=int(seed),
    )
