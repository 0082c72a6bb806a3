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
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from robustpd.costs import cost_from_config
from robustpd.oco import ConfigError
from robustpd.ocp import FeasibleSet

__all__ = [
    "SchemaError",
    "TimelineEntry",
    "MixedInstance",
    "Realization",
    "GeneratorParams",
    "draw_matrix",
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


def _check_probs(probs, size):
    """``probs`` as a float64 distribution over ``size`` support elements.

    One entry per element, each finite and ``>= 0``, summing to 1 within
    ``1e-12``; anything else raises ``ValueError("probs ...")``.
    """
    try:
        p = np.asarray(probs, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"probs must be numbers, got {probs!r}") from None
    if p.shape != (size,):
        raise ValueError(
            f"probs need one probability per support element: shape {p.shape}, "
            f"expected ({size},)"
        )
    total = float(p.sum())
    # A NaN makes the minimum NaN; an infinity makes the sum infinite.
    if not (math.isfinite(total) and p.min(initial=0.0) >= 0):
        raise ValueError("probs must be finite and >= 0")
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probs sum to {total!r}, not 1")
    return p


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
        self.seed = _integer(self.seed, "seed", 0)
        p = _numbers(self.cost.get("p"), "cost.p")
        if p.ndim or p < 2.0:
            raise SchemaError(
                "cost.p", f"the guarantees need one number p >= 2, got {self.cost['p']!r}"
            )
        try:
            with np.errstate(over="raise"):
                cost_from_config(self.cost)
        except (ValueError, TypeError, FloatingPointError) as exc:
            raise SchemaError("cost", str(exc)) from exc
        if len(self.timeline) != self.n:
            raise SchemaError("timeline", f"length {len(self.timeline)} != n={self.n}")
        # The timeline is fixed at construction: its stochastic steps are marked once, read only.
        stoch = [e.kind == "stoch" for e in self.timeline]
        self.n_stoch, self.stoch_mask = sum(stoch), np.array(stoch)
        self.stoch_mask.flags.writeable = False
        self.n_adv = self.n - self.n_stoch
        if self.n_stoch > 0:
            if not self.support:
                raise SchemaError(
                    "distribution.support", "stochastic entries need a support"
                )
            try:
                self.probs = _check_probs(self.probs, len(self.support))
            except ValueError as exc:
                raise SchemaError("distribution.probs", str(exc)) from exc

    def cost_function(self):
        return cost_from_config(self.cost)

    def point_table(self, drawn):
        """The data the steps can hold, and which entry each step holds.

        Returns ``(points, at)``: the adversarial entries in timeline order
        followed by the support, and, for draws ``drawn`` shaped ``(n,)``
        or ``(K, n)`` as :func:`draw_matrix` gives them, the index into
        ``points`` of each step's data.
        """
        mask = self.stoch_mask
        adv = [e.data for e in self.timeline if e.kind == "adv"]
        at = np.where(mask, len(adv) + drawn, np.cumsum(~mask) - 1)
        return adv + list(self.support), at


# numpy's SeedSequence hash and mix constants, and the Philox4x64-10
# multipliers and key increments (Salmon et al., SC 2011).
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
# uint64 operands (a Python int costs a conversion per call); words per lane of a Philox block.
_LOW, _HALF, _DROP = np.array([_M32, 32, 11], dtype=np.uint64)
_PHILOX_WORDS = 8192


def _hash_chain(init, mult, calls):
    """Calls ``calls`` to ``calls + 4`` of the hash chain ``init * mult**call``, ``(5, 1)``."""
    return np.array([[init * pow(mult, calls + i, 1 << 32) & _M32] for i in range(5)], np.uint64)


# Built once: the chain of the key mix after a seed of at most 4 words, and of the key draw.
_CHAIN_A16, _CHAIN_B = _hash_chain(_INIT_A, _MULT_A, 16), _hash_chain(_INIT_B, _MULT_B, 0)


def _hashmix(value, h):
    """SeedSequence's ``hashmix`` of uint32 words held in uint64, row i by call i of ``h``."""
    value = (value ^ h[:4]) * h[1:] & _M32
    return value ^ value >> 16


def _philox(key, c, out):
    """Philox4x64-10 on the counters 1..c under the ``(2, b)`` keys, into ``out``.

    ``out`` gets the words shifted right by 11, as float64 ``(b, c, 4)``.  Each
    operand has the state's ``(2, b, c)`` shape, each temporary is written in
    place, and the odd words are stored reversed, ``(c3, c1)``, so a round
    reads one reversed view.
    """
    mul, weyl, k, even, odd_r, b0, b1, t, u, v = np.empty((10, 2, key.shape[1], c), np.uint64)
    mul[...], weyl[...], k[...] = _PHILOX_M, _PHILOX_W, key[:, :, None]
    m0, m1 = mul & _LOW, mul >> _HALF
    even[0], even[1], odd_r[...] = np.arange(1, c + 1), 0, 0
    for _ in range(10):
        # hi = m1*b1 + (u >> 32) + (v >> 32) is the high word of mul * even,
        # with u = m1*b0 + (m0*b0 >> 32) and v = m0*b1 + (u & M32).
        np.bitwise_and(even, _LOW, out=b0)
        np.right_shift(even, _HALF, out=b1)
        np.right_shift(np.multiply(m0, b0, out=t), _HALF, out=t)
        np.add(np.multiply(m1, b0, out=u), t, out=u)
        np.add(np.multiply(m0, b1, out=v), np.bitwise_and(u, _LOW, out=t), out=v)
        hi = np.multiply(m1, b1, out=b1)
        hi += np.right_shift(u, _HALF, out=u)
        hi += np.right_shift(v, _HALF, out=v)
        # even' = hi[::-1] ^ odd ^ key and odd' = lo[::-1], with lo = mul * even.
        hi ^= odd_r
        np.multiply(even, mul, out=odd_r)
        np.bitwise_xor(hi[::-1], k, out=even)
        k += weyl
    out[..., 0::2] = np.right_shift(even, _DROP, out=even).transpose(1, 2, 0)
    out[..., 1::2] = np.right_shift(odd_r, _DROP, out=odd_r)[::-1].transpose(1, 2, 0)


def _uniforms(seed, replications, n):
    """The first n uniforms of each replication's stream: ``(K, n)`` float64.

    Row i equals ``Generator(Philox(SeedSequence(seed,
    spawn_key=(replications[i],)))).random(n)`` bit for bit.  The seed's
    pool is numpy's own; the spawn-key word is mixed into it, the Philox
    key drawn from it (``generate_state(2, uint64)``) and Philox4x64-10 run
    on the counters 1, 2, ... by :func:`_philox`, as array arithmetic over
    blocks of keys of at most ``_PHILOX_WORDS`` words per lane, with
    uniforms ``(raw >> 11) * 2**-53``.  Keys are one spawn-key word each,
    in ``[0, 2**32)``.
    """
    keys = np.asarray(replications).reshape(-1)
    if keys.size and not (keys.dtype.kind in "iu" and keys.min() >= 0 and keys.max() <= _M32):
        bad = [r for r in replications if not (isinstance(r, numbers.Integral) and 0 <= r <= _M32)]
        raise ConfigError(f"replication keys must lie in [0, 2**32), got {(bad or [keys])[0]!r}")
    # Pooling the seed's words took 16 hash calls, plus 4 per word past the fourth.
    calls = 16 + 4 * max(0, -(-seed.bit_length() // 32) - 4)
    chain = _CHAIN_A16 if calls == 16 else _hash_chain(_INIT_A, _MULT_A, calls)
    mixed = _hashmix(keys.astype(np.uint64), chain)
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
    pool = (_MIX_L * pool - _MIX_R * mixed) & _M32  # SeedSequence's mix
    state = _hashmix(pool ^ pool >> 16, _CHAIN_B)
    key, c = state[0::2] | state[1::2] << 32, -(-n // 4)  # c counters of 4 words per key
    raw, step = np.empty((len(keys), c, 4)), max(1, _PHILOX_WORDS // max(c, 1))
    for s in range(0, len(keys), step):
        _philox(key[:, s : s + step], c, raw[s : s + step])
    return raw.reshape(len(keys), 4 * c)[:, :n] * 2.0**-53


def draw_matrix(inst, replications) -> np.ndarray:
    """Support index drawn at each step of each replication: ``(K, n)`` int64.

    Row i belongs to replication ``replications[i]`` and comes from one
    counter-based stream keyed by ``(seed, replication)``, which always
    yields n uniforms, one per timeline position, so the value at step t
    depends only on ``(seed, replication, t)``.  A uniform ``u`` maps to
    the first index whose cumulative probability exceeds it, exactly as
    ``Generator.choice(k, size=n, p=probs)`` maps its uniforms.
    Adversarial steps hold -1.
    """
    mask = inst.stoch_mask
    if not mask.any():
        return np.full((len(replications), inst.n), -1, dtype=np.int64)
    cdf = np.cumsum(inst.probs)
    cdf /= cdf[-1]
    uniforms = _uniforms(inst.seed, replications, inst.n)
    return np.where(mask, cdf.searchsorted(uniforms, side="right"), -1)


def sample_realization(inst, replication) -> Realization:
    """Deterministic draw of the stochastic entries of one replication.

    The draws are row ``replication`` of :func:`draw_matrix`; adversarial
    entries pass through verbatim.
    """
    drawn = draw_matrix(inst, [replication])[0]
    points, at = inst.point_table(drawn)
    return Realization([points[j] for j in at], inst.stoch_mask, drawn)


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
    timeline = [
        {"kind": "adv", "data": _point_to_json(inst.problem, e.data)} if e.kind == "adv"
        else {"kind": "stoch"}
        for e in inst.timeline
    ]
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
    return MixedInstance(problem, n, m, cost, timeline, support, probs, seed=obj["seed"])


def save_instance(inst, path):
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1)
        fh.write("\n")


def load_instance(path) -> MixedInstance:
    """Read and validate an instance file.

    A file that is not JSON text raises :class:`SchemaError` at path ``$``;
    a file that cannot be opened raises ``OSError``.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError("$", f"not a JSON document: {exc}") from exc
    return instance_from_dict(data)


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
        coeffs = rng.uniform(0.3, 2.0, size=params.m).tolist()
    elif params.family == "linear_plus_power":
        scales = rng.uniform(0.4, 1.6, size=params.m)
        slopes = rng.uniform(0.0, 1.0, size=params.m)
        coeffs = [[float(l), float(c)] for l, c in zip(scales, slopes)]
    else:
        raise ValueError(f"cannot generate cost family {params.family!r}")
    return {"family": params.family, "m": params.m, "p": params.p, "coeffs": coeffs}


def _random_point(params, rng):
    if params.problem == "ocp":
        k = int(rng.integers(params.options_range[0], params.options_range[1] + 1))
        return FeasibleSet(rng.uniform(0.0, 1.0, size=(k, params.m)))
    c = float(rng.uniform(*params.reward_range))
    return (c, rng.uniform(0.0, 1.0, size=params.m))


def generate(params, seed) -> MixedInstance:
    """Deterministically generate an instance from ``(params, seed)``."""
    seed = _integer(seed, "seed", 0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    adv_at = set(_adv_positions(params, rng))
    timeline = [
        TimelineEntry("adv", _random_point(params, rng)) if t in adv_at else TimelineEntry("stoch")
        for t in range(params.n)
    ]
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
        seed=seed,
    )
