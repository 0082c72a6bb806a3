"""Shifted, regularized follow-the-leader updates for Lagrangian duals.

The online game: at step t the learner posts a nonnegative dual vector
``y_t``, then a load ``v_t in [0,1]^m`` and a multiplier ``gamma_t`` in
``{0, gamma_bar}`` are revealed and the learner banks the fake gain
``L_gamma(y, v) = <y, v> - gamma * conj(y)``.  The multipliers sum to 1
over a complete run.

The iterate is follow-the-regularized-leader over the scaled gains
``<y, v_t> - 4*gamma_t*conj(y)`` plus a fake time-0 gain
``<y, 4p*ones> - 4*conj(y)``, which shifts the argument away from the
origin so consecutive gradients stay within a factor 2 of each other.
In closed form::

    y_t   = grad( (4p*ones + v_{1:t-1}) / (4*(1 + gamma_{1:t-1} + gamma_bar)) )

Each observed step appends ``(y_t, v_t, gamma_t, conj(y_t))`` to the
state's run record, :meth:`OcoState.record`, and advances the running sums
that the next iterate needs.  The engines' traces and every post-run check
read that record: the checks rebuild prefix sums from it, and
:meth:`OcoState.leaders` derives from those, once per state, the
unregularized leader iterates
``grad( (4p*ones + v_{1:t}) / (4*(1 + gamma_{1:t})) )`` that the
gain-accounting checks compare against.

One state can also carry K runs in lockstep that share the multipliers:
it then observes ``(K, m)`` loads, posts ``(K, m)`` iterates (one row per
run, from the same formula), and records one row per run.  The post-run
checks take single-run states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfigError",
    "OcoState",
    "CheckReport",
    "check_be_the_leader",
    "check_stability",
    "check_oco_guarantees",
    "dominating_set",
    "normalized_slack",
]


class ConfigError(ValueError):
    """Raised when a run is configured outside the guarantee regime."""


def normalized_slack(lhs, rhs):
    """Slack of the claim ``lhs >= rhs``, normalized by ``max(1, |rhs|)``.

    Negative values are violations; checks pass at ``>= -1e-8``.
    """
    return (lhs - rhs) / max(1.0, abs(rhs))


class OcoState:
    """Single-owner mutable state of one dual-learning run, or of K runs.

    Parameters
    ----------
    f : CostFunction
        The cost whose gradient generates the iterates.
    gamma_bar : float
        The nonzero multiplier value; must be at most ``1/(4p)``.
    disable_shift, disable_regularizer : bool
        Test-only mutations that break the guarantees (remove the ``4p``
        shift from the numerator, or the extra ``gamma_bar`` from the
        denominator).  Never set in production runs.
    """

    def __init__(self, f, gamma_bar, *, disable_shift=False, disable_regularizer=False):
        cap = 1.0 / (4.0 * f.p)
        if gamma_bar > cap * (1.0 + 1e-12):
            raise ConfigError(
                f"gamma_bar={gamma_bar} exceeds 1/(4p)={cap} for p={f.p}"
            )
        if gamma_bar <= 0.0:
            raise ConfigError("gamma_bar must be positive")
        self.f = f
        self.gamma_bar = float(gamma_bar)
        self.shift = np.full(f.m, 0.0 if disable_shift else 4.0 * f.p)
        self._regularizer = 0.0 if disable_regularizer else self.gamma_bar
        # Takes the shape of the observed loads at the first step.
        self.cum_v = np.zeros(f.m)
        self.cum_gamma = 0.0
        self._steps = ([], [], [], [])  # y, v, gamma, conj(y), one entry per step
        self._arrays = None
        self._leader_cache = None
        self._cached_y = None

    def next_iterate(self) -> np.ndarray:
        """The dual to post at the current step.  Does not mutate state.

        Shape ``(m,)`` before the first step and for a single run, else
        ``(K, m)``: one row per run.
        """
        if self._cached_y is None:
            self._cached_y = self.f.grad_many(
                (self.shift + self.cum_v)
                / (4.0 * (1.0 + self.cum_gamma + self._regularizer))
            )
        return self._cached_y

    def observe(self, v, gamma):
        """Reveal ``(v_t, gamma_t)``, record the step, advance to step t+1.

        ``v`` is one load ``(m,)`` or one per run ``(K, m)``, in the same
        shape at every step; ``gamma`` is shared by all runs.
        """
        v = np.asarray(v, dtype=np.float64)
        m = self.f.m
        if v.ndim not in (1, 2) or v.shape[-1] != m or (
            self._steps[2] and v.shape != self.cum_v.shape
        ):
            raise ValueError(
                f"load has shape {v.shape}, expected ({m},) or (K, {m}) at every step"
            )
        if np.any(v < -1e-12) or np.any(v > 1.0 + 1e-12):
            raise ValueError("load coordinates must lie in [0, 1]")
        if not (gamma == 0.0 or abs(gamma - self.gamma_bar) <= 1e-15 * self.gamma_bar):
            raise ValueError(f"gamma={gamma} must be 0 or gamma_bar={self.gamma_bar}")
        if self.cum_gamma + gamma > 1.0 + self.gamma_bar + 1e-9:
            raise ValueError("multipliers would exceed their total budget of 1")

        y = self.next_iterate()
        ys, vs, gammas, conjs = self._steps
        # Before the first step every run posts the same iterate.
        ys.append(np.broadcast_to(y, v.shape))
        vs.append(v)
        gammas.append(gamma)
        conjs.append(np.broadcast_to(self.f.conj_many(y), v.shape[:-1]))
        self.cum_v = self.cum_v + v
        self.cum_gamma += gamma
        self._cached_y = None
        self._arrays = None
        self._leader_cache = None

    def record(self):
        """The run so far as arrays ``(y, v, gamma, conj_y)``, one row per step.

        ``y`` and ``v`` have shape ``(n, m)``; ``gamma`` and ``conj_y`` have
        shape ``(n,)``.  With K runs, ``y``, ``v`` and ``conj_y`` gain a
        leading axis of length K, so that ``y[k]`` is the contiguous
        ``(n, m)`` record of run k.  The arrays are shared between callers:
        read only.
        """
        if self._arrays is None:
            ys, vs, gammas, conjs = self._steps
            if not gammas:
                m = self.f.m
                return np.zeros((0, m)), np.zeros((0, m)), np.zeros(0), np.zeros(0)
            self._arrays = (
                np.stack(ys, axis=-2),
                np.stack(vs, axis=-2),
                np.array(gammas, dtype=np.float64),
                np.stack(conjs, axis=-1),
            )
        return self._arrays

    def leaders(self):
        """Leader arguments and iterates after each step, one row per step.

        Row t-1 holds ``w_t = (shift + v_{1:t}) / (4*(1 + gamma_{1:t}))`` and
        ``grad(w_t)``, the iterate of the leader that has seen step t.  Both
        arrays have shape ``(n, m)`` and are shared between callers: read only.
        """
        if self._leader_cache is None:
            _, v, gamma, _ = self.record()
            scale = 4.0 * (1.0 + _prefix_sums(gamma)[1:, None])
            w = (self.shift + _prefix_sums(v)[1:]) / scale
            y = np.array([self.f.grad(row) for row in w], dtype=np.float64)
            self._leader_cache = (w, y.reshape(w.shape))
        return self._leader_cache

    @property
    def complete(self) -> bool:
        return abs(self.cum_gamma - 1.0) <= 1e-9


# -- post-run checks ---------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of one named inequality check."""

    name: str
    worst_slack: float
    detail: dict = field(default_factory=dict)

    def passed(self, tol=1e-8) -> bool:
        return self.worst_slack >= -tol


def _prefix_sums(a):
    """Row t holds the sum of the first t rows of ``a``, for t = 0..n.

    Added in step order, so each row equals the running sum the state
    kept while observing.
    """
    return np.cumsum(np.concatenate([np.zeros((1,) + a.shape[1:]), a]), axis=0)


def check_be_the_leader(state) -> CheckReport:
    """Leader-gain dominance at every prefix.

    The banked gains of the one-step-ahead leader iterates must dominate
    the best fixed dual in hindsight, whose value has the closed form
    ``4*(1+gamma_{1:t}) * cost((shift + v_{1:t}) / (4*(1+gamma_{1:t})))``.
    Evaluated against the state's actual shift, so it holds for mutated
    runs too (it is a property of leader optimality, not of the shift).
    """
    f = state.f
    _, v, gamma, _ = state.record()
    cum_gamma = _prefix_sums(gamma).tolist()
    y1 = f.grad(state.shift / 4.0)
    lhs = float(np.dot(y1, state.shift) - 4.0 * f.conjugate_value(y1))
    worst = math.inf
    detail = {}
    if np.array_equal(state.shift, np.full(f.m, 4.0 * f.p)):
        # With the shift in place the fake time-0 gain is exactly
        # 4 * cost(p * ones).
        base = 4.0 * f.cost_at_p_ones()
        time0_ok = abs(lhs - base) <= 1e-9 * max(1.0, base)
        detail["time0_gain_matches"] = time0_ok
        if not time0_ok:
            worst = -1.0
    leaders = zip(gamma.tolist(), *state.leaders())
    for t, (g, w, y_next) in enumerate(leaders, start=1):
        lhs += float(np.dot(y_next, v[t - 1])) - 4.0 * g * f.conjugate_value(y_next)
        rhs = 4.0 * (1.0 + cum_gamma[t]) * f.eval(w)
        worst = min(worst, normalized_slack(lhs, rhs))
    return CheckReport("be_the_leader", worst, detail)


def check_stability(state) -> CheckReport:
    """Sandwich of each iterate by the next leader iterate.

    Coordinate-wise ``y_t <= y~_{t+1} <= 2*y_t``, plus the per-step window
    on the gradient arguments: each coordinate ratio of the arguments lies
    in ``[1, 2**(1/p)]``.
    """
    f = state.f
    y, v, gamma, _ = state.record()
    cum_v = _prefix_sums(v)
    cum_gamma = _prefix_sums(gamma).tolist()
    worst = math.inf
    arg_lo, arg_hi = math.inf, -math.inf
    for t, (w_tilde, y_next) in enumerate(zip(*state.leaders()), start=1):
        w_bar = (state.shift + cum_v[t - 1]) / (
            4.0 * (1.0 + cum_gamma[t - 1] + state._regularizer)
        )
        for lhs, rhs in ((y_next, y[t - 1]), (2.0 * y[t - 1], y_next)):
            diff = lhs - rhs
            i = int(np.argmin(diff / np.maximum(1.0, np.abs(rhs))))
            worst = min(worst, normalized_slack(lhs[i], rhs[i]))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(w_bar > 0, w_tilde / w_bar, np.inf)
        arg_lo = min(arg_lo, float(ratio.min()))
        arg_hi = max(arg_hi, float(ratio.max()))
    window_ok = arg_lo >= 1.0 - 1e-12 and arg_hi <= 2.0 ** (1.0 / f.p) * (1.0 + 1e-12)
    if not window_ok:
        worst = min(worst, -1.0)
    return CheckReport(
        "stability", worst, {"arg_ratio_range": (arg_lo, arg_hi)}
    )


def check_oco_guarantees(state) -> CheckReport:
    """Regret and size control of a complete run.

    1. ``sum_t L_gamma(y_t, v_t/2) >= cost(sum_t v_t / 8) - cost(p*ones)``,
       with the intermediate prefix form
       ``... >= cost((4p*ones + v_{1:t}) / (4*(1+gamma_{1:t}))) - cost(p*ones)``
       at every t.
    2. ``max_t conj(y_t) / p <= sum_t <y_t, v_t> + cost(p*ones)``.
    3. Separable costs: the same with ``conj`` of the coordinate-wise max
       iterate in place of the max of ``conj``.

    The right-hand sides use the nominal ``4p`` shift regardless of
    mutations: these are the guarantees being falsified, not internal
    identities.
    """
    f = state.f
    if not state.complete:
        raise ValueError("guarantee check requires multipliers summing to 1")
    y, v, gamma, conj_y = state.record()
    cum_v = _prefix_sums(v)
    cum_gamma = _prefix_sums(gamma).tolist()
    base = f.cost_at_p_ones()
    nominal_shift = 4.0 * f.p
    worst = math.inf
    fake_half = 0.0
    inner_sum = 0.0
    detail = {}
    for t, (g, c) in enumerate(zip(gamma.tolist(), conj_y.tolist()), start=1):
        inner = float(np.dot(y[t - 1], v[t - 1]))
        fake_half += 0.5 * inner - g * c
        inner_sum += inner
        prefix_rhs = f.eval((nominal_shift + cum_v[t]) / (4.0 * (1.0 + cum_gamma[t]))) - base
        worst = min(worst, normalized_slack(fake_half, prefix_rhs))
    detail["regret_prefix"] = worst
    s1 = normalized_slack(fake_half, f.eval(state.cum_v / 8.0) - base)
    detail["regret_final"] = s1
    s2 = normalized_slack(inner_sum + base, float(conj_y.max(initial=0.0)) / f.p)
    detail["size_control"] = s2
    worst = min(worst, s1, s2)
    if f.separable:
        y_max = y.max(axis=0, initial=0.0)
        s3 = normalized_slack(inner_sum + base, f.conjugate_value(y_max) / f.p)
        detail["size_control_separable"] = s3
        worst = min(worst, s3)
    return CheckReport("oco_guarantees", worst, detail)


def dominating_set(state):
    """Small set of iterates that e-dominates every iterate of the run.

    Returns ``(indices, witness, report)``: 1-based time indices (at most
    ``ceil(p)`` of them), the witness index for every step (the smallest
    chosen index at or after it), and a :class:`CheckReport` whose slack
    certifies ``y_t <= e * y_witness(t)`` coordinate-wise.

    The i-th index is the first time the cumulative multiplier enters
    ``[2**(i/p) - 1, 2**(i/p) - 1 + gamma_bar]``; the last one is the final
    step, whose cumulative multiplier is exactly 1 and therefore lies in
    the last interval.  (Taking the first time in the last interval instead
    would orphan any steps played after the multiplier budget is spent.)
    """
    f = state.f
    if not state.complete:
        raise ValueError("dominating set requires a complete run")
    y, _, gamma, _ = state.record()
    n = len(gamma)
    cum_gamma = _prefix_sums(gamma).tolist()
    k = max(1, math.ceil(f.p))
    thresholds = [2.0 ** (i / f.p) - 1.0 for i in range(1, k)]
    indices = []
    ti = 0
    for t in range(1, n + 1):
        while ti < len(thresholds) and cum_gamma[t] >= thresholds[ti] - 1e-12:
            indices.append(t)
            ti += 1
    if ti < len(thresholds):
        raise AssertionError("multiplier schedule never crossed an interval")
    indices.append(n)
    for i, t in zip(range(1, k + 1), indices):
        lo = 2.0 ** (i / f.p) - 1.0
        if i < k and not (lo - 1e-12 <= cum_gamma[t] <= lo + state.gamma_bar + 1e-12):
            raise AssertionError("chosen index fell outside its interval")
    indices = sorted(set(indices))
    witness = np.empty(n, dtype=np.int64)
    j = 0
    for t in range(1, n + 1):
        while indices[j] < t:
            j += 1
        witness[t - 1] = indices[j]
    worst = math.inf
    e = math.e
    for t in range(n):
        yw = e * y[witness[t] - 1]
        i = int(np.argmin((yw - y[t]) / np.maximum(1.0, np.abs(yw))))
        worst = min(worst, normalized_slack(yw[i], y[t][i]))
    report = CheckReport("dominating_set", worst, {"indices": indices})
    return indices, witness, report
