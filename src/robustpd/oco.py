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
read that record, and :meth:`OcoState.leaders` derives from it, once per
state, the unregularized leader iterates
``grad( (4p*ones + v_{1:t}) / (4*(1 + gamma_{1:t})) )`` that the
gain-accounting checks compare against.  Each post-run check is one array
formula over the record, its prefix sums and the leaders, with no loop
over steps.  The prefix sums come from ``np.cumsum``, which adds in step
order as the running sums do, and the per-step reductions from
``np.vecdot``, ``eval_rows`` and ``conj_many``, which reduce each row as
``np.dot``, ``eval`` and ``conjugate_value`` do, so each check gives the
bits its per-step loop gave.

One state can also carry K runs in lockstep that share the multipliers:
it then observes ``(K, m)`` loads, posts ``(K, m)`` iterates (one row per
run, from the same formula), and records one row per run.  The post-run
checks take single-run states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "ConfigError",
    "OcoState",
    "SLACK_TOL",
    "Verdict",
    "check_be_the_leader",
    "check_stability",
    "check_oco_guarantees",
    "dominating_set",
    "normalized_slack",
]


class ConfigError(ValueError):
    """Raised when a run is configured outside the guarantee regime."""


# A check passes when its worst normalized slack is at least -SLACK_TOL.
SLACK_TOL = 1e-8


def normalized_slack(lhs, rhs):
    """Slack of the claim ``lhs >= rhs``, normalized by ``max(1, |rhs|)``.

    Negative values are violations; checks pass at ``>= -SLACK_TOL``.
    Elementwise when ``rhs`` is an array (a check over K runs at once).
    """
    if isinstance(rhs, np.ndarray):
        return (lhs - rhs) / np.maximum(1.0, np.abs(rhs))
    return (lhs - rhs) / max(1.0, abs(rhs))


def _plain(x):
    """A numpy scalar or 0-d array as the Python number it holds; else ``x``."""
    if isinstance(x, (np.ndarray, np.generic)) and x.ndim == 0:
        return x.item()
    return x


@dataclass
class Verdict:
    """Outcome of one named check.

    ``slack`` is the worst normalized slack (negative is a violation),
    ``passed`` the decision, ``config`` the configuration the check ran on
    (set by the suites) and ``detail`` the named parts behind the slack.
    A check of one run holds Python numbers; a check of the K runs of a
    lockstep batch holds ``(K,)`` arrays in ``slack``, ``passed`` and the
    detail values, one entry per run.
    """

    check: str
    slack: float
    passed: bool
    config: str = ""
    detail: dict = field(default_factory=dict)

    @classmethod
    def of(cls, check, slack, detail=None, *, tol=SLACK_TOL):
        """The verdict that passes exactly when ``slack >= -tol``, per run."""
        slack = _plain(slack)
        passed = _plain(slack >= -tol)
        detail = {key: _plain(value) for key, value in (detail or {}).items()}
        return cls(check, slack, passed, detail=detail)

    @classmethod
    def of_parts(cls, check, parts, *, tol=SLACK_TOL):
        """The verdict on the worst of the named slacks ``parts``, its detail."""
        return cls.of(check, functools.reduce(np.minimum, parts.values()), parts, tol=tol)


class _LockstepTrace:
    """Base of the engine traces: one run, or all K runs of a lockstep batch.

    A trace with ``run = k`` holds run k; with ``run = None`` it holds all
    runs, and each field named in ``_PER_RUN`` gains a leading axis of
    length K.  The duals ``y`` and conjugate values ``conj_y`` are read from
    the run record of the dual state ``state`` that the runs shared.
    """

    _PER_RUN = ()

    def _of_run(self, a):
        return a if self.run is None else a[self.run]

    @property
    def y(self):
        return self._of_run(self.state.record()[0])

    @property
    def conj_y(self):
        return self._of_run(self.state.record()[3])

    def rows(self):
        """The one-run traces of an all-runs trace, in run order."""
        count = len(getattr(self, self._PER_RUN[0]))
        return [
            replace(self, run=k, **{name: _plain(getattr(self, name)[k]) for name in self._PER_RUN})
            for k in range(count)
        ]


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
        if v.size and not (v.min() >= -1e-12 and v.max() <= 1.0 + 1e-12):
            raise ValueError("load coordinates must lie in [0, 1]")
        if not (gamma == 0.0 or abs(gamma - self.gamma_bar) <= 1e-15 * self.gamma_bar):
            raise ValueError(f"gamma={gamma} must be 0 or gamma_bar={self.gamma_bar}")
        if self.cum_gamma + gamma > 1.0 + self.gamma_bar + 1e-9:
            raise ValueError("multipliers would exceed their total budget of 1")

        y = self.next_iterate()
        conj_y = self.f.conj_many(y)
        if y.shape != v.shape:  # before the first step every run posts the same iterate
            y, conj_y = np.broadcast_to(y, v.shape), np.broadcast_to(conj_y, v.shape[:-1])
        for steps, value in zip(self._steps, (y, v, gamma, conj_y)):
            steps.append(value)
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


def _prefix_sums(a):
    """Row t holds the sum of the first t rows of ``a``, for t = 0..n.

    Added in step order, so each row equals the running sum the state
    kept while observing.
    """
    return np.cumsum(np.concatenate([np.zeros((1,) + a.shape[1:]), a]), axis=0)


def check_be_the_leader(state) -> Verdict:
    """Leader-gain dominance at every prefix.

    The banked gains of the one-step-ahead leader iterates, after the fake
    time-0 gain ``<y~_1, shift> - 4*conj(y~_1)``, must dominate the best
    fixed dual in hindsight at every t::

        gain_0 + sum_{s<=t} (<y~_{s+1}, v_s> - 4*gamma_s*conj(y~_{s+1}))
            >= 4*(1+gamma_{1:t}) * cost((shift + v_{1:t}) / (4*(1+gamma_{1:t})))

    Evaluated against the state's actual shift, so it holds for mutated
    runs too (it is a property of leader optimality, not of the shift).
    With the nominal shift the time-0 gain must also equal
    ``4*cost(p*ones)``; a mismatch gives slack -1.
    """
    f = state.f
    _, v, gamma, _ = state.record()
    w, y_next = state.leaders()
    y1 = f.grad(state.shift / 4.0)
    time0 = float(np.dot(y1, state.shift) - 4.0 * f.conjugate_value(y1))
    detail = {}
    floor = math.inf
    if np.array_equal(state.shift, np.full(f.m, 4.0 * f.p)):
        base = 4.0 * f.cost_at_p_ones()
        detail["time0_gain_matches"] = abs(time0 - base) <= 1e-9 * max(1.0, base)
        floor = math.inf if detail["time0_gain_matches"] else -1.0
    gains = np.vecdot(y_next, v) - 4.0 * gamma * f.conj_many(y_next)
    # The banked total after each step, added in step order from gain_0.
    lhs = np.cumsum(np.concatenate([[time0], gains]))[1:]
    rhs = 4.0 * (1.0 + _prefix_sums(gamma)[1:]) * f.eval_rows(w)
    return Verdict.of("be_the_leader", normalized_slack(lhs, rhs).min(initial=floor), detail)


def check_stability(state) -> Verdict:
    """Sandwich of each iterate by the next leader iterate.

    Coordinate-wise ``y_t <= y~_{t+1} <= 2*y_t`` at every t, plus the
    window on the gradient arguments: each coordinate ratio of the leader
    argument ``w~_{t+1}`` to the iterate's argument ``w_t`` lies in
    ``[1, 2**(1/p)]`` (slack -1 when it does not).
    """
    f = state.f
    y, v, gamma, _ = state.record()
    w_tilde, y_next = state.leaders()
    scale = 4.0 * (1.0 + _prefix_sums(gamma)[:-1, None] + state._regularizer)
    w_bar = (state.shift + _prefix_sums(v)[:-1]) / scale
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(w_bar > 0, w_tilde / w_bar, np.inf)
    arg_lo, arg_hi = float(ratio.min(initial=math.inf)), float(ratio.max(initial=-math.inf))
    window_ok = arg_lo >= 1.0 - 1e-12 and arg_hi <= 2.0 ** (1.0 / f.p) * (1.0 + 1e-12)
    sandwich = np.minimum(normalized_slack(y_next, y), normalized_slack(2.0 * y, y_next))
    slack = sandwich.min(initial=math.inf if window_ok else -1.0)
    return Verdict.of("stability", slack, {"arg_ratio_range": (arg_lo, arg_hi)})


def check_oco_guarantees(state) -> Verdict:
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
    base = f.cost_at_p_ones()
    inner = np.vecdot(y, v)
    fake_half = _prefix_sums(0.5 * inner - gamma * conj_y)[1:]
    inner_sum = _prefix_sums(inner)[-1]
    leader = (4.0 * f.p + _prefix_sums(v)[1:]) / (4.0 * (1.0 + _prefix_sums(gamma)[1:, None]))
    detail = {
        "regret_prefix": normalized_slack(fake_half, f.eval_rows(leader) - base).min(),
        "regret_final": normalized_slack(fake_half[-1], f.eval(state.cum_v / 8.0) - base),
        "size_control": normalized_slack(inner_sum + base, float(conj_y.max(initial=0.0)) / f.p),
    }
    if f.separable:
        conj_max = f.conjugate_value(y.max(axis=0, initial=0.0))
        detail["size_control_separable"] = normalized_slack(inner_sum + base, conj_max / f.p)
    return Verdict.of("oco_guarantees", min(detail.values()), detail)


def dominating_set(state):
    """Small set of iterates that e-dominates every iterate of the run.

    Returns ``(indices, witness, verdict)``: 1-based time indices (at most
    ``ceil(p)`` of them), the witness index for every step (the smallest
    chosen index at or after it), and a :class:`Verdict` whose slack
    certifies ``y_t <= e * y_witness(t)`` coordinate-wise.  Each step is
    scored at the coordinate where ``(e*y_w - y_t) / max(1, |e*y_w|)`` is
    least, and its slack there is :func:`normalized_slack`, which
    normalizes by ``|y_t|``.

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
    cum_gamma = _prefix_sums(gamma)[1:]
    lo = np.array([2.0 ** (i / f.p) - 1.0 for i in range(1, max(1, math.ceil(f.p)))])
    # The cumulative multiplier never decreases, so each interval's first
    # step is the first step at or past its lower end.
    entered = cum_gamma >= lo[:, None] - 1e-12
    if not entered.any(axis=1).all():
        raise AssertionError("multiplier schedule never crossed an interval")
    first = entered.argmax(axis=1)
    entry = cum_gamma[first]
    if not np.all((lo - 1e-12 <= entry) & (entry <= lo + state.gamma_bar + 1e-12)):
        raise AssertionError("chosen index fell outside its interval")
    indices = sorted(set((first + 1).tolist() + [n]))
    witness = np.array(indices)[np.searchsorted(indices, np.arange(1, n + 1))]
    yw = math.e * y[witness - 1]
    i = np.argmin((yw - y) / np.maximum(1.0, np.abs(yw)), axis=1)[:, None]
    slack = normalized_slack(np.take_along_axis(yw, i, 1), np.take_along_axis(y, i, 1)).min()
    return indices, witness, Verdict.of("dominating_set", slack, {"indices": indices})
