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

Each observed step adds ``(y_t, v_t, gamma_t, conj(y_t))`` to the state's
run record, :meth:`OcoState.record`, which the engines' traces hold.
:meth:`OcoState.play` plays a block of steps whose loads answer the posted
duals, as the engines need, and :meth:`OcoState.observe` is its one-step
case; :meth:`OcoState.observe_steps` records, with the same bits, a whole
run whose loads are known up front.  :meth:`OcoState.leaders` derives from
the record the unregularized leader iterates
``grad( (4p*ones + v_{1:t}) / (4*(1 + gamma_{1:t})) )`` that the
gain-accounting checks compare against.  Each post-run check is one array
formula over the record, its prefix sums and the leaders: ``np.cumsum``
adds in step order as the running sums do, and ``np.vecdot``,
``eval_rows`` and ``conj_many`` reduce each row as ``np.dot``, ``eval``
and ``conjugate_value`` do, so each check gives its per-step loop's bits.

One state can also carry K runs in lockstep that share the multipliers:
it then observes ``(K, m)`` loads, posts ``(K, m)`` iterates (one row per
run, from the same formula), and records one row per run.  The post-run
checks take single-run states.  The engines share ``_lockstep_schedule``.
"""

from __future__ import annotations

import functools
import itertools
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


@dataclass
class _LockstepTrace:
    """Base of the engine traces: one run, or all K runs of a lockstep batch.

    ``f`` is the cost the dual learner ran, and ``y`` and ``conj_y`` are
    the duals and their conjugate values from its run record.  In an
    all-runs trace each field named in ``_PER_RUN`` gains a leading axis
    of length K, and :meth:`rows` splits them.
    """

    _PER_RUN = ()

    f: object  # CostFunction
    y: np.ndarray  # (n, m) posted duals
    conj_y: np.ndarray  # (n,) their conjugate values

    @property
    def n(self):
        return self.y.shape[-2]

    def rows(self):
        """The one-run traces of an all-runs trace, in run order."""
        return [
            replace(self, **{name: _plain(getattr(self, name)[k]) for name in self._PER_RUN})
            for k in range(len(self.y))
        ]


def _lockstep_schedule(at, f, labels):
    """The checked ``(at, labels, gamma)`` of K lockstep runs under the cost ``f``.

    ``at`` becomes a contiguous int64 ``(K, n)`` array, whose gathers are
    contiguous; ``labels`` must mark the n steps; the multiplier ``1/n``
    needs ``n >= 4p`` to respect the dual learner's cap.
    """
    at = np.ascontiguousarray(at, dtype=np.int64)
    n = at.shape[1]
    if n < 4.0 * f.p:
        raise ConfigError(f"need n >= 4p, got n={n} with p={f.p}")
    if labels is not None:
        labels = np.asarray(labels, dtype=bool)
        if labels.shape != (n,):
            raise ValueError("labels must mark each of the n steps")
    return at, labels, 1.0 / n


class OcoState:
    """Single-owner mutable state of one dual-learning run, or of K runs.

    Steps are recorded in blocks: by :meth:`play`, whose loads answer the
    posted duals (:meth:`observe` is its one-step case), or by
    :meth:`observe_steps`, a single run's steps whose loads are known up
    front.  Any split of a run into blocks gives the same bits.

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
        self._shift = np.array(self.shift[0])  # 0-d: the iterates add it without a broadcast
        self._regularizer = 0.0 if disable_regularizer else self.gamma_bar
        # Takes the shape of the observed loads at the first step.
        self.cum_v = np.zeros(f.m)
        self.cum_gamma = 0.0
        # y, v, gamma, conj(y), with a step axis: -2 of y and v, -1 of the others.
        self._record = (np.zeros((0, f.m)), np.zeros((0, f.m)), np.zeros(0), np.zeros(0))
        self._leader_cache = self._leader_cost_cache = self._prefix_cache = None

    def _iterates(self, cum_v, cum_gamma):
        """The iterates posted after the loads ``cum_v`` and multipliers ``cum_gamma``.

        The one home of the iterate formula.  One step passes its running
        sums: ``(m,)`` or ``(K, m)`` loads and a float.  A block of n steps
        passes the sums before each step: ``(n, m)`` loads and ``(n, 1)``
        multipliers, for ``(n, m)`` iterates.
        """
        return self.f.grad_many(
            (self._shift + cum_v) / (4.0 * (1.0 + cum_gamma + self._regularizer))
        )

    def next_iterate(self) -> np.ndarray:
        """The dual to post at the current step.  Does not mutate state.

        Shape ``(m,)`` before the first step and for a single run, else
        ``(K, m)``: one row per run.
        """
        return self._iterates(self.cum_v, self.cum_gamma)

    def _refuse_bad_steps(self, v, gamma, totals):
        """Raise ``ValueError`` naming the first step with an input out of range.

        ``v`` holds the loads of the steps about to be recorded, with a
        leading step axis; ``gamma`` lists their multipliers and ``totals``
        the multiplier totals after each of them.  Loads must lie in
        ``[0, 1 + 1e-12]``, with no tolerance below 0 so that every leader
        argument is nonnegative too; multipliers must lie in
        ``{0, gamma_bar}`` and totals within the budget of 1.  Steps are
        counted from 1 over the whole run.
        """
        gb = self.gamma_bar
        # Rows are tested one by one only when the block as a whole fails.
        loads_ok = v.min(initial=0.0) >= 0.0 and v.max(initial=0.0) <= 1.0 + 1e-12
        for t, (g, total) in enumerate(zip(gamma, totals)):
            if not (loads_ok or ((v[t] >= 0.0) & (v[t] <= 1.0 + 1e-12)).all()):
                reason = "load coordinates must lie in [0, 1]"
            elif not (g == 0.0 or abs(g - gb) <= 1e-15 * gb):
                reason = f"gamma={g} must be 0 or gamma_bar={gb}"
            elif total > 1.0 + gb + 1e-9:
                reason = "multipliers would exceed their total budget of 1"
            else:
                continue
            raise ValueError(f"step {len(self._record[2]) + t + 1}: {reason}")

    def _append(self, y, v, gamma, conj_y):
        # The first block becomes the record as it is; a later one is appended.
        block = (y, v, gamma, conj_y)
        if len(self._record[2]):
            block = tuple(
                np.concatenate(pair, axis=axis)
                for pair, axis in zip(zip(self._record, block), (-2, -2, -1, -1))
            )
        self._record = block
        self._leader_cache = self._leader_cost_cache = self._prefix_cache = None

    def play(self, respond, n, gamma):
        """Play n steps in lockstep, each load answering the dual posted before it.

        At step t of the block (counted from 0) the state posts the iterate
        ``y`` of the :meth:`_iterates` formula, and ``respond(t, y)`` returns
        the step's loads: ``(m,)`` for one run or ``(K, m)``, one row per
        run, in the same shape at every step; ``gamma`` is the multiplier of
        every step, shared by all runs.  Before a state's first step every
        run posts the same ``(m,)`` iterate.  The iterates and loads go into
        a step-major ``(n, K, m)`` record, made run-major after the loop.
        The whole block is then checked once, as :meth:`observe_steps`
        checks its block, and the conjugates of its iterates are one
        ``conj_many`` call; nothing is recorded if the check fails.  The
        running sums add in step order and ``conj_many`` reduces each row as
        it does alone, so the record holds the bits of n one-step blocks.
        """
        if not n:
            return
        m, cum_v = self.f.m, self.cum_v
        # The multiplier totals before the block and after each step, in step order.
        totals = list(itertools.accumulate([gamma] * n, initial=self.cum_gamma))
        try:
            for t in range(n):
                y = self._iterates(cum_v, totals[t])
                v = np.asarray(respond(t, y), dtype=np.float64)
                if v.ndim not in (1, 2) or v.shape[-1] != m or (
                    (t or len(self._record[2])) and v.shape != cum_v.shape
                ):
                    raise ValueError(
                        f"load has shape {v.shape}, expected ({m},) or (K, {m}) at every step"
                    )
                if not t:
                    y_rec, v_rec = np.empty((2, n) + v.shape)
                y_rec[t] = y
                v_rec[t] = v
                cum_v = cum_v + v
        except Exception:
            # A bad load can make a later step fail: name the bad step first.
            if t:
                self._refuse_bad_steps(v_rec[:t], [gamma] * t, totals[1 : t + 1])
            raise
        self._refuse_bad_steps(v_rec, [gamma] * n, totals[1:])
        y_rec, v_rec = (np.ascontiguousarray(a.swapaxes(0, -2)) for a in (y_rec, v_rec))
        self._append(y_rec, v_rec, np.full(n, gamma), self.f.conj_many(y_rec))
        self.cum_v, self.cum_gamma = cum_v, totals[-1]

    def observe(self, v, gamma):
        """Reveal ``(v_t, gamma_t)``, record the step, advance to step t+1.

        The one-step case of :meth:`play`: ``v`` is one load ``(m,)`` or one
        per run ``(K, m)``, in the same shape at every step, and ``gamma``
        is shared by all runs.
        """
        self.play(lambda t, y: v, 1, gamma)

    def observe_steps(self, v, gamma):
        """Observe n steps at once: loads ``(n, m)`` and multipliers ``(n,)``.

        For a single run whose loads do not depend on the posted duals.  It
        records what n calls of :meth:`observe` would, bit for bit: the
        running sums are ``np.cumsum`` prefix sums, which add in step order
        as :meth:`observe` does, and the iterates and their conjugates come
        from one ``grad_many`` and one ``conj_many`` over the n rows.  The
        whole block is checked before any of it is recorded.
        """
        # Copies: the record must not share the caller's arrays.
        v = np.array(v, dtype=np.float64, order="C")
        gamma = np.array(gamma, dtype=np.float64)
        m = self.f.m
        if v.ndim != 2 or v.shape[1] != m or gamma.shape != v.shape[:1] or self.cum_v.ndim != 1:
            raise ValueError(
                f"loads have shape {v.shape} and multipliers {gamma.shape}, "
                f"expected (n, {m}) and (n,) for a single run"
            )
        cum_v = np.cumsum(np.concatenate([self.cum_v[None], v]), axis=0)
        cum_gamma = np.cumsum(np.concatenate([[self.cum_gamma], gamma]))
        self._refuse_bad_steps(v, gamma.tolist(), cum_gamma[1:].tolist())

        y = self._iterates(cum_v[:-1], cum_gamma[:-1, None])
        self._append(y, v, gamma, self.f.conj_many(y))
        self.cum_v = cum_v[-1]
        self.cum_gamma = float(cum_gamma[-1])

    def record(self):
        """The run so far as arrays ``(y, v, gamma, conj_y)``, one row per step.

        ``y`` and ``v`` have shape ``(n, m)``; ``gamma`` and ``conj_y`` have
        shape ``(n,)``.  With K runs, ``y``, ``v`` and ``conj_y`` gain a
        leading axis of length K, so that ``y[k]`` is the contiguous
        ``(n, m)`` record of run k.  The arrays are shared between callers:
        read only.
        """
        return self._record

    def leaders(self):
        """Leader arguments and iterates after each step, one row per step.

        Row t-1 holds ``w_t = (shift + v_{1:t}) / (4*(1 + gamma_{1:t}))`` and
        ``grad(w_t)``, the iterate of the leader that has seen step t: one
        ``grad_many`` over the rows, which are nonnegative since every
        recorded load is.  Both arrays have shape ``(n, m)`` and are shared
        between callers: read only.
        """
        if self._leader_cache is None:
            cum_v, cum_gamma = self._prefix()
            w = (self.shift + cum_v[1:]) / (4.0 * (1.0 + cum_gamma[1:, None]))
            self._leader_cache = (w, self.f.grad_many(w))
        return self._leader_cache

    def _leader_costs(self):
        """``cost(w_t)`` of each leader argument of :meth:`leaders`, shape ``(n,)``.

        One ``eval_rows`` over the rows, computed once and shared between
        callers (read only).
        """
        if self._leader_cost_cache is None:
            self._leader_cost_cache = self.f.eval_rows(self.leaders()[0])
        return self._leader_cost_cache

    def _prefix(self):
        """:func:`_prefix_sums` of the recorded loads and multipliers, computed once: read only."""
        if self._prefix_cache is None:
            self._prefix_cache = (_prefix_sums(self._record[1]), _prefix_sums(self._record[2]))
        return self._prefix_cache

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


def _nominal_shift(state):
    """Whether the state shifts its leaders by the nominal ``4p`` in every coordinate."""
    return np.array_equal(state.shift, np.full(state.f.m, 4.0 * state.f.p))


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

    The conjugates are priced only at the steps with ``gamma_s > 0``: a
    zero-multiplier step's term is ``4*0*0.0``, the same ``0.0`` that
    ``4*0*c`` gives for any finite ``c``, so every gain keeps its bits.
    The leader costs on the right come from the state, which computes them
    once for this check and :func:`check_oco_guarantees`.
    """
    f = state.f
    _, v, gamma, _ = state.record()
    y_next = state.leaders()[1]
    y1 = f.grad_many(state.shift / 4.0)
    time0 = float(np.dot(y1, state.shift) - 4.0 * f.conj_many(y1))
    detail = {}
    floor = math.inf
    if _nominal_shift(state):
        base = 4.0 * f.cost_at_p_ones()
        detail["time0_gain_matches"] = abs(time0 - base) <= 1e-9 * max(1.0, base)
        floor = math.inf if detail["time0_gain_matches"] else -1.0
    active = np.flatnonzero(gamma)
    conj_next = np.zeros(len(gamma))
    conj_next[active] = f.conj_many(y_next.take(active, axis=0))
    gains = np.vecdot(y_next, v) - 4.0 * gamma * conj_next
    # The banked total after each step, added in step order from gain_0.
    lhs = np.cumsum(np.concatenate([[time0], gains]))[1:]
    rhs = 4.0 * (1.0 + state._prefix()[1][1:]) * state._leader_costs()
    return Verdict.of("be_the_leader", normalized_slack(lhs, rhs).min(initial=floor), detail)


def check_stability(state) -> Verdict:
    """Sandwich of each iterate by the next leader iterate.

    Coordinate-wise ``y_t <= y~_{t+1} <= 2*y_t`` at every t, plus the
    window on the gradient arguments: each coordinate ratio of the leader
    argument ``w~_{t+1}`` to the iterate's argument ``w_t`` lies in
    ``[1, 2**(1/p)]`` (slack -1 when it does not).
    """
    f = state.f
    y = state.record()[0]
    w_tilde, y_next = state.leaders()
    cum_v, cum_gamma = state._prefix()
    w_bar = (state.shift + cum_v[:-1]) / (4.0 * (1.0 + cum_gamma[:-1, None] + state._regularizer))
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
    3. The same with ``conj`` of the coordinate-wise max iterate in place
       of the max of ``conj``, the tighter form for separable costs.

    The right-hand sides use the nominal ``4p`` shift regardless of
    mutations: these are the guarantees being falsified, not internal
    identities.  Under the nominal shift the prefix form's leader
    arguments are the state's own, bit for bit, so their costs are the
    ones :func:`check_be_the_leader` reads; otherwise they are evaluated
    here.
    """
    f = state.f
    if not state.complete:
        raise ValueError("guarantee check requires multipliers summing to 1")
    y, v, gamma, conj_y = state.record()
    base = f.cost_at_p_ones()
    inner = np.vecdot(y, v)
    fake_half = _prefix_sums(0.5 * inner - gamma * conj_y)[1:]
    inner_sum = _prefix_sums(inner)[-1]
    if _nominal_shift(state):
        leader_costs = state._leader_costs()
    else:
        cum_v, cum_gamma = state._prefix()
        leader_costs = f.eval_rows((4.0 * f.p + cum_v[1:]) / (4.0 * (1.0 + cum_gamma[1:, None])))
    final = float(f.eval_rows(state.cum_v / 8.0))
    detail = {
        "regret_prefix": normalized_slack(fake_half, leader_costs - base).min(),
        "regret_final": normalized_slack(fake_half[-1], final - base),
        "size_control": normalized_slack(inner_sum + base, float(conj_y.max(initial=0.0)) / f.p),
        "size_control_separable": normalized_slack(
            inner_sum + base, float(f.conj_many(y.max(axis=0, initial=0.0))) / f.p
        ),
    }
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
    y = state.record()[0]
    cum_gamma = state._prefix()[1][1:]
    n = len(cum_gamma)
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
    at = np.argmin((yw - y) / np.maximum(1.0, np.abs(yw)), axis=1) + np.arange(0, y.size, f.m)
    slack = normalized_slack(yw.take(at), y.take(at)).min()
    return indices, witness, Verdict.of("dominating_set", slack, {"indices": indices})
