"""Primal-dual loop for online convex programming over finite menus.

At each step a finite menu of load vectors in ``[0,1]^m`` arrives, the
dual learner posts ``y_t``, and the primal picks the menu option of least
fake cost ``L(y, v) = <y, v> - (1/n) * conj(y)``; the term in ``conj`` is
constant in ``v``, so this is the option of least ``<y, v>``, with ties
broken by lowest option index.  The real cost of a run is
``cost(sum_t v_t)``.  A menu is a :class:`FeasibleSet` or a raw option
array, the only form an instance file holds.

The engine never sees which steps are adversarial and which are
stochastic; origin labels travel through the trace for the post-run
accounting only.

:func:`run_ocp_batch` plays K realized sequences of one instance in
lockstep, which is how the harness replicates an instance, and returns one
trace of all K runs; :func:`run_ocp` is its single-sequence case.  The
trace holds the cost, the dual state's record arrays and the engine's
padded menu table, so the checks read the menus, the record and the
origin labels from the trace alone.  Every
check except :func:`check_homogeneous_equivalence`, which re-runs the
dual learner of one run, takes either kind of trace: on all K runs it
computes one result per run with the same formula it applies to one run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from robustpd.costs import SumOfPowers, _vecdot
from robustpd.oco import (
    ConfigError,
    OcoState,
    Verdict,
    _LockstepTrace,
    _lockstep_schedule,
    normalized_slack,
)

__all__ = [
    "FeasibleSet",
    "OcpRunTrace",
    "run_ocp",
    "run_ocp_batch",
    "check_cost_bound",
    "check_adversarial_charging",
    "check_best_response",
    "run_loadbalance",
    "check_homogeneous_equivalence",
    "effective_norm_power",
]


class FeasibleSet:
    """A finite, nonempty menu of load vectors in ``[0,1]^m``."""

    def __init__(self, options):
        options = np.asarray(options, dtype=np.float64)
        if options.ndim != 2 or options.shape[0] < 1:
            raise ValueError("a feasible set needs at least one option vector")
        if np.any(options < -1e-12) or np.any(options > 1.0 + 1e-12):
            raise ValueError("option coordinates must lie in [0, 1]")
        self.options = np.clip(options, 0.0, 1.0)

    def __len__(self):
        return self.options.shape[0]

    @property
    def m(self):
        return self.options.shape[1]

    def __repr__(self):
        return f"FeasibleSet({len(self)} options, m={self.m})"


def _menus(sets, m):
    """The ``(k, m)`` option rows of each of ``sets``.

    A set is a :class:`FeasibleSet` or a raw menu, checked as one; a menu
    whose options are not m wide is refused.
    """
    menus = []
    for j, feasible in enumerate(sets):
        options = (feasible if isinstance(feasible, FeasibleSet) else FeasibleSet(feasible)).options
        if options.shape[1] != m:
            raise ValueError(f"set {j} has options of width {options.shape[1]}, expected {m}")
        menus.append(options)
    return menus


def _menu_table(sets, m):
    """The menus of ``sets``, padded with copies of their option 0, as one ``(S, kmax, m)`` table.

    Also returns the ``(S, kmax)`` mask ``scored`` of the real options.
    """
    menus = _menus(sets, m)
    sizes = np.array([len(options) for options in menus], dtype=np.int64)
    table = np.empty((len(menus), max([1, *sizes]), m))
    for j, options in enumerate(menus):
        table[j] = options[0]
        table[j, : len(options)] = options
    return table, np.arange(table.shape[1]) < sizes[:, None]


def _best_rows(options, Y, rows, out=None):
    """Minimizers of ``<y, .>`` over each menu of the ``(R, k, m)`` stack ``options``.

    Menu r faces row r of the ``(R, m)`` duals ``Y``, or the one ``(m,)``
    dual ``Y``; each option scores ``_vecdot(option, y)`` wherever it sits,
    so equal options tie exactly, and ``argmin`` picks the first least
    score (or NaN), never a :func:`_menu_table` pad: it scores as the
    option 0 it copies, which comes first.  ``rows`` is ``k * np.arange(R)``.
    Returns the indices ``(R,)``, into ``out`` when given, and the points.
    """
    idx = _vecdot(options, Y[..., None, :]).argmin(axis=1, out=out)
    return idx, options.reshape(-1, options.shape[-1]).take(idx + rows, 0)


@dataclass
class OcpRunTrace(_LockstepTrace):
    """Everything a post-run inequality check needs, per step and in total.

    A trace holds one run, or all K runs of a lockstep batch: the fields
    named in ``_PER_RUN`` then gain a leading axis of length K and each
    batch check computes one result per run.  ``table[at[t]]`` holds the
    menu faced at step t, padded with copies of its option 0 that
    ``scored[at[t]]`` leaves unmarked.
    """

    _PER_RUN = ("y", "v", "conj_y", "choice", "load", "cost", "at")

    v: np.ndarray  # (n, m) chosen loads
    choice: np.ndarray  # (n,) option indices
    load: np.ndarray  # final cumulative load
    cost: float  # cost(load)
    gamma: float  # the per-step multiplier, 1/n
    labels: np.ndarray | None  # True at stochastic steps (accounting only)
    table: np.ndarray  # (S, kmax, m) the menus that ``at`` indexes, padded
    scored: np.ndarray  # (S, kmax) True at the real options of each menu
    at: np.ndarray  # (n,) index into ``table`` of the menu faced at each step

    @functools.cached_property
    def _inner(self):
        """``<y_t, v_t>`` per step, once per trace; a ``rows`` or ``replace`` copy has its own."""
        return _vecdot(self.y, self.v)

    @functools.cached_property
    def fake(self):
        """The ``(n,)`` fake costs ``<y_t, v_t> - gamma * conj(y_t)``."""
        return self._inner - self.gamma * self.conj_y

    @functools.cached_property
    def _conj_terms(self):
        """``max_t conj(y_t)`` and ``conj(max_t y_t)`` per run, computed once per trace."""
        # Along a contiguous step axis: over the middle axis numpy makes one pass per dual.
        y_max = np.ascontiguousarray(self.y.mT).max(axis=-1, initial=0.0)
        return self.conj_y.max(axis=-1, initial=0.0), self.f.conj_many(y_max)

    @functools.cached_property
    def _scaled_cost(self):
        """``cost(load / 8)`` per run, computed once per trace."""
        return self.f.eval_rows(self.load / 8.0)

    def _adv_fake(self, opt_choices):
        """:func:`_fake_total` of offline choices on the adversarial steps, once per choices."""
        memo, key = self.__dict__.setdefault("_adv_fakes", {}), opt_choices.tobytes()
        if key not in memo:
            memo[key] = _fake_total(self, ~self.labels, opt_choices)
        return memo[key]


def run_ocp(sets, f, labels=None, *, disable_shift=False, disable_regularizer=False):
    """Run the primal-dual loop over a realized sequence of feasible sets.

    Requires ``n >= 4p`` so the uniform multiplier ``1/n`` respects the
    dual learner's cap.  The one run of :func:`run_ocp_batch`.
    """
    sets = list(sets)
    return run_ocp_batch(
        sets, np.arange(len(sets))[None], f, labels,
        disable_shift=disable_shift, disable_regularizer=disable_regularizer,
    ).rows()[0]


def run_ocp_batch(sets, at, f, labels=None, *, disable_shift=False, disable_regularizer=False):
    """Run the primal-dual loop for K runs in lockstep; returns the all-runs trace.

    Run k faces the feasible set ``sets[at[k, t]]`` at step t.  Each run is
    equal bit for bit to a separate run: the runs share one dual state,
    which plays the n steps with :meth:`OcoState.play` and whose iterates
    and record carry one row per run.  One gather from the padded menu
    table stacks the menus of every step and run, and each step makes one
    call of the scorer for all runs, into the choice table.  Each set is a
    :class:`FeasibleSet` or a raw option array, checked as one.
    """
    at, labels, gamma = _lockstep_schedule(at, f, labels)
    runs, n = at.shape
    state = OcoState(
        f, gamma, disable_shift=disable_shift, disable_regularizer=disable_regularizer
    )
    choice = np.empty((n, runs), dtype=np.int64)
    table, scored = _menu_table(sets, f.m)
    # One gather per block, by take (advanced indexing costs far more per call): menus[t]
    # is contiguous.
    menus, rows = table.take(at.T, 0), table.shape[1] * np.arange(runs)

    def respond(t, y):
        # _best_rows is looked up at each call, where a test may patch it.
        return _best_rows(menus[t], y, rows, choice[t])[1]

    state.play(respond, n, gamma)
    y, v, _, conj_y = state.record()
    return OcpRunTrace(
        f=f,
        y=y, v=v, conj_y=conj_y,
        choice=np.ascontiguousarray(choice.T),
        load=state.cum_v,
        cost=f.eval_rows(state.cum_v),
        gamma=gamma,
        labels=labels,
        table=table,
        scored=scored,
        at=at,
    )


def _fake_total(trace, steps, choices):
    """``sum_{t in steps} L(y_t, o_t)``: the fake cost of other choices ``o``.

    ``steps`` is a boolean mask over the steps of the trace and ``choices``
    holds one row per selected step, shared by all runs or with a leading
    run axis.  One value per run.  Every operand is a contiguous array:
    ``einsum`` and ``sum`` reduce a strided one in another order than one
    run's rows.  ``compress`` selects the steps into a contiguous copy.
    """
    y, conj_y = trace.y.compress(steps, -2), trace.conj_y.compress(steps, -1)
    choices = np.ascontiguousarray(choices)
    return np.einsum("...tm,...tm->...", y, choices) - trace.gamma * conj_y.sum(axis=-1)


def check_cost_bound(trace) -> Verdict:
    """Real cost of the run against its fake cost, in the scaled form.

    ``cost(load/8) <= sum_t fake_t - conj_max/(2p) + 1.5*cost(p*ones)``,
    and the same with the conjugate of the coordinate-wise max dual in
    place of ``conj_max``, the tighter form for separable costs.
    """
    f, lhs = trace.f, trace._scaled_cost
    fake_sum = trace.fake.sum(axis=-1)
    base = 1.5 * f.cost_at_p_ones()
    conj_max, conj_of_max = trace._conj_terms
    rhs = fake_sum - conj_max / (2.0 * f.p) + base
    rhs_sep = fake_sum - conj_of_max / (2.0 * f.p) + base
    parts = {
        "nonseparable": normalized_slack(rhs, lhs),
        "separable": normalized_slack(rhs_sep, lhs),
    }
    return Verdict.of_parts("cost_bound", parts)


def check_adversarial_charging(trace, alpha, opt_choices) -> Verdict:
    """Fake cost of the offline choices on the adversarial steps.

    With ``vOPT = sum of opt_choices`` and any ``alpha >= 1``::

        sum_{t in Adv} L(y_t, v*_t) <= e*cost(alpha*vOPT) + (e*p/alpha)*conj_max
        sum_{t in Adv} L(y_t, v*_t) <= cost(alpha*vOPT) + conj(max_t y_t)/alpha

    The second form, valid for separable costs, is why the engine can
    afford the smaller ``alpha``.
    """
    if alpha < 1.0:
        raise ValueError("alpha must be at least 1")
    f = trace.f
    if trace.labels is None:
        raise ValueError("adversarial charging needs origin labels")
    opt_choices = np.asarray(opt_choices, dtype=np.float64).reshape(-1, f.m)
    if opt_choices.shape[0] != int((~trace.labels).sum()):
        raise ValueError("one offline choice per adversarial step required")
    v_opt = opt_choices.sum(axis=0) if opt_choices.size else np.zeros(f.m)
    cost_opt = float(f.eval_rows(alpha * v_opt))  # a sum of checked menu rows
    lhs = trace._adv_fake(opt_choices)
    conj_max, conj_of_max = trace._conj_terms
    rhs1 = math.e * cost_opt + (math.e * f.p / alpha) * conj_max
    rhs2 = cost_opt + conj_of_max / alpha
    parts = {
        "max_form": normalized_slack(rhs1, lhs),
        "pointwise_max_form": normalized_slack(rhs2, lhs),
    }
    return Verdict.of_parts(f"adversarial_charging(alpha={alpha:g})", parts)


def check_best_response(trace) -> Verdict:
    """Certificate that every choice of the run is a best response to its dual.

    At each step t the chosen load ``v_t`` must score no more than any
    option ``o`` of the menu faced, up to rounding::

        <y_t, v_t> <= min_o <y_t, o> + 1e-12 * max(1, |min_o <y_t, o>|)

    and where the menu repeats the chosen option row exactly, the choice
    must be its first occurrence (the lowest-index tie-break).  Computed from the
    record (its ``<y_t, v_t>`` shared with the fake costs) and the menus, not the scorer.
    The slack is the worst normalized margin over the steps, or -1 where a
    tie went to a later index.  Gathers are by ``take``, the choices' flags
    from the flat ``(S * kmax,)`` first-occurrence flags.
    """
    padded, scored, at = trace.table, trace.scored, trace.at
    same = (padded[:, :, None, :] == padded[:, None, :, :]).all(axis=-1)
    slot = np.arange(padded.shape[1])  # an option equal to an earlier one is no first occurrence
    first = scored & ~(same & (slot[:, None] > slot)).any(axis=-1)
    # Scored with the engine's kernel, so equal options tie exactly here too.
    scores = _vecdot(padded.take(at, 0), trace.y[..., None, :])
    np.putmask(scores, (~scored).take(at, 0), np.inf)
    # One option slot at a time: numpy's min over a short last axis is slow.
    best = functools.reduce(np.minimum, (scores[..., j] for j in range(scores.shape[-1])))
    margin = (best - trace._inner) / np.maximum(1.0, np.abs(best))
    worst = margin.min(axis=-1)
    ties_first = first.take(at * first.shape[1] + trace.choice).all(axis=-1)
    return Verdict.of(
        "best_response",
        np.where(ties_first, worst, -1.0),
        {"margin": worst, "ties_first": ties_first},
        tol=1e-12,
    )


def effective_norm_power(p, m):
    """Norm power actually run for load balancing.

    Beyond ``log m`` all the norms agree up to a constant with the max, so
    the exponent is capped there; it can never drop below 2, the smallest
    order the dual learner's guarantees cover.
    """
    return min(float(p), max(2.0, float(math.ceil(math.log(m))))) if m > 1 else 2.0


def _loadbalance_cost(p, m):
    """The unit-weight cost ``||x||_q ** q`` that load balancing runs.

    ``q = effective_norm_power(p, m)``, so the ``1/q``-th power of a run's
    cost is the effective norm of its final load.
    """
    return SumOfPowers(np.ones(m), effective_norm_power(p, m))


def _effective_norm(cost, q):
    """``cost ** (1/q)`` as a Python power: numpy's power of an array need not round the same."""
    return float(cost) ** (1.0 / q)


def _p_norm(load, p):
    """``||load||_p`` of a nonnegative load vector."""
    return float(np.sum(np.asarray(load, dtype=np.float64) ** float(p)) ** (1.0 / p))


def run_loadbalance(sets, p, m, labels=None):
    """Route jobs through the unit-weight power cost and report norms.

    Returns ``(trace, norm_requested, norm_effective)`` where the norms are
    the requested-p and effective-p norms of the final machine loads.
    """
    f = _loadbalance_cost(p, m)
    trace = run_ocp(sets, f, labels)
    return trace, _p_norm(trace.load, p), _effective_norm(trace.cost, f.p)


def check_homogeneous_equivalence(trace) -> Verdict:
    """Invariance of the choices under the oracle-informed multipliers.

    Re-derives the duals that the run would have produced had it known the
    stochastic steps (multiplier ``1/|Stoch|`` there, 0 elsewhere), which
    the trace's origin labels mark.  For a homogeneous cost each re-derived
    dual must be a positive scalar multiple of the original and must select
    the same option index under the shared lowest-index tie-break.  The
    slack is the worst ``1e-9 - spread`` of the coordinate ratios over the
    steps, or -1 where a ratio is not positive, a re-derived dual is
    positive where the original is not, or a choice differs.  Takes a
    one-run trace.
    """
    f = trace.f
    if not f.homogeneous:
        raise ValueError("equivalence check requires a homogeneous cost")
    if trace.labels is None:
        raise ValueError("the equivalence check needs origin labels")
    n_stoch = int(trace.labels.sum())
    if n_stoch < 4.0 * f.p:
        raise ConfigError(f"need |Stoch| >= 4p, got {n_stoch} with p={f.p}")
    gamma_mod = 1.0 / n_stoch
    state = OcoState(f, gamma_mod)
    state.observe_steps(trace.v, np.where(trace.labels, gamma_mod, 0.0))
    y_mod, y_std = state.record()[0], trace.y
    pos = y_std > 1e-300
    ratios = y_mod / np.where(pos, y_std, 1.0)
    hi = np.where(pos, ratios, -np.inf).max(axis=1)
    lo = np.where(pos, ratios, np.inf).min(axis=1)
    some = pos.any(axis=1)
    # The ratios are nonnegative, so spread lies in [0, 1] and -1 is the least slack.
    spread = (hi - lo) / np.maximum(1.0, hi)
    worst = np.where(some, 1e-9 - spread, np.inf).min()
    rows = trace.table.shape[1] * np.arange(trace.n)
    idx_mod, _ = _best_rows(trace.table.take(trace.at, 0), y_mod, rows)
    mismatches = int((idx_mod != trace.choice).sum())
    if mismatches or (some & (hi <= 0.0)).any() or (~pos & (y_mod > 1e-12)).any():
        worst = -1.0
    return Verdict.of("homogeneous_equivalence", worst, {"choice_mismatches": mismatches})
