"""Primal-dual loop for online convex programming over finite menus.

At each step a finite menu of load vectors in ``[0,1]^m`` arrives, the
dual learner posts ``y_t``, and the primal picks the menu option that
minimizes the fake cost ``L(y, v) = <y, v> - (1/n) * conj(y)``; the term
in ``conj`` is constant in ``v``, so this is plain linear minimization
with ties broken by lowest option index.  The real cost of a run is
``cost(sum_t v_t)``.

The engine never sees which steps are adversarial and which are
stochastic; origin labels travel through the trace for the post-run
accounting only.

:func:`run_ocp_batch` plays K realized sequences of one instance in
lockstep, which is how the harness replicates an instance, and returns one
trace of all K runs; :func:`run_ocp` is its single-sequence case.  Every
check takes either kind of trace: on all K runs it computes one result per
run with the same formula it applies to one run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from robustpd.costs import SumOfPowers
from robustpd.oco import (
    ConfigError,
    OcoState,
    Verdict,
    _LockstepTrace,
    normalized_slack,
)

__all__ = [
    "FeasibleSet",
    "OcpRunTrace",
    "best_response",
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


def _menu(feasible):
    """The ``(k, m)`` option rows of a :class:`FeasibleSet`, or of a raw menu checked as one."""
    return (feasible if isinstance(feasible, FeasibleSet) else FeasibleSet(feasible)).options


def _menu_table(sets, m):
    """The menus of ``sets`` padded with zero rows into one ``(S, kmax, m)`` table.

    Also returns the ``(S, kmax)`` mask ``scored`` of the real options; a
    set with a ``minimize`` hook has none.
    """
    menus = [np.zeros((0, m)) if hasattr(s, "minimize") else _menu(s) for s in sets]
    table = np.zeros((len(menus), max([1, *map(len, menus)]), m))
    scored = np.zeros(table.shape[:2], dtype=bool)
    for j, options in enumerate(menus):
        table[j, : len(options)] = options
        scored[j, : len(options)] = True
    return table, scored


def _best_rows(options, Y, scored):
    """Minimizers of ``<y, .>`` for each row ``y`` of the ``(R, m)`` duals ``Y``.

    Row r picks from the menu ``options[r]`` of the ``(R, k, m)`` stack,
    among the options that ``scored[r]`` marks.  Each option scores
    ``np.dot(option, y)`` wherever it sits, so equal options tie exactly;
    padded slots score ``+inf``, and ties break at the lowest real index.
    Returns the indices ``(R,)`` and the points ``(R, m)``.
    """
    scores = np.where(scored, np.vecdot(options, Y[:, None, :]), np.inf)
    idx = np.argmin(scores, axis=1)
    return idx, options[np.arange(len(idx)), idx]


def _minimize_over(feasible, y):
    """``(index, point)`` minimizing ``<y, .>`` over one set, for one dual.

    A set with a ``minimize(y)`` hook answers with ``(index, point)`` or the
    point alone (index -1); a menu is scored by :func:`_best_rows`.
    """
    if hasattr(feasible, "minimize"):
        pick = feasible.minimize(y)
        return pick if isinstance(pick, tuple) else (-1, np.asarray(pick, dtype=np.float64))
    table, scored = _menu_table([feasible], len(y))
    idx, v = _best_rows(table, y[None], scored)
    return int(idx[0]), v[0]


def best_response(y, feasible, gamma, f):
    """Feasible point minimizing the fake cost: ``(index, point, fake_cost)``.

    ``feasible`` is a :class:`FeasibleSet`, a raw ``(k, m)`` menu array, or
    any object exposing ``minimize(y)`` (an exact linear-minimization
    oracle over, say, a polytope; the index is then -1).  The conjugate
    term is constant in the decision, so this is plain linear
    minimization; menu ties break at the lowest index.
    """
    y = np.asarray(y, dtype=np.float64)
    idx, v = _minimize_over(feasible, y)
    fake = float(np.dot(y, v)) - gamma * f.conjugate_value(y)
    return idx, v, fake


@dataclass
class OcpRunTrace(_LockstepTrace):
    """Everything a post-run inequality check needs, per step and in total.

    A trace holds one run (``run = k``, row k of the shared record), or all
    K runs of a lockstep batch (``run = None``): ``choice``, ``fake``,
    ``load``, ``cost`` and ``at`` then gain a leading axis of length K and
    every check computes one result per run.  ``sets[at[t]]`` is the
    feasible set faced at step t.
    """

    _PER_RUN = ("choice", "fake", "load", "cost", "at")

    choice: np.ndarray  # (n,) option indices
    fake: np.ndarray  # (n,) fake costs <y,v> - gamma*conj(y)
    load: np.ndarray  # final cumulative load
    cost: float  # cost(load)
    gamma: float  # the per-step multiplier, 1/n
    labels: np.ndarray | None  # True at stochastic steps (accounting only)
    state: OcoState
    sets: list  # the feasible sets that ``at`` indexes
    at: np.ndarray  # (n,) index into ``sets`` of the set faced at each step
    run: int | None = 0  # this run's row in the state's record; None: all runs

    @property
    def v(self):
        return self._of_run(self.state.record()[1])

    @property
    def n(self):
        return self.choice.shape[-1]

    def to_json(self) -> dict:
        return {
            "kind": "ocp_trace",
            "gamma": self.gamma,
            "steps": [
                {
                    "t": t + 1,
                    "y": self.y[t].tolist(),
                    "v": self.v[t].tolist(),
                    "choice": int(self.choice[t]),
                    "fake": float(self.fake[t]),
                    "origin": (
                        None
                        if self.labels is None
                        else ("stoch" if self.labels[t] else "adv")
                    ),
                }
                for t in range(self.n)
            ],
            "load": self.load.tolist(),
            "cost": self.cost,
        }


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
    equal bit for bit to a separate run: the runs share one dual state
    whose iterates and record carry one row per run, and at each step one
    gather from the padded menu table stacks every run's menu for one call
    of the scorer.  Sets with a ``minimize`` hook are asked once per run.
    """
    at = np.ascontiguousarray(at, dtype=np.int64)
    runs, n = at.shape
    if n < 4.0 * f.p:
        raise ConfigError(f"need n >= 4p, got n={n} with p={f.p}")
    if labels is not None:
        labels = np.asarray(labels, dtype=bool)
        if labels.shape != (n,):
            raise ValueError("labels must mark each of the n steps")
    gamma = 1.0 / n
    state = OcoState(
        f, gamma, disable_shift=disable_shift, disable_regularizer=disable_regularizer
    )
    choice = np.empty((runs, n), dtype=np.int64)
    table, scored = _menu_table(sets, f.m)
    hooked = ~scored.any(axis=1)
    for t in range(n):
        y = state.next_iterate()
        y = y if y.ndim == 2 else np.broadcast_to(y, (runs, f.m))
        j = at[:, t]
        choice[:, t], v = _best_rows(table[j], y, scored[j])
        for k in np.flatnonzero(hooked[j]).tolist():
            choice[k, t], v[k] = _minimize_over(sets[j[k]], y[k])
        state.observe(v, gamma)
    y, v, _, conj_y = state.record()
    return OcpRunTrace(
        choice=choice,
        fake=np.vecdot(y, v) - gamma * conj_y,
        load=state.cum_v,
        cost=f.eval_rows(state.cum_v),
        gamma=gamma,
        labels=labels,
        state=state,
        sets=list(sets),
        at=at,
        run=None,
    )


def _fake_total(trace, steps, choices):
    """``sum_{t in steps} L(y_t, o_t)``: the fake cost of other choices ``o``.

    ``steps`` selects steps of the trace and ``choices`` holds one row per
    selected step, shared by all runs or with a leading run axis.  One
    value per run.  Every operand is copied to a contiguous array first:
    selecting steps of a ``(K, n, m)`` record, or gathering choices with
    such a selection, can give a strided array, and ``einsum`` and ``sum``
    reduce one of those in another order than one run's rows.
    """
    y = np.ascontiguousarray(trace.y[..., steps, :])
    conj_y = np.ascontiguousarray(trace.conj_y[..., steps])
    choices = np.ascontiguousarray(choices)
    return np.einsum("...tm,...tm->...", y, choices) - trace.gamma * conj_y.sum(axis=-1)


def check_cost_bound(trace) -> Verdict:
    """Real cost of the run against its fake cost, in the scaled form.

    ``cost(load/8) <= sum_t fake_t - conj_max/(2p) + 1.5*cost(p*ones)``;
    for separable costs the middle term tightens to the conjugate of the
    coordinate-wise max dual.
    """
    f = trace.state.f
    lhs = f.eval_rows(trace.load / 8.0)
    fake_sum = trace.fake.sum(axis=-1)
    base = 1.5 * f.cost_at_p_ones()
    rhs = fake_sum - trace.conj_y.max(axis=-1, initial=0.0) / (2.0 * f.p) + base
    parts = {"nonseparable": normalized_slack(rhs, lhs)}
    if f.separable:
        y_max = trace.y.max(axis=-2, initial=0.0)
        rhs_sep = fake_sum - f.conj_many(y_max) / (2.0 * f.p) + base
        parts["separable"] = normalized_slack(rhs_sep, lhs)
    return Verdict.of_parts("cost_bound", parts)


def check_adversarial_charging(trace, alpha, opt_choices) -> Verdict:
    """Fake cost of the offline choices on the adversarial steps.

    With ``vOPT = sum of opt_choices`` and any ``alpha >= 1``::

        sum_{t in Adv} L(y_t, v*_t) <= e*cost(alpha*vOPT) + (e*p/alpha)*conj_max
        sum_{t in Adv} L(y_t, v*_t) <= cost(alpha*vOPT) + conj(max_t y_t)/alpha

    The second form is why the separable engine can afford the smaller
    ``alpha``; it is checked whenever the cost is separable.
    """
    if alpha < 1.0:
        raise ValueError("alpha must be at least 1")
    f = trace.state.f
    if trace.labels is None:
        raise ValueError("adversarial charging needs origin labels")
    adv = ~trace.labels
    opt_choices = np.asarray(opt_choices, dtype=np.float64).reshape(-1, f.m)
    if opt_choices.shape[0] != int(adv.sum()):
        raise ValueError("one offline choice per adversarial step required")
    v_opt = opt_choices.sum(axis=0) if opt_choices.size else np.zeros(f.m)
    cost_opt = f.eval(alpha * v_opt)
    lhs = _fake_total(trace, adv, opt_choices)
    conj_max = trace.conj_y.max(axis=-1, initial=0.0)
    rhs1 = math.e * cost_opt + (math.e * f.p / alpha) * conj_max
    parts = {"max_form": normalized_slack(rhs1, lhs)}
    if f.separable:
        y_max = trace.y.max(axis=-2, initial=0.0)
        rhs2 = cost_opt + f.conj_many(y_max) / alpha
        parts["pointwise_max_form"] = normalized_slack(rhs2, lhs)
    return Verdict.of_parts(f"adversarial_charging(alpha={alpha:g})", parts)


def check_best_response(trace) -> Verdict:
    """Certificate that every choice of the run is a best response to its dual.

    At each step t the chosen load ``v_t`` must score no more than any
    option ``o`` of the menu faced, up to rounding::

        <y_t, v_t> <= min_o <y_t, o> + 1e-12 * max(1, |min_o <y_t, o>|)

    and where the menu repeats the chosen option row exactly, the choice
    must be its first occurrence (the lowest-index tie-break).  Computed
    from the record and the menus, without the engine's scorer.  The slack
    is the worst normalized margin over the steps, or -1 where a tie went
    to a later index.  Every set faced must be a menu: a
    :class:`FeasibleSet` or a raw option array.
    """
    if any(hasattr(s, "minimize") for s in trace.sets):
        raise ValueError("the best-response certificate needs finite menus")
    padded, scored = _menu_table(trace.sets, trace.state.f.m)
    same = (padded[:, :, None, :] == padded[:, None, :, :]).all(axis=-1)
    first = scored & ~np.tril(same, -1).any(axis=-1)
    y = trace.y
    scores = np.einsum("...km,...m->...k", padded[trace.at], y)
    best = np.where(scored[trace.at], scores, np.inf).min(axis=-1)
    margin = (best - np.vecdot(y, trace.v)) / np.maximum(1.0, np.abs(best))
    worst = margin.min(axis=-1)
    ties_first = first[trace.at, trace.choice].all(axis=-1)
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
    return trace, _p_norm(trace.load, p), float(trace.cost ** (1.0 / f.p))


def check_homogeneous_equivalence(trace, stoch_mask, sets) -> Verdict:
    """Invariance of the choices under the oracle-informed multipliers.

    Re-derives the duals that the run would have produced had it known the
    stochastic steps (multiplier ``1/|Stoch|`` there, 0 elsewhere).  For a
    homogeneous cost each re-derived dual must be a positive scalar
    multiple of the original and must select the same option index under
    the shared lowest-index tie-break.
    """
    f = trace.state.f
    if not f.homogeneous:
        raise ValueError("equivalence check requires a homogeneous cost")
    stoch_mask = np.asarray(stoch_mask, dtype=bool)
    n = trace.n
    n_stoch = int(stoch_mask.sum())
    if n_stoch < 4.0 * f.p:
        raise ConfigError(f"need |Stoch| >= 4p, got {n_stoch} with p={f.p}")
    gamma_mod = 1.0 / n_stoch
    state = OcoState(f, gamma_mod)
    worst = math.inf
    mismatches = 0
    for t in range(n):
        y_mod = state.next_iterate()
        y_std = trace.y[t]
        pos = y_std > 1e-300
        if np.any(pos):
            ratios = y_mod[pos] / y_std[pos]
            spread = float(ratios.max() - ratios.min()) / max(1.0, float(ratios.max()))
            worst = min(worst, 1e-9 - spread)
            if ratios.max() <= 0.0:
                worst = -1.0
        if np.any(y_mod[~pos] > 1e-12):
            worst = -1.0
        idx_mod, _ = _minimize_over(sets[t], y_mod)
        if idx_mod != int(trace.choice[t]):
            mismatches += 1
        state.observe(trace.v[t], gamma_mod if stoch_mask[t] else 0.0)
    if mismatches:
        worst = -1.0
    return Verdict.of("homogeneous_equivalence", worst, {"choice_mismatches": mismatches})
