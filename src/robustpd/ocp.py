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

:func:`run_ocp_many` plays K realized sequences of one instance in
lockstep, which is how the harness replicates an instance; :func:`run_ocp`
is its single-sequence case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from robustpd.costs import SumOfPowers
from robustpd.oco import CheckReport, ConfigError, OcoState, normalized_slack

__all__ = [
    "FeasibleSet",
    "OcpRunTrace",
    "best_response",
    "run_ocp",
    "run_ocp_many",
    "check_cost_bound",
    "check_adversarial_charging",
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

    def minimize(self, y):
        """Lowest-index minimizer of ``<y, .>``; returns ``(index, option)``."""
        return _minimize_over(self, np.asarray(y, dtype=np.float64))

    def __repr__(self):
        return f"FeasibleSet({len(self)} options, m={self.m})"


def _menu(feasible):
    """The ``(k, m)`` option rows of a :class:`FeasibleSet` or a raw menu."""
    if isinstance(feasible, FeasibleSet):
        return feasible.options
    return np.asarray(feasible, dtype=np.float64)


def _best_rows(feasible, Y):
    """Minimizers of ``<y, .>`` for each row ``y`` of the ``(R, m)`` duals ``Y``.

    Returns the indices ``(R,)`` and the points ``(R, m)``.  A menu (a
    :class:`FeasibleSet` or a raw ``(k, m)`` array) scores all rows with one
    stacked matmul, which reduces each row as ``options @ y`` does, and
    breaks ties at the lowest index.  Any other object needs a
    ``minimize(y)`` hook (e.g. an exact polytope oracle), called once per
    row, that returns ``(index, point)`` or the point alone (index -1).
    """
    if isinstance(feasible, FeasibleSet) or not hasattr(feasible, "minimize"):
        options = _menu(feasible)
        stacked = np.broadcast_to(options, (len(Y),) + options.shape)
        idx = np.argmin(np.matmul(stacked, Y[:, :, None])[:, :, 0], axis=1)
        return idx, options[idx]
    picks = [feasible.minimize(y) for y in Y]
    picks = [p if isinstance(p, tuple) else (-1, np.asarray(p, dtype=np.float64)) for p in picks]
    return [idx for idx, _ in picks], [v for _, v in picks]


def _minimize_over(feasible, y):
    """``(index, point)`` minimizing ``<y, .>``: :func:`_best_rows` for one dual."""
    idx, v = _best_rows(feasible, y[None])
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
class OcpRunTrace:
    """Everything a post-run inequality check needs, per step and in total.

    The duals ``y``, chosen options ``v`` and conjugate values ``conj_y``
    are row ``run`` of the run record of the dual state that the run
    shared with the other sequences played in lockstep.
    """

    choice: np.ndarray  # (n,) option indices
    fake: np.ndarray  # (n,) fake costs <y,v> - gamma*conj(y)
    load: np.ndarray  # final cumulative load
    cost: float  # cost(load)
    gamma: float  # the per-step multiplier, 1/n
    labels: np.ndarray | None  # True at stochastic steps (accounting only)
    state: OcoState
    run: int = 0  # this run's row in the state's record

    @property
    def y(self):
        return self.state.record()[0][self.run]

    @property
    def v(self):
        return self.state.record()[1][self.run]

    @property
    def conj_y(self):
        return self.state.record()[3][self.run]

    @property
    def n(self):
        return self.choice.shape[0]

    def recompute_fake(self, t):
        y = self.y[t]
        return float(np.dot(y, self.v[t])) - self.gamma * self.conj_y[t]

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
    dual learner's cap.
    """
    return run_ocp_many(
        [sets], f, labels, disable_shift=disable_shift, disable_regularizer=disable_regularizer
    )[0]


def run_ocp_many(sequences, f, labels=None, *, disable_shift=False, disable_regularizer=False):
    """Run the primal-dual loop over K realized sequences in lockstep.

    The sequences have one length n and share ``labels``.  Returns one
    :class:`OcpRunTrace` per sequence, each equal bit for bit to a
    separate run: the runs share one dual state whose iterates and record
    carry one row per run, and at each step the rows that face the same
    feasible-set object are answered together.
    """
    if not sequences:
        return []
    n = len(sequences[0])
    if any(len(sets) != n for sets in sequences):
        raise ValueError("sequences run in lockstep need the same number of steps")
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
    runs = len(sequences)
    choice = np.empty((runs, n), dtype=np.int64)
    for t, step_sets in enumerate(zip(*sequences)):
        y = np.broadcast_to(state.next_iterate(), (runs, f.m))
        groups = {}
        for k, sets in enumerate(step_sets):
            groups.setdefault(id(sets), (sets, []))[1].append(k)
        v = np.empty((runs, f.m))
        for sets, rows in groups.values():
            choice[rows, t], v[rows] = _best_rows(sets, y[rows])
        state.observe(v, gamma)
    y, v, _, conj_y = state.record()
    fake = np.vecdot(y, v) - gamma * conj_y
    return [
        OcpRunTrace(
            choice=choice[k],
            fake=fake[k],
            load=load,
            cost=f.eval(load),
            gamma=gamma,
            labels=labels,
            state=state,
            run=k,
        )
        for k, load in enumerate(state.cum_v)
    ]


def check_cost_bound(trace) -> CheckReport:
    """Real cost of the run against its fake cost, in the scaled form.

    ``cost(load/8) <= sum_t fake_t - conj_max/(2p) + 1.5*cost(p*ones)``;
    for separable costs the middle term tightens to the conjugate of the
    coordinate-wise max dual.
    """
    f = trace.state.f
    lhs = f.eval(trace.load / 8.0)
    fake_total = float(trace.fake.sum())
    base = 1.5 * f.cost_at_p_ones()
    rhs = fake_total - float(trace.conj_y.max(initial=0.0)) / (2.0 * f.p) + base
    worst = normalized_slack(rhs, lhs)
    detail = {"nonseparable": worst}
    if f.separable:
        y_max = trace.y.max(axis=0, initial=0.0)
        rhs_sep = fake_total - f.conjugate_value(y_max) / (2.0 * f.p) + base
        sep = normalized_slack(rhs_sep, lhs)
        detail["separable"] = sep
        worst = min(worst, sep)
    return CheckReport("cost_bound", worst, detail)


def check_adversarial_charging(trace, alpha, opt_choices) -> CheckReport:
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
    y_adv = trace.y[adv]
    lhs = float(np.einsum("tm,tm->", y_adv, opt_choices)) - trace.gamma * float(
        trace.conj_y[adv].sum()
    )
    conj_max = float(trace.conj_y.max(initial=0.0))
    rhs1 = math.e * f.eval(alpha * v_opt) + (math.e * f.p / alpha) * conj_max
    worst = normalized_slack(rhs1, lhs)
    detail = {"max_form": worst}
    if f.separable:
        y_max = trace.y.max(axis=0, initial=0.0)
        rhs2 = f.eval(alpha * v_opt) + f.conjugate_value(y_max) / alpha
        sep = normalized_slack(rhs2, lhs)
        detail["pointwise_max_form"] = sep
        worst = min(worst, sep)
    return CheckReport(f"adversarial_charging(alpha={alpha:g})", worst, detail)


def effective_norm_power(p, m):
    """Norm power actually run for load balancing.

    Beyond ``log m`` all the norms agree up to a constant with the max, so
    the exponent is capped there; it can never drop below 2, the smallest
    order the dual learner's guarantees cover.
    """
    return min(float(p), max(2.0, float(math.ceil(math.log(m))))) if m > 1 else 2.0


def run_loadbalance(sets, p, m, labels=None):
    """Route jobs through the unit-weight power cost and report norms.

    Returns ``(trace, norm_requested, norm_effective)`` where the norms are
    the requested-p and effective-p norms of the final machine loads.
    """
    p_eff = effective_norm_power(p, m)
    f = SumOfPowers(np.ones(m), p_eff)
    trace = run_ocp(sets, f, labels)
    load = trace.load
    norm_req = float(np.sum(load**float(p)) ** (1.0 / p)) if np.any(load > 0) else 0.0
    norm_eff = float(trace.cost ** (1.0 / p_eff))
    return trace, norm_req, norm_eff


def check_homogeneous_equivalence(trace, stoch_mask, sets) -> CheckReport:
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
    return CheckReport(
        "homogeneous_equivalence", worst, {"choice_mismatches": mismatches}
    )
