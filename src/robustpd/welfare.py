"""Primal-dual welfare maximization with convex production costs.

Requests arrive online as ``(c_t, a_t)`` pairs: a finite reward of any
sign and a consumption in ``[0,1]^m``, checked on entry.  The algorithm picks a fulfillment level in
``[0,1]`` per request to maximize ``sum_t c_t*x_t - cost(sum_t a_t*x_t)``.
Against the current dual the fake profit ``c*x - L(y, a*x)`` is linear in
``x``, so the virtual play is 0/1: accept exactly when ``c > <y, a>``
(ties decline).  The committed play is the virtual play scaled by 1/64;
the scaling is what turns the additive regret of the dual learner into a
multiplicative profit guarantee, via the at-least-quadratic growth of the
cost.

Costs with a linear part are reduced up front: rewards become
``c_t - <slopes, a_t>`` and the run uses the pure power part.  The linear
part cancels exactly in the profit of any play, so the reported profit on
the original instance equals the reduced run's profit.

:func:`run_welfare_batch` plays K realized request sequences in lockstep,
which is how the harness replicates an instance, and returns one trace of
all K runs; :func:`run_welfare` is its single-sequence case.  The trace
holds the reduced run's cost and its record arrays, and
:func:`check_accept_rule` and :func:`check_profit_chain_step` certify each
of its runs from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from robustpd.costs import SumOfPowers
from robustpd.oco import (
    ConfigError,
    OcoState,
    Verdict,
    _LockstepTrace,
    _lockstep_schedule,
    normalized_slack,
)

__all__ = [
    "PLAY_SCALE",
    "WelfareTrace",
    "run_welfare",
    "run_welfare_batch",
    "check_accept_rule",
    "check_profit_chain_step",
]

# Committed fraction of an accepted request: 1/8**2, load-bearing in the
# profit guarantee (cost((1/64)w) <= (1/64) cost((1/8)w) needs the square).
PLAY_SCALE = 1.0 / 64.0


def _split_requests(requests, m):
    """Float64 rewards ``c`` (n,) and consumptions ``A`` (n, m) of ``(c, a)`` pairs.

    Refuses, naming request j (from 0), a consumption that is not ``(m,)``
    or leaves ``[0, 1]`` and a reward that is not finite: a ``ValueError``.
    """
    c = np.array([pair[0] for pair in requests], dtype=np.float64)
    A = [np.asarray(pair[1], dtype=np.float64) for pair in requests]
    for j, a in enumerate(A):
        if a.shape != (m,):
            raise ValueError(f"request {j}: consumption has shape {a.shape}, expected ({m},)")
    A = np.array(A).reshape(len(A), m)
    unit = ((A >= 0.0) & (A <= 1.0)).all(axis=1)
    bad = np.flatnonzero(~unit | ~np.isfinite(c))
    if bad.size:
        j = bad[0]
        reason = f"reward {c[j]} is not finite" if unit[j] else "consumption must lie in [0, 1]"
        raise ValueError(f"request {j}: {reason}")
    return c, A


def _accept(c, y, a):
    """The virtual plays for rewards ``c``, duals ``y`` and consumptions ``a``.

    1.0 where ``c - <y, a>`` is strictly positive, else 0.0: ties decline.
    Rows of ``y`` and ``a`` broadcast against each other and against ``c``.
    """
    return (c - np.vecdot(y, a) > 0.0).astype(np.float64)


@dataclass
class WelfareTrace(_LockstepTrace):
    """Per-step log of a welfare run, in the reduced (pure-power) view.

    A trace holds one run, or all K runs of a lockstep batch: the fields
    named in ``_PER_RUN`` then gain a leading axis of length K and each
    check computes one result per run.  ``f`` is the reduced run's cost.
    """

    _PER_RUN = ("y", "virtual_loads", "conj_y", "x_virtual", "c_reduced", "a", "profit",
                "reward_total", "cost_total")

    virtual_loads: np.ndarray  # (n, m) consumptions of the virtual plays
    x_virtual: np.ndarray  # (n,) virtual plays, each 0 or 1
    c_reduced: np.ndarray  # (n,) rewards after the linear-part reduction
    a: np.ndarray  # (n, m) consumption vectors
    gamma: float  # 1/n
    labels: np.ndarray | None
    profit: float  # on the original instance == reduced profit
    reward_total: float  # sum c_t * x~_t (original rewards)
    cost_total: float  # cost(sum a_t * x~_t) (original cost)

    @property
    def x_played(self):
        return PLAY_SCALE * self.x_virtual

    def fake_costs(self):
        """Per-step ``L(y_t, v_t)`` on the virtual loads."""
        inner = np.einsum("...tm,...tm->...t", self.y, self.virtual_loads)
        return inner - self.gamma * self.conj_y


def _reduce(c, a, f):
    """Split off the linear part; returns (reduced rewards, run cost)."""
    slopes = f.linear_slopes
    if slopes is not None and np.any(slopes > 0):
        c = c - a @ slopes
    return c, f.power_part() or f


def run_welfare(requests, f, labels=None):
    """Run the scaled primal-dual welfare loop over realized requests.

    Needs ``n >= 4p`` and a cost whose power part is a sum of powers, which
    grows at least quadratically since ``p >= 2``.  The one run of
    :func:`run_welfare_batch`.
    """
    requests = list(requests)
    return run_welfare_batch(requests, np.arange(len(requests))[None], f, labels).rows()[0]


def run_welfare_batch(requests, at, f, labels=None):
    """Run the welfare loop for K runs in lockstep; returns the all-runs trace.

    Run k receives the request ``requests[at[k, t]]`` at step t.  Each run
    is equal bit for bit to a separate run: the runs share one dual state
    whose iterates and record carry one row per run.
    """
    at, labels, gamma = _lockstep_schedule(at, f, labels)
    c_table, a_table = _split_requests(requests, f.m)
    c, A = c_table[at], a_table[at]  # (K, n), (K, n, m)
    # A stacked matmul reduces each run's rows as that run's own (n, m) matrix would.
    c_red, run_f = _reduce(c, A, f)
    if not isinstance(run_f, SumOfPowers):
        raise ConfigError(f"the welfare loop runs a sum of powers after reduction, got {run_f!r}")
    state = OcoState(run_f, gamma)
    # Step-major copies, so that the rows of step t are contiguous.
    c_steps, A_steps = np.ascontiguousarray(c_red.T), np.ascontiguousarray(A.transpose(1, 0, 2))
    x_steps = np.empty(c_steps.shape)

    def respond(t, y):
        x = x_steps[t] = _accept(c_steps[t], y, A_steps[t])
        return A_steps[t] * x[:, None]

    state.play(respond, at.shape[1], gamma)
    y, v, _, conj_y = state.record()
    x_virtual = np.ascontiguousarray(x_steps.T)
    x_played = PLAY_SCALE * x_virtual
    reward_total = np.vecdot(c, x_played)
    cost_total = f.eval_rows((np.swapaxes(A, 1, 2) @ x_played[:, :, None])[:, :, 0])
    return WelfareTrace(
        f=run_f,
        y=y, virtual_loads=v, conj_y=conj_y,
        x_virtual=x_virtual,
        c_reduced=c_red,
        a=A,
        gamma=gamma,
        labels=labels,
        profit=reward_total - cost_total,
        reward_total=reward_total,
        cost_total=cost_total,
    )


def check_accept_rule(trace) -> Verdict:
    """Certificate that every virtual play follows the accept rule.

    At each step the virtual play must be ``1[c_t > <y_t, a_t>]`` for the
    reduced reward ``c_t``, the posted dual ``y_t`` and the consumption
    ``a_t`` (ties decline), recomputed from the record and the step data
    without the engine's rule.  The slack is 0 where every play of the run
    follows the rule and -1 where one does not; the detail counts the
    steps that do not.
    """
    accept = trace.c_reduced > np.vecdot(trace.y, trace.a)
    wrong = (trace.x_virtual != accept).sum(axis=-1)
    return Verdict.of("accept_rule", np.where(wrong == 0, 0.0, -1.0), {"wrong_steps": wrong})


def check_profit_chain_step(trace, beta=None, opt_selector=None, drawn=None) -> Verdict:
    """Per-realization links of the profit guarantee.

    * accept-or-decline dominance: at every step the virtual fake profit
      is at least ``gamma*conj(y_t)`` (the value of declining) and, at
      stochastic steps, at least the fake profit of playing the offline
      selector's level scaled down by ``beta = n/|Stoch|``;
    * the committed profit is at least ``1/64`` of the virtual fake profit
      minus ``1/64`` of the additive unit ``cost(p*ones)`` (this is where
      the quadratic growth and the 1/64 scaling pay);
    * the reported profit is ``c . x - cost(a^T x)`` for the committed
      plays ``x = x_virtual/64`` in the reduced view, at the scale written
      here, not read from :data:`PLAY_SCALE`.

    ``opt_selector`` maps support index to the offline fractional level,
    ``drawn`` gives the support index drawn at each step (-1 where
    adversarial), with a leading run axis for an all-runs trace.
    """
    fake = trace.fake_costs()
    step_gain = trace.c_reduced * trace.x_virtual - fake
    virtual_profit = step_gain.sum(axis=-1)
    # Declining is always available: c*x - L(y, a*x) >= -L(y, 0) >= 0.
    decline = trace.gamma * trace.conj_y
    parts = {"decline_dominance": normalized_slack(step_gain, decline).min(axis=-1)}
    if opt_selector is not None:
        stoch = trace.labels
        # drawn is -1 at adversarial steps, which picks the appended level 0.
        level = np.append(np.asarray(opt_selector, dtype=np.float64), 0.0)[drawn]
        inner = np.einsum("...tm,...tm->...t", trace.y, trace.a)
        cand_gain = (trace.c_reduced - inner) * (level / beta) + decline
        cand_stoch = np.ascontiguousarray(cand_gain[..., stoch])
        slacks = normalized_slack(step_gain[..., stoch], cand_stoch)
        parts["selector_dominance"] = slacks.min(axis=-1, initial=0.0)
        parts["virtual_vs_scaled_offline"] = normalized_slack(
            virtual_profit, cand_stoch.sum(axis=-1)
        )
    rhs_scaled = PLAY_SCALE * (virtual_profit - trace.f.cost_at_p_ones())
    parts["scaled_profit"] = normalized_slack(trace.profit, rhs_scaled)
    x = trace.x_virtual / 64.0
    load = (np.swapaxes(trace.a, -1, -2) @ x[..., None])[..., 0]
    committed = np.vecdot(trace.c_reduced, x) - trace.f.eval_rows(load)
    parts["commit_scale"] = -abs(normalized_slack(committed, trace.profit))
    return Verdict.of_parts("profit_chain", parts)
