"""Primal-dual welfare maximization with convex production costs.

Requests ``(c_t, a_t)`` arrive online; the algorithm picks a fulfillment
level in ``[0,1]`` per request to maximize
``sum_t c_t*x_t - cost(sum_t a_t*x_t)``.  Against the current dual the
fake profit ``c*x - L(y, a*x)`` is linear in ``x``, so the virtual play is
0/1: accept exactly when ``c > <y, a>`` (ties decline).  The committed
play is the virtual play scaled by 1/64; the scaling is what turns the
additive regret of the dual learner into a multiplicative profit
guarantee, via the at-least-quadratic growth of the cost.

Costs with a linear part are reduced up front: rewards become
``c_t - <slopes, a_t>`` and the run uses the pure power part.  The linear
part cancels exactly in the profit of any play, so the reported profit on
the original instance equals the reduced run's profit.

:func:`run_welfare_many` plays K realized request sequences in lockstep,
which is how the harness replicates an instance; :func:`run_welfare` is
its single-sequence case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from robustpd.oco import CheckReport, ConfigError, OcoState, normalized_slack

__all__ = [
    "PLAY_SCALE",
    "Request",
    "WelfareTrace",
    "virtual_best_response",
    "run_welfare",
    "run_welfare_many",
    "check_profit_chain_step",
    "greedy_marginal_profit",
    "mixture_wrapper",
]

# Committed fraction of an accepted request: 1/8**2, load-bearing in the
# profit guarantee (cost((1/64)w) <= (1/64) cost((1/8)w) needs the square).
PLAY_SCALE = 1.0 / 64.0


@dataclass
class Request:
    """One customer: reward ``c`` (any sign), consumption ``a in [0,1]^m``."""

    c: float
    a: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        if np.any(self.a < -1e-12) or np.any(self.a > 1.0 + 1e-12):
            raise ValueError("consumption coordinates must lie in [0, 1]")


def _split_requests(requests):
    """Float64 rewards ``c`` (n,) and consumptions ``A`` (n, m).

    Accepts :class:`Request` objects and ``(c, a)`` pairs.
    """
    pairs = [(r.c, r.a) if isinstance(r, Request) else r for r in requests]
    c = np.array([pair[0] for pair in pairs], dtype=np.float64)
    A = np.array([np.asarray(pair[1], dtype=np.float64) for pair in pairs])
    return c, A


def _accept(c, y, a):
    """The virtual plays for rewards ``c``, duals ``y`` and consumptions ``a``.

    1.0 where ``c - <y, a>`` is strictly positive, else 0.0: ties decline.
    Rows of ``y`` and ``a`` broadcast against each other and against ``c``.
    """
    return np.where(c - np.vecdot(y, a) > 0.0, 1.0, 0.0)


def virtual_best_response(y, req, gamma, f):
    """Maximizer of ``c*x - L(y, a*x)`` over ``x in [0,1]``: 0 or 1.

    The objective is ``(c - <y,a>)*x + gamma*conj(y)``; accept iff the
    linear coefficient is strictly positive.
    """
    (c,), (a,) = _split_requests([req])
    return float(_accept(c, np.asarray(y, dtype=np.float64), a))


@dataclass
class WelfareTrace:
    """Per-step log of a welfare run, in the reduced (pure-power) view.

    The duals ``y``, virtual loads ``a_t*x_t`` and conjugate values
    ``conj_y`` are row ``run`` of the run record of the dual state that
    the run shared with the other sequences played in lockstep.
    """

    x_virtual: np.ndarray  # (n,) virtual plays, each 0 or 1
    c_reduced: np.ndarray  # (n,) rewards after the linear-part reduction
    a: np.ndarray  # (n, m) consumption vectors
    gamma: float  # 1/n
    labels: np.ndarray | None
    state: OcoState  # dual state of the reduced run
    profit: float  # on the original instance == reduced profit
    reward_total: float  # sum c_t * x~_t (original rewards)
    cost_total: float  # cost(sum a_t * x~_t) (original cost)
    run: int = 0  # this run's row in the state's record

    @property
    def y(self):
        return self.state.record()[0][self.run]

    @property
    def virtual_loads(self):
        return self.state.record()[1][self.run]

    @property
    def conj_y(self):
        return self.state.record()[3][self.run]

    @property
    def n(self):
        return self.x_virtual.shape[0]

    @property
    def x_played(self):
        return PLAY_SCALE * self.x_virtual

    def fake_costs(self):
        """Per-step ``L(y_t, v_t)`` on the virtual loads."""
        inner = np.einsum("tm,tm->t", self.y, self.virtual_loads)
        return inner - self.gamma * self.conj_y

    def to_json(self) -> dict:
        fake = self.fake_costs()
        return {
            "kind": "welfare_trace",
            "gamma": self.gamma,
            "steps": [
                {
                    "t": t + 1,
                    "y": self.y[t].tolist(),
                    "x_virtual": float(self.x_virtual[t]),
                    "x_played": float(self.x_virtual[t]) * PLAY_SCALE,
                    "fake": float(fake[t]),
                    "origin": (
                        None
                        if self.labels is None
                        else ("stoch" if self.labels[t] else "adv")
                    ),
                }
                for t in range(self.n)
            ],
            "profit": self.profit,
            "reward_total": self.reward_total,
            "cost_total": self.cost_total,
        }


def _reduce(c, a, f):
    """Split off the linear part; returns (reduced rewards, run cost)."""
    high = f.power_part()
    slopes = f.linear_slopes
    if slopes is None or not np.any(slopes > 0):
        return c, high if high is not None else f
    if high is None:
        raise ConfigError("cost has a linear part but no power remainder to run on")
    return c - a @ slopes, high


def run_welfare(requests, f, labels=None, *, disable_shift=False, disable_regularizer=False):
    """Run the scaled primal-dual welfare loop over realized requests.

    Needs ``n >= 4p`` and a cost whose power part grows at least
    quadratically (checked by sampling when not certain from the family).
    """
    return run_welfare_many(
        [requests], f, labels, disable_shift=disable_shift, disable_regularizer=disable_regularizer
    )[0]


def run_welfare_many(sequences, f, labels=None, *, disable_shift=False, disable_regularizer=False):
    """Run the welfare loop over K realized request sequences in lockstep.

    The sequences have one length n and share ``labels``.  Returns one
    :class:`WelfareTrace` per sequence, each equal bit for bit to a
    separate run: the runs share one dual state whose iterates and record
    carry one row per run.
    """
    if not sequences:
        return []
    n = len(sequences[0])
    if any(len(requests) != n for requests in sequences):
        raise ValueError("sequences run in lockstep need the same number of steps")
    if n < 4.0 * f.p:
        raise ConfigError(f"need n >= 4p, got n={n} with p={f.p}")
    if labels is not None:
        labels = np.asarray(labels, dtype=bool)
        if labels.shape != (n,):
            raise ValueError("labels must mark each of the n steps")
    split = [_split_requests(requests) for requests in sequences]
    reduced = [_reduce(c, a, f) for c, a in split]
    run_f = reduced[0][1]
    certain = run_f.family == "sum_of_powers" and run_f.p >= 2.0
    if not certain and not run_f.grows_at_least_quadratically():
        raise ConfigError("cost must grow at least quadratically after reduction")
    gamma = 1.0 / n
    state = OcoState(
        run_f, gamma, disable_shift=disable_shift, disable_regularizer=disable_regularizer
    )
    c_red = np.stack([c for c, _ in reduced])  # (K, n)
    A = np.stack([a for _, a in split])  # (K, n, m)
    x_virtual = np.empty(c_red.shape)
    for t in range(n):
        x = _accept(c_red[:, t], state.next_iterate(), A[:, t])
        state.observe(A[:, t] * x[:, None], gamma)
        x_virtual[:, t] = x
    x_played = PLAY_SCALE * x_virtual
    traces = []
    for k, ((c, a_k), (c_red_k, _)) in enumerate(zip(split, reduced)):
        reward_total = float(np.dot(c, x_played[k]))
        cost_total = f.eval(a_k.T @ x_played[k])
        traces.append(
            WelfareTrace(
                x_virtual=x_virtual[k],
                c_reduced=c_red_k,
                a=a_k,
                gamma=gamma,
                labels=labels,
                state=state,
                profit=reward_total - cost_total,
                reward_total=reward_total,
                cost_total=cost_total,
                run=k,
            )
        )
    return traces


def check_profit_chain_step(trace, beta=None, opt_selector=None, drawn=None) -> CheckReport:
    """Per-realization links of the profit guarantee.

    * accept-or-decline dominance: at every step the virtual fake profit
      is at least ``gamma*conj(y_t)`` (the value of declining) and, at
      stochastic steps, at least the fake profit of playing the offline
      selector's level scaled down by ``beta = n/|Stoch|``;
    * the committed profit is at least ``1/64`` of the virtual fake profit
      minus ``1/64`` of the additive unit ``cost(p*ones)`` (this is where
      the quadratic growth and the 1/64 scaling pay).

    ``opt_selector`` maps support index to the offline fractional level,
    ``drawn`` gives the support index drawn at each step (-1 where
    adversarial).
    """
    fake = trace.fake_costs()
    step_gain = trace.c_reduced * trace.x_virtual - fake
    virtual_profit = float(step_gain.sum())
    worst = math.inf
    detail = {}
    # Declining is always available: c*x - L(y, a*x) >= -L(y, 0) >= 0.
    decline = trace.gamma * trace.conj_y
    slacks = (step_gain - decline) / np.maximum(1.0, np.abs(decline))
    detail["decline_dominance"] = float(slacks.min())
    worst = min(worst, detail["decline_dominance"])
    if opt_selector is not None:
        stoch = trace.labels
        x_cand = np.array(
            [opt_selector[j] if j >= 0 else 0.0 for j in drawn], dtype=np.float64
        ) / beta
        inner = np.einsum("tm,tm->t", trace.y, trace.a)
        cand_gain = (trace.c_reduced - inner) * x_cand + decline
        slacks = (step_gain - cand_gain)[stoch] / np.maximum(1.0, np.abs(cand_gain[stoch]))
        detail["selector_dominance"] = float(slacks.min(initial=0.0))
        worst = min(worst, detail["selector_dominance"])
        s_w2 = normalized_slack(virtual_profit, float(cand_gain[stoch].sum()))
        detail["virtual_vs_scaled_offline"] = s_w2
        worst = min(worst, s_w2)
    rhs_scaled = PLAY_SCALE * (virtual_profit - trace.state.f.cost_at_p_ones())
    s_scale = normalized_slack(trace.profit, rhs_scaled)
    detail["scaled_profit"] = s_scale
    worst = min(worst, s_scale)
    return CheckReport("profit_chain", worst, detail)


def greedy_marginal_profit(requests, f):
    """Baseline full-acceptance strategy: take a request whenever its
    reward beats the marginal cost ``<grad(load + a), a>`` at the current
    load.  Returns the play vector in ``{0,1}^n``.
    """
    c, A = _split_requests(requests)
    load = np.zeros(f.m)
    x = np.zeros(len(c))
    for t, a in enumerate(A):
        if c[t] > float(np.dot(f.grad(load + a), a)):
            x[t] = 1.0
            load += a
    return x


@dataclass
class MixtureOutcome:
    arm: str  # "primal_dual" | "plugin"
    profit: float
    plays: np.ndarray
    trace: WelfareTrace | None


def mixture_wrapper(requests, f, adversarial_strategy=None, coin_seed=0, force_arm=None):
    """Fair-coin mixture of the scaled primal-dual run and a plug-in.

    The plug-in receives the whole request sequence and the cost function
    and returns plays in ``[0,1]^n``; the shipped default is
    :func:`greedy_marginal_profit`, a naive baseline rather than a
    guaranteed adversarial algorithm.  ``force_arm`` pins the coin for
    tests ("primal_dual" or "plugin").
    """
    strategy = adversarial_strategy or greedy_marginal_profit
    if force_arm is None:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(coin_seed))))
        arm = "primal_dual" if rng.integers(2) == 0 else "plugin"
    else:
        arm = force_arm
    if arm == "primal_dual":
        trace = run_welfare(requests, f)
        return MixtureOutcome(arm, trace.profit, trace.x_played, trace)
    x = np.clip(np.asarray(strategy(requests, f), dtype=np.float64), 0.0, 1.0)
    c, A = _split_requests(requests)
    profit = float(np.dot(c, x)) - f.eval(A.T @ x)
    return MixtureOutcome(arm, profit, x, None)
