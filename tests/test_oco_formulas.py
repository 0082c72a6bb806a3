"""The post-run dual-learner checks against their per-step loop forms.

``check_be_the_leader``, ``check_stability``, ``check_oco_guarantees`` and
``dominating_set`` are array formulas over the run record.  These tests
keep the per-step loops the checks had before and assert that every slack,
decision and detail value (and the dominating set's indices and witnesses)
has the same ``repr`` on the states of ``run_oco_suite``, correct and under
both learner mutations.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from robustpd import harness
from robustpd.oco import (
    Verdict,
    _prefix_sums,
    check_be_the_leader,
    check_oco_guarantees,
    check_stability,
    dominating_set,
    normalized_slack,
)

SEEDS = (0, 7, 42, 7919)
COUNT = 24


def old_check_be_the_leader(state):
    f = state.f
    _, v, gamma, _ = state.record()
    cum_gamma = _prefix_sums(gamma).tolist()
    y1 = f.grad(state.shift / 4.0)
    lhs = float(np.dot(y1, state.shift) - 4.0 * f.conjugate_value(y1))
    worst = math.inf
    detail = {}
    if np.array_equal(state.shift, np.full(f.m, 4.0 * f.p)):
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
    return worst, detail


def old_check_stability(state):
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
    return worst, {"arg_ratio_range": (arg_lo, arg_hi)}


def old_check_oco_guarantees(state):
    f = state.f
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
    y_max = y.max(axis=0, initial=0.0)
    s3 = normalized_slack(inner_sum + base, f.conjugate_value(y_max) / f.p)
    detail["size_control_separable"] = s3
    worst = min(worst, s1, s2, s3)
    return worst, detail


def old_dominating_set(state):
    f = state.f
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
    return indices, witness, worst, {"indices": indices}


def assert_same(verdict, old_slack, old_detail):
    old = Verdict.of(verdict.check, old_slack, old_detail)
    assert repr(replace(verdict, config="")) == repr(old)


def suite_states(monkeypatch, seed, mutation):
    """The states ``run_oco_suite`` checks, with the four verdicts of each."""
    states = []
    monkeypatch.setattr(
        harness, "check_oco_guarantees", lambda st: states.append(st) or check_oco_guarantees(st)
    )
    verdicts = harness.run_oco_suite(count=COUNT, seed=seed, mutation=mutation)
    return states, [verdicts[i : i + 4] for i in range(0, len(verdicts), 4)]


@pytest.mark.parametrize("mutation", [None, "shift", "regularizer"])
@pytest.mark.parametrize("seed", SEEDS)
def test_checks_match_loop_bodies(monkeypatch, seed, mutation):
    states, verdicts = suite_states(monkeypatch, seed, mutation)
    assert len(states) == len(verdicts) == COUNT
    for state, (guarantees, leader, stability, dominating) in zip(states, verdicts):
        assert_same(guarantees, *old_check_oco_guarantees(state))
        assert_same(leader, *old_check_be_the_leader(state))
        assert_same(stability, *old_check_stability(state))
        old_indices, old_witness, old_slack, old_detail = old_dominating_set(state)
        indices, witness, _ = dominating_set(state)
        assert_same(dominating, old_slack, old_detail)
        assert repr(indices) == repr(old_indices)
        assert witness.dtype == old_witness.dtype and np.array_equal(witness, old_witness)
