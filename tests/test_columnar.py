"""The per-replication checks over K runs against their one-run forms.

Every per-replication check takes the trace of all K runs of a lockstep
batch and computes one slack per run as one array formula.  These tests
keep the per-trace bodies the checks had before they took a run axis and
assert that every slack and every detail value is bit-equal on every run,
on instances whose record slices trip the reduction order: m = 1 with no
adversarial step (selecting steps of a ``(K, n, 1)`` record gives a strided
array), pure-adversarial and mixed instances of both generated families.
"""

import math

import numpy as np
import pytest

from robustpd.instances import GeneratorParams, draw_matrix, generate
from robustpd.ocp import (
    _fake_total,
    check_adversarial_charging,
    check_best_response,
    check_cost_bound,
    run_ocp_batch,
)
from robustpd.welfare import PLAY_SCALE, check_profit_chain_step, run_welfare_batch

RUNS = 120
FAMILIES = ("sum_of_powers", "linear_plus_power")
# (n, m, p, n_adv): m = 1 with no adversarial step, pure-adversarial, mixed.
SHAPES = ((16, 1, 2.0, 0), (12, 2, 3.0, 12), (20, 3, 2.0, 6), (24, 2, 3.0, 9))


def old_slack(lhs, rhs):
    return (lhs - rhs) / max(1.0, abs(rhs))


def old_check_cost_bound(trace):
    f = trace.f
    lhs = f.eval(trace.load / 8.0)
    fake_total = float(trace.fake.sum())
    base = 1.5 * f.cost_at_p_ones()
    rhs = fake_total - float(trace.conj_y.max(initial=0.0)) / (2.0 * f.p) + base
    y_max = trace.y.max(axis=0, initial=0.0)
    rhs_sep = fake_total - f.conjugate_value(y_max) / (2.0 * f.p) + base
    detail = {"nonseparable": old_slack(rhs, lhs), "separable": old_slack(rhs_sep, lhs)}
    return min(detail.values()), detail


def old_check_adversarial_charging(trace, alpha, opt_choices):
    f = trace.f
    adv = ~trace.labels
    opt_choices = np.asarray(opt_choices, dtype=np.float64).reshape(-1, f.m)
    v_opt = opt_choices.sum(axis=0) if opt_choices.size else np.zeros(f.m)
    y_adv = trace.y[adv]
    lhs = float(np.einsum("tm,tm->", y_adv, opt_choices)) - trace.gamma * float(
        trace.conj_y[adv].sum()
    )
    conj_max = float(trace.conj_y.max(initial=0.0))
    rhs1 = math.e * f.eval(alpha * v_opt) + (math.e * f.p / alpha) * conj_max
    y_max = trace.y.max(axis=0, initial=0.0)
    rhs2 = f.eval(alpha * v_opt) + f.conjugate_value(y_max) / alpha
    detail = {"max_form": old_slack(rhs1, lhs), "pointwise_max_form": old_slack(rhs2, lhs)}
    return min(detail.values()), detail


def old_stoch_fake(trace, selector, drawn, labels):
    v_star = np.stack([selector[j] for j in drawn[labels]])
    return float(
        np.einsum("tm,tm->", trace.y[labels], v_star) - trace.gamma * trace.conj_y[labels].sum()
    )


def old_check_profit_chain_step(trace, beta=None, opt_selector=None, drawn=None):
    y = trace.y
    fake = np.einsum("tm,tm->t", y, trace.virtual_loads) - trace.gamma * trace.conj_y
    step_gain = trace.c_reduced * trace.x_virtual - fake
    virtual_profit = float(step_gain.sum())
    worst = math.inf
    detail = {}
    decline = trace.gamma * trace.conj_y
    slacks = (step_gain - decline) / np.maximum(1.0, np.abs(decline))
    detail["decline_dominance"] = float(slacks.min())
    worst = min(worst, detail["decline_dominance"])
    if opt_selector is not None:
        stoch = trace.labels
        x_cand = np.array(
            [opt_selector[j] if j >= 0 else 0.0 for j in drawn], dtype=np.float64
        ) / beta
        inner = np.einsum("tm,tm->t", y, trace.a)
        cand_gain = (trace.c_reduced - inner) * x_cand + decline
        slacks = (step_gain - cand_gain)[stoch] / np.maximum(1.0, np.abs(cand_gain[stoch]))
        detail["selector_dominance"] = float(slacks.min(initial=0.0))
        worst = min(worst, detail["selector_dominance"])
        s_w2 = old_slack(virtual_profit, float(cand_gain[stoch].sum()))
        detail["virtual_vs_scaled_offline"] = s_w2
        worst = min(worst, s_w2)
    rhs_scaled = PLAY_SCALE * (virtual_profit - trace.f.cost_at_p_ones())
    s_scale = old_slack(trace.profit, rhs_scaled)
    detail["scaled_profit"] = s_scale
    worst = min(worst, s_scale)
    x = trace.x_virtual / 64.0
    committed = float(np.dot(trace.c_reduced, x)) - trace.f.eval(trace.a.T @ x)
    detail["commit_scale"] = -abs(old_slack(committed, trace.profit))
    worst = min(worst, detail["commit_scale"])
    return worst, detail


def assert_columns_match(verdict, old_results):
    """Every run's slack and detail values equal the one-run body's, bit for bit."""
    slacks = np.array([worst for worst, _ in old_results])
    assert verdict.slack.shape == (len(old_results),)
    assert np.array_equal(verdict.slack, slacks)
    assert set(verdict.detail) == set(old_results[0][1])
    for key, column in verdict.detail.items():
        assert np.array_equal(column, [detail[key] for _, detail in old_results]), key
    assert np.array_equal(verdict.passed, slacks >= -1e-8)


def batch(kind, family, shape, seed):
    n, m, p, n_adv = shape
    params = GeneratorParams(
        problem=kind, n=n, m=m, p=p, family=family, n_adv=n_adv,
        adv_placement="random", support_size=(2, 4), options_range=(2, 4),
    )
    inst = generate(params, seed)
    drawn = draw_matrix(inst, range(RUNS))
    engine = run_ocp_batch if kind == "ocp" else run_welfare_batch
    runs = engine(*inst.point_table(drawn), inst.cost_function(), inst.stoch_mask)
    return inst, drawn, runs


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("family", FAMILIES)
def test_ocp_checks_match_one_run_bodies(family, shape):
    inst, drawn, runs = batch("ocp", family, shape, 31 + shape[0])
    rows = runs.rows()
    labels = inst.stoch_mask
    assert_columns_match(check_cost_bound(runs), [old_check_cost_bound(tr) for tr in rows])
    adv_sets = [e.data for e in inst.timeline if e.kind == "adv"]
    opt_choices = np.array([s.options[-1] for s in adv_sets]).reshape(-1, inst.m)
    p = runs.f.p
    for alpha in (2.0 * p, 2.0 * math.e * p**2):
        assert_columns_match(
            check_adversarial_charging(runs, alpha, opt_choices),
            [old_check_adversarial_charging(tr, alpha, opt_choices) for tr in rows],
        )
    # The one-run call is the same formula without the run axis.
    for tr in rows[:5]:
        assert check_cost_bound(tr).slack == old_check_cost_bound(tr)[0]
        assert type(check_cost_bound(tr).slack) is float
    if labels.any():
        selector = [s.options[0] for s in inst.support]
        # As the harness computes the stochastic fake cost of every run.
        fake = _fake_total(runs, labels, np.array(selector)[drawn[:, labels]])
        old = [old_stoch_fake(tr, selector, drawn[k], labels) for k, tr in enumerate(rows)]
        assert np.array_equal(fake, old)
    certificate = check_best_response(runs)
    assert certificate.passed.all()
    assert [check_best_response(tr).slack for tr in rows] == certificate.slack.tolist()


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("family", FAMILIES)
def test_profit_chain_matches_one_run_body(family, shape):
    inst, drawn, runs = batch("welfare", family, shape, 57 + shape[0])
    rows = runs.rows()
    assert_columns_match(
        check_profit_chain_step(runs), [old_check_profit_chain_step(tr) for tr in rows]
    )
    if inst.n_stoch:
        beta = inst.n / inst.n_stoch
        levels = np.random.default_rng(shape[0]).uniform(0, 1, len(inst.support)).tolist()
        verdict = check_profit_chain_step(runs, beta=beta, opt_selector=levels, drawn=drawn)
        old = [
            old_check_profit_chain_step(tr, beta=beta, opt_selector=levels, drawn=drawn[k])
            for k, tr in enumerate(rows)
        ]
        assert_columns_match(verdict, old)
        one = check_profit_chain_step(rows[3], beta=beta, opt_selector=levels, drawn=drawn[3])
        assert one.slack == old[3][0] and one.detail == old[3][1]
