import numpy as np
import pytest

from robustpd import welfare
from robustpd.costs import LinearPlusPower, SeparableGeneric, SumOfPowers
from robustpd.harness import evaluate_welfare_instance
from robustpd.instances import draw_matrix, load_instance
from robustpd.oco import ConfigError
from robustpd.oracles import opt_stoch_welfare
from robustpd.welfare import (
    check_accept_rule,
    check_profit_chain_step,
    PLAY_SCALE,
    run_welfare,
    run_welfare_batch,
)

from test_costs import make_family


def single_request_instance(c=100.0, n=8):
    return [(c, np.array([1.0]))] * n, SumOfPowers([1.0], 2)


class TestVirtualBestResponse:
    """The virtual play maximizes ``c*x - L(y, a*x)`` over ``[0, 1]``: ``welfare._accept``."""

    def test_accepts_positive_margin(self):
        assert welfare._accept(5.0, np.array([1.0, 2.0]), np.array([1.0, 1.0])) == 1.0

    def test_declines_nonpositive_reward(self):
        assert welfare._accept(0.0, np.array([1.0, 2.0]), np.array([1.0, 1.0])) == 0.0

    def test_tie_declines(self):
        assert welfare._accept(3.0, np.array([1.0, 2.0]), np.array([1.0, 1.0])) == 0.0


class TestRunWelfare:
    def test_worked_instance_exact_profit(self):
        reqs, f = single_request_instance()
        trace = run_welfare(reqs, f)
        assert np.all(trace.x_virtual == 1.0)
        assert np.all(trace.x_played == 1.0 / 64.0)
        assert trace.profit == 12.484375  # 100*8/64 - (8/64)^2, exact in floats

    def test_consumption_above_one_names_the_first_bad_request(self):
        # Every request is checked up front, accepted or not; the dual
        # learner's refusal of a bad load by its step is pinned in test_oco.
        reqs, f = single_request_instance()
        reqs[2] = reqs[5] = (100.0, np.array([1.5]))
        refusal = r"^request 2: consumption must lie in \[0, 1\]$"
        with pytest.raises(ValueError, match=refusal):
            run_welfare(reqs, f)
        # In lockstep, the first bad entry of the request table, drawn or not.
        at = np.array([[0, 1, 3, 4, 0, 1, 0, 0], [0, 1, 3, 4, 6, 0, 0, 0]])
        with pytest.raises(ValueError, match=refusal):
            run_welfare_batch(reqs, at, f)
        with pytest.raises(ValueError, match=r"^request 0: consumption must lie in"):
            run_welfare([(-1.0, np.array([5.0]))] * 8, f)  # declined at every step

    def test_bad_request_is_named_before_the_error_it_causes(self):
        # Negative consumptions would drive the gradient argument below 0 by
        # step 12, where x**1.5 is invalid; the request is refused first.
        reqs = [(100.0, np.array([-1.0]))] * 16
        with np.errstate(invalid="raise"):
            with pytest.raises(ValueError, match=r"^request 0: consumption must lie in"):
                run_welfare(reqs, SumOfPowers([1.0], 2.5))

    @pytest.mark.parametrize("bad, message", [
        ((1.0, np.array([0.5, 0.5])), r"consumption has shape \(2,\), expected \(1,\)"),
        ((1.0, np.array([[0.5]])), r"consumption has shape \(1, 1\), expected \(1,\)"),
        ((1.0, np.array([np.nan])), r"consumption must lie in \[0, 1\]"),
        ((np.nan, np.array([0.5])), r"reward nan is not finite"),
        ((-np.inf, np.array([0.5])), r"reward -inf is not finite"),
    ], ids=["too_wide", "not_a_vector", "nan_consumption", "nan_reward", "infinite_reward"])
    def test_bad_request_is_refused_at_entry(self, bad, message):
        reqs, f = single_request_instance()
        reqs[3] = bad
        with pytest.raises(ValueError, match=rf"^request 3: {message}$"):
            run_welfare(reqs, f)
        with pytest.raises(ValueError, match=rf"^request 1: {message}$"):
            opt_stoch_welfare([reqs[0], bad], [0.5, 0.5], 4, f)

    def test_all_nonpositive_rewards(self):
        reqs = [(-0.5, np.array([0.3]))] * 8
        trace = run_welfare(reqs, SumOfPowers([1.0], 2))
        assert np.all(trace.x_virtual == 0.0)
        assert trace.profit == 0.0

    def test_virtual_plays_are_binary(self):
        rng = np.random.default_rng(51)
        f = make_family("sum_of_powers", 2, 2.0, rng)
        reqs = [(float(rng.uniform(-1, 4)), rng.uniform(0, 1, 2)) for _ in range(16)]
        trace = run_welfare(reqs, f)
        assert set(np.unique(trace.x_virtual)) <= {0.0, 1.0}
        assert np.array_equal(trace.x_played, trace.x_virtual / 64.0)

    def test_needs_enough_steps(self):
        reqs, f = single_request_instance(n=7)
        with pytest.raises(ConfigError):
            run_welfare(reqs, f)

    def test_profit_recomputable(self):
        rng = np.random.default_rng(52)
        f = make_family("sum_of_powers", 2, 3.0, rng)
        reqs = [(float(rng.uniform(-1, 4)), rng.uniform(0, 1, 2)) for _ in range(16)]
        trace = run_welfare(reqs, f)
        c = np.array([r[0] for r in reqs])
        A = np.stack([r[1] for r in reqs])
        again = float(np.dot(c, trace.x_played)) - f.eval(A.T @ trace.x_played)
        assert trace.profit == pytest.approx(again, abs=1e-10)

    def test_quadratic_growth_required(self):
        slow = SeparableGeneric([(lambda x: x**1.5, lambda x: 1.5 * x**0.5)], 2)
        reqs = [(1.0, np.array([1.0]))] * 8
        refusal = "runs a sum of powers after reduction, got SeparableGeneric"
        with pytest.raises(ConfigError, match=refusal):
            run_welfare(reqs, slow)

    def test_per_step_dominance(self):
        # Best response beats both committing fully and declining, per step.
        rng = np.random.default_rng(53)
        f = make_family("sum_of_powers", 2, 2.0, rng)
        reqs = [(float(rng.uniform(-1, 4)), rng.uniform(0, 1, 2)) for _ in range(16)]
        trace = run_welfare(reqs, f)
        fake = trace.fake_costs()
        gains = trace.c_reduced * trace.x_virtual - fake
        for x_alt in (0.0, 1.0, 0.37):
            inner = np.einsum("tm,tm->t", trace.y, trace.a)
            alt = (trace.c_reduced - inner) * x_alt + trace.gamma * trace.conj_y
            assert np.all(gains >= alt - 1e-10)


class TestLinearReduction:
    def test_rewards_shifted_by_slopes(self):
        f = LinearPlusPower([1.0], [1.0], 2)
        reqs = [(3.0, np.array([1.0]))] * 8
        trace = run_welfare(reqs, f)
        assert np.allclose(trace.c_reduced, 2.0)  # 3 - <slopes, a>

    def test_profit_matches_original_accounting(self):
        rng = np.random.default_rng(54)
        f = LinearPlusPower([1.2, 0.7], [0.4, 0.9], 2)
        reqs = [(float(rng.uniform(-1, 5)), rng.uniform(0, 1, 2)) for _ in range(16)]
        trace = run_welfare(reqs, f)
        # reduced view: rewards minus linear slopes, power-only cost
        red = float(np.dot(trace.c_reduced, trace.x_played)) - trace.f.eval(
            trace.a.T @ trace.x_played
        )
        assert trace.profit == pytest.approx(red, abs=1e-9)


def sequential_welfare(requests, f):
    """One run at a time, one point per call: the lockstep engine's reference."""
    n = len(requests)
    c = np.array([pair[0] for pair in requests], dtype=np.float64)
    a = np.array([pair[1] for pair in requests], dtype=np.float64)
    c_red, run_f = c - a @ f.linear_slopes, f.power_part()
    gamma = 1.0 / n
    shift = np.full(f.m, 4.0 * f.p)
    cum_v, cum_gamma = np.zeros(f.m), 0.0
    rec = {"y": [], "virtual_loads": [], "conj_y": [], "x_virtual": []}
    for t in range(n):
        y = run_f.grad((shift + cum_v) / (4.0 * (1.0 + cum_gamma + gamma)))
        x = 1.0 if c_red[t] - float(np.dot(y, a[t])) > 0.0 else 0.0
        for key, value in zip(rec, (y, a[t] * x, run_f.conjugate_value(y), x)):
            rec[key].append(value)
        cum_v = cum_v + a[t] * x
        cum_gamma += gamma
    rec = {key: np.array(values) for key, values in rec.items()}
    x_played = PLAY_SCALE * rec["x_virtual"]
    rec["reward_total"] = float(np.dot(c, x_played))
    rec["cost_total"] = f.eval(a.T @ x_played)
    rec["c_reduced"], rec["a"] = c_red, a
    return rec


class TestLockstep:
    @pytest.mark.parametrize("family,p,m", [
        ("sum_of_powers", 2.0, 1), ("sum_of_powers", 3.0, 3), ("linear_plus_power", 2.0, 2),
        ("linear_plus_power", 3.0, 1),
    ])
    def test_runs_match_separate_runs(self, family, p, m):
        rng = np.random.default_rng([m, int(p), len(family)])
        f = make_family(family, m, p, rng)
        # Adversarial requests at steps 0 and 5, then the stochastic support.
        table = [(2.0, rng.uniform(0, 1, m)), (4.0, list(rng.uniform(0, 1, m)))]
        table += [(float(rng.uniform(-1, 25)), rng.uniform(0, 1, m)) for _ in range(3)]
        table.append((0.0, np.zeros(m)))  # a tie: always declined
        n = 16
        at = rng.integers(2, len(table), (7, n))
        at[:, [0, 5]] = [0, 1]
        labels = np.array([t not in (0, 5) for t in range(n)])
        traces = run_welfare_batch(table, at, f, labels).rows()
        assert [(tr.n, tr.y.shape) for tr in traces] == [(n, (n, m))] * 7
        for row, trace in zip(at, traces):
            requests = [table[j] for j in row]
            ref = sequential_welfare(requests, f)
            for one in (trace, run_welfare(requests, f, labels)):
                for key in ("y", "virtual_loads", "conj_y", "x_virtual", "c_reduced", "a"):
                    assert np.array_equal(getattr(one, key), ref[key]), key
                assert (one.reward_total, one.cost_total) == (ref["reward_total"], ref["cost_total"])
                assert one.profit == ref["reward_total"] - ref["cost_total"]
        plays = np.array([tr.x_virtual for tr in traces])
        assert plays.any() and not plays.all()


class TestProfitChain:
    def test_no_stochastic_oracle(self):
        reqs, f = single_request_instance()
        trace = run_welfare(reqs, f)
        rep = check_profit_chain_step(trace)
        assert rep.passed

    def test_with_selector(self):
        rng = np.random.default_rng(55)
        f = make_family("sum_of_powers", 2, 2.0, rng)
        n = 16
        reqs = [(float(rng.uniform(-1, 4)), rng.uniform(0, 1, 2)) for _ in range(n)]
        labels = rng.uniform(size=n) < 0.7
        drawn = np.where(labels, 0, -1)
        trace = run_welfare(reqs, f, labels)
        rep = check_profit_chain_step(
            trace, beta=n / labels.sum(), opt_selector=[0.8], drawn=drawn
        )
        assert rep.passed, rep

    def test_random_instances(self):
        rng = np.random.default_rng(56)
        for _ in range(10):
            f = make_family("linear_plus_power", 2, 2.0, rng)
            reqs = [(float(rng.uniform(-1, 4)), rng.uniform(0, 1, 2)) for _ in range(16)]
            trace = run_welfare(reqs, f)
            assert check_profit_chain_step(trace).passed


# Wrong accept rules, each a drop-in for welfare._accept.
WRONG_ACCEPTS = {
    "never": lambda c, y, a: np.zeros(np.shape(c)),
    "always": lambda c, y, a: np.ones(np.shape(c)),
    "ties_accept": lambda c, y, a: np.where(c - np.vecdot(y, a) >= 0.0, 1.0, 0.0),
}


class TestAcceptRuleCertificate:
    def test_correct_runs_pass(self):
        rng = np.random.default_rng(57)
        for family in ("sum_of_powers", "linear_plus_power"):
            f = make_family(family, 2, 2.0, rng)
            reqs = [(float(rng.uniform(-1, 4)), rng.uniform(0, 1, 2)) for _ in range(16)]
            rep = check_accept_rule(run_welfare(reqs, f))
            assert rep.passed is True and rep.slack == 0.0 and rep.detail["wrong_steps"] == 0

    def test_golden_instance_passes_every_replication(self):
        report = evaluate_welfare_instance(load_instance("tests/data/welfare_small.json"), 20)
        assert not report.rows[:, report.rep_checks.index("accept_rule")].any()

    @pytest.mark.parametrize("mutation", ["never", "always"])
    def test_wrong_rule_fails_on_golden_instance(self, monkeypatch, mutation):
        monkeypatch.setattr(welfare, "_accept", WRONG_ACCEPTS[mutation])
        report = evaluate_welfare_instance(load_instance("tests/data/welfare_small.json"), 3)
        assert not report.all_pass
        assert report.rows[:, report.rep_checks.index("accept_rule")].all()

    def test_play_scale_mutation_fails_profit_chain(self, monkeypatch):
        # The commit-scale part recomputes the profit at 1/64, so a wrong
        # engine scale fails it even though the other parts read PLAY_SCALE.
        instance = load_instance("tests/data/welfare_small.json")
        monkeypatch.setattr(welfare, "PLAY_SCALE", 1.0 / 8.0)
        report = evaluate_welfare_instance(instance, 3)
        failed = report.rows[:, report.rep_checks.index("profit_chain")]
        assert not report.all_pass and failed.all()
        points, at = instance.point_table(draw_matrix(instance, range(3)))
        trace = run_welfare_batch(points, at, instance.cost_function(), instance.stoch_mask)
        verdict = check_profit_chain_step(trace)
        assert (verdict.detail["commit_scale"] < -0.5).all()
        assert (verdict.detail["scaled_profit"] >= 0.0).all()

    def test_accepted_tie_fails(self, monkeypatch):
        # A zero reward for zero consumption ties with every dual.
        reqs = [(0.0, np.zeros(2)), (2.0, np.array([0.5, 0.2]))] * 4
        f = SumOfPowers([1.0, 1.0], 2)
        assert check_accept_rule(run_welfare(reqs, f)).passed
        monkeypatch.setattr(welfare, "_accept", WRONG_ACCEPTS["ties_accept"])
        trace = run_welfare(reqs, f)
        assert np.all(trace.x_virtual[::2] == 1.0)
        rep = check_accept_rule(trace)
        assert not rep.passed and rep.slack == -1.0 and rep.detail["wrong_steps"] == 4

    def test_columns_over_runs(self):
        rng = np.random.default_rng(58)
        f = make_family("sum_of_powers", 2, 2.0, rng)
        reqs = [(float(rng.uniform(-1, 4)), rng.uniform(0, 1, 2)) for _ in range(12)]
        batch = welfare.run_welfare_batch(reqs, rng.integers(0, 12, (5, 12)), f)
        batch.x_virtual[3, 7] = 1.0 - batch.x_virtual[3, 7]
        rep = check_accept_rule(batch)
        assert rep.passed.tolist() == [True, True, True, False, True]
        assert rep.detail["wrong_steps"].tolist() == [0, 0, 0, 1, 0]
