import numpy as np
import pytest

from robustpd.costs import LinearPlusPower, SeparableGeneric, SumOfPowers
from robustpd.oco import ConfigError
from robustpd.welfare import (
    Request,
    check_profit_chain_step,
    greedy_marginal_profit,
    mixture_wrapper,
    PLAY_SCALE,
    run_welfare,
    run_welfare_many,
    virtual_best_response,
)

from test_costs import make_family


def single_request_instance(c=100.0, n=8):
    return [(c, np.array([1.0]))] * n, SumOfPowers([1.0], 2)


class TestVirtualBestResponse:
    def test_accepts_positive_margin(self):
        f = SumOfPowers([1.0, 1.0], 2)
        assert virtual_best_response(np.array([1.0, 2.0]), (5.0, np.array([1.0, 1.0])), 0.1, f) == 1.0

    def test_declines_nonpositive_reward(self):
        f = SumOfPowers([1.0, 1.0], 2)
        assert virtual_best_response(np.array([1.0, 2.0]), (0.0, np.array([1.0, 1.0])), 0.1, f) == 0.0

    def test_tie_declines(self):
        f = SumOfPowers([1.0, 1.0], 2)
        assert virtual_best_response(np.array([1.0, 2.0]), (3.0, np.array([1.0, 1.0])), 0.1, f) == 0.0

    def test_request_dataclass(self):
        r = Request(2.0, [0.5, 0.5])
        assert virtual_best_response(np.zeros(2), r, 0.0, SumOfPowers([1.0, 1.0], 2)) == 1.0
        with pytest.raises(ValueError):
            Request(1.0, [1.5])


class TestRunWelfare:
    def test_worked_instance_exact_profit(self):
        reqs, f = single_request_instance()
        trace = run_welfare(reqs, f)
        assert np.all(trace.x_virtual == 1.0)
        assert np.all(trace.x_played == 1.0 / 64.0)
        assert trace.profit == 12.484375  # 100*8/64 - (8/64)^2, exact in floats

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
        with pytest.raises(ConfigError):
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
        red = float(np.dot(trace.c_reduced, trace.x_played)) - trace.state.f.eval(
            trace.a.T @ trace.x_played
        )
        assert trace.profit == pytest.approx(red, abs=1e-9)


def sequential_welfare(requests, f):
    """One run at a time, one point per call: the lockstep engine's reference."""
    n = len(requests)
    pairs = [(r.c, r.a) if isinstance(r, Request) else r for r in requests]
    c = np.array([pair[0] for pair in pairs], dtype=np.float64)
    a = np.array([pair[1] for pair in pairs], dtype=np.float64)
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
        support = [(float(rng.uniform(-1, 25)), rng.uniform(0, 1, m)) for _ in range(3)]
        support.append(Request(0.0, np.zeros(m)))  # a tie: always declined
        adv = {0: (2.0, rng.uniform(0, 1, m)), 5: Request(4.0, rng.uniform(0, 1, m))}
        n = 16
        seqs = [
            [adv.get(t, support[int(rng.integers(len(support)))]) for t in range(n)]
            for _ in range(7)
        ]
        labels = np.array([t not in adv for t in range(n)])
        traces = run_welfare_many(seqs, f, labels)
        assert [tr.run for tr in traces] == list(range(7))
        for requests, trace in zip(seqs, traces):
            ref = sequential_welfare(requests, f)
            for one in (trace, run_welfare(requests, f, labels)):
                for key in ("y", "virtual_loads", "conj_y", "x_virtual", "c_reduced", "a"):
                    assert np.array_equal(getattr(one, key), ref[key]), key
                assert (one.reward_total, one.cost_total) == (ref["reward_total"], ref["cost_total"])
                assert one.profit == ref["reward_total"] - ref["cost_total"]
        plays = np.array([tr.x_virtual for tr in traces])
        assert plays.any() and not plays.all()

    def test_sequences_must_share_their_length(self):
        reqs, f = single_request_instance()
        with pytest.raises(ValueError):
            run_welfare_many([reqs, reqs[:-1]], f)


class TestProfitChain:
    def test_no_stochastic_oracle(self):
        reqs, f = single_request_instance()
        trace = run_welfare(reqs, f)
        rep = check_profit_chain_step(trace)
        assert rep.passed()

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
        assert rep.passed(), rep

    def test_random_instances(self):
        rng = np.random.default_rng(56)
        for _ in range(10):
            f = make_family("linear_plus_power", 2, 2.0, rng)
            reqs = [(float(rng.uniform(-1, 4)), rng.uniform(0, 1, 2)) for _ in range(16)]
            trace = run_welfare(reqs, f)
            assert check_profit_chain_step(trace).passed()


class TestMixture:
    def test_forced_primal_dual_arm(self):
        reqs, f = single_request_instance()
        out = mixture_wrapper(reqs, f, force_arm="primal_dual")
        assert out.arm == "primal_dual" and out.profit == 12.484375

    def test_plugin_on_dead_instance(self):
        reqs = [(-1.0, np.array([1.0]))] * 8
        out = mixture_wrapper(reqs, SumOfPowers([1.0], 2), force_arm="plugin")
        assert out.profit == 0.0 and np.all(out.plays == 0.0)

    def test_coin_is_seeded(self):
        reqs, f = single_request_instance()
        arms = {mixture_wrapper(reqs, f, coin_seed=s).arm for s in range(16)}
        assert arms == {"primal_dual", "plugin"}
        assert mixture_wrapper(reqs, f, coin_seed=3).arm == mixture_wrapper(reqs, f, coin_seed=3).arm

    def test_expected_profit_is_average_of_arms(self):
        reqs, f = single_request_instance()
        a = mixture_wrapper(reqs, f, force_arm="primal_dual").profit
        b = mixture_wrapper(reqs, f, force_arm="plugin").profit
        profits = [mixture_wrapper(reqs, f, coin_seed=s).profit for s in range(64)]
        assert set(profits) == {a, b}
        # a fair coin: both arms appear, mean between the two
        assert min(a, b) <= float(np.mean(profits)) <= max(a, b)

    def test_custom_strategy(self):
        reqs, f = single_request_instance()
        out = mixture_wrapper(
            reqs, f, adversarial_strategy=lambda rs, f: np.full(len(rs), 0.5),
            force_arm="plugin",
        )
        assert np.all(out.plays == 0.5)
        assert out.profit == pytest.approx(100 * 4 - 16.0)


class TestGreedy:
    def test_accepts_while_marginal_profit_positive(self):
        f = SumOfPowers([1.0], 2)
        reqs = [(3.0, np.array([1.0]))] * 8
        x = greedy_marginal_profit(reqs, f)
        # marginal cost at load L is grad(L+1) = 2(L+1): accepts while
        # 3 > 2(L+1), i.e. only the first request
        assert x.tolist() == [1.0] + [0.0] * 7

    def test_never_accepts_nonpositive(self):
        f = SumOfPowers([1.0, 1.0], 2)
        reqs = [(0.0, np.array([0.5, 0.5]))] * 4
        assert np.all(greedy_marginal_profit(reqs, f) == 0.0)
