import math

import numpy as np
import pytest

from robustpd.costs import SumOfPowers
from robustpd.oco import ConfigError
from robustpd.ocp import (
    FeasibleSet,
    best_response,
    check_adversarial_charging,
    check_cost_bound,
    check_homogeneous_equivalence,
    effective_norm_power,
    run_loadbalance,
    run_ocp,
    run_ocp_many,
)

from test_costs import make_family


def square2():
    return SumOfPowers([1.0, 1.0], 2)


def random_sets(rng, n, m, k_range=(2, 3)):
    return [
        FeasibleSet(rng.uniform(0, 1, (int(rng.integers(*k_range)), m)))
        for _ in range(n)
    ]


class TestFeasibleSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            FeasibleSet(np.empty((0, 2)))
        with pytest.raises(ValueError):
            FeasibleSet([[1.5, 0.0]])
        assert len(FeasibleSet([[0.0, 1.0]])) == 1


class TestBestResponse:
    def test_linear_minimization(self):
        idx, v, fake = best_response(
            np.array([1.0, 2.0]), FeasibleSet([[1, 0], [0, 1], [0.5, 0.5]]), 0.0, square2()
        )
        assert idx == 0 and np.array_equal(v, [1.0, 0.0]) and fake == 1.0

    def test_zero_dual_tie_breaks_low(self):
        idx, _, _ = best_response(np.zeros(2), FeasibleSet([[1, 0], [0, 1]]), 0.0, square2())
        assert idx == 0

    def test_smaller_inner_product_wins(self):
        idx, _, _ = best_response(
            np.ones(2), FeasibleSet([[0.3, 0.3], [0.2, 0.5]]), 0.0, square2()
        )
        assert idx == 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(21)
        f = square2()
        for _ in range(50):
            y = f.grad(rng.uniform(0.1, 3.0, 2))
            V = FeasibleSet(rng.uniform(0, 1, (4, 2)))
            base = best_response(y, V, 0.1, f)[0]
            for lam in (0.01, 0.5, 7.0, 1234.0):
                assert best_response(lam * y, V, 0.1, f)[0] == base


class TestRunOcp:
    def test_all_zero_menus(self):
        f = square2()
        sets = [FeasibleSet([[0.0, 0.0]])] * 8
        trace = run_ocp(sets, f)
        assert trace.cost == 0.0
        assert np.all(trace.v == 0.0)

    def test_single_forced_option(self):
        f = SumOfPowers([1.0], 2)
        trace = run_ocp([FeasibleSet([[1.0]])] * 8, f)
        assert trace.cost == 64.0  # cost(8) regardless of the duals

    def test_balances_two_machines(self):
        f = square2()
        sets = [FeasibleSet([[1.0, 0.0], [0.0, 1.0]])] * 8
        trace = run_ocp(sets, f)
        assert np.array_equal(trace.load, [4.0, 4.0])
        assert trace.cost == 32.0

    def test_requires_enough_steps(self):
        with pytest.raises(ConfigError):
            run_ocp([FeasibleSet([[1.0]])] * 7, SumOfPowers([1.0], 2))

    def test_deterministic(self):
        rng = np.random.default_rng(22)
        sets = random_sets(rng, 12, 2)
        f = square2()
        t1, t2 = run_ocp(sets, f), run_ocp(sets, f)
        assert np.array_equal(t1.v, t2.v) and np.array_equal(t1.y, t2.y)

    def test_fake_cost_recomputable(self):
        rng = np.random.default_rng(23)
        trace = run_ocp(random_sets(rng, 12, 3), make_family("sum_of_powers", 3, 2.0, rng))
        for t in range(trace.n):
            assert trace.fake[t] == pytest.approx(trace.recompute_fake(t), abs=1e-10)

    def test_one_grad_and_one_conjugate_per_step(self):
        # The engine evaluates both through the batched methods, once per
        # step for all runs together.
        calls = {"grad": 0, "conjugate_value": 0, "grad_many": 0, "conj_many": 0}
        n = 12
        for runs in (1, 3):
            f = square2()
            for name in calls:
                calls[name] = 0

                def counted(*args, _name=name, _method=getattr(f, name)):
                    calls[_name] += 1
                    return _method(*args)

                setattr(f, name, counted)
            run_ocp_many([[FeasibleSet(np.eye(2))] * n] * runs, f)
            assert calls == {"grad": 0, "conjugate_value": 0, "grad_many": n, "conj_many": n}

    def test_best_response_dominance(self):
        # Every menu option must have done at least as badly at every step.
        rng = np.random.default_rng(24)
        sets = random_sets(rng, 16, 2)
        f = make_family("linear_plus_power", 2, 3.0, rng)
        trace = run_ocp(sets, f)
        for t, V in enumerate(sets):
            chosen = float(np.dot(trace.y[t], trace.v[t]))
            others = V.options @ trace.y[t]
            assert chosen <= others.min() + 1e-10


def sequential_ocp(sets, f):
    """One run at a time, one point per call: the lockstep engine's reference."""
    n = len(sets)
    gamma = 1.0 / n
    shift = np.full(f.m, 4.0 * f.p)
    cum_v, cum_gamma = np.zeros(f.m), 0.0
    rec = {"y": [], "v": [], "conj_y": [], "choice": [], "fake": []}
    for V in sets:
        y = f.grad((shift + cum_v) / (4.0 * (1.0 + cum_gamma + gamma)))
        if isinstance(V, FeasibleSet) or not hasattr(V, "minimize"):
            options = V.options if isinstance(V, FeasibleSet) else V
            idx = int(np.argmin(options @ y))
            v = options[idx]
        else:
            idx, v = -1, V.minimize(y)
        conj = f.conjugate_value(y)
        for key, value in zip(rec, (y, v, conj, idx, float(np.dot(y, v)) - gamma * conj)):
            rec[key].append(value)
        cum_v = cum_v + v
        cum_gamma += gamma
    rec = {key: np.array(values) for key, values in rec.items()}
    rec["load"] = cum_v
    return rec


class TestLockstep:
    def sequences(self, rng, runs, n, m):
        """Adversarial steps shared by all runs, stochastic steps drawn per run.

        The feasible sets are menus of 1 to 4 options, raw option arrays and
        an object with a ``minimize`` hook.
        """
        oracle = TestOracleHook.SimplexOracle(m)
        support = [FeasibleSet(rng.uniform(0, 1, (k, m))) for k in (2, 3, 4)] + [oracle]
        adv = {
            1: FeasibleSet(rng.uniform(0, 1, (1, m))),
            4: rng.uniform(0, 1, (3, m)),
            7: oracle,
            9: FeasibleSet(rng.uniform(0, 1, (4, m))),
        }
        return [
            [adv[t] if t in adv else support[int(rng.integers(len(support)))] for t in range(n)]
            for _ in range(runs)
        ]

    @pytest.mark.parametrize("family,p", [
        ("sum_of_powers", 2.0), ("sum_of_powers", 3.0), ("linear_plus_power", 2.0),
        ("separable_generic", 2.0),
    ])
    @pytest.mark.parametrize("m", [1, 3])
    def test_runs_match_separate_runs(self, family, p, m):
        rng = np.random.default_rng([m, int(p), len(family)])
        f = make_family(family, m, p, rng)
        seqs = self.sequences(rng, 6, 14, m)
        labels = np.array([t not in (1, 4, 7, 9) for t in range(14)])
        traces = run_ocp_many(seqs, f, labels)
        assert [tr.run for tr in traces] == list(range(6))
        for sets, trace in zip(seqs, traces):
            ref = sequential_ocp(sets, f)
            for one in (trace, run_ocp(sets, f, labels)):
                for key in ("y", "v", "conj_y", "choice", "fake", "load"):
                    assert np.array_equal(getattr(one, key), ref[key]), key
                assert one.cost == f.eval(ref["load"])
                assert np.array_equal(one.labels, labels)

    def test_sequences_must_share_their_length(self):
        sets = [FeasibleSet(np.eye(2))] * 8
        with pytest.raises(ValueError):
            run_ocp_many([sets, sets[:-1]], square2())
        assert run_ocp_many([], square2()) == []


class TestOracleHook:
    class SimplexOracle:
        """Exact minimizer of <y, .> over the unit simplex in [0,1]^m."""

        def __init__(self, m):
            self.m = m

        def minimize(self, y):
            v = np.zeros(self.m)
            v[int(np.argmin(y))] = 1.0
            return v

    def test_oracle_set_matches_unit_vector_menu(self):
        f = square2()
        menu_run = run_ocp([FeasibleSet(np.eye(2))] * 8, f)
        oracle_run = run_ocp([self.SimplexOracle(2)] * 8, f)
        assert np.array_equal(menu_run.v, oracle_run.v)
        assert oracle_run.cost == menu_run.cost == 32.0
        assert np.all(oracle_run.choice == -1)

    def test_best_response_accepts_oracle(self):
        idx, v, fake = best_response(
            np.array([2.0, 1.0]), self.SimplexOracle(2), 0.0, square2()
        )
        assert idx == -1 and np.array_equal(v, [0.0, 1.0]) and fake == 1.0


class TestCostBound:
    def test_zero_instance(self):
        trace = run_ocp([FeasibleSet([[0.0, 0.0]])] * 8, square2())
        assert check_cost_bound(trace).passed()

    @pytest.mark.parametrize("family", ["sum_of_powers", "linear_plus_power"])
    def test_random_instances(self, family):
        rng = np.random.default_rng(25)
        for _ in range(20):
            f = make_family(family, 3, 2.0, rng)
            trace = run_ocp(random_sets(rng, 16, 3), f)
            rep = check_cost_bound(trace)
            assert rep.passed(), rep
            # separable bound is the tighter one
            assert rep.detail["separable"] <= rep.detail["nonseparable"] + 1e-12


class TestAdversarialCharging:
    def test_no_adversarial_steps(self):
        rng = np.random.default_rng(26)
        sets = random_sets(rng, 12, 2)
        trace = run_ocp(sets, square2(), labels=np.ones(12, dtype=bool))
        rep = check_adversarial_charging(trace, 2.0 * 2, np.empty((0, 2)))
        assert rep.passed()

    @pytest.mark.parametrize("alpha_kind", ["separable", "nonseparable"])
    def test_random_mixed_runs(self, alpha_kind):
        from robustpd.oracles import opt_adv_ocp

        rng = np.random.default_rng(27)
        for _ in range(10):
            f = make_family("sum_of_powers", 2, 2.0, rng)
            sets = random_sets(rng, 16, 2)
            labels = rng.uniform(size=16) < 0.5
            trace = run_ocp(sets, f, labels)
            adv_sets = [s for s, lab in zip(sets, labels) if not lab]
            report = opt_adv_ocp(adv_sets, f)
            alpha = 2.0 * f.p if alpha_kind == "separable" else 2 * math.e * f.p**2
            rep = check_adversarial_charging(trace, alpha, report.choices)
            assert rep.passed(), rep

    def test_alpha_below_one_rejected(self):
        rng = np.random.default_rng(28)
        trace = run_ocp(random_sets(rng, 8, 2), square2(), labels=np.zeros(8, dtype=bool))
        with pytest.raises(ValueError):
            check_adversarial_charging(trace, 0.5, trace.v)


class TestLoadBalance:
    def test_identical_unit_jobs(self):
        trace, norm_req, norm_eff = run_loadbalance(
            [FeasibleSet(np.eye(2))] * 8, 2, 2
        )
        assert norm_req == pytest.approx(math.sqrt(32.0))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_single_real_job_any_power(self, p):
        # One job with unit-vector options; the other steps offer only the
        # zero vector (the shortest run is 4p steps). Any norm of a single
        # unit of load is 1.
        m = 2
        idle = FeasibleSet(np.zeros((1, m)))
        sets = [idle] * (4 * p - 1) + [FeasibleSet(np.eye(m))]
        trace, norm_req, norm_eff = run_loadbalance(sets, p, m)
        assert norm_req == pytest.approx(1.0)
        assert trace.load.sum() == pytest.approx(1.0)

    def test_worked_instance_exact(self):
        trace, norm_req, norm_eff = run_loadbalance(
            [FeasibleSet([[1.0, 0.0], [0.0, 1.0]])] * 8, 2, 2
        )
        assert np.array_equal(trace.load, [4.0, 4.0])
        assert norm_req == math.sqrt(32.0)
        assert norm_eff == norm_req  # p_eff == 2 here

    def test_power_capping(self):
        assert effective_norm_power(2, 2) == 2.0
        assert effective_norm_power(6, 3) == 2.0  # ceil(ln 3) = 2
        assert effective_norm_power(6, 40) == 4.0  # ceil(ln 40) = 4
        assert effective_norm_power(3, 40) == 3.0  # below the cap

    def test_norm_ordering_under_capping(self):
        # ||x||_p <= ||x||_p' <= m^(1/p'-1/p) ||x||_p for p' <= p
        rng = np.random.default_rng(29)
        m, p = 40, 6.0
        p_eff = effective_norm_power(p, m)
        sets = random_sets(rng, int(4 * p_eff) + 8, m)
        trace, norm_req, norm_eff = run_loadbalance(sets, p, m)
        assert norm_req <= norm_eff + 1e-9
        assert norm_eff <= m ** (1.0 / p_eff - 1.0 / p) * norm_req + 1e-9


class TestHomogeneousEquivalence:
    def test_all_stochastic_is_identity(self):
        f = square2()
        sets = [FeasibleSet([[1.0, 0.0], [0.0, 1.0]])] * 8
        trace = run_ocp(sets, f)
        rep = check_homogeneous_equivalence(trace, np.ones(8, dtype=bool), sets)
        assert rep.passed() and rep.detail["choice_mismatches"] == 0

    def test_mixed_run(self):
        rng = np.random.default_rng(30)
        f = make_family("sum_of_powers", 2, 2.0, rng)
        sets = random_sets(rng, 16, 2)
        mask = np.zeros(16, dtype=bool)
        mask[rng.choice(16, size=10, replace=False)] = True
        trace = run_ocp(sets, f, mask)
        rep = check_homogeneous_equivalence(trace, mask, sets)
        assert rep.passed(), rep

    def test_rejects_inhomogeneous_cost(self):
        rng = np.random.default_rng(31)
        f = make_family("linear_plus_power", 2, 2.0, rng)
        sets = random_sets(rng, 16, 2)
        trace = run_ocp(sets, f)
        with pytest.raises(ValueError):
            check_homogeneous_equivalence(trace, np.ones(16, dtype=bool), sets)

    def test_requires_enough_stochastic_steps(self):
        f = square2()
        sets = [FeasibleSet([[1.0, 0.0]])] * 10
        trace = run_ocp(sets, f)
        mask = np.zeros(10, dtype=bool)
        mask[:4] = True  # 4 < 4p = 8
        with pytest.raises(ConfigError):
            check_homogeneous_equivalence(trace, mask, sets)

    def test_duals_never_vanish(self):
        # The shift keeps the gradient argument at least p*ones/2 away from 0.
        rng = np.random.default_rng(32)
        f = make_family("sum_of_powers", 3, 3.0, rng)
        trace = run_ocp(random_sets(rng, 16, 3), f)
        assert np.all(trace.y > 0.0)
