import math
from dataclasses import replace

import numpy as np
import pytest

from robustpd import ocp
from robustpd.costs import SumOfPowers, _vecdot
from robustpd.harness import (
    CSV_HEADER,
    evaluate_loadbalance_instance,
    evaluate_ocp_instance,
    report_to_csv,
    report_to_json,
)
from robustpd.instances import draw_matrix, load_instance
from robustpd.oco import ConfigError, OcoState, Verdict
from robustpd.oracles import opt_adv_ocp, opt_stoch_ocp
from robustpd.ocp import (
    FeasibleSet,
    check_adversarial_charging,
    check_best_response,
    check_cost_bound,
    check_homogeneous_equivalence,
    effective_norm_power,
    run_loadbalance,
    run_ocp,
    run_ocp_batch,
)

from test_acceptance import homogeneous_instances, loadbalance_instances
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

    @pytest.mark.parametrize("menu", [np.empty((0, 2)), [[1.5, 0.0]], [0.0, 1.0]])
    def test_raw_menus_are_checked_as_sets(self, menu):
        # An empty raw menu would leave only padded slots in the engine's table.
        with pytest.raises(ValueError):
            run_ocp([menu] * 8, square2())

    @pytest.mark.parametrize("width", [1, 2])
    def test_menu_width_must_match_the_cost(self, width):
        # A one-column menu must not be broadcast across the three coordinates.
        f = SumOfPowers([1.0, 1.0, 1.0], 2)
        sets = [np.full((2, 3), 0.5)] * 8
        sets[5] = np.array([[0.5] * width, [0.25] * width])
        for solve in (
            lambda: run_ocp(sets, f),
            lambda: opt_adv_ocp(sets, f),
            lambda: opt_stoch_ocp(sets, np.full(8, 1 / 8), 3, f),
        ):
            with pytest.raises(ValueError, match=f"set 5 has options of width {width}, expected 3"):
                solve()


def best_of(options, y):
    """``_best_rows`` over one menu for one dual: ``(index, point)``."""
    options = np.asarray(options, dtype=np.float64)
    idx, v = ocp._best_rows(options[None], y[None], np.arange(1))
    return int(idx[0]), v[0]


class TestBestResponse:
    """The engine's primal pick: ``_best_rows`` scores the stacked menus."""

    def test_linear_minimization(self):
        y = np.array([1.0, 2.0])
        idx, v = best_of([[1, 0], [0, 1], [0.5, 0.5]], y)
        assert idx == 0 and np.array_equal(v, [1.0, 0.0]) and np.dot(y, v) == 1.0

    def test_zero_dual_tie_breaks_low(self):
        idx, _ = best_of([[1, 0], [0, 1]], np.zeros(2))
        assert idx == 0
        trace = run_ocp([FeasibleSet([[1, 0], [0, 1]])] * 8, square2())
        assert trace.choice[0] == 0  # the first dual prices both machines equally

    def test_smaller_inner_product_wins(self):
        idx, _ = best_of([[0.3, 0.3], [0.2, 0.5]], np.ones(2))
        assert idx == 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(21)
        f = square2()
        for _ in range(50):
            y = f.grad(rng.uniform(0.1, 3.0, 2))
            options = rng.uniform(0, 1, (4, 2))
            base = best_of(options, y)[0]
            for lam in (0.01, 0.5, 7.0, 1234.0):
                assert best_of(options, lam * y)[0] == base

    @staticmethod
    def assert_picks_like_the_mask(sets, m, duals):
        # The scorer on the first-option pads must pick the index and point
        # that np.where(scored, scores, inf) picks, never a padded slot.
        table, scored = ocp._menu_table(sets, m)
        rows = table.shape[1] * np.arange(len(table))
        for Y in duals:
            out = np.empty(len(table), dtype=np.int64)
            with np.errstate(invalid="ignore"):
                idx, v = ocp._best_rows(table, Y, rows)
                scores = np.vecdot(table, np.broadcast_to(Y, table[:, 0].shape)[:, None, :])
                assert ocp._best_rows(table, Y, rows, out)[0] is out
            old = np.where(scored, scores, np.inf).argmin(axis=1)
            assert idx.tolist() == old.tolist() == out.tolist()
            assert scored[np.arange(len(table)), idx].all()
            point = table[np.arange(len(table)), old]
            assert np.array_equal(v, point) and np.array_equal(np.signbit(v), np.signbit(point))

    def test_pads_copy_option_0_bit_for_bit(self):
        sets = [[[-0.0, 0.5], [0.25, 0.0]], [[0.0, -0.0]], [[1.0, 0.5], [0.5, 1.0], [0.0, 0.0]]]
        table, scored = ocp._menu_table(sets, 2)
        assert table.shape == (3, 3, 2) and table.flags.c_contiguous
        assert scored.tolist() == [[1, 1, 0], [1, 0, 0], [1, 1, 1]]
        for j, options in enumerate(sets):
            want = np.array(options + [options[0]] * (3 - len(options)))
            assert table[j].tobytes() == want.tobytes()  # sign bits included

    def test_padded_slots_never_win_even_at_an_infinite_dual(self):
        # Signed-zero ties, pads whose score ties the least real one, and an
        # infinite dual coordinate, under which a zero coordinate scores
        # 0 * inf = nan.
        sets = [
            [[0.0, 0.0], [-0.0, -0.0], [0.5, 0.5]],
            [[-0.0, -0.0], [0.0, 0.0]],
            [[1.0, -0.0], [0.0, 0.0]],
            [[1.0, 0.5], [0.5, 1.0]],
            [[0.5, 0.25]],
        ]
        duals = [
            np.array([[1.0, 1.0], [1.0, 1.0], [-0.0, 2.0], [1.0, 1.0], [0.0, -0.0]]),
            np.array([-0.0, 0.0]),
            np.array([np.inf, 1.0]),
            np.array([np.inf, np.inf]),
        ]
        self.assert_picks_like_the_mask(sets, 2, duals)

    def test_padded_slots_never_win_at_a_nan_score(self):
        # Under the dual (inf, 1) a zero first coordinate scores nan: at
        # option 0 (whose pads are nan too), only at a later option, or
        # nowhere, where a zero pad would score nan.
        sets = [
            [[0.0, 0.5], [0.5, 0.0]],
            [[1.0, 0.0], [0.0, 1.0]],
            [[1.0, 0.25], [1.0, 0.0], [0.0, 0.0], [0.5, 0.5]],
            [[0.0, 1.0]],
            [[1.0, 0.5], [0.5, 1.0]],
        ]
        self.assert_picks_like_the_mask(sets, 2, [np.array([np.inf, 1.0])])

    def test_padded_slots_never_win_on_the_product_path(self):
        # K = 2000 menus of length-1 options take _vecdot's product path,
        # which turns -0.0 into +0.0; zero rows meet infinite duals.
        rng = np.random.default_rng(64)
        sets = [rng.choice([-0.0, 0.0, 0.5, 1.0], (rng.integers(1, 5), 1)) for _ in range(2000)]
        Y = rng.choice([-0.0, 0.0, 0.5, 2.0, np.inf], (2000, 1))
        self.assert_picks_like_the_mask(sets, 1, [Y, np.array([0.5]), np.array([np.inf])])


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
            fake = float(np.dot(trace.y[t], trace.v[t])) - trace.gamma * trace.conj_y[t]
            assert trace.fake[t] == pytest.approx(fake, abs=1e-10)

    def test_one_grad_per_step_and_one_conjugate_per_run_block(self):
        # The engine posts each step's duals with one grad_many for all runs
        # together, and prices the conjugates of the whole block at the end
        # with one conj_many.
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
            run_ocp_batch([FeasibleSet(np.eye(2))], np.zeros((runs, n), dtype=np.int64), f)
            assert calls == {"grad": 0, "conjugate_value": 0, "grad_many": n, "conj_many": 1}

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
        options = V.options if isinstance(V, FeasibleSet) else V
        idx = int(np.argmin([np.dot(option, y) for option in options]))
        v = options[idx]
        conj = f.conjugate_value(y)
        for key, value in zip(rec, (y, v, conj, idx, float(np.dot(y, v)) - gamma * conj)):
            rec[key].append(value)
        cum_v = cum_v + v
        cum_gamma += gamma
    rec = {key: np.array(values) for key, values in rec.items()}
    rec["load"] = cum_v
    return rec


class TestLockstep:
    ADV = (1, 4, 7, 9)

    def point_table(self, rng, runs, n, m):
        """Adversarial steps shared by all runs, stochastic steps drawn per run.

        Returns the feasible sets and the ``(runs, n)`` index into them of
        the set each run faces at each step.  The sets are menus of 1 to 4
        options, as a :class:`FeasibleSet` or as a raw option array.
        """
        sets = [
            FeasibleSet(rng.uniform(0, 1, (1, m))),
            rng.uniform(0, 1, (3, m)),
            rng.uniform(0, 1, (2, m)),
            FeasibleSet(rng.uniform(0, 1, (4, m))),
        ]
        sets += [FeasibleSet(rng.uniform(0, 1, (k, m))) for k in (2, 3, 4)]
        sets.append(rng.uniform(0, 1, (2, m)))
        at = rng.integers(len(self.ADV), len(sets), (runs, n))
        at[:, list(self.ADV)] = np.arange(len(self.ADV))
        return sets, at

    @pytest.mark.parametrize("family,p", [
        ("sum_of_powers", 2.0), ("sum_of_powers", 3.0), ("linear_plus_power", 2.0),
        ("separable_generic", 2.0),
    ])
    @pytest.mark.parametrize("m", [1, 3])
    def test_runs_match_separate_runs(self, family, p, m):
        rng = np.random.default_rng([m, int(p), len(family)])
        f = make_family(family, m, p, rng)
        table, at = self.point_table(rng, 6, 14, m)
        labels = np.array([t not in self.ADV for t in range(14)])
        traces = run_ocp_batch(table, at, f, labels).rows()
        assert [(tr.n, tr.y.shape) for tr in traces] == [(14, (14, m))] * 6
        for row, trace in zip(at, traces):
            sets = [table[j] for j in row]
            ref = sequential_ocp(sets, f)
            for one in (trace, run_ocp(sets, f, labels)):
                for key in ("y", "v", "conj_y", "choice", "fake", "load"):
                    assert np.array_equal(getattr(one, key), ref[key]), key
                assert one.cost == f.eval(ref["load"])
                assert np.array_equal(one.labels, labels)

    def test_tied_menus_of_different_sizes(self):
        # At every step some runs face one option and the others four
        # copies of it: every run must take index 0, as a separate run does.
        rng = np.random.default_rng(33)
        f = make_family("linear_plus_power", 2, 2.0, rng)
        option = rng.uniform(0, 1, (1, 2))
        sets = [FeasibleSet(option), FeasibleSet(np.repeat(option, 4, axis=0))]
        at = np.array([[0, 1] * 5, [1, 0] * 5, [1, 1, 0] * 3 + [0]])
        trace = run_ocp_batch(sets, at, f)
        assert np.all(trace.choice == 0)
        assert check_best_response(trace).passed.all()
        for row, one in zip(at, trace.rows()):
            ref = sequential_ocp([sets[j] for j in row], f)
            for key in ("y", "v", "conj_y", "choice", "fake", "load"):
                assert np.array_equal(getattr(one, key), ref[key]), key

    def test_equal_options_tie_at_the_lowest_index(self):
        # Each option scores np.dot(option, y), wherever it sits in its menu
        # and however wide the padded table is, so copies of the best option
        # tie exactly.  (A stacked matmul scores copies differently.)
        rng = np.random.default_rng(34)
        m = 16
        f = make_family("sum_of_powers", m, 2.0, rng)
        best = rng.uniform(0.0, 0.1, (1, m))
        sets = [
            FeasibleSet(np.vstack([best, rng.uniform(0.5, 1, (k, m)), best]))
            for k in (3, 7, 1)
        ]
        at = rng.integers(0, len(sets), (40, 12))
        trace = run_ocp_batch(sets, at, f)
        assert np.all(trace.choice == 0)
        assert np.all(check_best_response(trace).detail["ties_first"])


class TestCostBound:
    def test_zero_instance(self):
        trace = run_ocp([FeasibleSet([[0.0, 0.0]])] * 8, square2())
        assert check_cost_bound(trace).passed

    @pytest.mark.parametrize("family", ["sum_of_powers", "linear_plus_power"])
    def test_random_instances(self, family):
        rng = np.random.default_rng(25)
        for _ in range(20):
            f = make_family(family, 3, 2.0, rng)
            trace = run_ocp(random_sets(rng, 16, 3), f)
            rep = check_cost_bound(trace)
            assert rep.passed, rep
            # separable bound is the tighter one
            assert rep.detail["separable"] <= rep.detail["nonseparable"] + 1e-12


class TestAdversarialCharging:
    def test_no_adversarial_steps(self):
        rng = np.random.default_rng(26)
        sets = random_sets(rng, 12, 2)
        trace = run_ocp(sets, square2(), labels=np.ones(12, dtype=bool))
        rep = check_adversarial_charging(trace, 2.0 * 2, np.empty((0, 2)))
        assert rep.passed

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
            assert rep.passed, rep

    def test_alpha_below_one_rejected(self):
        rng = np.random.default_rng(28)
        trace = run_ocp(random_sets(rng, 8, 2), square2(), labels=np.zeros(8, dtype=bool))
        with pytest.raises(ValueError):
            check_adversarial_charging(trace, 0.5, trace.v)

    def test_wrong_choice_count_rejected(self):
        rng = np.random.default_rng(29)
        trace = run_ocp(random_sets(rng, 8, 2), square2(), labels=np.zeros(8, dtype=bool))
        for _ in range(2):  # a refused choice table is not memoized
            with pytest.raises(ValueError, match="^one offline choice per adversarial step"):
                check_adversarial_charging(trace, 4.0, trace.v[:7])
        assert check_adversarial_charging(trace, 4.0, trace.v).passed


def wrong_best_rows(pick):
    """A menu scorer that picks ``pick(scores)`` instead of the lowest-index minimizer.

    It takes the engine's stacked menus, whose pads copy their option 0,
    duals, flat row offsets and index buffer.
    """

    def best_rows(options, Y, rows, out=None):
        Y = np.broadcast_to(Y, (len(options), options.shape[-1]))
        idx = pick(np.einsum("rkm,rm->rk", options, Y))
        if out is not None:
            out[...] = idx
        return idx, options.reshape(-1, options.shape[-1])[rows + idx]

    return best_rows


WRONG_PRIMALS = {
    "argmax": lambda scores: scores.argmax(axis=1),
    "option_0": lambda scores: np.zeros(len(scores), dtype=np.int64),
}


def last_tie(scores):
    return scores.shape[1] - 1 - scores[:, ::-1].argmin(axis=1)


def golden_with_repeats():
    """The golden instance with option 0 of each support menu repeated at its end.

    The golden menus repeat no option, so a late tie-break cannot show on
    them.  Here the support menus have 3 options and the adversarial ones
    2, so the engine's menu table also has padded slots.
    """
    inst = load_instance("tests/data/ocp_small.json")
    inst.support = [FeasibleSet(np.vstack([s.options, s.options[:1]])) for s in inst.support]
    return inst


class TestBestResponseCertificate:
    def test_correct_runs_pass(self):
        rng = np.random.default_rng(31)
        for m in (1, 3):
            sets = random_sets(rng, 16, m, k_range=(1, 5))
            sets[3] = sets[3].options  # a raw option array is a menu too
            rep = check_best_response(run_ocp(sets, make_family("linear_plus_power", m, 2.0, rng)))
            assert rep.passed is True and rep.detail["ties_first"] is True
            assert rep.slack >= -1e-12

    def test_golden_instance_passes(self):
        report = evaluate_ocp_instance(load_instance("tests/data/ocp_small.json"), 20)
        assert report.all_pass

    @pytest.mark.parametrize(
        "mutation,evaluate",
        [(m, evaluate_ocp_instance) for m in sorted(WRONG_PRIMALS)]
        + [(m, evaluate_loadbalance_instance) for m in sorted(WRONG_PRIMALS)],
        ids=sorted(WRONG_PRIMALS) + [f"loadbalance-{m}" for m in sorted(WRONG_PRIMALS)],
    )
    def test_wrong_primal_fails_on_golden_instance(self, monkeypatch, mutation, evaluate):
        monkeypatch.setattr(ocp, "_best_rows", wrong_best_rows(WRONG_PRIMALS[mutation]))
        report = evaluate(load_instance("tests/data/ocp_small.json"), 3)
        assert not report.all_pass
        assert report.rows[:, report.rep_checks.index("best_response")].all()

    @pytest.mark.parametrize("mutation", sorted(WRONG_PRIMALS))
    def test_wrong_primal_fails_on_every_load_balancing_instance(self, monkeypatch, mutation):
        monkeypatch.setattr(ocp, "_best_rows", wrong_best_rows(WRONG_PRIMALS[mutation]))
        for inst in loadbalance_instances():
            report = evaluate_loadbalance_instance(inst, 3)
            assert report.rows[:, report.rep_checks.index("best_response")].all(), inst.seed

    def test_report_lines_name_each_replications_failures(self, monkeypatch):
        monkeypatch.setattr(ocp, "_best_rows", wrong_best_rows(WRONG_PRIMALS["argmax"]))
        report = evaluate_ocp_instance(load_instance("tests/data/ocp_small.json"), 5)
        assert report.rows.shape == (5, len(report.rep_checks))
        column = CSV_HEADER.split(",").index("checks_failed")
        *lines, summary = [line.split(",") for line in report_to_csv(report).splitlines()[1:]]
        json_rows = report_to_json(report)["rows"]
        assert len(lines) == len(json_rows) == 5
        for rep, (row, fields) in enumerate(zip(report.rows.tolist(), lines)):
            names = [name for name, failed in zip(report.rep_checks, row) if failed]
            assert "best_response" in names
            assert fields[1] == str(rep) and fields[column] == ";".join(names)
            assert fields[-1] == "False"
            assert json_rows[rep]["failed"] == names
        assert summary[1] == "mean"
        assert summary[column] == ";".join(report.failed_names())
        assert "best_response" in report.failed_names()

    def test_tampered_loads_fail_with_the_shared_inner_products(self):
        # The inner products <y_t, v_t> are one cached pass per trace, which the
        # fake costs share: a replace() with tampered loads must compute its own.
        menu = FeasibleSet([[0.0, 0.0], [1.0, 0.5], [0.3, 1.0]])
        trace = run_ocp_batch([menu], np.zeros((5, 10), dtype=np.int64), square2())
        assert check_best_response(trace).passed.all() and "_inner" in trace.__dict__
        v = trace.v.copy()
        v[2, 6] = [1.0, 0.5]  # a real option, but not the best one
        tampered = replace(trace, v=v)
        assert "_inner" not in tampered.__dict__
        rep = check_best_response(tampered)
        assert rep.passed.tolist() == [True, True, False, True, True]
        assert not np.array_equal(tampered.fake, trace.fake)
        assert np.array_equal(tampered._inner, _vecdot(trace.y, v))

    def test_rows_recompute_the_inner_products(self):
        rng = np.random.default_rng(9)
        f = make_family("linear_plus_power", 3, 2.0, rng)
        sets = random_sets(rng, 6, 3, k_range=(1, 4))
        trace = run_ocp_batch(sets, rng.integers(0, len(sets), (4, 12)), f)
        inner = trace._inner
        trace.__dict__["_inner"] = np.zeros_like(inner)  # a stale copy a row must not inherit
        trace.__dict__["fake"] = np.zeros_like(inner)
        for k, one in enumerate(trace.rows()):
            assert "_inner" not in one.__dict__ and "fake" not in one.__dict__
            assert np.array_equal(one._inner, inner[k])
            assert np.array_equal(one.fake, inner[k] - one.gamma * one.conj_y)
            assert check_best_response(one).passed is True

    def test_late_tie_fails_on_golden_instance_with_repeats(self, monkeypatch):
        inst = golden_with_repeats()
        assert evaluate_ocp_instance(inst, 3).all_pass
        monkeypatch.setattr(ocp, "_best_rows", wrong_best_rows(last_tie))
        report = evaluate_ocp_instance(inst, 3)
        assert report.rows[:, report.rep_checks.index("best_response")].all()
        sets, at = inst.point_table(draw_matrix(inst, range(3)))
        trace = run_ocp_batch(sets, at, inst.cost_function())
        # At the 3-option support steps the late ties are real repeats; at
        # the 2-option adversarial steps a late tie may be a pad.
        stoch = inst.stoch_mask
        sizes = np.array([len(s) for s in sets])[at[:, stoch]]
        assert np.all(sizes == 3)
        assert np.any(trace.choice[:, stoch] == 2) and np.all(trace.choice[:, stoch] < sizes)

    def test_late_tie_fails_where_a_menu_repeats_an_option(self, monkeypatch):
        # Options 0 and 2 are equal and beat option 1 for every positive dual.
        menu = FeasibleSet([[0.2, 0.3], [0.9, 0.9], [0.2, 0.3]])
        sets = [menu] * 8
        assert check_best_response(run_ocp(sets, square2())).passed
        monkeypatch.setattr(ocp, "_best_rows", wrong_best_rows(last_tie))
        trace = run_ocp(sets, square2())
        assert set(trace.choice.tolist()) == {2}
        rep = check_best_response(trace)
        assert not rep.passed and rep.slack == -1.0
        assert rep.detail["margin"] >= -1e-12 and rep.detail["ties_first"] is False


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


def loop_homogeneous_equivalence(trace, stoch_mask, sets):
    """The step-by-step form of ``check_homogeneous_equivalence``: its reference."""
    f = trace.f
    stoch_mask = np.asarray(stoch_mask, dtype=bool)
    gamma_mod = 1.0 / int(stoch_mask.sum())
    state = OcoState(f, gamma_mod)
    state.observe_steps(trace.v, np.where(stoch_mask, gamma_mod, 0.0))
    worst = math.inf
    mismatches = 0
    for t, (y_mod, y_std) in enumerate(zip(state.record()[0], trace.y)):
        pos = y_std > 1e-300
        if np.any(pos):
            ratios = y_mod[pos] / y_std[pos]
            spread = float(ratios.max() - ratios.min()) / max(1.0, float(ratios.max()))
            worst = min(worst, 1e-9 - spread)
            if ratios.max() <= 0.0:
                worst = -1.0
        if np.any(y_mod[~pos] > 1e-12):
            worst = -1.0
        table, _ = ocp._menu_table([sets[t]], f.m)
        idx_mod, _ = ocp._best_rows(table, y_mod[None], np.arange(1))
        if int(idx_mod[0]) != int(trace.choice[t]):
            mismatches += 1
    if mismatches:
        worst = -1.0
    return Verdict.of("homogeneous_equivalence", worst, {"choice_mismatches": mismatches})


class TestHomogeneousEquivalence:
    def test_all_stochastic_is_identity(self):
        f = square2()
        sets = [FeasibleSet([[1.0, 0.0], [0.0, 1.0]])] * 8
        trace = run_ocp(sets, f, np.ones(8, dtype=bool))
        rep = check_homogeneous_equivalence(trace)
        assert rep.passed and rep.detail["choice_mismatches"] == 0

    def test_mixed_run(self):
        rng = np.random.default_rng(30)
        f = make_family("sum_of_powers", 2, 2.0, rng)
        sets = random_sets(rng, 16, 2)
        mask = np.zeros(16, dtype=bool)
        mask[rng.choice(16, size=10, replace=False)] = True
        trace = run_ocp(sets, f, mask)
        rep = check_homogeneous_equivalence(trace)
        assert rep.passed, rep

    def test_rejects_inhomogeneous_cost(self):
        rng = np.random.default_rng(31)
        f = make_family("linear_plus_power", 2, 2.0, rng)
        sets = random_sets(rng, 16, 2)
        trace = run_ocp(sets, f, np.ones(16, dtype=bool))
        with pytest.raises(ValueError):
            check_homogeneous_equivalence(trace)

    def test_requires_enough_stochastic_steps(self):
        f = square2()
        sets = [FeasibleSet([[1.0, 0.0]])] * 10
        mask = np.zeros(10, dtype=bool)
        mask[:4] = True  # 4 < 4p = 8
        trace = run_ocp(sets, f, mask)
        with pytest.raises(ConfigError):
            check_homogeneous_equivalence(trace)

    def test_requires_labels(self):
        trace = run_ocp([FeasibleSet(np.eye(2))] * 8, square2())
        with pytest.raises(ValueError, match="origin labels"):
            check_homogeneous_equivalence(trace)

    def test_wrong_primal_is_a_choice_mismatch(self, monkeypatch):
        # Replaying the worst options keeps every ratio spread at 0, so the
        # mismatches alone set the slack to -1.
        sets = [FeasibleSet([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])] * 8
        with monkeypatch.context() as patched:
            patched.setattr(ocp, "_best_rows", wrong_best_rows(WRONG_PRIMALS["argmax"]))
            trace = run_ocp(sets, square2(), np.ones(8, dtype=bool))
        rep = check_homogeneous_equivalence(trace)
        assert rep.slack == -1.0 and rep.detail["choice_mismatches"] > 0
        assert repr(rep) == repr(loop_homogeneous_equivalence(trace, trace.labels, sets))

    @pytest.mark.parametrize("mutation", [None, "shift", "regularizer"])
    def test_matches_loop_reference_on_criterion_5_instances(self, mutation):
        verdicts = []
        for inst, real in homogeneous_instances():
            trace = run_ocp(real.points, inst.cost_function(), inst.stoch_mask,
                            disable_shift=(mutation == "shift"),
                            disable_regularizer=(mutation == "regularizer"))
            verdict = check_homogeneous_equivalence(trace)
            assert repr(verdict) == repr(
                loop_homogeneous_equivalence(trace, inst.stoch_mask, real.points)
            )
            verdicts.append(verdict)
        # Without the shift every run fails on a -1 flag, with or without a
        # choice mismatch; the regularizer only rescales a homogeneous run's duals.
        assert [v.passed for v in verdicts] == [mutation != "shift"] * 50

    def test_duals_never_vanish(self):
        # The shift keeps the gradient argument at least p*ones/2 away from 0.
        rng = np.random.default_rng(32)
        f = make_family("sum_of_powers", 3, 3.0, rng)
        trace = run_ocp(random_sets(rng, 16, 3), f)
        assert np.all(trace.y > 0.0)
