import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpd import ocp, welfare
from robustpd.costs import SumOfPowers
from robustpd.harness import run_oco_suite
from robustpd.oco import (
    ConfigError,
    OcoState,
    _prefix_sums,
    check_be_the_leader,
    check_oco_guarantees,
    check_stability,
    dominating_set,
)
from robustpd.ocp import FeasibleSet

from test_costs import make_family


def drive(state, loads, gammas):
    for v, g in zip(loads, gammas):
        state.observe(np.asarray(v, dtype=np.float64), g)
    return state


def square_state(gamma_bar=1 / 8):
    return OcoState(SumOfPowers([1.0], 2), gamma_bar)


def post_one_step_late(monkeypatch):
    """Mutation: step t posts the iterate of step t-1 (step 1 posts its own).

    It sits on the iterate path that both forms of ``observe`` share: a
    single step posts the iterate computed at the step before, and a block
    of steps shifts its iterate rows down by one.
    """
    iterates = OcoState._iterates

    def late(self, cum_v, cum_gamma):
        current = iterates(self, cum_v, cum_gamma)
        if np.ndim(cum_gamma) == 0:
            posted, self._late_y = getattr(self, "_late_y", current), current
            return posted
        first = getattr(self, "_late_y", current[0])
        self._late_y = current[-1]
        return np.concatenate([[first], current[:-1]])

    monkeypatch.setattr(OcoState, "_iterates", late)


class TestIterates:
    def test_first_iterate(self):
        # grad((4p + 0) / (4 * (1 + 0 + 1/8))) = 2 * 16/9 for the unit square
        st = square_state()
        assert st.next_iterate() == pytest.approx([32.0 / 9.0])

    def test_second_iterate(self):
        st = square_state()
        st.observe(np.array([1.0]), 1 / 8)
        assert st.next_iterate() == pytest.approx([3.6])

    def test_leader_iterates(self):
        st = square_state()

        def leader():
            return st.f.grad((st.shift + st.cum_v) / (4 * (1 + st.cum_gamma)))

        assert leader() == pytest.approx([4.0])
        st.observe(np.array([1.0]), 1 / 8)
        y2_leader = leader()
        assert y2_leader == pytest.approx([4.0])
        # sandwich: y_1 <= leader_2 <= 2*y_1
        assert 32.0 / 9.0 <= y2_leader[0] <= 64.0 / 9.0

    def test_homogeneous_scaling_identity(self):
        # Same gradient argument => same iterate, however it is produced.
        f = SumOfPowers([1.0, 2.0], 3)
        st = OcoState(f, 1 / 16)
        st.observe(np.array([0.3, 0.9]), 1 / 16)
        arg = (st.shift + st.cum_v) / (4 * (1 + st.cum_gamma + st.gamma_bar))
        assert st.next_iterate() == pytest.approx(f.grad(arg))

    def test_gamma_bar_cap(self):
        with pytest.raises(ConfigError):
            OcoState(SumOfPowers([1.0], 2), 1 / 7.9)
        OcoState(SumOfPowers([1.0], 2), 1 / 8)  # boundary is allowed


class TestObserve:
    def test_zero_step_leaves_sums_alone(self):
        st = square_state()
        st.observe(np.array([0.0]), 0.0)
        y, v, gamma, conj_y = st.record()
        assert np.dot(y[0], v[0]) == gamma[0] == 0.0  # zero gain
        assert conj_y[0] > 0.0  # the conjugate is still recorded
        assert st.cum_v.tolist() == [0.0] and st.cum_gamma == 0.0

    def test_ledger_delta_worked_value(self):
        st = square_state()
        st.observe(np.array([1.0]), 1 / 8)
        y, v, gamma, conj_y = st.record()
        # (1/2)*(32/9) - (1/8) * (32/9)^2 / 4 = 112/81
        fake_half = 0.5 * np.dot(y[0], v[0]) - gamma[0] * conj_y[0]
        assert fake_half == pytest.approx(112.0 / 81.0)

    def test_record_prefix_sums_match_running_sums(self):
        # The post-run checks rebuild prefix sums from the record; they must
        # equal the running sums the state kept while observing, bit for bit.
        rng = np.random.default_rng(17)
        st = OcoState(SumOfPowers([1.0, 2.0], 2), 1 / 8)
        y, v, gamma, conj_y = st.record()
        assert y.shape == v.shape == (0, 2) and gamma.shape == conj_y.shape == (0,)
        cum_v, cum_gamma = [], []
        for g in [1 / 8, 0.0] * 8:
            st.observe(rng.uniform(0, 1, 2), g)
            cum_v.append(st.cum_v)
            cum_gamma.append(st.cum_gamma)
        y, v, gamma, conj_y = st.record()
        assert y.shape == v.shape == (16, 2) and gamma.shape == conj_y.shape == (16,)
        assert np.array_equal(_prefix_sums(v)[1:], cum_v)
        assert _prefix_sums(gamma)[1:].tolist() == cum_gamma

    def test_observes_add_like_batch(self):
        st = square_state()
        v1, v2 = np.array([0.25]), np.array([0.5])
        st.observe(v1, 1 / 8)
        st.observe(v2, 0.0)
        assert st.cum_v == pytest.approx(v1 + v2)
        assert st.cum_gamma == pytest.approx(1 / 8)

    def test_rejects_bad_inputs(self):
        st = square_state()
        st.observe(np.array([0.5]), 1 / 8)
        with pytest.raises(ValueError, match=r"^step 2: load coordinates"):
            st.observe(np.array([1.2]), 1 / 8)
        with pytest.raises(ValueError, match=r"^step 2: gamma=0.05 must be 0"):
            st.observe(np.array([0.5]), 0.05)  # neither 0 nor gamma_bar
        with pytest.raises(ValueError, match="shape"):
            st.observe(np.array([0.5, 0.5]), 0.0)
        assert len(st.record()[2]) == 1


def unit_steps(n):
    return np.full((n, 1), 0.5), np.full(n, 1 / 8)


class TestObserveSteps:
    """The block form of ``observe``: n steps whose loads are known up front."""

    @pytest.mark.parametrize("mutation", [None, "shift", "regularizer", "late"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_step_observe_on_suite_runs(self, monkeypatch, seed, mutation):
        # Every run of run_oco_suite, replayed one step at a time on a twin
        # state, must leave the same record, leaders and running sums.
        if mutation == "late":
            post_one_step_late(monkeypatch)
        pairs = []
        observe_steps = OcoState.observe_steps

        def observe_both(self, v, gamma):
            twin = OcoState(
                self.f,
                self.gamma_bar,
                disable_shift=not self.shift.any(),
                disable_regularizer=not self._regularizer,
            )
            pairs.append((self, drive(twin, v, gamma)))
            observe_steps(self, v, gamma)

        monkeypatch.setattr(OcoState, "observe_steps", observe_both)
        run_oco_suite(count=40, seed=seed, mutation=None if mutation == "late" else mutation)
        assert len(pairs) == 40
        families = {block.f.family for block, _ in pairs}
        assert families == {"sum_of_powers", "linear_plus_power", "separable_generic"}
        for block, steps in pairs:
            for a, b in zip(block.record() + block.leaders(), steps.record() + steps.leaders()):
                assert a.shape == b.shape and np.array_equal(a, b)
            assert np.array_equal(block.cum_v, steps.cum_v)
            assert block.cum_gamma == steps.cum_gamma
            assert block.complete == steps.complete
            assert np.array_equal(block.next_iterate(), steps.next_iterate())

    def test_continues_a_per_step_run(self):
        rng = np.random.default_rng(18)
        loads, gammas = rng.uniform(0, 1, (16, 2)), [1 / 8, 0.0] * 8
        f = SumOfPowers([1.0, 2.0], 2)
        mixed = drive(OcoState(f, 1 / 8), loads[:5], gammas[:5])
        mixed.observe_steps(loads[5:], gammas[5:])
        steps = drive(OcoState(f, 1 / 8), loads, gammas)
        for a, b in zip(mixed.record() + mixed.leaders(), steps.record() + steps.leaders()):
            assert np.array_equal(a, b) and a.flags.c_contiguous

    def test_empty_block_records_nothing(self):
        st = square_state()
        st.observe_steps(np.zeros((0, 1)), np.zeros(0))
        assert st.record()[0].shape == (0, 1) and st.cum_gamma == 0.0

    @pytest.mark.parametrize(
        "step, bad, message",
        [
            (4, lambda v, g: v.__setitem__(3, 1.5), "load coordinates must lie in [0, 1]"),
            (2, lambda v, g: v.__setitem__(1, -0.25), "load coordinates must lie in [0, 1]"),
            (3, lambda v, g: v.__setitem__(2, np.nan), "load coordinates must lie in [0, 1]"),
            (6, lambda v, g: g.__setitem__(5, 0.05), "gamma=0.05 must be 0 or gamma_bar=0.125"),
        ],
    )
    def test_refuses_out_of_range_inputs_before_recording(self, step, bad, message):
        st = square_state()
        loads, gammas = unit_steps(8)
        bad(loads, gammas)
        with pytest.raises(ValueError) as refused:
            st.observe_steps(loads, gammas)
        assert str(refused.value) == f"step {step}: {message}"
        self.assert_untouched(st)

    def test_refuses_a_budget_overflow_at_its_step(self):
        # The budget admits one gamma_bar of slack, so the tenth 1/8 is the first
        # that overflows it.
        st = square_state()
        with pytest.raises(ValueError, match=r"^step 10: multipliers would exceed"):
            st.observe_steps(*unit_steps(12))
        self.assert_untouched(st)

    def test_names_the_first_offending_step(self):
        st = square_state()
        st.observe(np.array([0.5]), 1 / 8)
        loads, gammas = unit_steps(8)
        loads[5], gammas[2] = 2.0, 0.5
        with pytest.raises(ValueError, match=r"^step 4: gamma=0.5 must be"):
            st.observe_steps(loads, gammas)
        assert len(st.record()[2]) == 1

    @pytest.mark.parametrize(
        "loads, gammas",
        [
            (np.full(8, 0.5), np.full(8, 1 / 8)),  # loads without a coordinate axis
            (np.full((8, 2), 0.5), np.full(8, 1 / 8)),  # m = 2 for a cost on m = 1
            (np.full((8, 1), 0.5), np.full(7, 1 / 8)),  # one multiplier short
            (np.full((2, 8, 1), 0.5), np.full(8, 1 / 8)),  # K runs
        ],
    )
    def test_refuses_a_wrong_shape(self, loads, gammas):
        st = square_state()
        with pytest.raises(ValueError, match="expected"):
            st.observe_steps(loads, gammas)
        self.assert_untouched(st)

    def test_refuses_a_lockstep_state(self):
        st = square_state()
        st.observe(np.full((3, 1), 0.5), 1 / 8)
        with pytest.raises(ValueError, match="single run"):
            st.observe_steps(*unit_steps(4))

    @staticmethod
    def assert_untouched(st):
        assert st.record()[0].shape == (0, 1)
        assert st.cum_v.tolist() == [0.0] and st.cum_gamma == 0.0
        assert st.next_iterate() == pytest.approx([32.0 / 9.0])


def per_step_ocp(sets, at, f):
    """The OCP engine's step loop with one ``observe`` call per step."""
    runs, n = at.shape
    gamma = 1.0 / n
    state = OcoState(f, gamma)
    choice = np.empty((runs, n), dtype=np.int64)
    table, _ = ocp._menu_table(sets, f.m)
    for t in range(n):
        y = state.next_iterate()
        y = y if y.ndim == 2 else np.broadcast_to(y, (runs, f.m))
        j = at[:, t]
        choice[:, t], v = ocp._best_rows(table[j], y, table.shape[1] * np.arange(runs))
        state.observe(v, gamma)
    return state, choice


def per_step_welfare(requests, at, f):
    """The welfare engine's step loop with one ``observe`` call per step."""
    n = at.shape[1]
    gamma = 1.0 / n
    c_table, a_table = welfare._split_requests(requests, f.m)
    A = a_table[at]
    c_red, run_f = welfare._reduce(c_table[at], A, f)
    state = OcoState(run_f, gamma)
    x_virtual = np.empty(c_red.shape)
    for t in range(n):
        x = welfare._accept(c_red[:, t], state.next_iterate(), A[:, t])
        state.observe(A[:, t] * x[:, None], gamma)
        x_virtual[:, t] = x
    return state, x_virtual


PLAY_COSTS = [
    ("sum_of_powers", 2.0), ("sum_of_powers", 3.0), ("sum_of_powers", 4.0),
    ("linear_plus_power", 3.0), ("separable_generic", 2.0),
]


class TestPlay:
    """The engines' lockstep ``play`` against their loops of one-step ``observe``."""

    @staticmethod
    def assert_same_arrays(trace, pairs):
        for name, want in pairs:
            got = getattr(trace, name)
            assert np.array_equal(got, want) and got.flags.c_contiguous, name

    @staticmethod
    def assert_replay_matches(steps):
        # A state that plays the loop's loads as one block ends as the loop's state.
        _, v, gamma, _ = steps.record()
        block = OcoState(steps.f, steps.gamma_bar)
        block.play(lambda t, y: v[..., t, :], len(gamma), steps.gamma_bar)
        for a, b in zip(block.record(), steps.record()):
            assert a.shape == b.shape and np.array_equal(a, b) and a.flags.c_contiguous
        assert np.array_equal(block.cum_v, steps.cum_v) and block.cum_gamma == steps.cum_gamma
        assert np.array_equal(block.next_iterate(), steps.next_iterate())

    @pytest.mark.parametrize("family,p", PLAY_COSTS)
    @pytest.mark.parametrize("runs", [1, 5])
    def test_ocp_matches_the_per_step_loop(self, family, p, runs):
        rng = np.random.default_rng([runs, int(p), len(family)])
        m, n = 3, 18
        f = make_family(family, m, p, rng)
        # Menus of 1 to 4 options, as FeasibleSets and as raw arrays, two
        # of them with a repeated option row.
        sets = [rng.uniform(0, 1, (k, m)) for k in (1, 2, 3, 4, 2, 3)]
        sets[2][2] = sets[2][0]
        sets[3][3] = sets[3][1]
        sets = [FeasibleSet(s) if i % 2 else s for i, s in enumerate(sets)]
        at = rng.integers(0, len(sets), (runs, n))
        trace = ocp.run_ocp_batch(sets, at, f)
        state, choice = per_step_ocp(sets, at, f)
        y, v, _, conj_y = state.record()
        pairs = (("y", y), ("v", v), ("conj_y", conj_y), ("choice", choice), ("load", state.cum_v))
        self.assert_same_arrays(trace, pairs)
        self.assert_replay_matches(state)

    @pytest.mark.parametrize("family,p", PLAY_COSTS[:4])
    @pytest.mark.parametrize("runs", [1, 5])
    def test_welfare_matches_the_per_step_loop(self, family, p, runs):
        rng = np.random.default_rng([runs, int(p), len(family), 1])
        m, n = 2, 16
        f = make_family(family, m, p, rng)
        slopes = f.linear_slopes if f.linear_slopes is not None else np.zeros(m)
        requests = [(float(rng.uniform(-1, 5)), rng.uniform(0, 1, m)) for _ in range(6)]
        requests.append((0.0, np.zeros(m)))  # ties at every dual
        # A request that ties at the first posted dual, which every run faces.
        a = np.array([0.5, 0.25])
        tie, shift = float(np.dot(OcoState(f.power_part(), 1.0 / n).next_iterate(), a)), a @ slopes
        c = tie + shift
        for _ in range(4):  # the reduced reward c - shift must equal the tie exactly
            c = c if c - shift == tie else np.nextafter(c, np.sign(tie - (c - shift)) * np.inf)
        requests.append((float(c), a))
        at = rng.integers(0, len(requests), (runs, n))
        at[:, 0] = len(requests) - 1
        trace = welfare.run_welfare_batch(requests, at, f)
        assert np.array_equal(trace.c_reduced[:, 0], np.vecdot(trace.y[:, 0], trace.a[:, 0]))
        assert not trace.x_virtual[:, 0].any()
        state, x_virtual = per_step_welfare(requests, at, f)
        y, v, _, conj_y = state.record()
        pairs = (("y", y), ("virtual_loads", v), ("conj_y", conj_y), ("x_virtual", x_virtual))
        self.assert_same_arrays(trace, pairs)
        self.assert_replay_matches(state)

    def test_load_above_one_names_the_first_bad_step(self):
        # The loads are checked after the loop; the refusal names the first
        # bad step, and nothing is recorded.
        refusal = r"^step 3: load coordinates must lie in \[0, 1\]$"
        loads = np.full((8, 1), 0.5)
        loads[2] = loads[5] = 1.5
        st = square_state()
        with pytest.raises(ValueError, match=refusal):
            st.play(lambda t, y: loads[t], 8, 1 / 8)
        assert st.record()[0].shape == (0, 1) and st.cum_gamma == 0.0
        # In lockstep, the first step at which any run's load is bad.
        loads = np.full((2, 8, 1), 0.5)
        loads[0, 5] = loads[1, 2] = 1.5
        with pytest.raises(ValueError, match=refusal):
            square_state().play(lambda t, y: loads[:, t], 8, 1 / 8)

    def test_bad_step_is_named_before_the_error_it_causes(self):
        # Negative loads drive the gradient argument below 0 by step 12,
        # where x**1.5 is invalid; the refusal of step 1 comes first.
        st = OcoState(SumOfPowers([1.0], 2.5), 1 / 16)
        with np.errstate(invalid="raise"):
            with pytest.raises(ValueError, match=r"^step 1: load coordinates"):
                st.play(lambda t, y: np.array([-1.0]), 16, 1 / 16)


class TestStability:
    def test_worked_pair(self):
        st = square_state()
        drive(st, [[1.0]] * 8, [1 / 8] * 8)
        assert check_stability(st).passed

    def test_all_zero_loads(self):
        st = square_state()
        drive(st, [[0.0]] * 8, [1 / 8] * 8)
        rep = check_stability(st)
        assert rep.passed
        lo, hi = rep.detail["arg_ratio_range"]
        assert lo >= 1.0 - 1e-12 and hi <= 2 ** 0.5

    def test_single_step_at_cap(self):
        f = SumOfPowers([1.0, 1.0], 2)
        st = OcoState(f, 1 / 8)
        drive(st, np.ones((8, 2)), [1 / 8] * 8)
        assert check_stability(st).passed

    def test_leader_iterates_computed_once(self):
        # Both checks read the state's leader cache: one grad_many over all
        # leader rows plus the time-0 iterate of be-the-leader, not one per
        # step per check.
        f = SumOfPowers([1.0, 2.0], 2)
        st = drive(OcoState(f, 1 / 8), np.full((8, 2), 0.5), [1 / 8] * 8)
        grad_many, calls = f.grad_many, []
        f.grad_many = lambda U: calls.append(np.shape(U)) or grad_many(U)
        assert check_be_the_leader(st).passed and check_stability(st).passed
        assert sorted(calls) == [(2,), (8, 2)]
        st.observe(np.array([1.0, 0.0]), 0.0)  # drops the cache
        assert st.leaders()[1].shape == (9, 2)
        assert st.leaders()[1].shape == (9, 2)
        assert calls[-2:] == [(2,), (9, 2)]  # the step's iterate, then the leaders once

    def test_negative_load_refused_before_recording(self):
        # A load below 0 by any amount is refused, so that no leader
        # argument, a sum of loads, can fall below 0 without the shift.
        st = OcoState(SumOfPowers([1.0], 2), 1 / 8, disable_shift=True)
        with pytest.raises(ValueError, match="^step 1: load coordinates must lie in"):
            st.observe_steps(np.full((40, 1), -1e-12), [1 / 8] * 8 + [0.0] * 32)
        assert st.record()[0].shape == (0, 1) and st.cum_gamma == 0.0
        assert np.array_equal(st.cum_v, [0.0])

    def test_zero_loads_without_shift_get_verdicts(self):
        st = OcoState(SumOfPowers([1.0], 2), 1 / 8, disable_shift=True)
        st.observe_steps(np.zeros((40, 1)), [1 / 8] * 8 + [0.0] * 32)
        assert np.array_equal(st.leaders()[0], np.zeros((40, 1)))
        for verdict in (check_be_the_leader(st), check_stability(st)):
            assert type(verdict.passed) is bool and math.isfinite(verdict.slack)


class TestBeTheLeader:
    def test_time0_closed_form(self):
        # sup over duals of <y, 4p*ones> - 4*conj(y) is 4*cost(p*ones) = 16
        st = square_state()
        rep = check_be_the_leader(st := drive(st, [[0.0]], [1 / 8]))
        assert rep.detail["time0_gain_matches"]

    def test_all_zero_run(self):
        # Loads contribute nothing, yet the leader keeps drifting with the
        # multiplier accumulation, so the dominance is strict: at t=1 the
        # banked gain is 16 - 128/81 against a best-in-hindsight of
        # 4 * 1.125 * (16/9)^2.
        st = square_state()
        drive(st, [[0.0]] * 8, [1 / 8] * 8)
        rep = check_be_the_leader(st)
        assert rep.passed
        lhs_t1 = 16.0 - 128.0 / 81.0
        rhs_t1 = 4.5 * (16.0 / 9.0) ** 2
        assert rep.slack <= (lhs_t1 - rhs_t1) / max(1.0, rhs_t1) + 1e-12
        assert rep.slack > 0.0

    def test_random_runs(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            f = make_family("sum_of_powers", 2, 3.0, rng)
            st = OcoState(f, 1 / 16)
            drive(st, rng.uniform(0, 1, (16, 2)), [1 / 16] * 16)
            assert check_be_the_leader(st).passed


class TestPricedWork:
    """The checks price only the separable conjugates and leader costs that they read."""

    @staticmethod
    def alternating_state(disable_shift=False):
        rng = np.random.default_rng(5)
        st = OcoState(make_family("separable_generic", 2, 2.0, rng), 1 / 8, disable_shift=disable_shift)
        st.observe_steps(rng.uniform(0.0, 1.0, (16, 2)), [1 / 8, 0.0] * 8)
        return st

    def test_be_the_leader_searches_no_zero_multiplier_dual(self):
        st = self.alternating_state()
        f, searched = st.f, []
        search = f._conj_1d
        f._conj_1d = lambda i, y: searched.append((i, y)) or search(i, y)
        y_next = st.leaders()[1]

        def keys(rows):
            return {(i, y) for row in rows.tolist() for i, y in enumerate(row)}

        priced = keys(y_next[0::2]) | keys(f.grad_many(st.shift / 4.0)[None])
        idle = keys(y_next[1::2]) - priced
        assert check_be_the_leader(st).passed
        assert searched and len(idle) == 16
        assert set(searched) <= priced

    @pytest.mark.parametrize("disable_shift, own_evals", [(False, 0), (True, 1)])
    def test_guarantees_reuse_the_leader_costs_under_the_nominal_shift(
        self, disable_shift, own_evals
    ):
        st = self.alternating_state(disable_shift)
        f, shapes = st.f, []
        eval_rows = f.eval_rows
        f.eval_rows = lambda U: shapes.append(np.shape(U)) or eval_rows(U)
        check_be_the_leader(st)
        assert shapes.count((16, 2)) == 1
        check_oco_guarantees(st)
        assert shapes.count((16, 2)) == 1 + own_evals
        st.observe(np.array([0.5, 0.5]), 0.0)  # drops the cached costs
        check_oco_guarantees(st)
        assert shapes.count((17, 2)) == 1


class TestGuarantees:
    def test_all_zero_loads(self):
        st = square_state()
        drive(st, [[0.0]] * 8, [1 / 8] * 8)
        rep = check_oco_guarantees(st)
        assert rep.passed
        # regret claim degenerates to 0 >= -cost(p*ones)
        assert rep.detail["regret_final"] >= 0

    def test_requires_complete_run(self):
        st = square_state()
        st.observe(np.array([1.0]), 1 / 8)
        with pytest.raises(ValueError):
            check_oco_guarantees(st)

    @pytest.mark.parametrize("family", ["sum_of_powers", "linear_plus_power"])
    def test_random_runs(self, family):
        rng = np.random.default_rng(12)
        for trial in range(20):
            f = make_family(family, 3, 2.0, rng)
            st = OcoState(f, 1 / 16)
            drive(st, rng.uniform(0, 1, (16, 3)), [1 / 16] * 16)
            rep = check_oco_guarantees(st)
            assert rep.passed, rep
            # the separable size control dominates the max-based one
            assert rep.detail["size_control"] >= rep.detail["size_control_separable"] - 1e-12


class TestDominatingSet:
    def test_uniform_schedule(self):
        st = square_state()
        drive(st, [[1.0]] * 8, [1 / 8] * 8)
        indices, witness, rep = dominating_set(st)
        assert indices == [4, 8]
        assert rep.passed
        assert np.all(witness >= np.arange(1, 9))

    def test_trailing_zero_multipliers_stay_dominated(self):
        # Spend the whole multiplier budget early, then keep loading: the
        # final interval must be anchored at the last step or the tail
        # escapes every witness.
        f = SumOfPowers([1.0, 1.0], 2)
        st = OcoState(f, 1 / 8)
        loads = np.ones((24, 2))
        gammas = [1 / 8] * 8 + [0.0] * 16
        drive(st, loads, gammas)
        indices, witness, rep = dominating_set(st)
        assert indices[-1] == 24
        assert rep.passed

    def test_certificate_on_random_runs(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            fam = ["sum_of_powers", "linear_plus_power", "separable_generic"][trial % 3]
            p = float(rng.choice([2.0, 3.0, 4.0]))
            m = int(rng.integers(1, 4))
            f = make_family(fam, m, p, rng)
            n = int(rng.integers(math.ceil(4 * p), 33))
            k = int(rng.integers(math.ceil(4 * p), n + 1))
            active = np.zeros(n, dtype=bool)
            active[rng.choice(n, size=k, replace=False)] = True
            st = OcoState(f, 1.0 / k)
            drive(st, rng.uniform(0, 1, (n, m)), np.where(active, 1.0 / k, 0.0))
            indices, witness, rep = dominating_set(st)
            assert len(indices) <= math.ceil(p)
            assert rep.passed, (trial, rep)


def test_shift_keeps_argument_away_from_origin():
    # The gradient-argument numerator never drops below 4p in any
    # coordinate, so iterates stay multiplicatively stable near t=1 too.
    rng = np.random.default_rng(16)
    f = SumOfPowers(rng.uniform(0.3, 2.0, 3), 3)
    st_ = OcoState(f, 1 / 16)
    for t in range(16):
        numerator = st_.shift + st_.cum_v
        assert np.all(numerator >= 4.0 * f.p)
        st_.observe(rng.uniform(0, 1, 3), 1 / 16)


@given(
    loads=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=8, max_size=8
    )
)
@settings(max_examples=60, deadline=None)
def test_guarantees_hold_for_arbitrary_loads(loads):
    f = SumOfPowers([1.0, 0.6], 2)
    state = OcoState(f, 1 / 8)
    for v in loads:
        state.observe(np.array(v), 1 / 8)
    assert check_oco_guarantees(state).passed
    assert check_stability(state).passed
    assert check_be_the_leader(state).passed
    assert dominating_set(state)[2].passed


class TestMutations:
    def test_disable_shift_breaks_a_guarantee(self):
        rng = np.random.default_rng(14)
        f = SumOfPowers([1.0, 1.0], 2)
        st = OcoState(f, 1 / 16, disable_shift=True)
        drive(st, rng.uniform(0.5, 1.0, (16, 2)), [1 / 16] * 16)
        failed = (
            not check_oco_guarantees(st).passed
            or not check_stability(st).passed
        )
        assert failed

    def test_disable_regularizer_breaks_stability(self):
        rng = np.random.default_rng(15)
        f = SumOfPowers([1.0, 1.0], 2)
        st = OcoState(f, 1 / 16, disable_regularizer=True)
        drive(st, rng.uniform(0, 1, (16, 2)), [1 / 16] * 16)
        assert not check_stability(st).passed

    def test_dual_one_step_late_breaks_stability(self, monkeypatch):
        post_one_step_late(monkeypatch)
        results = run_oco_suite(count=40)
        assert any(r.check == "stability" and not r.passed for r in results)


def test_suite_observes_each_run_as_one_block(monkeypatch):
    # run_oco_suite knows every load and multiplier up front, so each
    # configuration is one block call, with no per-step observe.
    calls = {"observe": 0, "observe_steps": 0}
    for name in calls:

        def counted(self, *args, _name=name, _method=getattr(OcoState, name)):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(OcoState, name, counted)
    run_oco_suite(count=12, seed=3)
    assert calls == {"observe": 0, "observe_steps": 12}
