import itertools
import math

import numpy as np
import pytest

from robustpd import oracles
from robustpd.costs import SumOfPowers
from robustpd.oracles import (
    GuardError,
    count_multisets,
    grid_search_welfare,
    opt_adv_ocp,
    opt_stoch_ocp,
    opt_stoch_welfare,
    opt_welfare,
)

from test_costs import make_family


def square2():
    return SumOfPowers([1.0, 1.0], 2)


def recursive_opt_adv(menus, f):
    """Depth-first enumeration in lexicographic order: the reference optimum."""
    best = [math.inf, None]

    def recurse(t, acc, stack):
        if t == len(menus):
            val = f.eval(acc)
            if val < best[0]:
                best[:] = [val, list(stack)]
            return
        for j, row in enumerate(menus[t]):
            recurse(t + 1, acc + row, stack + [j])

    recurse(0, np.zeros(f.m), [])
    return best


class TestOptAdv:
    @pytest.mark.parametrize("block_rows", [4, oracles.ADV_BLOCK_ROWS])
    @pytest.mark.parametrize("family", ["sum_of_powers", "linear_plus_power", "separable_generic"])
    def test_matches_recursion(self, monkeypatch, family, block_rows):
        monkeypatch.setattr(oracles, "ADV_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng([block_rows, len(family)])
        for trial in range(8):
            m = int(rng.integers(1, 4))
            f = make_family(family, m, float(rng.choice([2.0, 3.0])), rng)
            sizes = rng.integers(1, 5, size=int(rng.integers(1, 7)))
            # Odd trials draw coordinates from {0, 0.5, 1}, so that many
            # combinations tie exactly and the tie-break is exercised.
            if trial % 2:
                menus = [rng.integers(0, 3, (k, m)) / 2.0 for k in sizes]
            else:
                menus = [rng.uniform(0, 1, (k, m)) for k in sizes]
            value, indices = recursive_opt_adv(menus, f)
            report = opt_adv_ocp(menus, f)
            assert report.value == value
            assert report.extra["indices"] == indices

    def test_answer_does_not_rest_on_eval_many_rounding(self):
        class WobblyBatch(SumOfPowers):
            # eval_many off by up to 1e-12 relative, which reorders exact ties.
            def eval_many(self, U):
                vals = super().eval_many(U)
                return vals * (1.0 + 1e-12 * np.cos(np.arange(len(vals))))

        rng = np.random.default_rng(43)
        f = WobblyBatch([1.0, 0.5, 2.0], 2)
        for _ in range(10):
            menus = [rng.integers(0, 3, (int(k), 3)) / 2.0 for k in rng.integers(2, 5, size=6)]
            value, indices = recursive_opt_adv(menus, f)
            report = opt_adv_ocp(menus, f)
            assert (report.value, report.extra["indices"]) == (value, indices)

    def test_two_step_split(self):
        sets = [np.array([[1.0, 0.0], [0.0, 1.0]])] * 2
        report = opt_adv_ocp(sets, square2())
        assert report.value == pytest.approx(2.0)
        assert np.array_equal(report.load, [1.0, 1.0])

    def test_single_set(self):
        report = opt_adv_ocp([np.array([[0.9, 0.9], [0.2, 0.1]])], square2())
        assert report.value == pytest.approx(0.05)

    def test_empty(self):
        report = opt_adv_ocp([], square2())
        assert report.value == 0.0 and report.choices == []

    def test_guard(self):
        sets = [np.random.default_rng(0).uniform(0, 1, (40, 1))] * 5
        with pytest.raises(GuardError):
            opt_adv_ocp(sets, SumOfPowers([1.0], 2))

    def test_reported_value_reproducible(self):
        rng = np.random.default_rng(41)
        f = make_family("linear_plus_power", 2, 3.0, rng)
        sets = [rng.uniform(0, 1, (3, 2)) for _ in range(5)]
        report = opt_adv_ocp(sets, f)
        assert f.eval(np.sum(report.choices, axis=0)) == pytest.approx(report.value)

    def test_dominates_random_combinations(self):
        rng = np.random.default_rng(42)
        f = square2()
        sets = [rng.uniform(0, 1, (3, 2)) for _ in range(6)]
        report = opt_adv_ocp(sets, f)
        for _ in range(100):
            picks = [s[rng.integers(len(s))] for s in sets]
            assert report.value <= f.eval(np.sum(picks, axis=0)) + 1e-12


class TestOptStoch:
    def test_two_point_support(self):
        # support {(1,0)} and {(0,1)}, two draws: 1/4*cost(2,0) + 1/2*cost(1,1)
        # + 1/4*cost(0,2) = 3
        support = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
        report = opt_stoch_ocp(support, [0.5, 0.5], 2, square2())
        assert report.value == pytest.approx(3.0)
        assert np.allclose(report.load, [1.0, 1.0])

    def test_degenerate_support(self):
        support = [np.array([[1.0, 0.0], [0.4, 0.4]])]
        report = opt_stoch_ocp(support, [1.0], 3, square2())
        # one selector per option: min(cost(3,0), cost(1.2,1.2)) = 2.88
        assert report.value == pytest.approx(min(9.0, 2 * 1.2**2))

    def test_zero_draws(self):
        assert opt_stoch_ocp([np.eye(2)], [1.0], 0, square2()).value == 0.0

    def test_exact_matches_monte_carlo(self):
        rng = np.random.default_rng(43)
        f = make_family("sum_of_powers", 2, 2.0, rng)
        support = [rng.uniform(0, 1, (2, 2)) for _ in range(3)]
        probs = np.array([0.5, 0.3, 0.2])
        exact = opt_stoch_ocp(support, probs, 6, f)
        chosen = np.stack(exact.selector)
        draws = rng.choice(3, size=(100_000, 6), p=probs)
        loads = np.zeros((100_000, 2))
        for j in range(3):
            loads += (draws == j).sum(axis=1)[:, None] * chosen[j]
        vals = f.eval_many(loads)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - exact.value) <= 3 * se

    def test_selector_beats_alternatives(self):
        rng = np.random.default_rng(44)
        f = square2()
        support = [rng.uniform(0, 1, (2, 2)) for _ in range(2)]
        probs = [0.6, 0.4]
        best = opt_stoch_ocp(support, probs, 4, f)
        for sel in itertools.product(range(2), repeat=2):
            chosen = [support[j][sel[j]] for j in range(2)]
            counts, pmf = _table(4, probs)
            val = float(pmf @ f.eval_many(counts @ np.stack(chosen)))
            assert best.value <= val + 1e-12

    def test_monte_carlo_fallback(self):
        rng = np.random.default_rng(45)
        support = [rng.uniform(0, 1, (2, 1)) for _ in range(3)]
        report = opt_stoch_ocp(support, [1 / 3] * 3, 2000, SumOfPowers([1.0], 2), mc_samples=2000)
        assert not report.exact and report.method == "monte-carlo"
        assert report.stderr > 0.0


def _table(n, probs):
    from robustpd.oracles import _multiset_table

    return _multiset_table(n, probs)


class TestMultisetTable:
    def test_probabilities_sum_to_one(self):
        counts, pmf = _table(7, [0.2, 0.5, 0.3])
        assert counts.shape[0] == count_multisets(7, 3)
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(counts.sum(axis=1) == 7)

    def test_single_support(self):
        counts, pmf = _table(5, [1.0])
        assert counts.tolist() == [[5]] and pmf.tolist() == [1.0]

    def test_zero_probability_entry(self):
        counts, pmf = _table(4, [0.0, 1.0])
        mask = counts[:, 0] > 0
        assert np.all(pmf[mask] == 0.0)
        assert pmf.sum() == pytest.approx(1.0)


class TestOptWelfare:
    def test_boundary_optimum(self):
        report = opt_welfare([(4.0, np.array([1.0]))], SumOfPowers([1.0], 2))
        assert report.value == pytest.approx(3.0, abs=1e-7)
        assert report.choices == pytest.approx([1.0], abs=1e-7)

    def test_interior_optimum(self):
        report = opt_welfare([(1.0, np.array([1.0]))], SumOfPowers([1.0], 2))
        assert report.value == pytest.approx(0.25, abs=1e-8)
        assert report.choices == pytest.approx([0.5], abs=1e-6)

    def test_all_rejected(self):
        reqs = [(-1.0, np.array([0.5, 0.5]))] * 3
        report = opt_welfare(reqs, square2())
        assert report.value == pytest.approx(0.0, abs=1e-12)

    def test_empty(self):
        assert opt_welfare([], square2()).value == 0.0

    def test_guard(self):
        reqs = [(1.0, np.array([1.0]))] * 65
        with pytest.raises(GuardError):
            opt_welfare(reqs, SumOfPowers([1.0], 2))

    @pytest.mark.parametrize("n,resolution", [(1, 200), (2, 200), (3, 100), (4, 40)])
    def test_matches_grid_search(self, n, resolution):
        rng = np.random.default_rng(46 + n)
        for _ in range(3):
            m = int(rng.integers(1, 3))
            f = make_family("sum_of_powers", m, 2.0, rng)
            reqs = [(float(rng.uniform(-1, 4)), rng.uniform(0, 1, m)) for _ in range(n)]
            pga = opt_welfare(reqs, f)
            grid = grid_search_welfare(reqs, f, resolution=resolution)
            assert pga.value >= grid.value - 1e-9
            assert abs(pga.value - grid.value) <= 1e-3


class TestOptStochWelfare:
    def test_single_support_matches_deterministic(self):
        f = SumOfPowers([1.0], 2)
        report = opt_stoch_welfare([(4.0, np.array([1.0]))], [1.0], 1, f)
        assert report.value == pytest.approx(3.0, abs=1e-6)
        assert report.selector == pytest.approx([1.0], abs=1e-4)

    def test_nonpositive_rewards(self):
        f = SumOfPowers([1.0], 2)
        report = opt_stoch_welfare([(-2.0, np.array([1.0]))], [1.0], 3, f)
        assert report.value == pytest.approx(0.0, abs=1e-12)
        assert report.selector == pytest.approx([0.0])

    def test_fractional_interior_selector(self):
        # One support point (c=8, a=1), 4 draws: maximize 32x - E[k^2] x^2
        # with k ~ Bin(4, 1) degenerate = 4 => 32x - 16 x^2, optimum x = 1.
        # With p = 1/2 mixing against a dud, E[k^2] = 5 and c-part halves.
        f = SumOfPowers([1.0], 2)
        report = opt_stoch_welfare(
            [(8.0, np.array([1.0])), (0.0, np.array([1.0]))], [0.5, 0.5], 4, f
        )
        # d/dx of 16x - 5x^2 vanishes at 8/5 > 1 -> boundary 1
        assert report.selector[0] == pytest.approx(1.0, abs=1e-4)

    def test_against_brute_grid(self):
        rng = np.random.default_rng(48)
        f = make_family("sum_of_powers", 2, 2.0, rng)
        support = [(2.5, rng.uniform(0, 1, 2)), (1.0, rng.uniform(0, 1, 2))]
        probs = [0.6, 0.4]
        report = opt_stoch_welfare(support, probs, 5, f)
        counts, pmf = _table(5, probs)
        c = np.array([s[0] for s in support])
        A = np.stack([s[1] for s in support])
        best = -math.inf
        for x0 in np.linspace(0, 1, 41):
            for x1 in np.linspace(0, 1, 41):
                x = np.array([x0, x1])
                val = float((5 * np.asarray(probs)) @ (c * x)) - float(
                    pmf @ f.eval_many(counts @ (A * x[:, None]))
                )
                best = max(best, val)
        assert report.value >= best - 1e-6
