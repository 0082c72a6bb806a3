import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from robustpd import oracles
from robustpd.costs import LinearPlusPower, SumOfPowers
from robustpd.instances import GeneratorParams, generate
from robustpd.ocp import _menus
from robustpd.oracles import (
    GuardError,
    _TERNARY_STEPS,
    count_multisets,
    opt_adv_ocp,
    opt_stoch_ocp,
    opt_stoch_welfare,
)
from robustpd.welfare import _split_requests

from test_costs import FAMILIES, make_family


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

    def test_screening_scores_few_selectors(self):
        # The shape of the large stochastic parts of the benchmark's exact
        # oracle workload: 16 draws, 5 support elements, 3 options each.
        params = GeneratorParams(
            problem="ocp", n=16, m=2, p=2.0, n_adv=0, support_size=(5, 5), options_range=(3, 3)
        )
        inst = generate(params, 3)
        report = opt_stoch_ocp(inst.support, inst.probs, inst.n_stoch, inst.cost_function())
        assert report.extra["selectors"] == 3**5
        assert 1 <= report.extra["scored"] < 0.05 * 3**5


def stoch_oracle(name):
    """The stochastic oracle ``name`` on a two-element support at m = 1."""
    if name == "ocp":
        support = [np.array([[0.5], [0.2]]), np.array([[0.4]])]
        return lambda probs: opt_stoch_ocp(support, probs, 4, SumOfPowers([1.0], 2))
    support = [(2.0, np.array([0.5])), (1.0, np.array([0.4]))]
    return lambda probs: opt_stoch_welfare(support, probs, 4, SumOfPowers([1.0], 2))


@pytest.mark.parametrize("oracle", ["ocp", "welfare"])
@pytest.mark.parametrize(
    "probs,message",
    [
        ([0.7, 0.7], "probs sum to 1.4, not 1"),
        ([1.5, -0.5], "probs must be finite and >= 0"),
        ([math.nan, 1.0], "probs must be finite and >= 0"),
        ([math.inf, 0.0], "probs must be finite and >= 0"),
        ([1.0], r"probs need one probability per support element: shape \(1,\), expected \(2,\)"),
        ([0.5, 0.25, 0.25], "probs need one probability per support element"),
        (None, "probs need one probability per support element"),
        (["a", "b"], "probs must be numbers"),
    ],
)
def test_stochastic_oracles_refuse_a_non_distribution(oracle, probs, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        stoch_oracle(oracle)(probs)


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


def grid_search_welfare(counts, pmf, c, A, f, resolution):
    """Best point of the box grid at spacing ``1/resolution``: ``(value, x)``.

    Scores the expected profit ``sum_j E[counts_j]*c_j*x_j - E[cost(counts @ (A*x))]``
    over the draw-count table ``(counts, pmf)``, all grid points in one pass.
    The one-row table ``ones((1, n))``, ``[1.0]`` is the deterministic problem
    over the n requests ``(c, A)``.
    """
    pts = resolution + 1
    axis = np.linspace(0.0, 1.0, pts)
    grid = axis[np.stack(np.unravel_index(np.arange(pts ** len(c)), (pts,) * len(c)), axis=1)]
    reward = grid @ (c * (pmf @ counts))
    costs = f.eval_many(counts @ (A * grid[:, :, None]))
    vals = reward - costs @ pmf
    best = int(np.argmax(vals))
    return float(vals[best]), grid[best]


class TestOptStochWelfare:
    def test_single_support_matches_deterministic(self):
        f = SumOfPowers([1.0], 2)
        report = opt_stoch_welfare([(4.0, np.array([1.0]))], [1.0], 1, f)
        assert report.value == pytest.approx(3.0, abs=1e-6)
        assert report.selector == pytest.approx([1.0], abs=1e-4)
        # One draw of one request is the deterministic one-row table.
        value, x = grid_search_welfare(
            np.ones((1, 1)), np.array([1.0]), np.array([4.0]), np.array([[1.0]]), f, 200
        )
        assert value == 3.0 and x.tolist() == [1.0]

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
        best, _ = grid_search_welfare(counts, pmf, c, A, f, 40)
        assert report.value >= best - 1e-6

    def test_guard_names_the_table_size(self):
        support = [(1.0, np.array([0.5]))] * 10
        message = "^10015005 draw-count multisets exceed the 1000000 guard; use fewer"
        with pytest.raises(GuardError, match=message):
            opt_stoch_welfare(support, [0.1] * 10, 20, SumOfPowers([1.0], 2))

    def test_vertex_optimum_is_certified_exact(self):
        # Profit 4x - x^2 rises on all of [0, 1]: the gradient 2 at x = 1
        # points out of the box, so the Frank-Wolfe gap is 0.
        report = opt_stoch_welfare([(4.0, np.array([1.0]))], [1.0], 1, SumOfPowers([1.0], 2))
        assert report.selector == [1.0]
        assert (report.exact, report.extra["gap"]) == (True, 0.0)

    def test_certificates_are_counted_both_ways(self):
        # Profit 4x - x^2 rises steeply on all of [0, 1]: its scan and the
        # first ternary steps are decided without scoring.
        steep = opt_stoch_welfare([(4.0, np.array([1.0]))], [1.0], 1, SumOfPowers([1.0], 2))
        assert steep.extra["scans_certified"] == 2 and steep.extra["steps_certified"] > 0
        assert steep.extra["levels_scored"] == 0
        # One near-flat axis (every third part has one element), its peak
        # inside: no scan and no step is certified.
        for support, probs, n_stoch, f in itertools.islice(near_flat_parts(24, 5), 0, None, 3):
            report = opt_stoch_welfare(support, probs, n_stoch, f)
            assert (report.extra["scans_certified"], report.extra["steps_certified"]) == (0, 0)
            assert report.extra["levels_scored"] > 0

    def test_gap_flags_an_answer_short_of_the_optimum(self):
        # Criterion 7's second instance: coordinate ascent stops at a point
        # whose Frank-Wolfe gap is about 0.06.
        params = GeneratorParams(
            problem="welfare", n=20, m=2, p=3.0, family="linear_plus_power", n_adv=2,
            adv_placement="prefix", reward_range=(-1.0, 5.0),
        )
        inst = generate(params, 7001)
        report = opt_stoch_welfare(inst.support, inst.probs, inst.n_stoch, inst.cost_function())
        assert not report.exact
        assert report.extra["gap"] == pytest.approx(0.0596, abs=1e-3)
        # The gap bounds the shortfall: a point of higher profit exists.
        counts, pmf = _table(inst.n_stoch, inst.probs)
        c, A = _split_requests(inst.support, inst.m)
        best, _ = grid_search_welfare(counts, pmf, c, A, inst.cost_function(), 40)
        assert report.value < best <= report.value + report.extra["gap"]


# -- the loops that the batched stochastic oracles replaced, as references ----------


def compositions(n, s):
    """Nonnegative integer vectors of length s summing to n, lexicographically."""
    if s == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for rest in compositions(n - k, s - 1):
            yield (k, *rest)


def left_sum(values):
    # Python's sum of floats up to 3.11: left to right from 0 (3.12 and
    # later compensate the rounding).
    total = 0
    for v in values:
        total = total + v
    return total


def loop_multiset_table(n_draws, probs):
    s = len(probs)
    counts = np.array(list(compositions(n_draws, s)), dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    log_probs = np.log(np.maximum(probs, 1e-300))
    lg = math.lgamma(n_draws + 1)
    logpmf = (
        lg
        - np.array([left_sum(math.lgamma(k + 1) for k in row) for row in counts])
        + counts @ log_probs
    )
    pmf = np.exp(logpmf)
    dead = probs <= 0.0
    if np.any(dead):
        pmf[(counts[:, dead] > 0).any(axis=1)] = 0.0
    return counts, pmf


def loop_opt_stoch_ocp(support, probs, n_stoch, f):
    """(value, indices, load), one selector at a time."""
    menus = _menus(support, f.m)
    probs = np.asarray(probs, dtype=np.float64)
    counts, pmf = loop_multiset_table(n_stoch, probs)
    best_val, best_sel = math.inf, None
    for sel in itertools.product(*(range(len(o)) for o in menus)):
        chosen = np.stack([menus[j][i] for j, i in enumerate(sel)])
        val = float(pmf @ f.eval_many(counts @ chosen))
        if val < best_val:
            best_val, best_sel = val, sel
    chosen = np.stack([menus[j][i] for j, i in enumerate(best_sel)])
    return best_val, list(best_sel), n_stoch * (probs @ chosen)


def loop_opt_stoch_ocp_mc(support, probs, n_stoch, f, mc_samples, seed=0):
    """(value, indices, load, stderr) of the Monte Carlo fallback, one selector at a time."""
    menus = _menus(support, f.m)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    s = len(menus)
    best_val, best_sel, best_err = math.inf, None, 0.0
    draws = rng.choice(s, size=(mc_samples, n_stoch), p=probs)
    counts = np.stack([(draws == j).sum(axis=1) for j in range(s)], axis=1)
    for sel in itertools.product(*(range(len(o)) for o in menus)):
        chosen = np.stack([menus[j][i] for j, i in enumerate(sel)])
        vals = f.eval_many(counts @ chosen)
        mean = float(vals.mean())
        if mean < best_val:
            best_val, best_sel = mean, sel
            best_err = float(vals.std(ddof=1) / math.sqrt(mc_samples))
    chosen = np.stack([menus[j][i] for j, i in enumerate(best_sel)])
    return best_val, list(best_sel), n_stoch * (np.asarray(probs) @ chosen), best_err


def loop_opt_stoch_welfare(support, probs, n_stoch, f, grid=101, sweeps=40):
    """(value, selector, load), one axis candidate at a time."""
    s = len(support)
    c, A = _split_requests(support, f.m)
    probs = np.asarray(probs, dtype=np.float64)
    counts, pmf = loop_multiset_table(n_stoch, probs)
    mean_counts = n_stoch * probs

    def expected_profit(x):
        reward = float(mean_counts @ (c * x))
        return reward - float(pmf @ f.eval_many(counts @ (A * x[:, None])))

    def profit_on_axis(x, j, axis):
        others = counts @ (A * x[:, None]) - np.outer(counts[:, j], A[j] * x[j])
        reward_base = float(mean_counts @ (c * x)) - mean_counts[j] * c[j] * x[j]
        vals = np.empty(axis.size)
        for i, g in enumerate(axis):
            loads = others + np.outer(counts[:, j], A[j] * g)
            vals[i] = reward_base + mean_counts[j] * c[j] * g - float(pmf @ f.eval_many(loads))
        return vals

    axis = np.linspace(0.0, 1.0, grid)
    x = np.zeros(s)
    for _ in range(sweeps):
        moved = False
        for j in range(s):
            g = float(axis[int(np.argmax(profit_on_axis(x, j, axis)))])
            if g != x[j]:
                x[j] = g
                moved = True
        if not moved:
            break
    for j in range(s):
        lo = max(0.0, x[j] - 1.0 / (grid - 1))
        hi = min(1.0, x[j] + 1.0 / (grid - 1))
        for _ in range(80):
            d = (hi - lo) / 3.0
            a, b = lo + d, hi - d
            va, vb = profit_on_axis(x, j, np.array([a, b]))
            if va < vb:
                lo = a
            else:
                hi = b
        trial = x.copy()
        trial[j] = 0.5 * (lo + hi)
        if expected_profit(trial) >= expected_profit(x):
            x = trial
    return expected_profit(x), x.tolist(), n_stoch * ((probs * x) @ A)


def stochastic_parts(problem, count, seed):
    """``(support, probs, n_stoch, f)`` of generated instances at m = 1 and 2.

    Both cost families and p = 2, 3 alternate.  Every fourth instance gets a
    zero-probability support entry, every eighth a support of 8 or 9
    elements (a table with s >= 8), and some a support of one element.
    OCP menus repeat an option row on odd instances, so that distinct
    selectors tie exactly.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        m = 1 + i % 2
        p = (2.0, 3.0)[(i // 4) % 2]
        n = int(rng.integers(12, 17))
        wide = i % 8 == 5
        params = GeneratorParams(
            problem=problem,
            n=n,
            m=m,
            p=p,
            family=("sum_of_powers", "linear_plus_power")[(i // 2) % 2],
            n_adv=n - int(rng.integers(1, 4)) if wide else int(rng.integers(0, 5)),
            support_size=(8, 9) if wide else (1, 4),
            options_range=(1, 2) if wide else (1, 3),
        )
        inst = generate(params, int(rng.integers(10**6)))
        support, probs = list(inst.support), np.array(inst.probs)
        if i % 4 == 3 and len(probs) > 1:
            probs[int(rng.integers(len(probs)))] = 0.0
            probs /= probs.sum()
        if problem == "ocp" and i % 2:
            menus = _menus(support, inst.m)
            j = int(rng.integers(len(menus)))
            support = menus[:j] + [np.vstack([menus[j], menus[j][:1]])] + menus[j + 1:]
        yield support, probs, inst.n_stoch, inst.cost_function()


def repeated_menu_parts():
    """Three copies of a menu that repeats its options, at 1 to 3 draws.

    Each value is reached by many selectors, and the selectors that pick
    one point for every element have a Jensen bound equal to their value.
    """
    menu = np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.0], [0.0, 0.5]])
    for n_stoch in (1, 2, 3):
        yield [menu] * 3, [0.5, 0.25, 0.25], n_stoch, square2()


def near_tie_parts(count, seed):
    """``(support, probs, n_stoch, f)`` whose options lie a few ulps apart.

    Every option is one point moved by -3 to 3 ulps in each coordinate,
    so many selectors tie or nearly tie, and every Jensen bound lies within
    rounding of some selector's value.  m runs over 1-3 and p over 2-4 with
    all three cost families; every fourth part with more than two support
    elements gives its first element probability 0.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        m = int(rng.integers(1, 4))
        f = make_family(FAMILIES[i % 3], m, float(rng.choice([2.0, 3.0, 4.0])), rng)
        s = int(rng.integers(1, 5))
        point = rng.uniform(0.2, 0.8, m)
        support = [
            point + rng.integers(-3, 4, (int(rng.integers(2, 5)), m)) * np.spacing(point)
            for _ in range(s)
        ]
        probs = rng.dirichlet(np.ones(s))
        probs[-1] = 1.0 - probs[:-1].sum()
        if s > 2 and i % 4 == 3:
            probs[0] = 0.0
            probs /= probs.sum()
        yield support, probs, int(rng.integers(1, 9)), f


def near_flat_parts(count, seed):
    """Welfare ``(support, probs, n_stoch, f)`` with a nearly flat first axis.

    Element 0 consumes coordinate 0 only and the others coordinate 1 only,
    so under the separable cost (``SumOfPowers`` or ``LinearPlusPower``,
    alternating, at p = 2) the expected profit on element 0's axis is
    ``b*t - q*t^2`` whatever the other levels.  The curvature ``q`` is
    below 1e-8, so the secant bound of the peak's interval exceeds the
    coarse maximum by less than the screening margin.  The peak
    ``b / (2q)`` lies strictly inside a coarse interval: in its left half
    on the first four of every eight parts, so the coarse maximum is the
    interval's left end, and in its right half on the other four.  Support
    sizes run over 1-3.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        s = 1 + i % 3
        n_stoch = int(rng.integers(2, 9))
        probs = rng.dirichlet(np.ones(s))
        probs[-1] = 1.0 - probs[:-1].sum()
        fine = (1, 2, 3, 4)[i % 4] + (0 if i % 8 < 4 else 4)
        peak = (10 * int(rng.integers(0, 10)) + fine + rng.uniform(0.2, 0.8)) / 100
        a0, weight = 10.0 ** rng.uniform(-7, -5), rng.uniform(0.5, 1.5)
        if i % 2:
            slope = rng.uniform(0.2, 1.0)
            f = LinearPlusPower([math.sqrt(weight), 1.0], [slope, 0.5], 2.0)
        else:
            slope = 0.0
            f = SumOfPowers([weight, 1.0], 2.0)
        mean0 = n_stoch * probs[0]
        q = weight * a0**2 * (mean0 * (1.0 - probs[0]) + mean0**2)  # weight * a0^2 * E[k0^2]
        support = [(slope * a0 + 2.0 * q * peak / mean0, np.array([a0, 0.0]))]
        for _ in range(s - 1):
            support.append((rng.uniform(-1, 5), np.array([0.0, rng.uniform(0.2, 0.8)])))
        yield support, probs, n_stoch, f


def first_axis(support, probs, n_stoch, f):
    """Profits of the 101 levels of element 0 with the others at 0, and the margin.

    The margin is the one ``opt_stoch_welfare`` screens this axis with.
    """
    counts, pmf = _table(n_stoch, probs)
    c, A = _split_requests(support, f.m)
    levels = np.linspace(0.0, 1.0, 101)
    slope = n_stoch * probs[0] * c[0]
    costs = np.array([pmf @ f.eval_many(np.outer(counts[:, 0], A[0] * t)) for t in levels])
    margin = oracles._CONCAVITY_MARGIN * (1.0 + abs(slope) + costs.max())
    return slope * levels - costs, margin


def monotone_parts(count, seed):
    """Welfare ``(support, probs, n_stoch, f)`` whose first axis rises or falls.

    Element 0's expected profit on its axis is ``B*t - q*t^2`` (p = 2)
    whatever the other levels: at m = 2 element 0 consumes coordinate 0
    only and the others coordinate 1 only, and at m = 1 the others have
    negative rewards, so they stay at 0.  Even parts rise on all of [0, 1],
    with slope ``e`` at level 1; odd parts fall, with slope ``-e`` at level
    0.  ``e`` is 1e-4 to 1e3 times about the separation that certifies a
    scan at the grid spacing, so the certificates of the scans and of the
    ternary steps hold on some parts and not on others, and on some the
    sign of ``e`` is not certified at all.  Parts 12-15 of every 16 (m = 2)
    are faint: element 0 consumes about 1e-9 and ``e`` is 0.1 to 10 times
    ``q``, so once the others have moved, the axis's levels tie within the
    rounding of the others' profit: the slope's sign is certified, but not
    its separation.  The cost family (``SumOfPowers`` or
    ``LinearPlusPower``) alternates every two parts, m every four, and the
    support size runs over 1-3.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        m, s = 1 + (i // 4) % 2, 1 + i % 3
        n_stoch = int(rng.integers(2, 9))
        probs = rng.dirichlet(np.ones(s))
        probs[-1] = 1.0 - probs[:-1].sum()
        faint = i % 16 >= 12
        a0, weight = rng.uniform(0.2, 0.8) * (1e-9 if faint else 1.0), rng.uniform(0.5, 1.5)
        if (i // 2) % 2:
            lin = rng.uniform(0.2, 1.0)
            f = LinearPlusPower([math.sqrt(weight), 1.0][:m], [lin, 0.5][:m], 2.0)
        else:
            lin = 0.0
            f = SumOfPowers([weight, 1.0][:m], 2.0)
        mean0 = n_stoch * probs[0]
        q = weight * a0**2 * (mean0 * (1.0 - probs[0]) + mean0**2)  # weight * a0^2 * E[k0^2]
        if faint:
            e = q * 10.0 ** rng.uniform(-1, 1)
        else:
            e = 2e-7 * (1.0 + 3.0 * q + 2.0 * lin * a0 * mean0) * 10.0 ** rng.uniform(-4, 3)
        base = 2.0 * q + e if i % 2 == 0 else -e  # B
        support = [(lin * a0 + base / mean0, np.array([a0, 0.0][:m]))]
        for _ in range(s - 1):
            if m == 1:
                support.append((rng.uniform(-1.0, -0.1), np.array([rng.uniform(0.2, 0.8)])))
            else:
                support.append((rng.uniform(-1, 5), np.array([0.0, rng.uniform(0.2, 0.8)])))
        yield support, probs, n_stoch, f


def first_axis_slopes(support, probs, n_stoch, f, lo, hi):
    """The first axis's certified slope over ``[lo, hi]`` and its exact derivative at both ends.

    With the others at 0, as in the first scan: the derivatives are
    computed as ``opt_stoch_welfare`` computes them, and the exact ones in
    rational arithmetic from the same floats (p = 2 costs only).
    """
    counts, pmf = _table(n_stoch, probs)
    c, A = _split_requests(support, f.m)
    slope = n_stoch * probs[0] * c[0]
    column = counts[:, 0].astype(np.float64)
    loads = column[:, None] * (np.array([lo, hi])[:, None, None] * A[0])
    along = f.grad_many(loads) @ A[0]
    g = slope - np.vecdot(column * along, pmf)
    g_scale = abs(slope) + np.vecdot(column * np.abs(along), pmf)
    # The cost is sum_i (w_i u_i^2 + l_i u_i), as eval_many computes it.
    weights = (f.coeffs if isinstance(f, SumOfPowers) else f._weights).tolist()
    lin = [0.0] * f.m if isinstance(f, SumOfPowers) else f.slopes.tolist()

    def exact(t):
        # slope - E[k <grad cost(k t a), a>], with k the draw count of element 0
        t, expected = Fraction(t), Fraction(0)
        for k, w in zip(counts[:, 0].tolist(), pmf.tolist()):
            along = sum(
                Fraction(a) * (2 * Fraction(wi) * k * Fraction(a) * t + Fraction(li))
                for a, wi, li in zip(A[0].tolist(), weights, lin)
            )
            expected += Fraction(w) * k * along
        return Fraction(float(slope)) - expected

    return oracles._certified_slope(g, g_scale), (exact(lo), exact(hi))


def welfare_mismatches(parts):
    """The parts on which opt_stoch_welfare and loop_opt_stoch_welfare differ.

    Value, selector and load are compared bit for bit.
    """
    mismatches = []
    for i, (support, probs, n_stoch, f) in enumerate(parts):
        report = opt_stoch_welfare(support, probs, n_stoch, f)
        value, selector, load = loop_opt_stoch_welfare(support, probs, n_stoch, f)
        if (report.value, report.selector) != (value, selector) or not np.array_equal(
            report.load, load
        ):
            mismatches.append(i)
    return mismatches


def loop_mismatches(parts):
    """The parts on which opt_stoch_ocp and loop_opt_stoch_ocp differ.

    Value, indices and load are compared bit for bit.
    """
    mismatches = []
    for i, (support, probs, n_stoch, f) in enumerate(parts):
        report = opt_stoch_ocp(support, probs, n_stoch, f)
        value, indices, load = loop_opt_stoch_ocp(support, probs, n_stoch, f)
        if (report.value, report.extra["indices"]) != (value, indices) or not np.array_equal(
            report.load, load
        ):
            mismatches.append(i)
    return mismatches


def test_cases_cover_the_edges():
    for problem in ("ocp", "welfare"):
        cases = list(stochastic_parts(problem, 40, 0))
        sizes = [len(probs) for _, probs, _, _ in cases]
        assert min(sizes) == 1 and max(sizes) >= 8
        assert any(np.any(probs == 0.0) for _, probs, _, _ in cases)
        assert {f.m for *_, f in cases} == {1, 2}


class TestBatchedEqualsLoops:
    @pytest.mark.parametrize(
        "n,probs",
        [(5, [1.0]), (0, [0.5, 0.5]), (6, [0.2, 0.0, 0.5, 0.3]), (3, [0.1] * 10), (9, [0.25] * 4),
         (12, [0.125] * 8), (16, [0.2] * 5), (14, [1 / 6] * 6), (0, [1.0]), (0, [0.1, 0.2, 0.3, 0.4]),
         (0, [1 / 6] * 6), (20, [1 / 6] * 6), (9, [0.3, 0.0, 0.2, 0.0, 0.5]),
         (7, [0.2, 0.3, 0.1, 0.4, 0.0]), (5, [0.1, 0.2, 0.0, 0.3, 0.4, 0.0])],
    )
    def test_multiset_table(self, n, probs):
        # At 8 parts and more, numpy's pairwise row sum would round some
        # rows of log-factorials differently from a left-to-right sum.
        counts, pmf = oracles._multiset_table(n, probs)
        ref_counts, ref_pmf = loop_multiset_table(n, probs)
        # The counts are float64 (exact: small integers) in one C-contiguous
        # (rows, s) array, the layout that fixes the bits of counts @ ...
        assert counts.dtype == np.float64 and ref_counts.dtype == np.int64
        assert counts.flags.c_contiguous
        assert counts.shape == (count_multisets(n, len(probs)), len(probs))
        assert np.array_equal(counts, ref_counts) and np.array_equal(pmf, ref_pmf)

    def test_multiset_table_memory_budget(self):
        # The selector guard's table: 6 parts, 37 draws, 850,668 rows; the
        # counts alone are 38.9 MiB and the probabilities 6.5 MiB.
        tracemalloc.start()
        try:
            oracles._multiset_table(37, [1 / 6] * 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * 2**20

    @pytest.mark.parametrize("block_rows", [7, oracles.ADV_BLOCK_ROWS])
    def test_stoch_ocp(self, monkeypatch, block_rows):
        monkeypatch.setattr(oracles, "ADV_BLOCK_ROWS", block_rows)
        for support, probs, n_stoch, f in stochastic_parts("ocp", 40, 1):
            report = opt_stoch_ocp(support, probs, n_stoch, f)
            value, indices, load = loop_opt_stoch_ocp(support, probs, n_stoch, f)
            assert report.value == value
            assert report.extra["indices"] == indices
            assert np.array_equal(report.load, load)

    def test_stoch_ocp_ties_keep_the_first_selector(self, monkeypatch):
        # A 7-row block splits the tied selectors across blocks.
        monkeypatch.setattr(oracles, "ADV_BLOCK_ROWS", 7)
        assert loop_mismatches(repeated_menu_parts()) == []

    @pytest.mark.parametrize("block_rows", [7, oracles.ADV_BLOCK_ROWS])
    def test_stoch_ocp_near_ties(self, monkeypatch, block_rows):
        monkeypatch.setattr(oracles, "ADV_BLOCK_ROWS", block_rows)
        assert loop_mismatches(near_tie_parts(60, 4)) == []

    def test_screening_margin_has_teeth(self, monkeypatch):
        # Bounds scaled by 1 + 1e-6 rule out selectors that win or tie.
        monkeypatch.setattr(oracles, "_JENSEN_MARGIN", -1e-6)
        assert loop_mismatches(repeated_menu_parts())
        assert loop_mismatches(near_tie_parts(60, 4))

    @pytest.mark.parametrize("block_rows", [7, oracles.ADV_BLOCK_ROWS])
    def test_stoch_ocp_monte_carlo(self, monkeypatch, block_rows):
        monkeypatch.setattr(oracles, "ADV_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(49)
        for m in (1, 2):
            f = make_family("linear_plus_power", m, 2.0, rng)
            support = [rng.uniform(0, 1, (int(k), m)) for k in (2, 1, 3)]
            support[2][2] = support[2][0]
            probs = [0.5, 0.2, 0.3]
            report = opt_stoch_ocp(support, probs, 2000, f, mc_samples=300, seed=m)
            value, indices, load, stderr = loop_opt_stoch_ocp_mc(support, probs, 2000, f, 300, m)
            assert report.method == "monte-carlo"
            assert (report.value, report.extra["indices"], report.stderr) == (value, indices, stderr)
            assert np.array_equal(report.load, load)

    @pytest.mark.parametrize("block_rows", [50, oracles.ADV_BLOCK_ROWS])
    def test_stoch_welfare(self, monkeypatch, block_rows):
        monkeypatch.setattr(oracles, "ADV_BLOCK_ROWS", block_rows)
        for support, probs, n_stoch, f in stochastic_parts("welfare", 40, 2):
            report = opt_stoch_welfare(support, probs, n_stoch, f)
            value, selector, load = loop_opt_stoch_welfare(support, probs, n_stoch, f)
            assert report.value == value
            assert report.selector == selector
            assert np.array_equal(report.load, load)


    @pytest.mark.parametrize("block_rows", [50, oracles.ADV_BLOCK_ROWS])
    def test_stoch_welfare_near_flat_axes(self, monkeypatch, block_rows):
        monkeypatch.setattr(oracles, "ADV_BLOCK_ROWS", block_rows)
        assert welfare_mismatches(near_flat_parts(24, 5)) == []

    def test_concavity_margin_has_teeth(self, monkeypatch):
        # A margin of -1e-9 screens out the interval that holds the peak.
        monkeypatch.setattr(oracles, "_CONCAVITY_MARGIN", -1e-9)
        assert welfare_mismatches(near_flat_parts(24, 5))

    @pytest.mark.parametrize("block_rows", [50, oracles.ADV_BLOCK_ROWS])
    def test_stoch_welfare_monotone_axes(self, monkeypatch, block_rows):
        monkeypatch.setattr(oracles, "ADV_BLOCK_ROWS", block_rows)
        assert welfare_mismatches(monotone_parts(48, 8)) == []


def test_near_flat_peaks_lie_inside_coarse_intervals():
    sides = set()
    for part in near_flat_parts(24, 5):
        values, margin = first_axis(*part)
        peak, top = int(np.argmax(values)), 10 * int(np.argmax(values[::10]))
        assert peak % 10 and abs(peak - top) < 10
        sides.add(peak > top)
        # Near-flat: the interval's bound exceeds the coarse maximum by
        # less than the margin.
        bound = oracles._secant_bounds(values[::10])[peak // 10]
        assert bound - values[::10].max() < margin
    assert sides == {False, True}


def test_monotone_axes_straddle_the_certificates():
    # The first scan (element 0, the others at 0) certifies its axis on
    # some parts and scores it on others, both rising and falling.
    seen = set()
    for part in monotone_parts(48, 8):
        values, margin = first_axis(*part)
        rising = bool(np.all(np.diff(values) > 0))
        assert rising or np.all(np.diff(values) < 0)
        sigma, _ = first_axis_slopes(*part, 0.0, 1.0)
        assert sigma == 0.0 or (sigma > 0) == rising
        seen.add((rising, abs(sigma) * 0.01 > 2.0 * margin))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_certified_slope_bounds_the_axis_slope():
    # Wherever the slope is certified, the exact derivative at the
    # bracket's far end is at least as steep: on the whole axis and on the
    # ternary brackets at either bound.
    certified = set()
    for part in monotone_parts(48, 8):
        for lo, hi in ((0.0, 1.0), (0.0, 0.01), (0.99, 1.0)):
            sigma, (at_lo, at_hi) = first_axis_slopes(*part, lo, hi)
            if sigma > 0:
                assert at_hi >= Fraction(sigma)
            elif sigma < 0:
                assert at_lo <= Fraction(sigma)
            certified.add(np.sign(sigma))
    assert certified == {-1.0, 0.0, 1.0}


def test_secant_bounds_cover_every_level():
    # Each bound is at least every level of its interval, within the margin:
    # on random axes that fall, rise or peak anywhere, and on near-flat ones.
    parts = itertools.chain(stochastic_parts("welfare", 16, 3), near_flat_parts(8, 6))
    for part in parts:
        values, margin = first_axis(*part)
        bounds = oracles._secant_bounds(values[::10])
        inner = np.delete(values, np.s_[::10]).reshape(10, 9)
        assert np.all(inner.max(axis=1) <= bounds + margin)


class CountingCost(SumOfPowers):
    """A cost that records every ``eval_many`` batch and its shape.

    A ``grad_many`` call is recorded as ``("grad", shape)``.
    """

    def __init__(self, coeffs, p):
        super().__init__(coeffs, p)
        self.calls = []
        self.batches = []

    def eval_many(self, U):
        self.calls.append(np.shape(U))
        self.batches.append(np.array(U))
        return super().eval_many(U)

    def grad_many(self, U):
        self.calls.append(("grad", np.shape(U)))
        return super().grad_many(U)


class TestBatching:
    def test_stoch_welfare_certificates_then_scored_levels(self):
        f = CountingCost([1.0, 0.5], 2)
        support = [(3.0, np.array([0.4, 0.1])), (1.0, np.array([0.3, 0.6]))]
        probs = [0.6, 0.4]
        report = opt_stoch_welfare(support, probs, 5, f)
        rows = count_multisets(5, 2)
        counts, _ = _table(5, probs)
        level, batch = (2, rows, 2), (rows, 2)
        # The first scan (x = 0, coordinate 0) takes the derivative at
        # levels 0 and 1, from the loads the profits would use.
        steps = np.array([0.0, 1.0])[:, None] * support[0][1]
        assert f.calls[:2] == [("grad", level), level]
        assert np.array_equal(f.batches[0], counts[:, 0, None] * steps[:, None, :])
        # Each scan: the derivative batch, then, unless it certifies the
        # axis, an (11, rows, m) coarse batch and at most one batch of the
        # 9 levels of each unscreened interval.
        calls, scans, certified, scanned = list(f.calls), 0, 0, 0
        while calls[:2] == [("grad", level), level]:
            del calls[:2]
            scans += 1
            if calls[0] != (11, rows, 2):
                certified += 1
                continue
            scanned += 11
            calls.pop(0)
            if calls[0][1:] == (rows, 2) and calls[0][0] % 9 == 0:
                scanned += calls.pop(0)[0]
        assert 2 <= scans <= 40 * 2 and 0 < certified < scans
        assert report.extra["scans_certified"] == certified
        assert report.extra["levels_scored"] == scanned
        # Then the incumbent's value; per coordinate, the derivative batch,
        # the certified steps unscored, one two-level step if an odd number
        # remain, six-level batches of two steps each, and the trial's value.
        assert calls.pop(0) == batch
        taken = []
        for _ in range(2):
            assert calls[:2] == [("grad", level), level]
            del calls[:2]
            odd = calls[0] == level
            if odd:
                calls.pop(0)
            pairs = 0
            while calls[0] == (6, rows, 2):
                calls.pop(0)
                pairs += 1
            assert calls.pop(0) == batch
            taken.append(_TERNARY_STEPS - 2 * pairs - odd)
        assert min(taken) == 0 < max(taken) == report.extra["steps_certified"]
        # Last, the Frank-Wolfe gap's gradient at the answer.
        assert calls == [("grad", batch)]

    def test_stoch_welfare_ascent_stops_after_s_still_scans(self):
        # Separable axes: element 1's reward is negative, so only the first
        # scan moves; the scans of coordinates 1 and 0 that follow do not,
        # and the ascent stops without scanning coordinate 1 again.
        f = CountingCost([1.0, 1.0], 2)
        support = [(3.0, np.array([0.5, 0.0])), (-1.0, np.array([0.0, 0.5]))]
        report = opt_stoch_welfare(support, [0.5, 0.5], 4, f)
        # Each scan starts with a derivative batch; the incumbent's value
        # follows the last scan.
        incumbent = f.calls.index((count_multisets(4, 2), 2))
        assert sum(call[0] == "grad" for call in f.calls[:incumbent]) == 3
        assert report.extra["scans_certified"] == 3

    def test_stoch_welfare_blocks_bound_the_screened_rows(self, monkeypatch):
        support = [(3.0, np.array([0.4])), (1.0, np.array([0.3]))]
        whole = CountingCost([1.0], 2)
        report = opt_stoch_welfare(support, [0.6, 0.4], 5, whole)
        # 6 rows per level: blocks of 6 levels.
        monkeypatch.setattr(oracles, "ADV_BLOCK_ROWS", 40)
        split = CountingCost([1.0], 2)
        blocked = opt_stoch_welfare(support, [0.6, 0.4], 5, split)
        assert (blocked.value, blocked.selector) == (report.value, report.selector)
        assert {shape[0] for shape in whole.calls if len(shape) == 3} >= {11, 6}
        assert {shape[0] for shape in split.calls if len(shape) == 3} >= {6, 5}
        assert max(shape[0] for shape in split.calls if len(shape) == 3) == 6
        # The same loads in the same order, only cut into smaller blocks.
        for ndim in (2, 3):
            assert np.array_equal(
                np.concatenate([b for b in whole.batches if b.ndim == ndim]),
                np.concatenate([b for b in split.batches if b.ndim == ndim]),
            )

    @pytest.mark.parametrize("block_rows,blocks", [(oracles.ADV_BLOCK_ROWS, 1), (40, 4)])
    def test_stoch_ocp_scores_only_screened_selectors(self, monkeypatch, block_rows, blocks):
        monkeypatch.setattr(oracles, "ADV_BLOCK_ROWS", block_rows)
        f = CountingCost([1.0, 0.5], 2)
        rng = np.random.default_rng(6)
        # Options near three far-apart points: every selector's value sits
        # well above its Jensen bound, so 8 of the 12 selectors are scored.
        base = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
        support = [base[j] + rng.uniform(-0.1, 0.1, (k, 2)) for j, k in enumerate((3, 2, 2))]
        probs = [0.5, 0.3, 0.2]
        report = opt_stoch_ocp(support, probs, 4, f)
        counts, pmf = _table(4, probs)
        loads = [
            counts @ np.stack([support[j][i] for j, i in enumerate(sel)])
            for sel in itertools.product(range(3), range(2), range(2))
        ]
        bounds = [f.eval(pmf @ load) for load in loads]
        first = int(np.argmin(bounds))
        incumbent = float(pmf @ f.eval_rows(loads[first]))
        screened = [r for r in range(12) if r != first and bounds[r] <= incumbent]
        assert (first, len(screened)) == (6, 7)
        value, indices, _ = loop_opt_stoch_ocp(support, probs, 4, SumOfPowers([1.0, 0.5], 2))
        assert (report.value, report.extra) == (
            value, {"indices": indices, "n_stoch": 4, "selectors": 12, "scored": 8}
        )
        # One call for the bounds, then the least-bound selector alone, then
        # the other screened selectors in product order, 2 per 40-row block.
        rows = count_multisets(4, 3)  # 15
        assert f.calls[0] == (12, 2)
        assert f.calls[1] == (1, rows, 2)
        assert np.array_equal(f.batches[1][0], loads[first])
        assert len(f.calls) == 2 + blocks
        assert all(shape[1:] == (rows, 2) for shape in f.calls[2:])
        assert max(shape[0] for shape in f.calls[2:]) == min(7, max(1, block_rows // rows))
        assert np.array_equal(np.concatenate(f.batches[2:]), np.stack([loads[r] for r in screened]))
