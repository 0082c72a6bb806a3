import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpd import harness
from robustpd.costs import (
    LinearPlusPower,
    SeparableGeneric,
    SumOfPowers,
    _as_point,
    _vecdot,
    check_growth,
    check_superadditivity,
    conjugate_numeric,
    cost_from_config,
    fenchel_gap,
)
from robustpd.oco import Verdict, check_oco_guarantees, normalized_slack


def make_family(name, m, p, rng):
    if name == "sum_of_powers":
        return SumOfPowers(rng.uniform(0.3, 2.0, m), p)
    if name == "linear_plus_power":
        return LinearPlusPower(rng.uniform(0.4, 1.6, m), rng.uniform(0.0, 1.0, m), p)
    weights = rng.uniform(0.5, 1.5, m)
    return SeparableGeneric(
        [
            (
                lambda x, w=w, p=p: w * (x**p + 0.5 * x * x),
                lambda x, w=w, p=p: w * (p * x ** (p - 1) + x),
            )
            for w in weights
        ],
        p,
    )


FAMILIES = ["sum_of_powers", "linear_plus_power", "separable_generic"]


class TestEval:
    def test_zero_at_origin(self):
        f = SumOfPowers([1.0, 1.0], 2)
        assert f.eval([0.0, 0.0]) == 0.0

    def test_direct_substitution(self):
        f = SumOfPowers([1.0, 1.0], 2)
        assert f.eval([2.0, 2.0]) == 8.0  # also cost(p*ones) for p=2

    def test_linear_plus_power(self):
        f = LinearPlusPower([1.0], [1.0], 2)
        assert f.eval([3.0]) == 12.0  # (1*3)^2 + 1*3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SumOfPowers([1.0, 1.0], 2).eval([1.0])

    def test_negative_coordinate(self):
        with pytest.raises(ValueError):
            SumOfPowers([1.0], 2).eval([-0.5])


class TestGrad:
    def test_quadratic(self):
        assert SumOfPowers([1.0], 2).grad([3.0]) == pytest.approx([6.0])

    def test_cubic(self):
        g = SumOfPowers([1.0, 1.0], 3).grad([1.0, 2.0])
        assert g == pytest.approx([3.0, 12.0])

    def test_zero_at_origin(self):
        for f in (SumOfPowers([2.0, 1.0], 3), LinearPlusPower([1.0], [0.0], 2)):
            assert np.all(f.grad(np.zeros(f.m)) == 0.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_finite_differences(self, family):
        rng = np.random.default_rng(1)
        f = make_family(family, 3, 3.0, rng)
        h = 1e-5
        for _ in range(100):
            u = rng.uniform(1e-3, 5.0, 3)
            g = f.grad(u)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd = (f.eval(u + e) - f.eval(u - e)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestConjugate:
    def test_normalized_power(self):
        # conj of (1/p) u^p is (1 - 1/p) y^(p/(p-1))
        f = SumOfPowers([0.5], 2)
        assert f.conjugate_value([2.0]) == pytest.approx(2.0)

    def test_zero_dual(self):
        for f in (SumOfPowers([1.0, 2.0], 3), LinearPlusPower([1.0], [0.5], 2)):
            assert f.conjugate_value(np.zeros(f.m)) == 0.0

    def test_square_against_sup(self):
        # sup of 4u - u^2 over u >= 0 is at u = 2, value 4
        f = SumOfPowers([1.0], 2)
        assert f.conjugate_value([4.0]) == pytest.approx(4.0)
        assert conjugate_numeric(f, [4.0]) == pytest.approx(4.0, rel=1e-9)

    def test_linear_slope_threshold(self):
        f = LinearPlusPower([1.0], [1.0], 2)
        assert f.conjugate_value([0.5]) == 0.0  # below the slope
        assert f.conjugate_value([3.0]) == pytest.approx(1.0)  # ((3-1)/2)^2

    def test_infinite_conjugate_raises(self):
        with pytest.raises(ValueError):
            SumOfPowers([0.0, 1.0], 2).conjugate_value([1.0, 1.0])

    def test_negative_dual_rejected(self):
        with pytest.raises(ValueError):
            SumOfPowers([1.0], 2).conjugate_value([-1.0])

    @pytest.mark.parametrize("family", ["sum_of_powers", "linear_plus_power"])
    def test_closed_form_matches_numeric_sup(self, family):
        rng = np.random.default_rng(2)
        for p in (2.0, 2.5, 3.0):
            f = make_family(family, 2, p, rng)
            for _ in range(100):
                y = f.grad(rng.uniform(0.0, 5.0, 2))
                closed = f.conjugate_value(y)
                numeric = conjugate_numeric(f, y)
                assert closed == pytest.approx(numeric, rel=1e-6, abs=1e-9)

    def test_generic_conjugate_against_power(self):
        # Generic wrapper around a plain power must agree with the closed form.
        power = SumOfPowers([1.3], 3)
        generic = SeparableGeneric(
            [(lambda x: 1.3 * x**3, lambda x: 3.9 * x * x)], 3
        )
        for y in (0.0, 0.7, 2.4, 11.0):
            assert generic.conjugate_value([y]) == pytest.approx(
                power.conjugate_value([y]), rel=1e-8, abs=1e-10
            )


class TestFenchelGap:
    def test_zero_at_gradient(self):
        assert fenchel_gap(SumOfPowers([1.0], 2), [1.0], [2.0]) == pytest.approx(0.0, abs=1e-9)

    def test_away_from_gradient(self):
        assert fenchel_gap(SumOfPowers([1.0], 2), [1.0], [0.0]) == pytest.approx(1.0)

    def test_both_zero(self):
        assert fenchel_gap(SumOfPowers([1.0, 1.0], 3), [0.0, 0.0], [0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_nonnegative_on_random_pairs(self, family):
        rng = np.random.default_rng(4)
        f = make_family(family, 2, 2.0, rng)
        samples = 1000 if family != "separable_generic" else 100
        for _ in range(samples):
            u = rng.uniform(0.0, 5.0, 2)
            y = f.grad(rng.uniform(0.0, 5.0, 2))
            assert fenchel_gap(f, u, y) >= -1e-9

    def test_equality_at_gradient_random(self):
        rng = np.random.default_rng(5)
        for family in ("sum_of_powers", "linear_plus_power"):
            f = make_family(family, 3, 3.0, rng)
            for _ in range(200):
                u = rng.uniform(0.0, 4.0, 3)
                gap = fenchel_gap(f, u, f.grad(u))
                assert abs(gap) <= 1e-9 * max(1.0, f.eval(u))


@given(
    u=st.lists(st.floats(0.0, 8.0), min_size=2, max_size=2),
    scale=st.floats(0.0, 8.0),
)
@settings(max_examples=100, deadline=None)
def test_gap_nonnegative_hypothesis(u, scale):
    f = SumOfPowers([1.0, 0.7], 2)
    y = f.grad([scale, 0.5 * scale])
    assert fenchel_gap(f, u, y) >= -1e-9


@given(
    u=st.lists(st.floats(0.0, 5.0), min_size=2, max_size=2),
    v=st.lists(st.floats(0.0, 5.0), min_size=2, max_size=2),
)
@settings(max_examples=100, deadline=None)
def test_superadditivity_hypothesis(u, v):
    assert check_superadditivity(LinearPlusPower([1.0, 0.5], [0.2, 0.9], 3), u, v)


class TestGrowth:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_order_below_two_refused(self, family):
        with pytest.raises(ValueError, match="p=1.5 must be >= 2"):
            make_family(family, 2, 1.5, np.random.default_rng(0))

    def test_worked_values(self):
        f = SumOfPowers([1.0], 2)
        # conj(grad(1)) = conj(2) = 1 <= 2 * cost(1) = 2
        assert f.conjugate_value(f.grad([1.0])) == pytest.approx(1.0)
        # conj(y/2) = delta^(p/(p-1)) * conj(y) with equality for pure powers
        assert f.conjugate_value([1.0]) == pytest.approx(0.25 * f.conjugate_value([2.0]))

    def test_scaling_is_exact_for_homogeneous(self):
        f = SumOfPowers([1.0, 2.0], 3)
        u = np.array([0.5, 1.5])
        assert f.eval(1.0 * u) == pytest.approx(f.eval(u))
        for g in (0.0, 0.3, 1.0, 2.7):
            assert f.eval(g * u) == pytest.approx(g**3 * f.eval(u), rel=1e-10)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_zero_violations(self, family, p):
        rng = np.random.default_rng(6)
        f = make_family(family, 2, p, rng)
        count = 1000 if family != "separable_generic" else 60
        samples = [
            (rng.uniform(0.0, 4.0, 2), rng.uniform(1.0, 5.0), rng.uniform(0.01, 1.0))
            for _ in range(count)
        ]
        report = check_growth(f, samples)
        assert report.passed, report


class TestSuperadditivity:
    def test_zero_vectors(self):
        f = SumOfPowers([1.0], 2)
        assert check_superadditivity(f, [0.0], [0.0])
        assert f.eval([0.0]) + f.eval([0.0]) == f.eval([0.0])

    def test_upper_bound_tight_for_square(self):
        # cost(1+1) = 4 equals 2^(p-1) * (cost(1) + cost(1)) = 4
        f = SumOfPowers([1.0], 2)
        assert check_superadditivity(f, [1.0], [1.0])
        assert f.eval([2.0]) == pytest.approx(2.0 * (f.eval([1.0]) + f.eval([1.0])))

    def test_disjoint_supports(self):
        f = SumOfPowers([1.0, 1.0], 3)
        u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert f.eval(u + v) == pytest.approx(f.eval(u) + f.eval(v))
        assert check_superadditivity(f, u, v)


class TestMonotonicity:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_values_and_gradients_nondecreasing(self, family):
        rng = np.random.default_rng(7)
        f = make_family(family, 3, 3.0, rng)
        for _ in range(200):
            u = rng.uniform(0.0, 4.0, 3)
            w = u + rng.uniform(0.0, 2.0, 3)
            assert f.eval(w) >= f.eval(u) - 1e-12
            assert np.all(f.grad(w) >= f.grad(u) - 1e-12)

    def test_gradient_growth_order(self):
        rng = np.random.default_rng(8)
        f = make_family("linear_plus_power", 2, 3.0, rng)
        for _ in range(200):
            u = rng.uniform(0.0, 3.0, 2)
            g = rng.uniform(1.0, 4.0)
            assert np.all(f.grad(g * u) <= g**2 * f.grad(u) + 1e-9)


class TestSerialization:
    """``cost_from_config`` on the cost dict an instance file stores."""

    def test_round_trip_sum_of_powers(self):
        config = {"family": "sum_of_powers", "m": 2, "p": 3, "coeffs": [0.5, 1.25]}
        g = cost_from_config(json.loads(json.dumps(config)))
        assert isinstance(g, SumOfPowers)
        assert g.p == 3.0 and np.array_equal(g.coeffs, [0.5, 1.25])

    def test_round_trip_linear_plus_power(self):
        # linear_plus_power coeffs are [scale, slope] pairs, one per coordinate.
        config = {"family": "linear_plus_power", "m": 2, "p": 2,
                  "coeffs": [[1.5, 0.25], [0.5, 0.0]]}
        g = cost_from_config(json.loads(json.dumps(config)))
        f = LinearPlusPower([1.5, 0.5], [0.25, 0.0], 2)
        assert isinstance(g, LinearPlusPower)
        assert np.array_equal(g.scales, f.scales) and np.array_equal(g.slopes, f.slopes)
        u = np.array([0.7, 1.3])
        assert g.eval(u) == f.eval(u)
        assert np.array_equal(g.grad(u), f.grad(u))

    def test_generic_does_not_serialize(self):
        # Its components are Python callables, which no config dict holds.
        config = {"family": "separable_generic", "m": 1, "p": 2, "coeffs": [1.0]}
        with pytest.raises(ValueError, match="unknown cost family: 'separable_generic'"):
            cost_from_config(config)

    def test_dimension_must_match(self):
        with pytest.raises(ValueError, match="config says 3"):
            cost_from_config({"family": "sum_of_powers", "m": 3, "p": 2, "coeffs": [1.0, 2.0]})

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            cost_from_config({"family": "mystery", "m": 1, "p": 2, "coeffs": [1.0]})

    def test_flags(self):
        assert SumOfPowers([1.0], 2).homogeneous
        assert not LinearPlusPower([1.0], [0.5], 2).homogeneous
        assert LinearPlusPower([1.0], [0.0], 2).homogeneous


class TestBatched:
    """``grad_many``, ``conj_many`` and ``eval_rows`` equal the per-row calls bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize(
        "name,p",
        [
            ("sum_of_powers", 2.0),
            ("sum_of_powers", 3.0),
            ("sum_of_powers", 4.0),
            ("linear_plus_power", 2.0),
            ("linear_plus_power", 3.0),
            ("separable_generic", 3.0),
        ],
    )
    def test_rows_match_single_point_calls(self, name, p, m):
        rng = np.random.default_rng([m, int(p)])
        f = make_family(name, m, p, rng)
        U = rng.uniform(0.0, 3.0, (12, m))
        U[::5] = 0.0
        Y = f.grad_many(U)
        assert np.array_equal(Y, np.array([f.grad(u) for u in U]))
        # Gradients and arbitrary duals, some below the linear slopes.
        for duals in (Y, rng.uniform(0.0, 3.0, (12, m))):
            expected = np.array([f.conjugate_value(y) for y in duals])
            assert np.array_equal(f.conj_many(duals), expected)
            # A (runs, steps, m) batch reduces the same rows.
            assert np.array_equal(f.conj_many(duals.reshape(3, 4, m)), expected.reshape(3, 4))
        assert np.array_equal(f.grad_many(U.reshape(3, 4, m)), Y.reshape(3, 4, m))
        values = np.array([f.eval(u) for u in U])
        assert np.array_equal(f.eval_rows(U), values)
        assert np.array_equal(f.eval_rows(U.reshape(3, 4, m)), values.reshape(3, 4))

    @pytest.mark.parametrize("m", [1, 2, 5, 9, 17, 40])
    def test_eval_rows_reduce_as_np_dot(self, m):
        """Each row is reduced by the ``np.dot`` kernel, not by a matrix product."""
        rng = np.random.default_rng(m)
        c, scales, slopes = (rng.uniform(0.3, 2.0, m) for _ in range(3))
        cases = [
            (SumOfPowers(c, 2.0), lambda u: np.dot(c, u * u)),
            (SumOfPowers(c, 3.0), lambda u: np.dot(c, u**3.0)),
            (LinearPlusPower(scales, slopes, 2.5),
             lambda u: np.dot(scales**2.5, u**2.5) + np.dot(slopes, u)),
        ]
        U = rng.uniform(0.0, 30.0, (64, m))
        for f, dot_form in cases:
            assert np.array_equal(f.eval_rows(U), [dot_form(u) for u in U])


def same_bits(a, b):
    """Equal shapes and float64 bits, so ``-0.0`` differs from ``0.0``."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestEvalManyProducts:
    """``eval_many`` of the power families gives the bits of its matrix products.

    At m = 1 the product over the last axis is one multiplication per row
    plus ``0.0``; the matrix product gives ``+0.0`` where that
    multiplication gives ``-0.0``, as it does for the ``-0.0`` loads at
    p = 3.
    """

    @staticmethod
    def loads(rng, shape):
        U = rng.uniform(0.5, 3.0, shape) * 10.0 ** rng.integers(-20, 20, shape)
        flat = U.reshape(-1)
        flat[::7] = 0.0
        flat[3::7] = -0.0
        flat[5::7] = 1e-160  # a subnormal square
        flat[6::11] = 2.5e-310  # a subnormal load
        return U

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("p", [2.0, 3.0, 2.5])
    def test_equals_the_matrix_products(self, m, p):
        rng = np.random.default_rng([m, int(10 * p)])
        c, scales, slopes = (rng.uniform(0.3, 2.0, m) for _ in range(3))
        sums = SumOfPowers(c, p)
        linear = LinearPlusPower(scales, slopes, p)
        weights = scales**p
        for shape in [(5, 203, m), (2, 1, m), (64, m), (1, m), (3, 0, m)]:
            U = self.loads(rng, shape)
            power = U * U if p == 2.0 else U**p
            assert same_bits(sums.eval_many(U), power @ c)
            assert same_bits(linear.eval_many(U), U**p @ weights + U @ slopes)


class TestVecdot:
    """``_vecdot`` gives ``np.vecdot``'s bits; past 200 rows of length 1 it is
    one product plus ``0.0``, which turns a ``-0.0`` product into ``+0.0``."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_np_vecdot(self, m):
        rng = np.random.default_rng(m)
        for shape in [(m,), (7, m), (4, 9, m), (2, 5, 3, m), (0, m), (201, m), (50, 24, m)]:
            a = TestEvalManyProducts.loads(rng, shape) * rng.choice([-1.0, 1.0], shape)
            b = TestEvalManyProducts.loads(rng, shape)
            w = rng.uniform(-2.0, 2.0, m)
            assert same_bits(_vecdot(a, b), np.vecdot(a, b))
            # Broadcast (m,) operands, on either side and against a new axis.
            assert same_bits(_vecdot(w, a), np.vecdot(w, a))
            assert same_bits(_vecdot(a, w), np.vecdot(a, w))
        # The engine's scorer: each run's menu of k options against its dual.
        for runs in (6, 2000):
            options, Y = TestEvalManyProducts.loads(rng, (runs, 3, m)), rng.uniform(0, 2, (runs, m))
            expected = np.vecdot(options, Y[..., None, :])
            assert same_bits(_vecdot(options, Y[..., None, :]), expected)

    @pytest.mark.parametrize("reps", [1, 100])
    def test_negative_zero_products_become_positive(self, reps):
        a = np.tile([[-0.0], [-1.0], [0.0], [-2.0]], (reps, 1))
        b = np.tile([[1.0], [0.0], [-3.0], [-0.0]], (reps, 1))
        assert same_bits(np.vecdot(a, b), np.zeros(4 * reps))
        assert same_bits(_vecdot(a, b), np.zeros(4 * reps))
        assert same_bits(_vecdot(np.array([-0.0]), b), np.zeros(4 * reps))


class TestDecomposition:
    def test_linear_plus_power_split(self):
        f = LinearPlusPower([2.0], [3.0], 2)
        high = f.power_part()
        u = np.array([1.5])
        assert high.eval(u) + np.dot(f.linear_slopes, u) == pytest.approx(f.eval(u))


def reference_conj_1d(component, y):
    """The unmemoized per-coordinate search of ``SeparableGeneric``."""
    fn, deriv = component
    y = float(y)
    if y <= 0.0:
        return 0.0
    hi = 1.0
    for _ in range(200):
        if deriv(hi) > y:
            break
        hi *= 2.0
    else:
        raise ValueError("conjugate is infinite: derivative never exceeds dual")
    lo = 0.0
    while hi - lo > 1e-10 * max(1.0, hi):
        d = (hi - lo) / 3.0
        a, b = lo + d, hi - d
        if y * a - fn(a) < y * b - fn(b):
            lo = a
        else:
            hi = b
    u = 0.5 * (lo + hi)
    return max(y * u - fn(u), 0.0)


def reference_conjugate(f, y):
    """The reference searches of a validated dual, summed in coordinate order."""
    y = _as_point(y, f.m, "y")
    total = 0.0
    for i in range(f.m):
        total += reference_conj_1d(f.components[i], y[i])
    return total


def counting_components(calls):
    """Two ``w*x**2`` components whose value and derivative bump ``calls[0]``."""

    def component(w):
        def fn(x):
            calls[0] += 1
            return w * x * x

        def deriv(x):
            calls[0] += 1
            return 2.0 * w * x

        return fn, deriv

    return [component(1.0), component(1.5)]


class TestSeparableConjugate:
    """The memoized conjugate of ``SeparableGeneric`` against the plain search."""

    @pytest.mark.parametrize("mutation", [None, "shift", "regularizer"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_loop_reference_on_suite_states(self, monkeypatch, seed, mutation):
        states = []
        monkeypatch.setattr(
            harness,
            "check_oco_guarantees",
            lambda st: states.append(st) or check_oco_guarantees(st),
        )
        harness.run_oco_suite(count=40, seed=seed, mutation=mutation)
        generic = [st for st in states if isinstance(st.f, SeparableGeneric)]
        assert len(generic) >= 13
        for state in generic:
            f = state.f
            y = state.record()[0]
            special = np.array([[0.0] * f.m, [-0.0] * f.m, [-1e-13] * f.m])
            mixed = y[:3].copy()
            mixed[:, 0] = [0.0, -0.0, -1e-13]
            duals = np.concatenate([y, state.leaders()[1], y.max(axis=0)[None], special, mixed])
            expected = [reference_conjugate(f, dual) for dual in duals]
            # The run's searches fill most of f's memo (be-the-leader prices no
            # zero-multiplier leader dual); the rest are searched here.
            assert repr(f.conj_many(duals).tolist()) == repr(expected)
            assert repr([f.conjugate_value(dual) for dual in duals]) == repr(expected)

    def test_repeated_dual_calls_no_component(self):
        calls = [0]
        f = SeparableGeneric(counting_components(calls), 2.0)
        first = f.conjugate_value([1.5, 2.5])
        searched = calls[0]
        assert searched > 0
        assert f.conjugate_value([1.5, 2.5]) == first
        assert np.array_equal(f.conj_many([[1.5, 2.5], [1.5, 2.5]]), [first, first])
        assert calls[0] == searched
        # Coordinate 0 has not seen 2.5 yet, and its search is its own.
        assert f.conjugate_value([2.5, 2.5]) == reference_conjugate(f, [2.5, 2.5])
        assert calls[0] > searched

    def test_infinite_conjugate_raises_every_time(self):
        calls = [0]

        def fn(x):
            calls[0] += 1
            return x

        def deriv(x):
            calls[0] += 1
            return 1.0

        f = SeparableGeneric([(fn, deriv)], 2.0)
        for _ in range(2):
            before = calls[0]
            with pytest.raises(ValueError, match="infinite"):
                f.conjugate_value([2.0])
            assert calls[0] == before + 200
        with pytest.raises(ValueError, match="infinite"):
            f.conj_many([[0.5], [2.0]])

    def test_instances_share_no_entries(self):
        calls = [0]
        components = counting_components(calls)
        a, b = SeparableGeneric(components, 2.0), SeparableGeneric(components, 2.0)
        value = a.conjugate_value([1.5, 2.5])
        searched = calls[0]
        assert b.conjugate_value([1.5, 2.5]) == value
        assert calls[0] == 2 * searched

    def test_components_are_fixed(self):
        components = counting_components([0])
        f = SeparableGeneric(components, 2.0)
        components.pop()
        assert isinstance(f.components, tuple) and f.m == len(f.components) == 2

    def test_stack_matches_single_points(self):
        """A ``(K, n, m)`` stack, with coordinates in ``[-1e-12, 0)``, row by row."""
        rng = np.random.default_rng(11)
        f = make_family("separable_generic", 3, 3.0, rng)
        U = rng.uniform(0.0, 2.0, (2, 5, 3))
        U[0, 0] = [-1e-12, -1e-13, -0.0]
        U[1, 2, 1] = -5e-13
        rows = U.reshape(-1, 3)
        values = np.array([f.eval(u) for u in rows]).reshape(2, 5)
        grads = np.array([f.grad(u) for u in rows]).reshape(2, 5, 3)
        conjs = np.array([f.conjugate_value(u) for u in rows]).reshape(2, 5)
        assert np.array_equal(f.eval_rows(U), values)
        assert np.array_equal(f.grad_many(U), grads)
        assert np.array_equal(f.conj_many(U), conjs)


def numpy_scalar_rows(f, U):
    """``eval_rows`` and ``grad_many`` of ``SeparableGeneric`` with each component
    called on the numpy scalars of a clamped batch, one element at a time."""
    U = np.maximum(U, 0.0)
    values = [sum(fn(x) for (fn, _), x in zip(f.components, u)) for u in U]
    grads = [[d(x) for (_, d), x in zip(f.components, u)] for u in U]
    return np.array(values, dtype=np.float64), np.array(grads, dtype=np.float64)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_separable_python_floats_match_numpy_scalars(p):
    """Python-float component calls give the numpy-scalar bits: 7,000 rows of 5
    coordinates per order, a quarter of them zero, over six decades."""
    rng = np.random.default_rng(int(p))
    U = rng.uniform(0.0, 4.0, (7000, 5)) * 10.0 ** rng.integers(-3, 3, (7000, 5))
    U[rng.uniform(size=U.shape) < 0.25] = 0.0
    U[::50] = -0.0
    for f in (harness._random_cost(rng, 5, p, "separable_generic"),
              make_family("separable_generic", 5, p, rng)):
        values, grads = numpy_scalar_rows(f, U)
        assert same_bits(f.eval_rows(U), values)
        assert same_bits(f.grad_many(U), grads)


def loop_fenchel_gap(f, u, y):
    """``fenchel_gap`` of one pair by the single-point methods."""
    return f.eval(u) + f.conjugate_value(y) - float(np.dot(y, u))


def loop_check_growth(f, samples):
    """``check_growth`` one sample at a time, with Python's running max."""
    worst = [0.0, 0.0, 0.0, 0.0]
    q = f.p / (f.p - 1.0)
    for u, gamma, delta in samples:
        u = np.asarray(u, dtype=np.float64)
        psi_u = f.eval(u)
        y = f.grad(u)
        conj_y = f.conjugate_value(y)
        worst[0] = max(worst[0], normalized_slack(f.eval(gamma * u), gamma**f.p * psi_u))
        worst[1] = max(worst[1], normalized_slack(f.conjugate_value(delta * y), delta**q * conj_y))
        worst[2] = max(worst[2], normalized_slack(conj_y, f.p * psi_u))
        worst[3] = max(worst[3], normalized_slack(float(np.dot(y, u)), f.p * psi_u))
    names = ("scale_growth", "conjugate_shrink", "conjugate_of_grad", "grad_inner")
    return Verdict.of("growth", -max(worst), dict(zip(names, worst)), tol=1e-9)


def loop_check_superadditivity(f, u, v, tol=1e-9):
    """``check_superadditivity`` of one pair by the single-point methods."""
    both = f.eval(np.add(u, v))
    parts = f.eval(u) + f.eval(v)
    upper = 2.0 ** (f.p - 1.0) * parts
    return bool(
        both >= parts - tol * max(1.0, abs(parts))
        and both <= upper + tol * max(1.0, abs(upper))
    )


class TestBatchedChecks:
    """The core checks on a batch equal their per-point forms, a batch of one included."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_batch_equals_per_point_calls(self, family, p):
        rng = np.random.default_rng([FAMILIES.index(family), int(p)])
        f = make_family(family, 3, p, rng)
        U, X, V = rng.uniform(0.0, 4.0, (3, 40, 3))
        U[::7] = 0.0
        Y = f.grad_many(X)
        gaps = fenchel_gap(f, U, Y)
        supers = check_superadditivity(f, U, V)
        for i, (u, y, v) in enumerate(zip(U, Y, V)):
            assert repr(fenchel_gap(f, u, y)) == repr(loop_fenchel_gap(f, u, y))
            assert repr(fenchel_gap(f, u[None], y[None])[0]) == repr(gaps[i])
            assert gaps[i] == fenchel_gap(f, u, y)
            assert check_superadditivity(f, u, v) is loop_check_superadditivity(f, u, v)
            assert check_superadditivity(f, u[None], v[None])[0] == supers[i]
            assert supers[i] == check_superadditivity(f, u, v)
            sample = [(u, rng.uniform(1.0, 4.0), rng.uniform(0.01, 1.0))]
            assert repr(check_growth(f, sample)) == repr(loop_check_growth(f, sample))
        samples = list(zip(U, rng.uniform(1.0, 4.0, 40).tolist(), rng.uniform(0.01, 1.0, 40).tolist()))
        assert repr(check_growth(f, samples)) == repr(loop_check_growth(f, samples))
        assert repr(check_growth(f, iter(samples))) == repr(loop_check_growth(f, samples))
        assert repr(check_growth(f, [])) == repr(loop_check_growth(f, []))

    def test_a_bad_point_is_refused(self):
        f = SumOfPowers([1.0, 2.0], 2.0)
        with pytest.raises(ValueError, match="negative coordinate"):
            fenchel_gap(f, [[1.0, 1.0], [0.5, -0.1]], [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match=r"v has shape \(2, 3\), expected \(\.\.\., 2,\)"):
            check_superadditivity(f, [[1.0, 1.0]] * 2, [[1.0, 1.0, 1.0]] * 2)
        with pytest.raises(ValueError, match=r"u has shape \(2, 2\), expected \(2,\)"):
            f.eval([[1.0, 1.0]] * 2)
