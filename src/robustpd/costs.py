"""Convex cost functions on the nonnegative orthant.

All cost functions here are convex, differentiable, non-decreasing, vanish
at the origin, and have non-decreasing gradients with growth order at most
``p`` (i.e. ``grad(g*u) <= g**(p-1) * grad(u)`` for ``g >= 1``).  Three
families are supported:

* :class:`SumOfPowers` -- ``sum_i c_i * u_i**p`` with ``c_i >= 0``,
* :class:`LinearPlusPower` -- ``sum_i (l_i*u_i)**p + sum_i c_i*u_i``,
* :class:`SeparableGeneric` -- user-supplied 1-d components.

Every family exposes an exact evaluation, a closed-form gradient, and the
value of the convex conjugate ``conj(y) = sup_{u>=0} (<y,u> - cost(u))``
at nonnegative duals (``conjugate_value``, batched as ``conj_many``):
closed-form for the power families, by a 1-d search per coordinate for
:class:`SeparableGeneric`.  The module also carries the numeric sup oracle
used to cross-check the closed forms, and report-style checks for the
structural inequalities (growth, conjugate shrinking, superadditivity) that
the online engines rely on.
"""

from __future__ import annotations

import numpy as np

from robustpd.oco import Verdict, _plain, normalized_slack

__all__ = [
    "CostFunction",
    "SumOfPowers",
    "LinearPlusPower",
    "SeparableGeneric",
    "fenchel_gap",
    "conjugate_numeric",
    "check_growth",
    "check_superadditivity",
    "cost_from_config",
]

_NEG_TOL = 1e-12


def _as_point(x, m, name="u", batch=False):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (m,) or not (batch or x.ndim == 1):
        raise ValueError(f"{name} has shape {x.shape}, expected ({'..., ' * batch}{m},)")
    if np.any(x < -_NEG_TOL):
        raise ValueError(f"{name} has a negative coordinate: {x.min()}")
    return np.maximum(x, 0.0)


def _vecdot(a, b):
    """``np.vecdot(a, b)`` of real operands, the same bits: past 200 rows of length 1, the one
    product plus ``0.0`` (a ``-0.0`` becomes ``+0.0``), cheaper than numpy's per-row loop."""
    if a.shape[-1] == b.shape[-1] == 1 and max(a.size, b.size) > 200:
        return a[..., 0] * b[..., 0] + 0.0
    return np.vecdot(a, b)


def _dot_last(X, w):
    """``X @ w`` over the last axis, the same bits: at length 1 by :func:`_vecdot`,
    else by ``matmul``, whose fused multiply-add chain numpy cannot otherwise give."""
    return _vecdot(X, w) if w.shape[0] == 1 else X @ w


class CostFunction:
    """Base for separable convex costs with known conjugate structure.

    Attributes
    ----------
    m : int
        Dimension of the domain.
    p : float
        Growth order, ``>= 2``: the order the online guarantees cover.
    homogeneous : bool
        Structural flag used by the engines to pick the tighter bounds.
    """

    family = "abstract"
    homogeneous = False

    def __init__(self, m, p):
        if m < 1:
            raise ValueError("dimension must be positive")
        if not p >= 2:
            raise ValueError(f"growth order p={p} must be >= 2")
        self.m = int(m)
        self.p = float(p)

    # -- core surface -----------------------------------------------------
    #
    # The single-point methods validate their point and call the batch form,
    # so a row of a batch and the same point give the same bits.

    def eval(self, u) -> float:
        return float(self.eval_rows(_as_point(u, self.m)))

    def grad(self, u) -> np.ndarray:
        return self.grad_many(_as_point(u, self.m))

    def conjugate_value(self, y) -> float:
        """``conj(y) = sup_{u>=0} (<y,u> - cost(u))`` at a nonnegative dual."""
        return float(self.conj_many(_as_point(y, self.m, "y")))

    def component_value(self, i, x) -> float:
        """Value of the i-th 1-d component at scalar ``x >= 0``."""
        raise NotImplementedError

    def eval_many(self, U) -> np.ndarray:
        """Row-wise evaluation of a ``(k, m)`` batch of points, shape ``(k,)``.

        Built for throughput on large blocks; a row's value may differ from
        :meth:`eval` in the last bit.  :meth:`eval_rows` is the bit-equal form.
        A stacked ``(..., k, m)`` batch evaluates each ``(k, m)`` block as
        ``eval_many`` of that block alone does.  The power families reduce
        each row by a matrix product, or at ``m = 1`` by :func:`_dot_last`'s
        single product, which gives the matrix product's bits.
        """
        return self.eval_rows(U)

    def eval_rows(self, U) -> np.ndarray:
        """Values of a ``(..., m)`` batch of points, shape ``(...)``.

        Each value equals :meth:`eval` of its row bit for bit; unlike
        :meth:`eval`, the rows are not validated.
        """
        raise NotImplementedError

    def grad_many(self, U) -> np.ndarray:
        """Gradients of a ``(..., m)`` batch of points, one row per point.

        Unlike :meth:`grad`, the rows are not validated: they must lie in
        the nonnegative orthant already.
        """
        raise NotImplementedError

    def conj_many(self, Y) -> np.ndarray:
        """Conjugate values of a ``(..., m)`` batch of duals, shape ``(...)``.

        Unlike :meth:`conjugate_value`, the rows are not validated.
        """
        raise NotImplementedError

    # -- decomposition hooks ----------------------------------------------

    @property
    def linear_slopes(self) -> np.ndarray | None:
        """Slope vector of the linear part, when the family admits one."""
        return None

    def power_part(self) -> "CostFunction | None":
        """The super-linear remainder of the decomposition, if any."""
        return None

    def cost_at_p_ones(self) -> float:
        """Evaluation at ``p * (1,...,1)``, the additive loss unit, by :meth:`eval_rows`:
        the bits of :meth:`eval`, without validating a point that is valid by construction."""
        return float(self.eval_rows(np.full(self.m, self.p)))

    def __repr__(self):
        return f"{type(self).__name__}(m={self.m}, p={self.p})"


def _power_conj_scale(weights, p):
    # sup_{u>=0} (y*u - w*u**p) = (1-1/p) * (w*p)**(-1/(p-1)) * y**(p/(p-1))
    # for w > 0; zero-weight coordinates contribute only at y = 0.
    scale = np.zeros_like(weights)
    pos = weights > 0
    scale[pos] = (1.0 - 1.0 / p) * (weights[pos] * p) ** (-1.0 / (p - 1.0))
    return scale


class SumOfPowers(CostFunction):
    """``cost(u) = sum_i c_i * u_i**p`` with nonnegative weights."""

    family = "sum_of_powers"
    homogeneous = True

    def __init__(self, coeffs, p):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.ndim != 1:
            raise ValueError("coeffs must be a 1-d weight vector")
        if np.any(coeffs < 0):
            raise ValueError("weights must be nonnegative")
        super().__init__(coeffs.size, p)
        self.coeffs = coeffs
        self._q = self.p / (self.p - 1.0)
        self._conj_scale = _power_conj_scale(coeffs, self.p)
        self._grad_scale = self.p * coeffs

    def eval_rows(self, U):
        # vecdot reduces each row with the same kernel as np.dot.
        return _vecdot(self.coeffs, U * U if self.p == 2.0 else U**self.p)

    def eval_many(self, U):
        U = np.asarray(U, dtype=np.float64)
        return _dot_last(U * U if self.p == 2.0 else U**self.p, self.coeffs)

    def grad_many(self, U):
        return self._grad_scale * (U if self.p == 2.0 else U ** (self.p - 1.0))

    def conj_many(self, Y):
        if np.any((self.coeffs == 0) & (Y > 1e-12)):
            raise ValueError("conjugate is infinite on a zero-weight coordinate")
        # vecdot reduces each row with the same kernel as np.dot.
        return _vecdot(self._conj_scale, Y * Y if self.p == 2.0 else Y**self._q)

    def component_value(self, i, x):
        return self.coeffs[i] * x**self.p

    @property
    def linear_slopes(self):
        return np.zeros(self.m)

    def power_part(self):
        return self


class LinearPlusPower(CostFunction):
    """``cost(u) = sum_i (l_i*u_i)**p + sum_i c_i*u_i``.

    The conjugate subtracts the linear slope coordinate-wise: a dual
    coordinate at or below ``c_i`` contributes nothing, above it the pure
    power formula applies to the excess.  The conjugate is continuous but
    only piecewise-smooth at ``y_i = c_i``; it is evaluated, never
    differentiated.
    """

    family = "linear_plus_power"

    def __init__(self, scales, slopes, p):
        scales = np.asarray(scales, dtype=np.float64)
        slopes = np.asarray(slopes, dtype=np.float64)
        if scales.shape != slopes.shape or scales.ndim != 1:
            raise ValueError("scales and slopes must be 1-d vectors of equal length")
        if np.any(scales < 0) or np.any(slopes < 0):
            raise ValueError("scales and slopes must be nonnegative")
        super().__init__(scales.size, p)
        self.scales = scales
        self.slopes = slopes
        self.homogeneous = bool(np.all(slopes == 0.0))
        self._weights = scales**self.p
        self._grad_scale = self.p * self._weights
        self._q = self.p / (self.p - 1.0)
        self._conj_scale = _power_conj_scale(self._weights, self.p)

    def eval_rows(self, U):
        return _vecdot(self._weights, U**self.p) + _vecdot(self.slopes, U)

    def eval_many(self, U):
        U = np.asarray(U, dtype=np.float64)
        return _dot_last(U**self.p, self._weights) + _dot_last(U, self.slopes)

    def grad_many(self, U):
        return self._grad_scale * U ** (self.p - 1.0) + self.slopes

    def conj_many(self, Y):
        Z = np.maximum(Y - self.slopes, 0.0)
        if np.any((self._weights == 0) & (Z > 1e-12)):
            raise ValueError("conjugate is infinite above a purely linear slope")
        return _vecdot(self._conj_scale, Z**self._q)

    def component_value(self, i, x):
        return (self.scales[i] * x) ** self.p + self.slopes[i] * x

    @property
    def linear_slopes(self):
        return self.slopes

    def power_part(self):
        return SumOfPowers(self._weights, self.p)


class SeparableGeneric(CostFunction):
    """Separable cost from user-supplied 1-d components.

    ``components`` is a sequence of ``(value, derivative)`` callable pairs,
    one per coordinate, fixed at construction; each must be a pure function
    of its argument.  The conjugate has no closed form and is computed by
    ternary search on the concave map ``u -> y*u - component(u)`` over
    ``[0, U]``, where ``U`` doubles from 1 until the derivative exceeds
    ``y``.  Each instance keeps every search result, keyed by coordinate
    and dual, for its lifetime: the dual learner and its checks price the
    same duals again and again.  An infinite conjugate is not kept.

    The batch methods clamp the whole batch at 0 once and then call the
    components one coordinate at a time, with Python floats in every
    method, never with arrays: numpy's array ``x**p`` can round differently
    from the scalar one, while Python's ``**`` and numpy's scalar ``**``
    both call the C library's ``pow``.
    """

    family = "separable_generic"

    def __init__(self, components, p):
        self.components = tuple(components)
        super().__init__(len(self.components), p)
        self._conj_memo = {}

    def _rows(self, U):
        U = np.maximum(np.asarray(U, dtype=np.float64), 0.0)
        return U.shape, U.reshape(-1, self.m).tolist()

    def eval_rows(self, U):
        shape, rows = self._rows(U)
        values = [sum(fn(x) for (fn, _), x in zip(self.components, u)) for u in rows]
        return np.array(values, dtype=np.float64).reshape(shape[:-1])

    def grad_many(self, U):
        shape, rows = self._rows(U)
        grads = [[d(x) for (_, d), x in zip(self.components, u)] for u in rows]
        return np.array(grads, dtype=np.float64).reshape(shape)

    def conj_many(self, Y):
        shape, rows = self._rows(Y)
        return np.array([self._conj_row(y) for y in rows], dtype=np.float64).reshape(shape[:-1])

    def _conj_row(self, y):
        # The coordinate conjugates of one dual, summed in order from 0.0.
        memo, total = self._conj_memo, 0.0
        for key in enumerate(y):
            value = memo.get(key)
            if value is None:
                value = memo[key] = self._conj_1d(*key)
            total += value
        return total

    def _conj_1d(self, i, y):
        fn, deriv = self.components[i]
        # The search runs in Python floats: the same IEEE products as numpy
        # scalars, without their per-operation overhead.
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
        # The stopping width is 1e-10 * max(1.0, hi), without a call.
        while hi - lo > 1e-10 * (hi if hi > 1.0 else 1.0):
            d = (hi - lo) / 3.0
            a, b = lo + d, hi - d
            if y * a - fn(a) < y * b - fn(b):
                lo = a
            else:
                hi = b
        u = 0.5 * (lo + hi)
        return max(y * u - fn(u), 0.0)

    def component_value(self, i, x):
        return self.components[i][0](x)


def cost_from_config(config) -> CostFunction:
    """Rebuild a cost function from its JSON-style configuration dict."""
    family = config.get("family")
    m, p = config.get("m"), config.get("p")
    coeffs = config.get("coeffs")
    if family == "sum_of_powers":
        f = SumOfPowers(coeffs, p)
    elif family == "linear_plus_power":
        pairs = np.asarray(coeffs, dtype=np.float64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(
                f"linear_plus_power coeffs must be [scale, slope] pairs, got shape {pairs.shape}"
            )
        scales, slopes = pairs.T.copy()
        f = LinearPlusPower(scales, slopes, p)
    else:
        raise ValueError(f"unknown cost family: {family!r}")
    if f.m != m:
        raise ValueError(f"coeffs imply dimension {f.m}, config says {m}")
    return f


# -- cross-checks ----------------------------------------------------------


def fenchel_gap(f, u, y):
    """``cost(u) + conj(y) - <y, u>`` per ``(..., m)`` point: at least 0, 0 at ``y = grad(u)``."""
    u = _as_point(u, f.m, batch=True)
    y = _as_point(y, f.m, "y", batch=True)
    return _plain(f.eval_rows(u) + f.conj_many(y) - _vecdot(y, u))


def _sup_concave(h, tol=1e-12):
    # Bracket the peak of a concave h on [0, inf) by doubling, then ternary.
    hi = 1.0
    for _ in range(120):
        if h(2.0 * hi) <= h(hi):
            break
        hi *= 2.0
    else:
        raise ValueError("numeric sup did not bracket a maximum")
    hi *= 2.0
    lo = 0.0
    while hi - lo > tol * max(1.0, hi):
        d = (hi - lo) / 3.0
        a, b = lo + d, hi - d
        if h(a) < h(b):
            lo = a
        else:
            hi = b
    return max(h(0.5 * (lo + hi)), h(0.0))


def conjugate_numeric(f, y) -> float:
    """Independent sup oracle for the conjugate of a separable cost.

    Maximizes ``y_i*u - component_i(u)`` per coordinate from function values
    only (bracketing by doubling plus ternary search), so it shares nothing
    with the closed-form conjugate path it is used to validate.
    """
    y = _as_point(y, f.m, "y")
    total = 0.0
    for i in range(f.m):
        if y[i] <= 0.0:
            continue
        val = _sup_concave(lambda u, i=i: y[i] * u - f.component_value(i, u))
        total += max(val, 0.0)
    return total


def check_growth(f, samples) -> Verdict:
    """Evaluate the growth-order inequalities on ``(u, gamma, delta)`` samples.

    ``gamma >= 1`` scales the primal point, ``delta in (0, 1]`` shrinks the
    dual ``y = grad(u)``.  Report-only: raises nothing.  The detail holds
    the worst normalized violation (clipped at 0) of each claim::

        scale_growth       cost(g*u) <= g**p * cost(u)
        conjugate_shrink   conj(d*y) <= d**(p/(p-1)) * conj(y)
        conjugate_of_grad  conj(grad(u)) <= p * cost(u)
        grad_inner         <grad(u), u> <= p * cost(u)

    and the slack is minus the largest of them; it passes at ``>= -1e-9``.
    One batch of all samples, validated once; ``g**p`` and ``d**q`` stay Python powers.
    """
    us, gammas, deltas = tuple(zip(*samples)) or ((), (), ())
    u = _as_point(us, f.m, batch=True) if us else np.zeros((0, f.m))
    q = f.p / (f.p - 1.0)
    psi_u = f.eval_rows(u)
    y = f.grad_many(u)
    conj_y = f.conj_many(y)
    grown, shrunk = np.array([g**f.p for g in gammas]), np.array([d**q for d in deltas])
    # The violation of lhs <= rhs is the slack of the reversed claim.
    violations = (
        normalized_slack(f.eval_rows(np.array(gammas)[:, None] * u), grown * psi_u),
        normalized_slack(f.conj_many(np.array(deltas)[:, None] * y), shrunk * conj_y),
        normalized_slack(conj_y, f.p * psi_u),
        normalized_slack(_vecdot(y, u), f.p * psi_u),
    )
    # Each claim's running max from 0.0: NaN never enters, and 0.0 wins a tie.
    worst = [max(0.0, float(np.fmax.reduce(v, initial=0.0))) for v in violations]
    names = ("scale_growth", "conjugate_shrink", "conjugate_of_grad", "grad_inner")
    return Verdict.of("growth", -max(worst), dict(zip(names, worst)), tol=1e-9)


def check_superadditivity(f, u, v, tol=1e-9):
    """Superadditivity plus the convexity-growth upper bound, per ``(..., m)`` point.

    ``cost(u+v) >= cost(u) + cost(v)`` and
    ``cost(u+v) <= 2**(p-1) * (cost(u) + cost(v))``.
    """
    u = _as_point(u, f.m, batch=True)
    v = _as_point(v, f.m, "v", batch=True)
    both = f.eval_rows(u + v)
    parts = f.eval_rows(u) + f.eval_rows(v)
    lower_ok = both >= parts - tol * np.maximum(1.0, np.abs(parts))
    upper = 2.0 ** (f.p - 1.0) * parts
    upper_ok = both <= upper + tol * np.maximum(1.0, np.abs(upper))
    return _plain(lower_ok & upper_ok)
