"""Convex cost functions on the nonnegative orthant.

All cost functions here are convex, differentiable, non-decreasing, vanish
at the origin, and have non-decreasing gradients with growth order at most
``p`` (i.e. ``grad(g*u) <= g**(p-1) * grad(u)`` for ``g >= 1``).  Three
families are supported:

* :class:`SumOfPowers` -- ``sum_i c_i * u_i**p`` with ``c_i >= 0``,
* :class:`LinearPlusPower` -- ``sum_i (l_i*u_i)**p + sum_i c_i*u_i``,
* :class:`SeparableGeneric` -- user-supplied 1-d components.

Every family exposes an exact evaluation, a closed-form gradient, and the
convex conjugate ``conj(y) = sup_{u>=0} (<y,u> - cost(u))`` restricted to
nonnegative duals.  The module also carries the numeric sup oracle used to
cross-check the closed forms, and report-style checks for the structural
inequalities (growth, conjugate shrinking, superadditivity) that the online
engines rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CostFunction",
    "SumOfPowers",
    "LinearPlusPower",
    "SeparableGeneric",
    "ConjugateValue",
    "GrowthReport",
    "fenchel_gap",
    "conjugate_numeric",
    "biconjugate_numeric",
    "check_growth",
    "check_superadditivity",
    "cost_from_config",
]

_NEG_TOL = 1e-12


def _as_point(x, m, name="u"):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({m},)")
    if np.any(x < -_NEG_TOL):
        raise ValueError(f"{name} has a negative coordinate: {x.min()}")
    return np.maximum(x, 0.0)


@dataclass
class ConjugateValue:
    """Value of the convex conjugate, with the maximizer when known."""

    value: float
    argmax: np.ndarray | None = None


class CostFunction:
    """Base for separable convex costs with known conjugate structure.

    Attributes
    ----------
    m : int
        Dimension of the domain.
    p : float
        Growth order (``>= 2`` for the online guarantees, ``>= 1`` accepted
        for conjugate-only use).
    separable, homogeneous : bool
        Structural flags used by the engines to pick the tighter bounds.
    """

    family = "abstract"
    separable = True
    homogeneous = False

    def __init__(self, m, p):
        if m < 1:
            raise ValueError("dimension must be positive")
        if p < 1:
            raise ValueError(f"growth order p={p} must be >= 1")
        self.m = int(m)
        self.p = float(p)

    # -- core surface -----------------------------------------------------

    def eval(self, u) -> float:
        raise NotImplementedError

    def grad(self, u) -> np.ndarray:
        raise NotImplementedError

    def conjugate_value(self, y) -> float:
        """Fast path for ``conjugate(y).value``."""
        return self.conjugate(y).value

    def conjugate(self, y) -> ConjugateValue:
        raise NotImplementedError

    def component_value(self, i, x) -> float:
        """Value of the i-th 1-d component at scalar ``x >= 0``."""
        raise NotImplementedError

    def eval_many(self, U) -> np.ndarray:
        """Row-wise evaluation of a ``(k, m)`` batch of points."""
        U = np.asarray(U, dtype=np.float64)
        return np.array([self.eval(row) for row in U])

    def grad_many(self, U) -> np.ndarray:
        """Gradients of a ``(..., m)`` batch of points, one row per point.

        Unlike :meth:`grad`, the rows are not validated: they must lie in
        the nonnegative orthant already.
        """
        U = np.asarray(U, dtype=np.float64)
        rows = [self.grad(u) for u in U.reshape(-1, self.m)]
        return np.array(rows, dtype=np.float64).reshape(U.shape)

    def conj_many(self, Y) -> np.ndarray:
        """Conjugate values of a ``(..., m)`` batch of duals, shape ``(...)``.

        Unlike :meth:`conjugate_value`, the rows are not validated.
        """
        Y = np.asarray(Y, dtype=np.float64)
        values = [self.conjugate_value(y) for y in Y.reshape(-1, self.m)]
        return np.array(values, dtype=np.float64).reshape(Y.shape[:-1])

    # -- decomposition hooks ----------------------------------------------

    @property
    def linear_slopes(self) -> np.ndarray | None:
        """Slope vector of the linear part, when the family admits one."""
        return None

    def power_part(self) -> "CostFunction | None":
        """The super-linear remainder of the decomposition, if any."""
        return None

    def grows_at_least_quadratically(self, rng=None, samples=64) -> bool:
        """Sampled check of ``cost(g*u) >= g**2 * cost(u)`` for ``g >= 1``."""
        rng = rng or np.random.default_rng(0)
        for _ in range(samples):
            u = rng.uniform(0.0, 3.0, size=self.m)
            g = rng.uniform(1.0, 4.0)
            lhs = self.eval(g * u)
            rhs = g * g * self.eval(u)
            if lhs < rhs - 1e-9 * max(1.0, abs(rhs)):
                return False
        return True

    def cost_at_p_ones(self) -> float:
        """Evaluation at ``p * (1,...,1)``, the additive loss unit."""
        return self.eval(np.full(self.m, self.p))

    def to_config(self) -> dict:
        raise TypeError(f"{self.family} cost functions do not serialize")

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
        self._q = self.p / (self.p - 1.0) if self.p > 1 else math.inf
        if self.p > 1:
            self._conj_scale = _power_conj_scale(coeffs, self.p)

    def eval(self, u):
        u = _as_point(u, self.m)
        if self.p == 2.0:
            return float(np.dot(self.coeffs, u * u))
        return float(np.dot(self.coeffs, u**self.p))

    def eval_many(self, U):
        U = np.asarray(U, dtype=np.float64)
        if self.p == 2.0:
            return (U * U) @ self.coeffs
        return (U**self.p) @ self.coeffs

    def grad(self, u):
        return self.grad_many(_as_point(u, self.m))

    def grad_many(self, U):
        if self.p == 2.0:
            return 2.0 * self.coeffs * U
        return self.p * self.coeffs * U ** (self.p - 1.0)

    def conjugate_value(self, y):
        return float(self.conj_many(_as_point(y, self.m, "y")))

    def conj_many(self, Y):
        if self.p == 1.0:
            # Linear function: conjugate is 0 below the slope, +inf above.
            if np.any(Y > self.coeffs + 1e-12):
                raise ValueError("conjugate is infinite above a linear slope")
            return np.zeros(np.shape(Y)[:-1])
        if np.any((self.coeffs == 0) & (Y > 1e-12)):
            raise ValueError("conjugate is infinite on a zero-weight coordinate")
        # vecdot reduces each row with the same kernel as np.dot.
        if self.p == 2.0:
            return np.vecdot(self._conj_scale, Y * Y)
        return np.vecdot(self._conj_scale, Y**self._q)

    def conjugate(self, y):
        value = self.conjugate_value(y)
        y = _as_point(y, self.m, "y")
        argmax = np.zeros(self.m)
        pos = self.coeffs > 0
        if self.p > 1:
            argmax[pos] = (y[pos] / (self.coeffs[pos] * self.p)) ** (
                1.0 / (self.p - 1.0)
            )
        return ConjugateValue(value, argmax)

    def component_value(self, i, x):
        return self.coeffs[i] * x**self.p

    @property
    def linear_slopes(self):
        if self.p == 1.0:
            return self.coeffs
        return np.zeros(self.m)

    def power_part(self):
        return self if self.p > 1 else None

    def to_config(self):
        return {
            "family": self.family,
            "m": self.m,
            "p": self.p,
            "coeffs": self.coeffs.tolist(),
        }


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
        if p <= 1:
            raise ValueError("linear-plus-power requires p > 1")
        super().__init__(scales.size, p)
        self.scales = scales
        self.slopes = slopes
        self.homogeneous = bool(np.all(slopes == 0.0))
        self._weights = scales**self.p
        self._q = self.p / (self.p - 1.0)
        self._conj_scale = _power_conj_scale(self._weights, self.p)

    def eval(self, u):
        u = _as_point(u, self.m)
        return float(np.dot(self._weights, u**self.p) + np.dot(self.slopes, u))

    def eval_many(self, U):
        U = np.asarray(U, dtype=np.float64)
        return (U**self.p) @ self._weights + U @ self.slopes

    def grad(self, u):
        return self.grad_many(_as_point(u, self.m))

    def grad_many(self, U):
        return self.p * self._weights * U ** (self.p - 1.0) + self.slopes

    def conjugate_value(self, y):
        return float(self.conj_many(_as_point(y, self.m, "y")))

    def conj_many(self, Y):
        Z = np.maximum(Y - self.slopes, 0.0)
        if np.any((self._weights == 0) & (Z > 1e-12)):
            raise ValueError("conjugate is infinite above a purely linear slope")
        return np.vecdot(self._conj_scale, Z**self._q)

    def conjugate(self, y):
        value = self.conjugate_value(y)
        y = _as_point(y, self.m, "y")
        z = np.maximum(y - self.slopes, 0.0)
        argmax = np.zeros(self.m)
        pos = self._weights > 0
        argmax[pos] = (z[pos] / (self._weights[pos] * self.p)) ** (
            1.0 / (self.p - 1.0)
        )
        return ConjugateValue(value, argmax)

    def component_value(self, i, x):
        return (self.scales[i] * x) ** self.p + self.slopes[i] * x

    @property
    def linear_slopes(self):
        return self.slopes

    def power_part(self):
        return SumOfPowers(self._weights, self.p)

    def to_config(self):
        return {
            "family": self.family,
            "m": self.m,
            "p": self.p,
            "coeffs": [[float(l), float(c)] for l, c in zip(self.scales, self.slopes)],
        }


class SeparableGeneric(CostFunction):
    """Separable cost from user-supplied 1-d components.

    ``components`` is a list of ``(value, derivative)`` callable pairs, one
    per coordinate.  The conjugate has no closed form and is computed by
    ternary search on the concave map ``u -> y*u - component(u)`` over
    ``[0, U]``, where ``U`` doubles from 1 until the derivative exceeds
    ``y``.
    """

    family = "separable_generic"

    def __init__(self, components, p, homogeneous=False):
        super().__init__(len(components), p)
        self.components = list(components)
        self.homogeneous = bool(homogeneous)

    def eval(self, u):
        u = _as_point(u, self.m)
        return float(sum(fn(x) for (fn, _), x in zip(self.components, u)))

    def grad(self, u):
        u = _as_point(u, self.m)
        return np.array([d(x) for (_, d), x in zip(self.components, u)])

    def _conj_1d(self, i, y):
        fn, deriv = self.components[i]
        if y <= 0.0:
            return 0.0, 0.0
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
        return max(y * u - fn(u), 0.0), u

    def conjugate(self, y):
        y = _as_point(y, self.m, "y")
        total = 0.0
        argmax = np.zeros(self.m)
        for i in range(self.m):
            val, u = self._conj_1d(i, y[i])
            total += val
            argmax[i] = u
        return ConjugateValue(total, argmax)

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
        scales = [pair[0] for pair in coeffs]
        slopes = [pair[1] for pair in coeffs]
        f = LinearPlusPower(scales, slopes, p)
    else:
        raise ValueError(f"unknown cost family: {family!r}")
    if f.m != m:
        raise ValueError(f"coeffs imply dimension {f.m}, config says {m}")
    return f


# -- cross-checks ----------------------------------------------------------


def fenchel_gap(f, u, y) -> float:
    """``cost(u) + conj(y) - <y, u>``; nonnegative, zero at ``y = grad(u)``."""
    u = _as_point(u, f.m)
    y = _as_point(y, f.m, "y")
    return f.eval(u) + f.conjugate_value(y) - float(np.dot(y, u))


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
    u = 0.5 * (lo + hi)
    return max(h(u), h(0.0)), u


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
        val, _ = _sup_concave(lambda u, i=i: y[i] * u - f.component_value(i, u))
        total += max(val, 0.0)
    return total


def biconjugate_numeric(f, u) -> float:
    """Numeric ``sup_y (<y,u> - conj(y))`` per coordinate; recovers cost(u)."""
    u = _as_point(u, f.m)
    total = 0.0
    for i in range(f.m):
        ei = np.zeros(f.m)

        def h(y, i=i, ei=ei):
            ei[i] = y
            return y * u[i] - f.conjugate_value(ei)

        val, _ = _sup_concave(h)
        total += max(val, 0.0)
    return total


@dataclass
class GrowthReport:
    """Worst normalized violations of the growth-order consequences."""

    scale_growth: float  # cost(g*u) <= g**p * cost(u), g >= 1
    conjugate_shrink: float  # conj(d*y) <= d**(p/(p-1)) * conj(y), d in (0,1]
    conjugate_of_grad: float  # conj(grad(u)) <= p * cost(u)
    grad_inner: float  # <grad(u), u> <= p * cost(u)

    @property
    def max_violation(self):
        return max(
            self.scale_growth,
            self.conjugate_shrink,
            self.conjugate_of_grad,
            self.grad_inner,
        )

    def passed(self, tol=1e-9):
        return self.max_violation <= tol


def _violation(lhs, rhs):
    # Normalized slack of the claim lhs <= rhs.
    return (lhs - rhs) / max(1.0, abs(rhs))


def check_growth(f, samples) -> GrowthReport:
    """Evaluate the growth-order inequalities on ``(u, gamma, delta)`` samples.

    ``gamma >= 1`` scales the primal point, ``delta in (0, 1]`` shrinks the
    dual ``y = grad(u)``.  Report-only: returns worst violations, raises
    nothing.
    """
    worst = [0.0, 0.0, 0.0, 0.0]
    q = f.p / (f.p - 1.0) if f.p > 1 else math.inf
    for u, gamma, delta in samples:
        u = _as_point(u, f.m)
        psi_u = f.eval(u)
        y = f.grad(u)
        worst[0] = max(worst[0], _violation(f.eval(gamma * u), gamma**f.p * psi_u))
        conj_y = f.conjugate_value(y)
        if f.p > 1:
            worst[1] = max(
                worst[1], _violation(f.conjugate_value(delta * y), delta**q * conj_y)
            )
        worst[2] = max(worst[2], _violation(conj_y, f.p * psi_u))
        worst[3] = max(worst[3], _violation(float(np.dot(y, u)), f.p * psi_u))
    return GrowthReport(*worst)


def check_superadditivity(f, u, v, tol=1e-9) -> bool:
    """Superadditivity plus the convexity-growth upper bound.

    ``cost(u+v) >= cost(u) + cost(v)`` and
    ``cost(u+v) <= 2**(p-1) * (cost(u) + cost(v))``.
    """
    u = _as_point(u, f.m)
    v = _as_point(v, f.m, "v")
    both = f.eval(u + v)
    parts = f.eval(u) + f.eval(v)
    lower_ok = both >= parts - tol * max(1.0, abs(parts))
    upper = 2.0 ** (f.p - 1.0) * parts
    upper_ok = both <= upper + tol * max(1.0, abs(upper))
    return bool(lower_ok and upper_ok)
