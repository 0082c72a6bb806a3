"""Exact offline optima used as ground truth by every end-to-end check.

Adversarial parts are solved by exhaustive enumeration over the finite
menus.  Stochastic parts are solved in selector form: a selector fixes one
choice per support element, and its exact expected cost over the i.i.d.
draws is computed by enumerating draw-count multisets with multinomial
weights (the cost of a sum depends only on how often each support element
appears, not on the order).  The welfare optimum of the stochastic part
is a fractional selector ``support -> [0,1]``, found by coordinate ascent
on a grid with a ternary refinement of the concave expected profit.

The enumerations run as array passes.  The multiset table is built by
stars and bars in one level-wise pass, each level's draw counts with
their log-factorial sums; the selectors of ``opt_stoch_ocp`` and the
levels of one coordinate of ``opt_stoch_welfare`` are scored in blocks
of at most ``ADV_BLOCK_ROWS`` load rows, one ``eval_many`` and one
``np.vecdot`` expectation per block.  Each block stacks the per-selector
(per-candidate) load matrices on a leading axis, so every value, tie-break
and answer equals that of scoring them one at a time, bit for bit.  At
``m = 1`` the products over the load axis, in ``eval_many`` and in the
welfare oracle's axis derivative, are single products with the matrix
product's bits (``costs._dot_last``).

``opt_stoch_ocp`` scores only the selectors that can win.  The cost is
convex, so by Jensen's inequality a selector's expected cost is at least
the cost of its expected load; these bounds, shrunk by a relative margin
of ``1e-9`` that covers their rounding, certify each skipped selector to
be worse than a value already reached.  On the large stochastic parts a
few of the hundreds of selectors are scored.

``opt_stoch_welfare`` likewise scores only the grid levels that can win.
The expected profit is concave on each axis, so secant lines through the
coarse levels (every 10th) bound every interval between them from above;
with a relative margin of ``1e-9`` for rounding, they certify the skipped
levels to lie below the coarse maximum.  It also decides monotone
comparisons without scoring them: the derivative of the profit along an
axis, taken at two levels with the same relative margin, certifies the
profit rising or falling between them, and where that slope times the
distance of two levels exceeds twice the value margin, their computed
comparison is known.  So a scan of an axis certified monotone with that
separation at the grid spacing scores no level, and a certified prefix
of the ternary steps is taken unscored.  The remaining ternary steps
are scored two per batch, and the answer carries its Frank-Wolfe gap,
which certifies ``exact``.

Every oracle is guarded: past the stated size thresholds the exact paths
either refuse loudly or fall back to a flagged Monte-Carlo estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from robustpd.costs import _dot_last
from robustpd.instances import _check_probs
from robustpd.oco import ConfigError
from robustpd.ocp import _menus
from robustpd.welfare import _split_requests

__all__ = [
    "GuardError",
    "OptReport",
    "opt_adv_ocp",
    "opt_stoch_ocp",
    "opt_stoch_welfare",
    "count_multisets",
]

MAX_ADV_COMBOS = 10**7
MAX_SELECTORS = 10**5
MAX_MULTISETS = 10**6


class GuardError(ConfigError):
    """An exact oracle refused: the instance is too large to enumerate.

    A :class:`ConfigError`, so the command line reports it as a usage
    error (exit status 2) and writes no report.
    """


@dataclass
class OptReport:
    """Offline optimum plus everything needed to reproduce and reuse it."""

    value: float
    choices: list | None = None  # per adversarial step (opt_adv_ocp)
    selector: list | None = None  # per support element (stochastic oracles)
    load: np.ndarray | None = None  # vOPT (adv) or expected vOPT (stoch)
    method: str = "enumeration"
    exact: bool = True
    stderr: float = 0.0
    extra: dict = field(default_factory=dict)


# -- adversarial part, ocp -----------------------------------------------------


# Load rows of one scored block: menu combinations in opt_adv_ocp, selectors
# and candidate levels in the stochastic oracles.
ADV_BLOCK_ROWS = 2**15


def opt_adv_ocp(adv_sets, f) -> OptReport:
    """Minimum of ``cost(sum_t v_t)`` over all menu combinations.

    Combinations are enumerated in lexicographic order, in blocks that fix
    the choices on a prefix of the menus and broadcast over the rest.  Each
    load is summed in step order, as a recursion over the menus would; the
    block is scored with ``eval_many``, and every combination within
    ``1e-9 * max(1, |min|)`` of the block's minimum is re-scored with
    ``eval_rows`` (``eval``'s bits, no point to validate).  The answer is
    the lexicographically first combination of least ``eval``.
    """
    menus = _menus(adv_sets, f.m)
    if not menus:
        return OptReport(value=0.0, choices=[], load=np.zeros(f.m))
    combos = math.prod(len(o) for o in menus)
    if combos > MAX_ADV_COMBOS:
        raise GuardError(
            f"{combos} menu combinations exceed the {MAX_ADV_COMBOS} guard; "
            "use a smaller adversarial part"
        )
    # The suffix of menus enumerated inside one block: at least the last.
    split = len(menus) - 1
    block_rows = len(menus[-1])
    while split > 0 and block_rows * len(menus[split - 1]) <= ADV_BLOCK_ROWS:
        split -= 1
        block_rows *= len(menus[split])
    suffix_shape = [len(o) for o in menus[split:]]
    best_val = math.inf
    best_idx = None
    for prefix in itertools.product(*(range(len(o)) for o in menus[:split])):
        block = np.zeros((1, f.m))
        for t, j in enumerate(prefix):
            block = block + menus[t][j]
        for options in menus[split:]:
            block = (block[:, None, :] + options[None, :, :]).reshape(-1, f.m)
        scores = f.eval_many(block)
        low = float(scores.min())
        for r in np.flatnonzero(scores <= low + 1e-9 * max(1.0, abs(low))):
            val = float(f.eval_rows(block[r]))
            if val < best_val:
                best_val = val
                best_idx = prefix + tuple(int(j) for j in np.unravel_index(r, suffix_shape))
    choices = [menus[t][j] for t, j in enumerate(best_idx)]
    load = np.sum(choices, axis=0)
    return OptReport(
        value=best_val,
        choices=[np.asarray(c) for c in choices],
        load=load,
        extra={"indices": list(best_idx)},
    )


# -- stochastic part, ocp --------------------------------------------------------


def count_multisets(n, s):
    return math.comb(n + s - 1, s - 1)


def _multiset_table(n_draws, probs):
    """All draw-count vectors with their multinomial probabilities.

    The rows are the compositions of ``n_draws`` into ``s = len(probs)``
    parts in lexicographic order, built by stars and bars one level (part)
    at a time.  Each level keeps its parts and parent rows and adds its
    log-factorials to the running sums at its own size, so each row's
    ``lgamma(c_0 + 1) + lgamma(c_1 + 1) + ...`` is summed left to right.
    Each column is gathered once, through the parent links, into one
    C-contiguous ``(rows, s)`` float64 array (exact: small integers), the
    layout that fixes the bits of ``counts @ ...``.
    """
    s = len(probs)
    probs = np.asarray(probs, dtype=np.float64)
    # The 1e-300 floor avoids 0 * -inf; rows drawing a zero-probability
    # element are zeroed outright afterwards.
    log_probs = np.log(np.maximum(probs, 1e-300))
    log_fact = np.array([math.lgamma(k + 1) for k in range(n_draws + 1)])
    levels = []  # (parts, parent rows) per level
    left = np.array([n_draws])
    row_sum = np.zeros(1)  # 0.0 + x is x: the sums start at the first part
    for _ in range(s - 1):
        fan = left + 1
        parent = np.repeat(np.arange(left.size), fan)
        # A row with r draws left has r + 1 children, with parts 0, ..., r.
        part = np.arange(parent.size) - (np.cumsum(fan) - fan).take(parent)
        left = left.take(parent) - part
        row_sum = row_sum.take(parent) + log_fact.take(part)
        levels.append((part, parent))
    row_sum = row_sum + log_fact.take(left)
    counts = np.empty((left.size, s))
    counts[:, s - 1] = left
    up = None  # each row's index at the level being written; None at the last
    for j in range(s - 2, -1, -1):
        part, parent = levels.pop()
        counts[:, j] = part if up is None else part.take(up)
        if j:
            up = parent if up is None else parent.take(up)
    pmf = np.exp(math.lgamma(n_draws + 1) - row_sum + counts @ log_probs)
    dead = probs <= 0.0
    if np.any(dead):
        pmf[(counts[:, dead] > 0).any(axis=1)] = 0.0
    return counts, pmf


# Relative margin of the Jensen bounds in _best_selector (see there).
_JENSEN_MARGIN = 1e-9


def _best_selector(menus, counts, f, score, mean_counts):
    """The first selector of least ``score`` in ``itertools.product`` order.

    A selector picks one option of each menu, and its load at draw-count
    row ``k`` is ``counts[k] @ chosen``.  ``score`` maps the ``(B, rows)``
    costs of B selectors to their ``(B,)`` values: each selector's row
    costs summed with nonnegative row weights ``w``.  ``mean_counts`` is
    ``(w @ counts) / max(1, W)``, where ``W = w.sum()``.

    Screening.  The cost ``f`` is convex, nonnegative and 0 at 0.  By
    Jensen's inequality a selector's value is at least ``W`` times the cost
    of its mean load, and ``W f(x)`` is at least ``f(x)`` when ``W >= 1``
    and at least ``f(W x)`` when ``W < 1``.  So the value is at least the
    bound ``f(mean_counts @ chosen)``, however far the weights are from
    summing to 1.  The mean loads of all selectors are summed one menu at
    a time, in product order, and costed with one ``eval_many``; the
    bounds are scaled by ``1 - _JENSEN_MARGIN``.  The selector of least
    bound is scored first, and its value is the incumbent.  Of the others,
    only those whose bound is at most the incumbent are scored, in product
    order; a skipped selector's value exceeds the incumbent, so it is
    neither the answer nor tied with it.

    Rounding.  The table has at most ``MAX_MULTISETS`` rows, so the sums
    of nonnegative terms behind ``w @ counts`` and behind a value are
    each off by at most about ``1.1e-10`` relative, and the cost of a load
    off by a relative ``d`` is off by at most about ``p * d``.  The margin
    of ``1e-9`` covers both for every growth order ``p <= 8``.

    Scoring.  The scored selectors run in blocks of at most
    ``ADV_BLOCK_ROWS`` load rows (at least one selector): one stacked
    ``counts @ chosen`` gives the ``(B, rows, m)`` loads of a block, one
    ``eval_many`` their ``(B, rows)`` costs, each selector's rows
    evaluated as on their own, so every value equals that of scoring the
    selector alone.  Returns the value, the selector's option indices, its
    costs and the number of selectors scored.
    """
    sizes = [len(o) for o in menus]
    table = np.concatenate(menus)
    offsets = np.cumsum([0, *sizes[:-1]])
    mean_loads = mean_counts[0] * menus[0]
    for mean, options in zip(mean_counts[1:], menus[1:]):
        mean_loads = (mean_loads[:, None, :] + mean * options).reshape(-1, f.m)
    bounds = f.eval_many(mean_loads) * (1.0 - _JENSEN_MARGIN)

    def score_block(flat):
        chosen = table[offsets + np.stack(np.unravel_index(flat, sizes), axis=1)]  # (B, s, m)
        costs = f.eval_many(counts @ chosen)
        return score(costs), costs

    first = int(np.argmin(bounds))
    vals, costs = score_block(np.array([first]))
    best_val, best_r, best_costs = float(vals[0]), first, costs[0]
    bounds[first] = math.inf
    rest = np.flatnonzero(bounds <= best_val)
    block = max(1, ADV_BLOCK_ROWS // counts.shape[0])
    for start in range(0, rest.size, block):
        flat = rest[start:start + block]
        vals, costs = score_block(flat)
        i = int(np.argmin(vals))
        # A tie with the first selector goes to the earlier one.
        if vals[i] < best_val or (vals[i] == best_val and flat[i] < best_r):
            best_val, best_r, best_costs = float(vals[i]), int(flat[i]), costs[i]
    indices = [int(j) for j in np.unravel_index(best_r, sizes)]
    return best_val, indices, best_costs, 1 + rest.size


def _selector_report(menus, probs, n_stoch, value, indices, scored, **kwargs):
    chosen = [menus[j][i] for j, i in enumerate(indices)]
    return OptReport(
        value=value,
        selector=[np.asarray(c) for c in chosen],
        load=n_stoch * (probs @ np.stack(chosen)),
        extra={
            "indices": indices,
            "n_stoch": n_stoch,
            "selectors": math.prod(len(o) for o in menus),
            "scored": scored,
        },
        **kwargs,
    )


def opt_stoch_ocp(support, probs, n_stoch, f, *, mc_samples=10**5, seed=0) -> OptReport:
    """Best selector ``support -> option`` for the expected cost of the draws.

    The expectation is exact (multiset enumeration); only the selectors
    whose Jensen bound does not rule them out are scored (see
    :func:`_best_selector`).  ``extra`` records the ``selectors``
    enumerated and how many were ``scored``.  If the selector space or the
    multiset table blows past the guards, falls back to a flagged
    Monte-Carlo estimate over random draws.  ``probs`` must be a
    distribution over the support (``ValueError`` otherwise).
    """
    probs = _check_probs(probs, len(support))
    if n_stoch == 0:
        return OptReport(value=0.0, selector=[], load=np.zeros(f.m))
    menus = _menus(support, f.m)
    s = len(menus)
    selector_count = math.prod(len(o) for o in menus)
    n_multisets = count_multisets(n_stoch, s)
    if selector_count > MAX_SELECTORS or n_multisets > MAX_MULTISETS:
        return _opt_stoch_ocp_mc(menus, probs, n_stoch, f, mc_samples, seed)
    counts, pmf = _multiset_table(n_stoch, probs)
    # vecdot reduces each row with the same kernel as pmf @ costs.
    value, indices, _, scored = _best_selector(
        menus, counts, f,
        lambda costs: np.vecdot(costs, pmf),
        (pmf @ counts) / max(1.0, float(pmf.sum())),
    )
    return _selector_report(menus, probs, n_stoch, value, indices, scored)


def _opt_stoch_ocp_mc(menus, probs, n_stoch, f, mc_samples, seed):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    s = len(menus)
    draws = rng.choice(s, size=(mc_samples, n_stoch), p=probs)
    counts = np.stack([(draws == j).sum(axis=1) for j in range(s)], axis=1).astype(np.float64)
    value, indices, costs, scored = _best_selector(
        menus, counts, f, lambda costs: costs.mean(axis=1), counts.mean(axis=0)
    )
    return _selector_report(
        menus, probs, n_stoch, value, indices, scored,
        method="monte-carlo",
        exact=False,
        stderr=float(costs.std(ddof=1) / math.sqrt(mc_samples)),
    )


# -- welfare, stochastic part -----------------------------------------------------


# The levels of one axis, every _STRIDE-th of them coarse (the stride divides
# the grid's 100 steps), and the most sweeps of the coordinate ascent.
_GRID = 101
_STRIDE = 10
_SWEEPS = 40
# Relative margin of the secant bounds of an axis scan (see opt_stoch_welfare).
_CONCAVITY_MARGIN = 1e-9
# Ternary steps refining each coordinate, two per scored batch.
_TERNARY_STEPS = 80


def _secant_bounds(v):
    """Upper bounds of a concave function on the open intervals between samples.

    ``v`` samples the function at equally spaced points.  On the interval
    between samples k and k+1 the function lies below the line through
    samples k-1 and k, extended, and below the line through k+1 and k+2;
    over the interval each line is at most the larger of its values at the
    interval's ends, ``max(v[k], 2 v[k] - v[k-1])`` and
    ``max(v[k+1], 2 v[k+1] - v[k+2])``.  The first interval has no left
    line and the last no right one.
    """
    inner = v[1:-1]
    left = np.maximum(inner, 2.0 * inner - v[:-2])
    right = np.maximum(inner, 2.0 * inner - v[2:])
    return np.minimum(np.append(np.inf, left), np.append(right, np.inf))


def _thirds(lo, hi):
    d = (hi - lo) / 3.0
    return lo + d, hi - d


def _certified_slope(g, g_scale):
    """A bound on the slope of a concave function over ``[lo, hi]``.

    ``g`` holds the function's computed derivatives at ``lo`` and ``hi``,
    each within ``_CONCAVITY_MARGIN`` times its ``g_scale`` of the true
    one.  The derivative of a concave function does not increase, so if
    the derivative at ``hi`` is certified positive the function rises on
    all of ``[lo, hi]`` at least that fast, returned as a positive slope;
    if the derivative at ``lo`` is certified negative it falls at least
    that fast, returned as a negative slope.  Else returns 0.
    """
    rise = g[1] - _CONCAVITY_MARGIN * g_scale[1]
    if rise > 0.0:
        return float(rise)
    return min(float(g[0] + _CONCAVITY_MARGIN * g_scale[0]), 0.0)


def opt_stoch_welfare(support, probs, n_stoch, f) -> OptReport:
    """Best fractional selector ``support -> [0,1]`` for expected profit.

    Coordinate ascent over a 101-level axis per support element, then a
    ternary refinement of each coordinate.  The expectation is exact via
    the multiset table.  ``probs`` must be a distribution over the support
    (``ValueError``).

    Screened axis scans.  On one axis (coordinate j, the others held) the
    expected profit is concave in the level: the reward is linear and the
    expected cost convex.  A scan scores the 11 coarse levels (every 10th)
    and bounds each open interval between two of them from above with
    :func:`_secant_bounds`.  Only the levels of the intervals whose bound
    plus a margin reaches the coarse maximum are scored, in one batch; a
    skipped level is certified below the coarse maximum, so the first
    maximum over the scored levels is the first maximum over the axis.
    The margin is ``_CONCAVITY_MARGIN`` times ``1 + |reward_base| + |slope|
    + C``, where ``reward_base + slope * level`` is the reward and ``C``
    the largest expected cost of a coarse level; the expected cost is
    convex in the level, so it peaks at level 0 or 1, and both are coarse.
    The ascent stops once ``s`` scans in a row have not moved: every
    coordinate has then been scanned at the current point, and a scan is a
    function of the point alone, so a further sweep would not move either.

    Certified monotone steps.  The derivative of the profit along the axis
    at level ``t`` is ``slope - E[k_j <grad f(load), a_j>]``, with ``k_j``
    the draw count of element j; concavity makes it nonincreasing in
    ``t``.  Computed at the two ends of an interval, it certifies the
    profit rising or falling on all of it, with a bound on the slope
    (:func:`_certified_slope`).  If the profit rises with slope at least
    ``sigma``, two levels ``a < b`` of the interval differ by at least
    ``sigma * (b - a)``; when that exceeds twice the value margin above
    (with ``C`` the larger expected cost of the interval's ends, again by
    convexity), the computed ``va < vb`` holds whatever the rounding, so
    the comparison is decided without scoring.  A scan first takes the
    derivative at levels 0 and 1: if it certifies the whole axis with a
    separation beyond twice the margin at the grid spacing, the computed
    profits strictly rise (fall) along the axis and the first maximum is
    level 100 (level 0), so the scan scores no level.

    Rounding.  The loads of the other coordinates are computed once per
    scan, so their rounding moves every level alike and leaves the expected
    cost convex: the concavity arguments hold for the function of the level
    with the scan's own rounded ``others``, and the derivative is taken of
    that function, from loads built exactly as the profits' are.  A level's
    reward is off by a few ulps of ``|reward_base| + |slope|``.  Its
    expected cost sums at most ``MAX_MULTISETS`` nonnegative terms, so it is
    off by at most about ``1.1e-10`` of ``C``, and the cost of a load off by
    a relative ``d`` is off by at most about ``p * d``.  A bound mixes three
    values and a level's value is one more, so the four errors stay within
    the margin for every growth order ``p <= 8``.  The derivative sums at
    most ``MAX_MULTISETS`` terms ``k_j <grad f(load), a_j>``, each the sum
    of ``m`` nonnegative products (the consumptions lie in ``[0, 1]`` and
    the cost is nondecreasing), and the gradient of a load off by a
    relative ``d`` is off by at most about ``(p - 1) d``; so the derivative
    is off by at most about ``1.1e-10`` of its scale ``|slope| +
    E[k_j |<grad f(load), a_j>|]``, and ``_CONCAVITY_MARGIN`` times that
    scale covers it.

    Ternary steps.  Each step of the refinement shrinks ``[lo, hi]`` to
    ``[a, hi]`` or ``[lo, b]`` at its thirds ``a, b``.  The derivative at
    ``lo`` and ``hi`` certifies a prefix of the steps, taken without
    scoring: every later bracket lies inside the first, so one slope bound
    and one margin serve all steps, and the thirds shrink with every step,
    so once a step is not certified no later one is.  If an odd number of
    steps remain, one step scores its two levels; then each batch scores
    six levels, ``a, b`` and the thirds of both possible successors, and
    takes two steps.

    Every batch runs in blocks of at most ``ADV_BLOCK_ROWS`` load rows (at
    least one level), each level's ``(rows, m)`` loads evaluated as on
    their own, so each value, comparison and answer equals that of
    scoring the levels one at a time, bit for bit.

    ``extra`` records the ``levels_scored`` by the axis scans, the
    ``scans_certified`` and ``steps_certified`` without scoring, and the
    Frank-Wolfe ``gap`` of the answer: with ``g`` the gradient of the
    expected profit, ``gap = sum_j max(g_j (1 - x_j), -g_j x_j)`` bounds
    how far the answer's value is below the optimum, and ``exact`` is set
    when ``gap <= 1e-9 * max(1, |value|)``.
    """
    probs = _check_probs(probs, len(support))
    if n_stoch == 0:
        return OptReport(value=0.0, selector=[], load=np.zeros(f.m), method="grid")
    s = len(support)
    n_multisets = count_multisets(n_stoch, s)
    if n_multisets > MAX_MULTISETS:
        raise GuardError(
            f"{n_multisets} draw-count multisets exceed the {MAX_MULTISETS} guard; "
            "use fewer stochastic draws or a smaller support"
        )
    c, A = _split_requests(support, f.m)  # A is (s, m)
    counts, pmf = _multiset_table(n_stoch, probs)
    mean_counts = n_stoch * probs
    block = max(1, ADV_BLOCK_ROWS // len(pmf))

    def expected_profit(x):
        reward = float(mean_counts @ (c * x))
        loads = counts @ (A * x[:, None])
        return reward - float(pmf @ f.eval_many(loads))

    def axis_profits(x, j):
        """The scorers of coordinate j's levels, the others held at x.

        ``profits(levels)`` returns the levels' profits and expected costs.
        ``certify(lo, hi)`` takes the profit's derivative along the axis at
        ``lo`` and ``hi`` in one batch, and returns the certified slope over
        ``[lo, hi]`` (:func:`_certified_slope`) and the value margin there.
        Also returns the reward part ``1 + |reward_base| + |slope|`` of the
        margins' scale.
        """
        others = counts @ (A * x[:, None]) - np.outer(counts[:, j], A[j] * x[j])
        slope = mean_counts[j] * c[j]
        reward_base = float(mean_counts @ (c * x)) - slope * x[j]
        column = counts[:, j].astype(np.float64)  # exact: small integers

        # others + column * (level * a_jk), one coordinate k at a time: the
        # same products and sums as whole rows, in loops as long as the table.
        terms = list(zip(others.T, A[j]))

        def batched(score, levels):
            # Blocks of at most ADV_BLOCK_ROWS load rows (at least one level);
            # score maps a block's (B, rows, m) loads to values whose last
            # axis is B.
            parts = [
                score(loads_of(levels[start:start + block]))
                for start in range(0, levels.size, block)
            ]
            return np.concatenate(parts, axis=-1)

        def loads_of(levels):
            loads = np.empty((levels.size, len(pmf), f.m))
            for k, (held, a) in enumerate(terms):
                np.add(held, np.multiply.outer(levels * a, column), out=loads[:, :, k])
            return loads

        def expected_costs(loads):
            # vecdot reduces each row with the same kernel as pmf @ costs.
            return np.vecdot(f.eval_many(loads), pmf)

        def derivatives(loads):
            # The derivative, its error scale and the expected costs.
            along = _dot_last(f.grad_many(loads), A[j])
            return np.stack([
                slope - np.vecdot(column * along, pmf),
                abs(slope) + np.vecdot(column * np.abs(along), pmf),
                expected_costs(loads),
            ])

        def profits(levels):
            if levels.size <= block:  # one block: no block list
                expected = expected_costs(loads_of(levels))
            else:
                expected = batched(expected_costs, levels)
            return reward_base + slope * levels - expected, expected

        scale = 1.0 + abs(reward_base) + abs(slope)

        def certify(lo, hi):
            g, g_scale, ends = batched(derivatives, np.array([lo, hi]))
            return _certified_slope(g, g_scale), _CONCAVITY_MARGIN * (scale + float(ends.max()))

        return profits, certify, scale

    levels = np.linspace(0.0, 1.0, _GRID)
    spacing = float(np.diff(levels).min())
    fine_offsets = np.arange(1, _STRIDE)
    levels_scored = scans_certified = steps_certified = 0
    x = np.zeros(s)
    still = 0  # scans in a row that did not move
    for scan in range(_SWEEPS * s):
        j = scan % s
        profits, certify, scale = axis_profits(x, j)
        sigma, err = certify(levels[0], levels[-1])
        if abs(sigma) * spacing > 2.0 * err:
            best = float(levels[-1] if sigma > 0.0 else levels[0])
            scans_certified += 1
        else:
            coarse, expected = profits(levels[::_STRIDE])
            margin = _CONCAVITY_MARGIN * (scale + float(expected.max()))
            reach = _secant_bounds(coarse) + margin >= coarse.max()
            fine = (_STRIDE * np.flatnonzero(reach)[:, None] + fine_offsets).ravel()
            vals = np.full(_GRID, -np.inf)
            vals[::_STRIDE] = coarse
            if fine.size:
                vals[fine] = profits(levels[fine])[0]
            levels_scored += coarse.size + fine.size
            best = float(levels[int(np.argmax(vals))])
        if best != x[j]:
            x[j] = best
            still = 0
        else:
            still += 1
            if still == s:
                break
    # Ternary refinement per coordinate around the grid solution.
    value = expected_profit(x)
    for j in range(s):
        profits, certify, _ = axis_profits(x, j)
        lo = max(0.0, x[j] - 1.0 / (_GRID - 1))
        hi = min(1.0, x[j] + 1.0 / (_GRID - 1))
        sigma, err = certify(lo, hi)
        steps = _TERNARY_STEPS
        while steps:
            a, b = _thirds(lo, hi)
            if not abs(sigma) * (b - a) > 2.0 * err:
                break
            if sigma > 0.0:
                lo = a
            else:
                hi = b
            steps -= 1
        steps_certified += _TERNARY_STEPS - steps
        if steps % 2:
            a, b = _thirds(lo, hi)
            va, vb = profits(np.array([a, b]))[0].tolist()
            if va < vb:
                lo = a
            else:
                hi = b
        for _ in range(steps // 2):
            a, b = _thirds(lo, hi)
            up = _thirds(a, hi)  # the next thirds if the step keeps [a, hi]
            down = _thirds(lo, b)  # ... and if it keeps [lo, b]
            va, vb, *rest = profits(np.array([a, b, *up, *down]))[0].tolist()
            if va < vb:
                lo = a
                (a, b), (va, vb) = up, rest[:2]
            else:
                hi = b
                (a, b), (va, vb) = down, rest[2:]
            if va < vb:
                lo = a
            else:
                hi = b
        trial = x.copy()
        trial[j] = 0.5 * (lo + hi)
        trial_value = expected_profit(trial)
        if trial_value >= value:
            x, value = trial, trial_value
    loads = counts @ (A * x[:, None])
    g = mean_counts * c - pmf @ (counts * (f.grad_many(loads) @ A.T))
    gap = float(np.sum(np.maximum(g * (1.0 - x), -g * x)))
    return OptReport(
        value=value,
        selector=x.tolist(),
        load=n_stoch * ((probs * x) @ A),
        method="grid",
        exact=gap <= 1e-9 * max(1.0, abs(value)),
        extra={
            "n_stoch": n_stoch,
            "levels_scored": levels_scored,
            "scans_certified": scans_certified,
            "steps_certified": steps_certified,
            "gap": gap,
        },
    )
