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
stars and bars; the selectors of ``opt_stoch_ocp`` and the candidate
levels of one coordinate of ``opt_stoch_welfare`` are scored in blocks of
at most ``ADV_BLOCK_ROWS`` load rows, one ``eval_many`` and one
``np.vecdot`` expectation per block.  Each block stacks the per-selector
(per-candidate) load matrices on a leading axis, so every value, tie-break
and answer equals that of scoring them one at a time, bit for bit.

``opt_stoch_ocp`` scores only the selectors that can win.  The cost is
convex, so by Jensen's inequality a selector's expected cost is at least
the cost of its expected load; these bounds, shrunk by a relative margin
of ``1e-9`` that covers their rounding, certify each skipped selector to
be worse than a value already reached.  On the large stochastic parts a
few of the hundreds of selectors are scored.

Every oracle is guarded: past the stated size thresholds the exact paths
either refuse loudly or fall back to a flagged Monte-Carlo estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

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
    ``eval``.  The answer is the lexicographically first combination of
    least ``eval``.
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
            val = f.eval(block[r])
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

    The rows are the compositions of ``n_draws`` into ``len(probs)`` parts
    in lexicographic order, built by stars and bars: the bar positions
    come from ``itertools.combinations`` in lexicographic order, and a
    part is the gap between two bars.  Each row's log-factorials are summed
    column by column, left to right.
    """
    s = len(probs)
    rows = count_multisets(n_draws, s)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n_draws + s - 1), s - 1)),
        dtype=np.int64,
        count=rows * (s - 1),
    ).reshape(rows, s - 1)
    counts = np.diff(bars, axis=1, prepend=-1, append=n_draws + s - 1) - 1
    probs = np.asarray(probs, dtype=np.float64)
    # The 1e-300 floor avoids 0 * -inf; rows drawing a zero-probability
    # element are zeroed outright afterwards.
    log_probs = np.log(np.maximum(probs, 1e-300))
    log_fact = np.array([math.lgamma(k + 1) for k in range(n_draws + 1)])[counts]
    row_sum = log_fact[:, 0]
    for col in range(1, s):
        row_sum = row_sum + log_fact[:, col]
    logpmf = math.lgamma(n_draws + 1) - row_sum + counts @ log_probs
    pmf = np.exp(logpmf)
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
    counts = counts.astype(np.float64)  # exact: the counts are small integers
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
    counts = np.stack([(draws == j).sum(axis=1) for j in range(s)], axis=1)
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


def opt_stoch_welfare(support, probs, n_stoch, f, *, grid=101, sweeps=40) -> OptReport:
    """Best fractional selector ``support -> [0,1]`` for expected profit.

    Coordinate ascent over a ``grid``-point axis per support element with a
    ternary refinement of each coordinate at the end; the profit is concave
    in the selector, so coordinate-wise optimization converges.  The
    expectation is exact via the multiset table.  ``probs`` must be a
    distribution over the support (``ValueError`` otherwise).
    """
    probs = _check_probs(probs, len(support))
    if n_stoch == 0:
        return OptReport(value=0.0, selector=[], load=np.zeros(f.m), method="grid")
    s = len(support)
    if count_multisets(n_stoch, s) > MAX_MULTISETS:
        raise GuardError("multiset table exceeds the guard")
    c, A = _split_requests(support, f.m)  # A is (s, m)
    counts, pmf = _multiset_table(n_stoch, probs)
    mean_counts = n_stoch * probs

    def expected_profit(x):
        reward = float(mean_counts @ (c * x))
        loads = counts @ (A * x[:, None])
        return reward - float(pmf @ f.eval_many(loads))

    def axis_profits(x, j):
        """Profits of candidate levels of coordinate j, the others held at x.

        The ``(G, rows, m)`` loads of all candidates are scored with one
        ``eval_many`` (in blocks of at most ``ADV_BLOCK_ROWS`` load rows, at
        least one candidate), each candidate's rows evaluated as on their
        own.
        """
        others = counts @ (A * x[:, None]) - np.outer(counts[:, j], A[j] * x[j])
        reward_base = float(mean_counts @ (c * x)) - mean_counts[j] * c[j] * x[j]
        block = max(1, ADV_BLOCK_ROWS // len(pmf))

        def profits(levels):
            expected = []
            for start in range(0, levels.size, block):
                steps = levels[start:start + block, None] * A[j]
                loads = others + counts[:, j, None] * steps[:, None, :]
                costs = f.eval_many(loads)
                # vecdot reduces each row with the same kernel as pmf @ costs.
                expected.append(np.vecdot(costs, pmf))
            return reward_base + mean_counts[j] * c[j] * levels - np.concatenate(expected)

        return profits

    axis = np.linspace(0.0, 1.0, grid)
    x = np.zeros(s)
    for _ in range(sweeps):
        moved = False
        for j in range(s):
            vals = axis_profits(x, j)(axis)
            g = float(axis[int(np.argmax(vals))])
            if g != x[j]:
                x[j] = g
                moved = True
        if not moved:
            break
    # Ternary refinement per coordinate around the grid solution.
    for j in range(s):
        profits = axis_profits(x, j)
        lo = max(0.0, x[j] - 1.0 / (grid - 1))
        hi = min(1.0, x[j] + 1.0 / (grid - 1))
        for _ in range(80):
            d = (hi - lo) / 3.0
            a, b = lo + d, hi - d
            va, vb = profits(np.array([a, b]))
            if va < vb:
                lo = a
            else:
                hi = b
        cand = 0.5 * (lo + hi)
        trial = x.copy()
        trial[j] = cand
        if expected_profit(trial) >= expected_profit(x):
            x = trial
    load = n_stoch * ((probs * x) @ A)
    return OptReport(
        value=expected_profit(x),
        selector=x.tolist(),
        load=load,
        method="grid",
        extra={"n_stoch": n_stoch},
    )
