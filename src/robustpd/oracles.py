"""Exact offline optima used as ground truth by every end-to-end check.

Adversarial parts are solved by exhaustive enumeration over the finite
menus.  Stochastic parts are solved in selector form: a selector fixes one
choice per support element, and its exact expected cost over the i.i.d.
draws is computed by enumerating draw-count multisets with multinomial
weights (the cost of a sum depends only on how often each support element
appears, not on the order).  Welfare optima over the box use projected
gradient ascent on the concave profit, cross-checked by grid search at
small sizes.

Every oracle is guarded: past the stated size thresholds the exact paths
either refuse loudly or fall back to a flagged Monte-Carlo estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from robustpd.ocp import _menu
from robustpd.welfare import _split_requests

__all__ = [
    "GuardError",
    "OptReport",
    "opt_adv_ocp",
    "opt_stoch_ocp",
    "opt_welfare",
    "opt_stoch_welfare",
    "grid_search_welfare",
    "count_multisets",
]

MAX_ADV_COMBOS = 10**7
MAX_SELECTORS = 10**5
MAX_MULTISETS = 10**6
MAX_GRID_POINTS = 4 * 10**6


class GuardError(RuntimeError):
    """An exact oracle refused: the instance is too large to enumerate."""


@dataclass
class OptReport:
    """Offline optimum plus everything needed to reproduce and reuse it."""

    value: float
    choices: list | None = None  # per adversarial step (ocp/welfare-adv)
    selector: list | None = None  # per support element (stochastic oracles)
    load: np.ndarray | None = None  # vOPT (adv) or expected vOPT (stoch)
    method: str = "enumeration"
    exact: bool = True
    stderr: float = 0.0
    extra: dict = field(default_factory=dict)


# -- adversarial part, ocp -----------------------------------------------------


# Rows of one enumerated block of menu combinations.
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
    menus = [_menu(s) for s in adv_sets]
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


def _compositions(n, s):
    """Nonnegative integer vectors of length s summing to n."""
    if s == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for rest in _compositions(n - k, s - 1):
            yield (k, *rest)


def _multiset_table(n_draws, probs):
    """All draw-count vectors with their multinomial probabilities."""
    s = len(probs)
    counts = np.array(list(_compositions(n_draws, s)), dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    # The 1e-300 floor avoids 0 * -inf; rows drawing a zero-probability
    # element are zeroed outright afterwards.
    log_probs = np.log(np.maximum(probs, 1e-300))
    lg = math.lgamma(n_draws + 1)
    logpmf = (
        lg
        - np.array([sum(math.lgamma(k + 1) for k in row) for row in counts])
        + counts @ log_probs
    )
    pmf = np.exp(logpmf)
    dead = probs <= 0.0
    if np.any(dead):
        pmf[(counts[:, dead] > 0).any(axis=1)] = 0.0
    return counts, pmf


def opt_stoch_ocp(support, probs, n_stoch, f, *, mc_samples=10**5, seed=0) -> OptReport:
    """Best selector ``support -> option`` for the expected cost of the draws.

    The expectation is exact (multiset enumeration).  If the selector space
    or the multiset table blows past the guards, falls back to a flagged
    Monte-Carlo estimate over random draws.
    """
    if n_stoch == 0:
        return OptReport(value=0.0, selector=[], load=np.zeros(f.m))
    menus = [_menu(s) for s in support]
    probs = np.asarray(probs, dtype=np.float64)
    s = len(menus)
    selector_count = math.prod(len(o) for o in menus)
    n_multisets = count_multisets(n_stoch, s)
    if selector_count > MAX_SELECTORS or n_multisets > MAX_MULTISETS:
        return _opt_stoch_ocp_mc(menus, probs, n_stoch, f, mc_samples, seed)
    counts, pmf = _multiset_table(n_stoch, probs)
    best_val = math.inf
    best_sel = None
    for sel in itertools.product(*(range(len(o)) for o in menus)):
        chosen = np.stack([menus[j][sel[j]] for j in range(s)])
        loads = counts @ chosen
        val = float(pmf @ f.eval_many(loads))
        if val < best_val:
            best_val = val
            best_sel = sel
    chosen = [menus[j][best_sel[j]] for j in range(s)]
    mean_load = n_stoch * (probs @ np.stack(chosen))
    return OptReport(
        value=best_val,
        selector=[np.asarray(c) for c in chosen],
        load=mean_load,
        extra={"indices": list(best_sel), "n_stoch": n_stoch},
    )


def _opt_stoch_ocp_mc(menus, probs, n_stoch, f, mc_samples, seed):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    s = len(menus)
    best_val = math.inf
    best_sel = None
    best_err = 0.0
    draws = rng.choice(s, size=(mc_samples, n_stoch), p=probs)
    counts = np.stack([(draws == j).sum(axis=1) for j in range(s)], axis=1)
    for sel in itertools.product(*(range(len(o)) for o in menus)):
        chosen = np.stack([menus[j][sel[j]] for j in range(s)])
        vals = f.eval_many(counts @ chosen)
        mean = float(vals.mean())
        if mean < best_val:
            best_val = mean
            best_sel = sel
            best_err = float(vals.std(ddof=1) / math.sqrt(mc_samples))
    chosen = [menus[j][best_sel[j]] for j in range(s)]
    mean_load = n_stoch * (np.asarray(probs) @ np.stack(chosen))
    return OptReport(
        value=best_val,
        selector=[np.asarray(c) for c in chosen],
        load=mean_load,
        method="monte-carlo",
        exact=False,
        stderr=best_err,
        extra={"indices": list(best_sel), "n_stoch": n_stoch},
    )


# -- welfare, deterministic ----------------------------------------------------


def _welfare_value(x, c, A, f):
    return float(np.dot(c, x)) - f.eval(A.T @ x if A.ndim == 2 else A * x)


def opt_welfare(requests, f, *, max_iters=10**5, tol=1e-8) -> OptReport:
    """Maximize ``sum_t c_t x_t - cost(sum_t a_t x_t)`` over the box.

    Projected gradient ascent with a backtracked step; the objective is
    concave so the fixed point is the optimum.  Stops when the unit-step
    projected gradient shrinks below ``tol``.  Flags (rather than raises)
    non-convergence.
    """
    n = len(requests)
    if n == 0:
        return OptReport(value=0.0, choices=[], load=np.zeros(f.m), method="projected-gradient")
    if n > 64:
        raise GuardError(f"welfare oracle guard: n={n} > 64")
    c, A = _split_requests(requests)  # A is (n, m)
    x = np.full(n, 0.5)
    step = 1.0
    val = _welfare_value(x, c, A, f)
    converged = False
    for _ in range(max_iters):
        g = c - A @ f.grad(A.T @ x)
        pg = np.clip(x + g, 0.0, 1.0) - x
        if float(np.linalg.norm(pg)) <= tol:
            converged = True
            break
        # Backtrack the step until the move does not decrease, then regrow.
        moved = False
        for _ in range(60):
            x_new = np.clip(x + step * g, 0.0, 1.0)
            val_new = _welfare_value(x_new, c, A, f)
            if val_new >= val - 1e-15 and not np.array_equal(x_new, x):
                x, val = x_new, val_new
                moved = True
                break
            step *= 0.5
        if not moved:
            break
        step = min(step * 1.3, 1e6)
    if not converged:
        # Stalled at float resolution; accept if the optimality measure is
        # small on a looser scale.
        g = c - A @ f.grad(A.T @ x)
        pg = np.clip(x + g, 0.0, 1.0) - x
        converged = float(np.linalg.norm(pg)) <= 1e-7
    return OptReport(
        value=_welfare_value(x, c, A, f),
        choices=x.tolist(),
        load=A.T @ x,
        method="projected-gradient",
        exact=converged,
        extra={"converged": converged},
    )


def grid_search_welfare(requests, f, resolution=200) -> OptReport:
    """Exhaustive box grid at spacing ``1/resolution``; cross-check oracle."""
    n = len(requests)
    pts = resolution + 1
    if pts**n > MAX_GRID_POINTS:
        raise GuardError(f"grid of {pts}^{n} points exceeds the guard")
    c, A = _split_requests(requests)
    axis = np.linspace(0.0, 1.0, pts)
    best_val = -math.inf
    best_x = None
    chunk = 200_000
    grids = itertools.product(*([axis] * n))
    while True:
        block = np.array(list(itertools.islice(grids, chunk)))
        if block.size == 0:
            break
        vals = block @ c - f.eval_many(block @ A)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_x = block[j]
    return OptReport(
        value=best_val, choices=best_x.tolist(), load=A.T @ best_x, method="grid"
    )


# -- welfare, stochastic part -----------------------------------------------------


def opt_stoch_welfare(support, probs, n_stoch, f, *, grid=101, sweeps=40) -> OptReport:
    """Best fractional selector ``support -> [0,1]`` for expected profit.

    Coordinate ascent over a ``grid``-point axis per support element with a
    ternary refinement of each coordinate at the end; the profit is concave
    in the selector, so coordinate-wise optimization converges.  The
    expectation is exact via the multiset table.
    """
    if n_stoch == 0:
        return OptReport(value=0.0, selector=[], load=np.zeros(f.m), method="grid")
    s = len(support)
    if count_multisets(n_stoch, s) > MAX_MULTISETS:
        raise GuardError("multiset table exceeds the guard")
    c, A = _split_requests(support)  # A is (s, m)
    probs = np.asarray(probs, dtype=np.float64)
    counts, pmf = _multiset_table(n_stoch, probs)
    mean_counts = n_stoch * probs

    def expected_profit(x):
        reward = float(mean_counts @ (c * x))
        loads = counts @ (A * x[:, None])
        return reward - float(pmf @ f.eval_many(loads))

    def profit_on_axis(x, j, axis):
        # Vectorized over candidate values of coordinate j.
        others = counts @ (A * x[:, None]) - np.outer(counts[:, j], A[j] * x[j])
        reward_base = float(mean_counts @ (c * x)) - mean_counts[j] * c[j] * x[j]
        vals = np.empty(axis.size)
        for i, g in enumerate(axis):
            loads = others + np.outer(counts[:, j], A[j] * g)
            vals[i] = reward_base + mean_counts[j] * c[j] * g - float(
                pmf @ f.eval_many(loads)
            )
        return vals

    axis = np.linspace(0.0, 1.0, grid)
    x = np.zeros(s)
    for _ in range(sweeps):
        moved = False
        for j in range(s):
            vals = profit_on_axis(x, j, axis)
            g = float(axis[int(np.argmax(vals))])
            if g != x[j]:
                x[j] = g
                moved = True
        if not moved:
            break
    # Ternary refinement per coordinate around the grid solution.
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
