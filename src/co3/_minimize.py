"""Deterministic 1-D scalar search helpers shared by the bias and shape fits."""

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# a lower bound must pass the best score by this relative margin before its
# point is skipped, which absorbs the rounding of bound and score alike
_BOUND_RTOL = 1e-9
_GOLDEN_MAX_STEPS = 400  # each step narrows the bracket by 1/phi


def golden_section(f, lo, hi, tol):
    """Minimize f on [lo, hi] until the bracket is at most ``tol`` wide; returns its midpoint."""
    a, b = float(lo), float(hi)
    if not b > a:
        raise ValueError(f"empty search interval [{a}, {b}]")
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_MAX_STEPS):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def bounded_scores(score, bounds, batch=1):
    """Scores at the grid points that can hold the minimum, +inf at the others.

    ``bounds[i]`` is a lower bound on point i's score; NaN means unknown.
    Points are scored in ascending order of their bounds (NaN first), in
    batches of ``batch`` by ``score(indices)``, until the next bound exceeds
    the best score so far by the relative margin ``_BOUND_RTOL``. A skipped
    point then scores strictly above the minimum, so ``np.argmin`` of the
    result is the argmin of the full scores, first of ties included.
    """
    bounds = np.asarray(bounds, dtype=np.float64)
    order = np.argsort(np.where(np.isnan(bounds), -np.inf, bounds), kind="stable")
    values = np.full(bounds.size, np.inf)
    best = np.inf
    for a in range(0, order.size, batch):
        idx = order[a : a + batch]
        if bounds[idx[0]] > best + _BOUND_RTOL * abs(best):
            break
        values[idx] = score(idx)
        best = min(best, float(values[idx].min()))
    return values


def grid_then_golden(f, grid, values, tol):
    """Argmin of ``values`` (f at the ascending ``grid``), refined by golden section between its neighbors.

    Only the argmin is read, so ``values`` may be ``bounded_scores``'s.
    """
    i = int(np.argmin(values))
    return golden_section(f, grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)], tol)
