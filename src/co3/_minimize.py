"""Deterministic 1-D scalar searches.

Both searches refine by Brent's method (``minimize_on_interval``): a
parabolic step through the three best points where that step is safe, a
golden-section step otherwise (R. P. Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 5; scipy's ``fminbound`` is the same
method). Near a smooth minimum the parabolic steps converge superlinearly;
where they would not shrink the bracket fast enough, golden steps do. The
shape fit (``distmodel.fit_gennorm``) is one ``minimize_on_interval`` call,
in ln beta, whose result it compares with the range's ends. The bias search
(``fpq.optimize_bias``), whose objective can have several local minima,
scores a grid by ``bounded_scores`` and refines its argmin by
``refine_grid_argmin``.
"""

import math

import numpy as np

# Brent's golden step: the fraction (3 - sqrt 5) / 2 of the larger side
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
# below this relative step, a function's differences near its minimum are lost in rounding
_SQRT_EPS = 2.0**-26  # the square root of float64 epsilon, 2**-52
# a guard against an objective that never lets the bracket close; smooth ones take tens
_MAX_STEPS = 500
# a lower bound must pass the best score by this relative margin before its
# point is skipped, which absorbs the rounding of bound and score alike
_BOUND_RTOL = 1e-9


def minimize_on_interval(f, lo, hi, tol):
    """Minimize f on [lo, hi] by Brent's method; returns the best point found.

    Each probe lies at least tol1 = sqrt(eps) * |x| + tol / 3 from the best
    point x so far, and the search stops once x lies within 2 * tol1 of both
    ends of the bracket. The first two probes are golden section's.
    """
    a, b = float(lo), float(hi)
    if not b > a:
        raise ValueError(f"empty search interval [{a}, {b}]")
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0  # the last step, and the one before it
    for _ in range(_MAX_STEPS):
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:
            # the vertex of the parabola through (x, fx), (w, fw), (v, fv) is x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # taken only inside the bracket and below half the step before last
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                parabolic = True
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = math.copysign(tol1, m - x)
        if not parabolic:
            e = (a if x >= m else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x


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


def refine_grid_argmin(f, grid, values, tol):
    """Argmin of ``values`` (f at the ascending ``grid``), refined by Brent's method between its neighbors.

    Only the argmin is read, so ``values`` may be ``bounded_scores``'s.
    """
    i = int(np.argmin(values))
    return minimize_on_interval(f, grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)], tol)
