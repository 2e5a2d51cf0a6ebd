"""Deterministic 1-D scalar search helpers shared by the bias and shape fits."""

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo, hi, tol=1e-8, max_iter=400):
    """Minimize f on [lo, hi]; returns the midpoint of the final bracket."""
    a, b = float(lo), float(hi)
    if not b > a:
        raise ValueError(f"empty search interval [{a}, {b}]")
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
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


def grid_then_golden(f, grid, values, tol):
    """Argmin of ``values`` (f at the ascending ``grid``), refined by golden section between its neighbors."""
    i = int(np.argmin(values))
    return golden_section(f, grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)], tol=tol)
