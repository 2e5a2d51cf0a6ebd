"""Low-bit floating-point quantization grids.

A format is one sign bit, ``mant_bits`` fraction bits, ``exp_bits`` exponent
bits, and a real-valued exponent bias. The representable set uses IEEE-style
graded underflow at exponent field 0 so an exact zero exists, +0/-0 collapse
to a single level, overflow saturates to the largest magnitude, and midpoint
ties round toward the level with even (exponent, fraction)-field integer
(round-half-to-even; equals the even-fraction rule whenever mant_bits >= 1).
Level i of the ascending grid has field integer |i - c| with c = 2^(m+e) - 1
odd, so a tie goes to whichever of its two neighbors has an odd index.

The rule compares the rounded distances ``x - lo`` and ``hi - x`` to a cell's
two levels, so with a non-integer bias its flip need not sit at the rounded
midpoint. It is monotone in x, so it flips exactly once per cell: ``_edges``
finds, per format and once, the first float that goes up by evaluating the
rule on the floats within 4 ulps of ``0.5*lo + 0.5*hi``, and by bisection
where the flip lies outside them. ``quantize`` is then one searchsorted over
these edges, with the symbols of the rule itself.

The levels at bias b are one cached bias-0 grid times Python's scalar
``2.0 ** b``; ``FpFormat``, the quantizer and the bias search all take them,
and one check that they are finite and strictly ascending, from ``_levels_at``.
``enumerate_levels`` caches each format's levels.

The exponent bias is chosen to minimize the expected squared quantization
error under a fitted GenNorm gradient model, evaluated by deterministic
composite quadrature over mu +- 16 sigma (``optimize_bias``), over a fixed
search space in unit-variance coordinates: the biases -4 to 4 in steps of
0.05, refined by Brent's method with a tolerance of 1e-8.
``bias_objective`` takes an array of biases and scores them in vectorized
passes of at most 32k quadrature nodes, so no format or grid is built per
bias. ``optimize_bias`` bounds each bias of its 161-point grid from below by
the quadrature over three cells only, scores the biases whose bound does not
rule them out, one pass at a time, then refines by Brent's method; the
result is the full grid's. ``bias_polynomial`` is a cheap
quartic in the shape parameter, least-squares fitted to that optimum for the
FP4 ``[1,2,1]`` format under a unit-variance GenNorm and shifted by
log2(sigma) for other scales; it holds to within about 0.011 for beta in
[0.3, 1.6] and is not valid for other formats.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._minimize import bounded_scores, refine_grid_argmin
from .distmodel import MAX_MU_SIGMAS, GenNormParams, gennorm_pdf


@dataclass(frozen=True)
class FpFormat:
    """One sign bit, mantissa and exponent bits, plus a continuous exponent bias."""

    mant_bits: int
    exp_bits: int
    bias: float = 0.0

    def __post_init__(self):
        if self.mant_bits < 0:
            raise ValueError("mant_bits must be >= 0")
        if not 1 <= self.exp_bits <= 10:
            # the bias-0 top level is below 2 ** (2 ** exp_bits - 1)
            raise ValueError("exp_bits must be in [1, 10]: wider bias-0 levels pass 2^1024, which overflows float64")
        if self.mant_bits + self.exp_bits > 15:
            raise ValueError("formats wider than 16 bits total are not supported")
        if not math.isfinite(self.bias):
            raise ValueError("bias must be finite")
        enumerate_levels(self)  # rejects a bias whose levels overflow or underflow float64

    @property
    def total_bits(self):
        return 1 + self.mant_bits + self.exp_bits

    @property
    def level_count(self):
        # +0 and -0 collapse, so one pattern is redundant
        return 2**self.total_bits - 1

    def with_bias(self, bias):
        return replace(self, bias=float(bias))


@dataclass(frozen=True)
class QuantizedTensor:
    """Level indices into the ascending level set of ``fmt``; shape-preserving."""

    symbols: np.ndarray
    fmt: FpFormat

    @property
    def shape(self):
        return self.symbols.shape


@lru_cache(maxsize=16)
def _unit_grid(mant_bits, exp_bits):
    """Bias-0 levels, ascending; magnitude k has field integer E * 2**m + f = k."""
    m, e = mant_bits, exp_bits
    E = np.arange(2**e, dtype=np.float64).repeat(2**m)
    f = np.tile(np.arange(2**m, dtype=np.float64), 2**e)
    frac = 1.0 + f * 2.0**-m
    mags = np.where(E >= 1, frac * 2.0 ** (E - 1.0), f * 2.0**-m)
    levels = np.concatenate((-mags[:0:-1], mags))
    levels.setflags(write=False)
    return levels


def _levels_at(mant_bits, exp_bits, biases):
    """One row per bias: the bias-0 levels times ``2.0 ** b``, checked finite and strictly ascending.

    The bias is taken with Python's scalar power (numpy's array power differs
    from it in the last bit), so integer bias shifts rescale the grid exactly.
    """
    # Python's power raises past 2 ** 1024; inf marks such a bias as overflowing
    scales = np.array([2.0 ** float(b) if b < 1024 else math.inf for b in biases])
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are rejected below
        levels = scales[:, None] * _unit_grid(mant_bits, exp_bits)
    name = f"[1,{mant_bits},{exp_bits}]"
    finite = np.isfinite(levels[:, -1])
    if not finite.all():
        raise ValueError(f"the top level of {name} with bias {biases[np.argmin(finite)]} overflows float64")
    ascending = (levels[:, 1:] > levels[:, :-1]).all(axis=1)
    if not ascending.all():
        b = biases[np.argmin(ascending)]
        raise ValueError(f"the levels of {name} with bias {b} underflow float64: they do not ascend strictly")
    return levels


@lru_cache(maxsize=64)
def enumerate_levels(fmt):
    """All representable values of ``fmt``, sorted ascending (zero included once); read-only."""
    levels = _levels_at(fmt.mant_bits, fmt.exp_bits, [fmt.bias])[0]
    levels.setflags(write=False)
    return levels


FP4 = FpFormat(mant_bits=2, exp_bits=1)


def max_level(fmt):
    return float(enumerate_levels(fmt)[-1])


# _edges tries this many ulps either side of a cell's midpoint before it bisects
_EDGE_ULPS = 4
_MAGNITUDE = np.int64(2**63 - 1)  # the bits of a float64 but its sign


def _rounds_up(x, lo, hi, odd):
    """The quantizer's rule in the cell [lo, hi]: does ``x`` go to ``hi``?

    Nearest of the two by rounded distance; a tie goes to ``hi`` exactly when
    its level index is odd, as level i has field integer |i - (2^(m+e) - 1)|,
    even exactly when i is odd.
    """
    d_lo = x - lo
    d_hi = hi - x
    return (d_hi < d_lo) | ((d_hi == d_lo) & odd)


def _ordered(x):
    """Float64 to int64 keys that ascend with the value (one ulp apart are one apart)."""
    bits = x.view(np.int64)
    return np.where(bits < 0, -(bits & _MAGNITUDE), bits)


def _unordered(key):
    """The float64 of each ``_ordered`` key."""
    return np.where(key < 0, -((-key).view(np.float64)), key.view(np.float64))


def _midpoints(levels):
    """``0.5 * lo + 0.5 * hi`` of each pair of neighbours along the last axis; it cannot overflow."""
    return 0.5 * levels[..., :-1] + 0.5 * levels[..., 1:]


@lru_cache(maxsize=64)
def _edges(fmt):
    """Per cell, the smallest float that ``quantize``'s rule sends to the upper level; read-only.

    The rule is monotone in x, so within a cell it flips exactly once. Keys
    ``a < b`` bracket the flip (the rule is false at ``a`` and true at ``b``),
    from the two levels inward: first by the floats within ``_EDGE_ULPS`` ulps
    of ``0.5*lo + 0.5*hi``, near which the flip lies, then, in any cell whose
    window holds no flip, by bisection. No edge is guessed.
    """
    levels = enumerate_levels(fmt)
    lo, hi = levels[:-1], levels[1:]
    odd = np.arange(1, levels.size) % 2 == 1
    a, b = _ordered(lo), _ordered(hi)
    mid = _ordered(_midpoints(levels))
    near = np.clip(mid[:, None] + np.arange(-_EDGE_ULPS, _EDGE_ULPS + 1), a[:, None], b[:, None])
    up = _rounds_up(_unordered(near), lo[:, None], hi[:, None], odd[:, None])
    a = np.where(up, a[:, None], near).max(axis=1)
    b = np.where(up, near, b[:, None]).min(axis=1)
    while (b - a > 1).any():
        half = a + (b - a) // 2
        up = _rounds_up(_unordered(half), lo, hi, odd)
        a, b = np.where(up, a, half), np.where(up, half, b)
    edges = _unordered(b)
    edges.setflags(write=False)
    return edges


def quantize(x, fmt):
    """Map each entry to the nearest level; saturating, ties to even field integer (odd level index).

    The symbol is the number of ``_edges(fmt)`` at or below the entry: each
    edge is the first float that the rounded-distance and tie rule sends to
    the upper level of its cell, so the symbols are the rule's own. Entries
    past the outer edges saturate to the outer levels.
    """
    arr = np.asarray(x, dtype=np.float64)
    finite = np.isfinite(arr)
    if not finite.all():
        idx = tuple(int(v) for v in np.argwhere(~finite)[0])
        raise ValueError(f"non-finite input entry at index {idx}")
    sym = np.searchsorted(_edges(fmt), arr.ravel(), side="right").astype(np.int32)
    return QuantizedTensor(sym.reshape(arr.shape), fmt)


def dequantize(q):
    """Exact table lookup of each symbol's level value."""
    return enumerate_levels(q.fmt)[q.symbols]


def count_saturated(x, fmt):
    """Entries whose magnitude exceeds the largest representable level."""
    arr = np.asarray(x, dtype=np.float64)
    return int(np.count_nonzero(np.abs(arr) > max_level(fmt)))


# ----------------------------------------------------------------------
# exponent bias selection


# quadrature nodes per vectorized pass of bias_objective (8 FP4 biases):
# larger passes raise peak memory and run slower once they outgrow the cache
_PASS_NODES = 1 << 15
# Simpson nodes per bias, spread over the cells (at least 9 per cell)
_QUAD_NODES = 4096
# the objective drops the squared error beyond mu +- 16 sigma, which misleads
# the search for heavy tails: at beta 0.3 [1,4,3] gets bias -2.98, whose MSE
# (2.2e-2) is 60x the exact optimum's and 150x the objective's. FP4 at beta
# 0.54 to 1.40, as trained, loses at most 0.011 % MSE (the FOUND line on the
# +-16 sigma span in CHANGES.md; the ROADMAP item "An exact bias objective
# from closed-form cell moments" replaces the quadrature)
_QUAD_SPAN_SIGMAS = 16.0
# optimize_bias's search space in unit-variance coordinates: 161 biases from
# -4 to 4 in steps of 0.05, then Brent's method to this tolerance
_BIAS_GRID = np.arange(-4.0, 4.0 + 0.5 * 0.05, 0.05)
_BIAS_GRID.setflags(write=False)
_BIAS_TOL = 1e-8


@lru_cache(maxsize=16)
def _bias_quadrature(mant_bits, exp_bits):
    """Simpson nodes on [0, 1] per cell of the format and their weights."""
    n = max(9, _QUAD_NODES // _unit_grid(mant_bits, exp_bits).size) | 1  # odd nodes for Simpson
    t = np.linspace(0.0, 1.0, n)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _pass_rows(fmt, cells):
    """Biases per vectorized pass of ``cells`` quadrature cells each."""
    n = _bias_quadrature(fmt.mant_bits, fmt.exp_bits)[0].size
    return max(1, _PASS_NODES // (cells * n))


def _cell_errors(biases, dist, fmt, cells=None):
    """Simpson's rule for E[(Q_b(G) - G)^2] by bias (rows) and quantizer cell (columns).

    ``cells`` selects the columns (default: all). Every entry is
    non-negative, so any subset of a row sums to at most the row's objective.
    Biases are taken in passes of at most ``_PASS_NODES`` nodes.
    """
    t, w = _bias_quadrature(fmt.mant_bits, fmt.exp_bits)
    n = t.size
    lo = dist.mu - _QUAD_SPAN_SIGMAS * dist.sigma
    hi = dist.mu + _QUAD_SPAN_SIGMAS * dist.sigma
    cells = np.arange(fmt.level_count) if cells is None else np.asarray(cells)
    width = cells.size
    rows = _pass_rows(fmt, width)
    out = np.empty((biases.size, width))
    for a in range(0, biases.size, rows):
        levels = _levels_at(fmt.mant_bits, fmt.exp_bits, biases[a : a + rows])
        mids = _midpoints(levels)
        ends = [np.full((mids.shape[0], 1), v) for v in (lo, hi)]
        edges = np.concatenate((ends[0], mids, ends[1]), axis=1).clip(lo, hi)
        cell_lo = edges[:, :-1]
        cell_hi = np.maximum(edges[:, 1:], cell_lo)[:, cells]
        cell_lo, levels = cell_lo[:, cells], levels[:, cells]
        x = (cell_hi - cell_lo)[..., None] * t
        x += cell_lo[..., None]
        err2 = levels[..., None] - x
        err2 **= 2
        err2 *= gennorm_pdf(x, dist)
        h = (cell_hi - cell_lo) / (n - 1)
        out[a : a + rows] = h * (err2 @ w) / 3.0
    return out


def bias_objective(b, dist, fmt):
    """Expected squared quantization error E[(Q_b(G) - G)^2] by composite quadrature.

    ``b`` is one bias (a ``float`` is returned) or an array of biases (an
    array of the same shape is returned). The span mu +- 16 sigma is
    partitioned into the quantizer's nearest-neighbor cells and each cell
    gets its own Simpson rule, nodes aligned to the (b-dependent) cell
    boundaries. That keeps the objective smooth in b across cell edges, so
    the grid-plus-Brent search has a well-defined minimum. Some models with
    mu off zero or a heavy tail, most on ``[1,4,3]``, still have ripples of
    up to about 1e-4 relative between the grid neighbors of the argmin
    (measured in ``tests/test_minimize.py``).

    The levels are ``_levels_at``'s, as on ``fmt.with_bias(b)``'s own grid,
    so no format or grid is built per bias and a bias that ``FpFormat`` would
    reject raises ``ValueError``. Biases are scored in vectorized passes of at
    most ``_PASS_NODES`` quadrature nodes (8 biases on FP4).
    """
    biases = np.asarray(b, dtype=np.float64)
    out = _cell_errors(biases.ravel(), dist, fmt).sum(axis=1)
    return float(out[0]) if biases.ndim == 0 else out.reshape(biases.shape)


def optimize_bias(dist, fmt):
    """Exponent bias minimizing the expected squared error under ``dist``.

    The search runs on the unit-variance member of the scale family (levels
    scale as 2**bias, so rescaling the distribution by s shifts the optimum by
    exactly log2(s)) and the result is shifted back by log2(sigma).

    Each bias of the 161-point grid is first bounded from below by its
    Simpson terms over the two outer cells and the zero-level cell alone,
    which is cheap and separates saturation from underflow. The biases are
    then scored by ``bias_objective``, one vectorized pass at a time, in
    ascending order of their bounds, until no bound left is below the best
    score (``_minimize.bounded_scores``); the others cannot be the grid
    argmin. Brent's method (``_minimize.refine_grid_argmin``) then refines
    the grid argmin between its neighbors, one scalar call per step, so the
    result is the one the full grid gives. It takes about 10 steps where
    golden section took 36. A model with |mu| / sigma of
    ``distmodel.MAX_MU_SIGMAS`` (2**52) or more raises ``ValueError`` before
    any pass.
    """
    sigma = dist.sigma
    if math.isinf(sigma):
        raise ValueError(f"the standard deviation of {dist} overflows float64")
    if not abs(dist.mu) / sigma < MAX_MU_SIGMAS:
        raise ValueError(f"|mu| / sigma of {dist} is past the bias quadrature's range (2**52)")
    unit = GenNormParams(dist.beta, dist.mu / sigma, dist.alpha / sigma)

    def objective(b):
        return bias_objective(b, unit, fmt)

    top = fmt.level_count - 1
    bounds = _cell_errors(_BIAS_GRID, unit, fmt, cells=[0, top // 2, top]).sum(axis=1)
    values = bounded_scores(lambda i: objective(_BIAS_GRID[i]), bounds, _pass_rows(fmt, fmt.level_count))
    b_unit = refine_grid_argmin(objective, _BIAS_GRID, values, _BIAS_TOL)
    return float(b_unit + math.log2(sigma))


def bias_polynomial(beta, sigma):
    """Quartic-in-shape approximation of the optimal bias, shifted by log2(sigma).

    The quartic is a degree-4 least-squares fit of ``optimize_bias`` for FP4
    ``[1,2,1]`` under the unit-variance GenNorm of shape ``beta``, sampled at
    beta = 0.30, 0.35, ..., 1.60, with coefficients rounded to 3 decimals.
    Levels scale as 2**bias, so for standard deviation ``sigma`` the optimum
    moves by exactly log2(sigma), as in ``optimize_bias``. Within that beta
    range it is within about 0.011 of the optimum; outside it is an
    extrapolation. It applies to FP4 only, which is why the trainer accepts
    the polynomial bias mode only with that format. To regenerate, fit a
    degree-4 polynomial to the ``b_grid`` column written by
    ``co3 bias-sweep --beta-min 0.3 --beta-max 1.6 --beta-step 0.05 --sigma 1``.
    """
    if not (0 < beta < math.inf and 0 < sigma < math.inf):
        raise ValueError("beta and sigma must be positive and finite")
    poly = 3.496 - 5.631 * beta + 4.780 * beta**2 - 2.015 * beta**3 + 0.329 * beta**4
    return poly + math.log2(sigma)
