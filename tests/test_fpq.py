import math
import warnings

import numpy as np
import pytest

from co3 import fpq
from co3._minimize import grid_then_golden
from co3.distmodel import GenNormParams, gennorm_pdf, sample_gennorm
from co3.fpq import (
    FP4,
    FpFormat,
    bias_objective,
    bias_polynomial,
    count_saturated,
    dequantize,
    enumerate_levels,
    max_level,
    optimize_bias,
    quantize,
)

FP4_LEVELS = [-1.75, -1.5, -1.25, -1.0, -0.75, -0.5, -0.25, 0.0,
              0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]


def unit_variance_gennorm(beta, sigma=1.0, mu=0.0):
    alpha = sigma * math.sqrt(math.exp(math.lgamma(1 / beta) - math.lgamma(3 / beta)))
    return GenNormParams(beta, mu, alpha)


def laplace_fp4_mse(b):
    """Closed-form E[(Q(G) - G)^2] for unit-variance Laplace G on FP4 with bias b.

    FP4 is the 15-level uniform grid k * 2**(b - 2), |k| <= 7, saturating at
    the top level; each cell's integral of (x - c)^2 * (lam/2) exp(-lam x) has
    the antiderivative -(1/2) exp(-lam x) ((x-c)^2 + 2(x-c)/lam + 2/lam^2).
    """
    lam = math.sqrt(2.0)
    step = 2.0 ** (np.asarray(b, dtype=np.float64)[..., None] - 2.0)
    k = np.arange(8.0)
    c = k * step

    def antiderivative(x):
        u = x - c
        return -0.5 * np.exp(-lam * x) * (u * u + 2 * u / lam + 2 / lam**2)

    lo = np.maximum(k - 0.5, 0.0) * step
    hi = (k + 0.5) * step
    at_hi = np.where(k < 7, antiderivative(hi), 0.0)  # top cell runs to +inf
    return 2.0 * (at_hi - antiderivative(lo)).sum(-1)


def per_bias_objective(b, dist, fmt):
    """One bias at a time on fmt.with_bias(b)'s own level grid: bias_objective before it took arrays."""
    sigma = dist.sigma
    lo = dist.mu - fpq._QUAD_SPAN_SIGMAS * sigma
    hi = dist.mu + fpq._QUAD_SPAN_SIGMAS * sigma
    levels = enumerate_levels(fmt.with_bias(b))
    mids = 0.5 * (levels[:-1] + levels[1:])
    cell_lo = np.clip(np.concatenate(([lo], mids)), lo, hi)
    cell_hi = np.clip(np.concatenate((mids, [hi])), lo, hi)
    cell_hi = np.maximum(cell_hi, cell_lo)
    n = max(9, fpq._QUAD_NODES // levels.size) | 1
    t = np.linspace(0.0, 1.0, n)
    x = cell_lo[:, None] + (cell_hi - cell_lo)[:, None] * t[None, :]
    err2 = (levels[:, None] - x) ** 2 * gennorm_pdf(x, dist)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    h = (cell_hi - cell_lo) / (n - 1)
    return float((h * (err2 @ w) / 3.0).sum())


def full_grid_optimize_bias(dist, fmt):
    """optimize_bias before it bounded its grid: every grid bias gets a full score."""
    sigma = dist.sigma
    unit = GenNormParams(dist.beta, dist.mu / sigma, dist.alpha / sigma)

    def objective(b):
        return bias_objective(b, unit, fmt)

    grid = np.arange(-4.0, 4.0 + 0.5 * 0.05, 0.05)
    return float(grid_then_golden(objective, grid, objective(grid), 1e-8) + math.log2(sigma))


def elementwise_levels(mant, exp, bias):
    """Levels one at a time: math.ldexp per bias-0 magnitude, times 2.0 ** bias, mirrored."""
    mags = []
    for e in range(2**exp):
        for f in range(2**mant):
            mag = math.ldexp(f, -mant) if e == 0 else math.ldexp(2**mant + f, e - 1 - mant)
            mags.append(mag * 2.0**bias)
    return [-m for m in reversed(mags[1:])] + mags


def field_integers(mant, exp):
    """The (exponent, fraction) field integer E * 2^m + f of each level, in elementwise_levels' order."""
    fields = [e * 2**mant + f for e in range(2**exp) for f in range(2**mant)]
    return np.array(fields[:0:-1] + fields)


def reference_quantize(x, fmt):
    """quantize before it was table-driven: nearest level by rounded distance, ties to the odd index."""
    arr = np.asarray(x, dtype=np.float64)
    levels = enumerate_levels(fmt)
    flat = np.clip(arr.ravel(), levels[0], levels[-1])
    hi = np.clip(np.searchsorted(levels, flat), 1, levels.size - 1)
    lo = hi - 1
    d_lo = flat - levels[lo]
    d_hi = levels[hi] - flat
    take_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (hi % 2 == 1))
    return np.where(take_hi, hi, lo).astype(np.int32).reshape(arr.shape)


def oracle_biases(mant, exp, rng):
    """Non-integer float32 biases: three moderate ones, two near the subnormal limit, two near overflow."""
    top = math.log2(max_level(FpFormat(mant, exp)))
    picked = []
    for lo, hi, count in ((-8.0, 8.0, 3), (-1076.0 + mant, -1066.0 + mant, 2), (1021.0 - top, 1024.0 - top, 2)):
        found = []
        while len(found) < count:
            b = float(np.float32(rng.uniform(lo, hi)))
            try:
                FpFormat(mant, exp, b)
            except ValueError:
                continue
            if b != round(b):
                found.append(b)
        picked += found
    return picked


def oracle_inputs(levels, rng):
    """Levels, midpoints and 1 to 4 ulps either side, random values in range, saturating values."""
    mids = 0.5 * levels[:-1] + 0.5 * levels[1:]
    xs = [levels, mids]
    up, down = mids, mids
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        xs += [up, down]
    top, tiny = levels[-1], levels[levels.size // 2 + 1]
    xs.append(top * rng.uniform(-1.0, 1.0, 1000))
    xs.append(tiny * rng.standard_normal(1000))
    extremes = [0.0, 5e-324, 1e308, np.finfo(np.float64).max, np.nextafter(top, np.inf)]
    xs.append(np.array(extremes + [-v for v in extremes]))
    return np.concatenate(xs)


def laplace_fp4_argmin():
    grid = np.arange(0.5, 1.5, 1e-5)
    return float(grid[np.argmin(laplace_fp4_mse(grid))])


class TestFormat:
    def test_fp4_level_set(self):
        assert enumerate_levels(FP4).tolist() == FP4_LEVELS

    def test_level_count_matches_bit_width(self):
        for mant, exp in [(0, 1), (1, 2), (2, 1), (3, 3), (2, 4)]:
            fmt = FpFormat(mant_bits=mant, exp_bits=exp)
            levels = enumerate_levels(fmt)
            assert levels.size == fmt.level_count == 2**fmt.total_bits - 1
            assert np.all(np.diff(levels) > 0)
            assert np.count_nonzero(levels == 0.0) == 1

    def test_levels_symmetric_about_zero(self):
        for fmt in [FP4, FpFormat(mant_bits=3, exp_bits=2, bias=0.37)]:
            levels = enumerate_levels(fmt)
            assert np.array_equal(levels, -levels[::-1])

    def test_integer_bias_scales_levels_exactly(self):
        base = enumerate_levels(FP4)
        assert np.array_equal(enumerate_levels(FP4.with_bias(1.0)), base * 2.0)
        assert np.array_equal(enumerate_levels(FP4.with_bias(-3.0)), base * 0.125)

    def test_invalid_formats_rejected(self):
        with pytest.raises(ValueError):
            FpFormat(mant_bits=-1, exp_bits=1)
        with pytest.raises(ValueError):
            FpFormat(mant_bits=2, exp_bits=0)
        with pytest.raises(ValueError):
            FpFormat(mant_bits=2, exp_bits=1, bias=float("nan"))

    def test_formats_with_a_non_finite_top_level_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            FpFormat(mant_bits=0, exp_bits=11)
        with pytest.raises(ValueError, match="overflows"):
            FpFormat(mant_bits=0, exp_bits=10, bias=2.0)
        with pytest.raises(ValueError, match="overflows"):
            FP4.with_bias(1023.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fmt in (FpFormat(mant_bits=0, exp_bits=10, bias=1.0), FP4.with_bias(1023.0)):
                assert np.all(np.isfinite(enumerate_levels(fmt)))

    @pytest.mark.parametrize("exp_bits", [11, 16])
    def test_exponent_range_is_declared(self, exp_bits):
        # past 10 exponent bits the bias-0 grid leaves float64, whatever the bias
        for bias in (0.0, -1050.0):
            with pytest.raises(ValueError, match=r"exp_bits must be in \[1, 10\].*float64"):
                FpFormat(mant_bits=0, exp_bits=exp_bits, bias=bias)

    def test_formats_whose_levels_underflow_rejected(self):
        # 2^-1100 is 0.0 in float64, so every level would be +-0
        with pytest.raises(ValueError, match="underflow"):
            FpFormat(mant_bits=2, exp_bits=1, bias=-1100.0)
        # the two smallest non-zero magnitudes, 2^-1076 and 2^-1075, round to 0
        with pytest.raises(ValueError, match="underflow"):
            FP4.with_bias(-1074.0)
        levels = enumerate_levels(FP4.with_bias(-1070.0))
        assert np.all(np.diff(levels) > 0) and levels[-1] > 0

    @pytest.mark.parametrize("mant, exp", [(2, 1), (3, 2), (4, 3)], ids=["fp4", "1-3-2", "1-4-3"])
    def test_levels_equal_elementwise_construction(self, mant, exp):
        # non-integer biases, then two whose smallest positive level is
        # 2^2.3 and 2^3.55 float64 subnormal steps: all levels subnormal
        for bias in (0.0, 0.37, -2.71, 5.5, mant - 1071.7, mant - 1070.45):
            levels = enumerate_levels(FpFormat(mant, exp, bias))
            if bias < -1000:
                assert 0.0 < levels[levels.size // 2 + 1] and levels[-1] < np.finfo(np.float64).tiny
            assert np.array_equal(levels, elementwise_levels(mant, exp, bias))

    def test_bias0_grid_overflow_is_a_value_error_not_a_warning(self):
        # with exp_bits >= 11 the bias-0 magnitudes themselves pass float64's range
        fpq._unit_grid.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                FpFormat(mant_bits=0, exp_bits=11)
            with pytest.raises(ValueError, match="overflows"):
                FpFormat(mant_bits=0, exp_bits=10, bias=2.0)


class TestQuantize:
    def test_nearest_level_examples(self):
        q = quantize(np.array([0.6, 0.0, 3.0, -3.0]), FP4)
        assert dequantize(q).tolist() == [0.5, 0.0, 1.75, -1.75]

    def test_midpoint_ties_to_even_fraction(self):
        # 0.875 is midway between 0.75 (f=3, odd) and 1.0 (f=0, even)
        vals = np.array([0.875, -0.875, 1.125, 1.375, 1.625, 0.125, -0.125])
        out = dequantize(quantize(vals, FP4))
        assert out.tolist() == [1.0, -1.0, 1.0, 1.5, 1.5, 0.0, 0.0]

    def test_zero_maps_to_zero_for_any_format(self):
        for fmt in [FP4, FpFormat(mant_bits=0, exp_bits=2), FpFormat(mant_bits=3, exp_bits=3, bias=-2.5)]:
            assert dequantize(quantize(np.zeros(3), fmt)).tolist() == [0.0, 0.0, 0.0]

    def test_mant0_ties_resolve_deterministically(self):
        # levels 0, 1, 2, 4 and negatives; ranks 0..3, so ties prefer 0 and 2
        fmt = FpFormat(mant_bits=0, exp_bits=2)
        assert dequantize(quantize(np.array([0.5, 1.5, 3.0, -0.5]), fmt)).tolist() == [
            0.0, 2.0, 2.0, 0.0]

    @pytest.mark.parametrize("bias", [0.0, -1.3, 2.71])
    def test_ties_follow_the_field_integer_rule(self, bias):
        # every format with m + e <= 8: levels, midpoints, midpoints +- 1 ulp
        # and saturating values, against a brute-force nearest level whose
        # exact ties go to the even (exponent, fraction) field integer
        for width in range(1, 9):
            for exp in range(1, width + 1):
                fmt = FpFormat(mant_bits=width - exp, exp_bits=exp, bias=bias)
                levels = np.array(elementwise_levels(fmt.mant_bits, exp, bias))
                fields = field_integers(fmt.mant_bits, exp)
                mids = 0.5 * (levels[:-1] + levels[1:])
                top = levels[-1]
                x = np.concatenate((
                    levels, mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
                    [np.nextafter(top, np.inf), 1.5 * top, 3.0 * top], [-np.nextafter(top, np.inf), -1.5 * top, -3.0 * top],
                ))
                dist = np.abs(x[:, None] - levels[None, :])
                near = dist == dist.min(axis=1, keepdims=True)
                assert near.sum(axis=1).max() <= 2
                even = near & (fields % 2 == 0)
                expected = np.where(near.sum(axis=1) == 1, near.argmax(axis=1), even.argmax(axis=1))
                assert np.array_equal(quantize(x, fmt).symbols, expected), fmt

    @pytest.mark.parametrize("mant, exp", [(2, 1), (3, 2), (4, 3), (0, 3), (1, 1), (2, 4)])
    def test_matches_rounded_distance_reference(self, mant, exp):
        rng = np.random.default_rng(100 * mant + exp)
        for bias in oracle_biases(mant, exp, rng):
            fmt = FpFormat(mant, exp, bias)
            x = oracle_inputs(enumerate_levels(fmt), rng)
            assert np.array_equal(quantize(x, fmt).symbols, reference_quantize(x, fmt)), fmt

    @pytest.mark.parametrize("fmt", [FP4.with_bias(float(np.float32(0.37))), FpFormat(4, 3, float(np.float32(-1069.3)))])
    def test_edges_by_bisection_alone_are_the_same(self, fmt, monkeypatch):
        # with only the midpoints themselves tried, the edges are found by bisection
        edges = fpq._edges(fmt)
        monkeypatch.setattr(fpq, "_EDGE_ULPS", 0)
        assert np.array_equal(fpq._edges.__wrapped__(fmt), edges)

    def test_non_finite_rejected_with_index(self):
        bad = np.array([[0.0, 1.0], [np.nan, 2.0]])
        with pytest.raises(ValueError, match=r"index \(1, 0\)"):
            quantize(bad, FP4)
        with pytest.raises(ValueError, match="non-finite"):
            quantize(np.array([np.inf]), FP4)

    def test_round_trip_idempotent(self):
        rng = np.random.default_rng(0)
        for fmt in [FP4, FpFormat(mant_bits=3, exp_bits=2, bias=0.7)]:
            x = rng.normal(0, 2, size=257)
            q = quantize(x, fmt)
            q2 = quantize(dequantize(q), fmt)
            assert np.array_equal(q.symbols, q2.symbols)

    def test_monotone_in_scalar_input(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.normal(0, 1.5, size=2000))
        out = dequantize(quantize(x, FP4))
        assert np.all(np.diff(out) >= 0)

    def test_error_bounded_by_half_cell(self):
        rng = np.random.default_rng(2)
        fmt = FpFormat(mant_bits=2, exp_bits=2, bias=-0.3)
        levels = enumerate_levels(fmt)
        x = rng.uniform(levels[0], levels[-1], size=5000)
        err = np.abs(dequantize(quantize(x, fmt)) - x)
        cell = np.searchsorted(levels, x)
        cell = np.clip(cell, 1, levels.size - 1)
        spacing = levels[cell] - levels[cell - 1]
        assert np.all(err <= spacing / 2 + 1e-15)

    def test_bias_shift_covariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, size=1000)
        lo = dequantize(quantize(x, FP4.with_bias(0.25)))
        hi = dequantize(quantize(2 * x, FP4.with_bias(1.25)))
        assert np.array_equal(hi, 2 * lo)

    def test_saturation_counter(self):
        assert count_saturated(np.array([0.5, 2.0, -9.0]), FP4) == 2
        assert max_level(FP4) == 1.75


class TestBias:
    def test_polynomial_at_unit_shape(self):
        # at beta = 1 the quartic's coefficients sum to 0.959; the closed-form
        # optimum for a unit-variance Laplace on FP4 is 0.96165
        assert bias_polynomial(1.0, 1.0) == pytest.approx(0.959, abs=1e-12)
        assert bias_polynomial(1.0, 2.0) == pytest.approx(1.959, abs=1e-12)
        b_closed = laplace_fp4_argmin()
        assert abs(bias_polynomial(1.0, 1.0) - b_closed) < 0.01

    def test_optimizer_matches_laplace_closed_form(self):
        b_closed = laplace_fp4_argmin()
        dist = unit_variance_gennorm(1.0)
        assert abs(optimize_bias(dist, FP4) - b_closed) <= 1e-4
        for b in (0.3, b_closed, 1.6):
            assert bias_objective(b, dist, FP4) == pytest.approx(float(laplace_fp4_mse(b)), rel=1e-5)

    def test_polynomial_distortion_near_optimal(self):
        # the quartic's purpose is a bias whose squared error is as low as the
        # optimizer's; a bias 0.3 off already costs ~20% more distortion
        for beta in (0.3, 0.6, 1.0, 1.6):
            dist = unit_variance_gennorm(beta)
            best = bias_objective(optimize_bias(dist, FP4), dist, FP4)
            assert bias_objective(bias_polynomial(beta, 1.0), dist, FP4) <= 1.001 * best

    def test_polynomial_tracks_optimum_off_unit_scale(self):
        # levels scale as 2**bias, so the optimum moves by log2(sigma) with the scale
        for sigma in (0.01, 2.0):
            for beta in (0.5, 1.0, 1.4):
                dist = unit_variance_gennorm(beta, sigma=sigma)
                assert abs(bias_polynomial(beta, sigma) - optimize_bias(dist, FP4)) < 0.02

    def test_polynomial_validates(self):
        with pytest.raises(ValueError):
            bias_polynomial(0.0, 1.0)
        with pytest.raises(ValueError):
            bias_polynomial(1.0, -1.0)
        with pytest.raises(ValueError):
            bias_polynomial(math.nan, 1.0)
        with pytest.raises(ValueError):
            bias_polynomial(1.0, math.inf)

    def test_optimizer_matches_brute_force_grid(self):
        for beta in (0.8, 2.0):
            dist = unit_variance_gennorm(beta)
            b_opt = optimize_bias(dist, FP4)
            grid = np.arange(b_opt - 0.2, b_opt + 0.2, 1e-3)
            vals = [bias_objective(b, dist, FP4) for b in grid]
            b_grid = float(grid[int(np.argmin(vals))])
            assert abs(b_opt - b_grid) <= 1e-3

    def test_doubling_sigma_shifts_bias_by_one(self):
        d1 = unit_variance_gennorm(1.3, sigma=0.1)
        d2 = unit_variance_gennorm(1.3, sigma=0.2)
        b1 = optimize_bias(d1, FP4)
        b2 = optimize_bias(d2, FP4)
        assert abs((b2 - b1) - 1.0) < 1e-6

    def test_objective_agrees_with_monte_carlo(self):
        rng = np.random.default_rng(7)
        for beta, b in [(1.0, 0.3), (1.0, 0.95), (2.0, 0.55)]:
            dist = unit_variance_gennorm(beta)
            x = sample_gennorm(dist, 1_000_000, rng)
            err2 = (dequantize(quantize(x, FP4.with_bias(b))) - x) ** 2
            mc, se = float(err2.mean()), float(err2.std(ddof=1) / math.sqrt(err2.size))
            quad = bias_objective(b, dist, FP4)
            assert abs(quad - mc) <= 3 * se

    @pytest.mark.parametrize("beta", [0.3, 0.6, 1.0, 1.4, 2.0])
    @pytest.mark.parametrize("fmt", [FP4, FpFormat(3, 2), FpFormat(4, 3)], ids=["fp4", "1-3-2", "1-4-3"])
    def test_array_objective_equals_per_bias_reference(self, fmt, beta):
        grid = np.arange(-4.0, 4.0 + 0.5 * 0.05, 0.05)
        assert grid.size == 161
        dist = unit_variance_gennorm(beta, sigma=1.3, mu=0.02)
        ref = np.array([per_bias_objective(b, dist, fmt) for b in grid])
        assert np.array_equal(bias_objective(grid, dist, fmt), ref)
        # a scalar bias gives a float, and any shape is kept
        assert type(bias_objective(grid[7], dist, fmt)) is float
        assert bias_objective(grid[7], dist, fmt) == ref[7]
        assert np.array_equal(bias_objective(grid[:6].reshape(2, 3), dist, fmt), ref[:6].reshape(2, 3))

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.9, 1.4, 2.0, 3.0])
    @pytest.mark.parametrize(
        "fmt", [FP4, FpFormat(3, 2), FpFormat(3, 3), FpFormat(4, 3)], ids=["fp4", "1-3-2", "1-3-3", "1-4-3"]
    )
    def test_bounded_grid_gives_the_full_grid_bias(self, fmt, beta):
        for mu, sigma in [(0.0, 1.0), (0.02, 1.3), (-3e-4, 2e-3), (5.0, 40.0)]:
            dist = unit_variance_gennorm(beta, sigma=sigma, mu=mu)
            assert optimize_bias(dist, fmt) == full_grid_optimize_bias(dist, fmt)

    def test_bounded_grid_scores_a_fraction_of_the_biases(self, monkeypatch):
        scored = []
        raw = fpq.bias_objective

        def counted(b, *args):
            if np.ndim(b):  # grid scores; golden steps are scalar calls
                scored.extend(np.ravel(b))
            return raw(b, *args)

        monkeypatch.setattr(fpq, "bias_objective", counted)
        optimize_bias(unit_variance_gennorm(1.0), FP4)
        assert len(scored) == len(set(scored)) <= 40

    def test_optimize_bias_builds_no_grid_per_bias(self):
        fmt = FpFormat(mant_bits=3, exp_bits=1)
        before = fpq.enumerate_levels.cache_info().misses
        optimize_bias(unit_variance_gennorm(0.9, sigma=0.01), fmt)
        assert fpq.enumerate_levels.cache_info().misses - before <= 1

    def test_objective_rejects_unrepresentable_biases(self):
        dist = unit_variance_gennorm(1.0)
        for b in (float("nan"), 1e6, np.array([0.0, 1023.5]), -1100.0):
            with pytest.raises(ValueError):
                bias_objective(b, dist, FP4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mean_past_the_quadrature_range_fails_typed(self):
        # from |mu| / sigma = 2**52 the float64s around mu / sigma are sigma apart; near 1.4e154
        # the quadrature's squared errors would overflow into NaN scores
        unit = unit_variance_gennorm(2.0)
        for dist in (
            GenNormParams(2.0, 2.0**52 * unit.sigma, unit.alpha),
            GenNormParams(2.0, -(2.0**60), 1.0),
            GenNormParams(2.0, 1e160, 1e6),
            GenNormParams(2.0, -1.0, 1e-300),
            GenNormParams(0.5, 1e300, 1e-300),
        ):
            with pytest.raises(ValueError, match="quadrature's range"):
                optimize_bias(dist, FP4)
        # just inside the limit the search runs without a warning, at the smallest fitted shape
        inside = unit_variance_gennorm(0.1)
        assert math.isfinite(optimize_bias(GenNormParams(0.1, 2.0**51 * inside.sigma, inside.alpha), FP4))

    @pytest.mark.parametrize("fmt", [FP4, FpFormat(3, 2), FpFormat(4, 3)], ids=["fp4", "1,3,2", "1,4,3"])
    @pytest.mark.parametrize("beta", [0.6, 1.0, 2.0])
    def test_bias_shifts_with_the_scale_at_every_scale(self, fmt, beta):
        # levels scale as 2**bias: alpha * 2**-k moves the optimum by -k, down to alpha near 1e-57
        dist = unit_variance_gennorm(beta)
        b0 = optimize_bias(dist, fmt)
        for k in (1, 43, 190):
            shifted = GenNormParams(beta, 0.0, math.ldexp(dist.alpha, -k))
            assert optimize_bias(shifted, fmt) == pytest.approx(b0 - k, abs=1e-6)

    def test_tiny_scale_quantizes_to_nonzero_levels(self):
        x = np.random.default_rng(5).laplace(0.0, 1e-13, 5000)
        fmt = FP4.with_bias(optimize_bias(GenNormParams(1.0, 0.0, 1e-13), FP4))
        assert np.count_nonzero(dequantize(quantize(x, fmt))) > 2500
