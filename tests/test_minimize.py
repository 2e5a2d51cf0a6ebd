import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from co3 import distmodel, fpq
from co3._minimize import bounded_scores, minimize_on_interval
from co3.distmodel import GenNormParams, fit_gennorm, sample_gennorm
from co3.fpq import FP4, FpFormat, bias_objective, optimize_bias

ROOT = Path(__file__).resolve().parent.parent

ORACLE_SETTINGS = settings(
    deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)

# small integers make ties, at the minimum too, common
_VALUE = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
# how far below its value a point's bound lies; None: the bound is NaN
_GAP = st.one_of(st.just(0.0), st.none(), st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))


@st.composite
def grids(draw):
    n = draw(st.integers(1, 40))
    values = np.array(draw(st.lists(_VALUE, min_size=n, max_size=n)))
    gaps = draw(st.lists(_GAP, min_size=n, max_size=n))
    bounds = np.array([np.nan if g is None else v - g for v, g in zip(values, gaps)])
    return values, bounds, draw(st.integers(1, 8))


def scored_by(values, bounds, batch):
    seen = []

    def score(idx):
        seen.extend(int(i) for i in idx)
        return values[idx]

    return bounded_scores(score, bounds, batch), seen


class TestBoundedScores:
    @settings(ORACLE_SETTINGS, max_examples=500)
    @given(grids())
    def test_argmin_equals_the_full_argmin(self, grid):
        values, bounds, batch = grid
        pruned, seen = scored_by(values, bounds, batch)
        assert int(np.argmin(pruned)) == int(np.argmin(values))
        assert len(seen) == len(set(seen))
        kept = np.isfinite(pruned)
        assert np.array_equal(pruned[kept], values[kept])
        assert np.all(pruned[~kept] == np.inf)
        # a skipped point scores strictly above the minimum, and a NaN bound is always scored
        assert np.all(values[~kept] > values.min())
        assert np.all(kept[np.isnan(bounds)])

    def test_bounds_equal_to_the_values_score_only_the_ties_at_the_minimum(self):
        values = np.array([3.0, 1.0, 2.0, 1.0, 5.0])
        pruned, seen = scored_by(values, values, 1)
        assert sorted(seen) == [1, 3]
        assert int(np.argmin(pruned)) == 1

    def test_points_are_scored_in_ascending_order_of_their_bounds(self):
        values = np.array([4.0, 3.0, 2.0, 1.0])
        bounds = np.array([3.0, np.nan, -1.0, 0.5])
        _, seen = scored_by(values, bounds, 1)
        assert seen == [1, 2, 3]

    def test_a_bound_within_the_margin_of_the_best_is_scored(self):
        values = np.array([1.0, 1.0 + 1e-12])
        bounds = np.array([1.0, 1.0 + 1e-12])
        _, seen = scored_by(values, bounds, 1)
        assert seen == [0, 1]


def golden_section(f, lo, hi, tol):
    """The searches' refinement before Brent: golden section until the bracket is at most tol wide."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def assert_no_worse_than_the_oracles(f, ours, lo, hi, tol, ends=()):
    """f at ``ours`` is within 1e-12 relative of f at scipy's bounded Brent and at golden section, each with ``ends``."""
    ref = scipy.optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": tol})
    for x in (ref.x, golden_section(f, lo, hi, tol)):
        best = min([f(x), *map(f, ends)])
        assert f(ours) <= best + 1e-12 * abs(best), (ours, x)


class TestBrent:
    def test_importing_co3_loads_no_scipy(self):
        # import time is every run's setup; scipy is a test oracle only
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        code = "import co3, sys; assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_first_two_probes_are_golden_sections(self):
        probes = []
        minimize_on_interval(lambda x: probes.append(x) or (x - 0.9) ** 2, 0.0, 1.0, 1e-8)
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        assert probes[:2] == [pytest.approx(1.0 - invphi, rel=1e-15), pytest.approx(invphi, rel=1e-15)]

    def test_empty_interval_raises(self):
        with pytest.raises(ValueError, match="empty search interval"):
            minimize_on_interval(abs, 1.0, 1.0, 1e-8)

    def test_nan_objective_ends_inside_the_interval(self):
        calls = []
        x = minimize_on_interval(lambda x: calls.append(x) or math.nan, -1.0, 2.0, 1e-8)
        assert -1.0 < x < 2.0 and len(calls) <= 501

    @settings(ORACLE_SETTINGS, max_examples=160)
    @given(
        st.sampled_from([FP4, FpFormat(3, 2), FpFormat(4, 3)]),
        st.sampled_from([0.3, 0.4, 0.54, 0.8, 1.0, 1.4, 2.0, 3.0]),
        st.sampled_from([0.0, 1e-4, -0.02, 0.5, -3.0]),
        st.sampled_from([1e-3, 0.02, 1.0, 40.0]),
    )
    def test_bias_refinement_is_no_worse_than_the_oracles(self, fmt, beta, mu_sigmas, sigma):
        alpha = sigma * math.exp(0.5 * (math.lgamma(1 / beta) - math.lgamma(3 / beta)))
        unit = GenNormParams(beta, mu_sigmas, alpha / sigma)

        def f(b):
            return bias_objective(b, unit, fmt)

        grid = fpq._BIAS_GRID
        i = int(np.argmin(f(grid)))
        lo, hi = grid[max(0, i - 1)], grid[min(grid.size - 1, i + 1)]
        ours = optimize_bias(GenNormParams(beta, mu_sigmas * sigma, alpha), fmt) - math.log2(sigma)
        assert lo <= ours <= hi
        # a local minimum at the search's resolution
        step = 1e-6
        for b in (max(lo, ours - step), min(hi, ours + step)):
            assert f(ours) <= f(b) * (1 + 1e-12)
        # for some models (mostly [1,4,3] with mu off zero) the quadrature ripples in b within
        # the bracket, and each search may settle in another ripple: there only the check above holds
        sampled = np.diff(f(np.linspace(lo, hi, 201)))
        if np.count_nonzero((sampled[:-1] < 0) & (sampled[1:] >= 0)) == 1:
            assert_no_worse_than_the_oracles(f, ours, lo, hi, fpq._BIAS_TOL)

    @settings(ORACLE_SETTINGS, max_examples=40)
    @given(
        st.sampled_from([0.2, 0.35, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0, 4.5]),
        st.sampled_from([200, 1000, 5000, 20_000]),
        st.integers(0, 2**16),
    )
    def test_shape_fit_is_no_worse_than_the_oracles(self, beta, n, seed):
        x = sample_gennorm(GenNormParams(beta, 0.0, 1.0), n, np.random.default_rng(seed))
        fit = fit_gennorm(x)
        dev = np.abs(x - fit.mu)

        def nll(t):  # per-sample negative profile log-likelihood at beta = e^t
            b = math.exp(t)
            log_alpha = (math.log(b) + math.log(np.mean(dev**b))) / b
            return -(math.log(b) - math.log(2.0) - log_alpha - math.lgamma(1.0 / b) - 1.0 / b)

        lo, hi = map(math.log, distmodel.BETA_SEARCH_RANGE)
        assert_no_worse_than_the_oracles(nll, math.log(fit.beta), lo, hi, 2e-7, ends=(lo, hi))
