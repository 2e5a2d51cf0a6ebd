import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special
import scipy.stats

from co3 import distmodel
from co3.distmodel import (
    DegenerateSampleError,
    GenNormParams,
    InsufficientDataError,
    cell_probabilities,
    fit_all,
    fit_gennorm,
    fit_laplace,
    fit_normal,
    gennorm_cdf,
    gennorm_pdf,
    gennorm_ppf,
    lower_gamma_reg,
    profile_alpha,
    sample_gennorm,
    w2_distance,
)
from co3.fpq import FP4


def unit_variance(beta, mu=0.0):
    alpha = math.sqrt(math.exp(math.lgamma(1 / beta) - math.lgamma(3 / beta)))
    return GenNormParams(beta, mu, alpha)


class TestIncompleteGamma:
    def test_matches_scipy_over_wide_grid(self):
        x = np.concatenate((np.linspace(0, 30, 400), np.geomspace(1e-8, 1e4, 200)))
        for s in (0.2, 0.5, 1.0, 3.3333, 10.0):
            ours = lower_gamma_reg(s, x)
            ref = scipy.special.gammainc(s, x)
            assert np.max(np.abs(ours - ref)) < 1e-12

    def test_edge_values(self):
        assert lower_gamma_reg(1.5, 0.0) == 0.0
        assert lower_gamma_reg(1.5, 1e6) == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(ValueError):
            lower_gamma_reg(-1.0, 1.0)
        with pytest.raises(ValueError):
            lower_gamma_reg(1.0, -0.5)
        with pytest.raises(ValueError):
            lower_gamma_reg(1.0, math.nan)

    def test_infinity(self):
        # a cell edge past float64's range is inf, and its CDF is exact
        assert lower_gamma_reg(0.5, math.inf) == 1.0
        assert gennorm_cdf(np.array([-np.inf, np.inf]), unit_variance(1.3)).tolist() == [0.0, 1.0]


class TestDensity:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0])
    def test_density_integrates_to_one(self, beta):
        d = unit_variance(beta)
        total = sum(
            scipy.integrate.quad(lambda x: gennorm_pdf(x, d), a, b, limit=200)[0]
            for a, b in ((-np.inf, d.mu), (d.mu, np.inf))
        )
        assert abs(total - 1.0) <= 1e-8

    def test_beta2_is_normal(self):
        sd = 0.7
        d = GenNormParams(2.0, 0.3, sd * math.sqrt(2.0))
        x = np.linspace(-3, 3, 101)
        ref = scipy.stats.norm.pdf(x, loc=0.3, scale=sd)
        assert np.allclose(gennorm_pdf(x, d), ref, atol=1e-12)
        assert d.sigma == pytest.approx(sd, rel=1e-12)

    def test_beta1_is_laplace(self):
        d = GenNormParams(1.0, -0.2, 1.3)
        x = np.linspace(-4, 4, 101)
        ref = scipy.stats.laplace.pdf(x, loc=-0.2, scale=1.3)
        assert np.allclose(gennorm_pdf(x, d), ref, atol=1e-12)

    def test_cdf_matches_scipy(self):
        for beta in (0.5, 1.0, 2.0, 3.5):
            d = GenNormParams(beta, 0.1, 0.9)
            x = np.linspace(-5, 5, 201)
            ref = scipy.stats.gennorm.cdf(x, beta, loc=0.1, scale=0.9)
            assert np.max(np.abs(gennorm_cdf(x, d) - ref)) < 1e-12

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0])
    def test_cdf_ppf_identity(self, beta):
        d = unit_variance(beta, mu=0.05)
        q = np.concatenate((np.geomspace(1e-6, 0.5, 50), 1 - np.geomspace(1e-6, 0.5, 50)))
        back = gennorm_cdf(gennorm_ppf(q, d), d)
        assert np.max(np.abs(back - q)) < 1e-8

    def test_ppf_rejects_boundary_quantiles(self):
        with pytest.raises(ValueError):
            gennorm_ppf(np.array([0.0, 0.5]), unit_variance(2.0))

    # far tails on both sides, the centre and a linear middle
    PPF_BETAS = (0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
    PPF_Q = np.concatenate(
        (
            np.geomspace(1e-12, 0.5, 120),
            1 - np.geomspace(1e-12, 0.5, 120),
            np.linspace(0.01, 0.99, 99),
        )
    )

    @pytest.mark.parametrize("beta", PPF_BETAS)
    def test_ppf_matches_scipy(self, beta):
        d = GenNormParams(beta, 0.3, 1.7)
        ours = gennorm_ppf(self.PPF_Q, d)
        ref = scipy.stats.gennorm.ppf(self.PPF_Q, beta, loc=d.mu, scale=d.alpha)
        away = np.abs(ref - d.mu) > 1e-6 * d.alpha
        assert away.sum() > 300
        rel = np.abs(ours[away] - ref[away]) / np.abs(ref[away] - d.mu)
        assert np.max(rel) <= 1e-9

    @pytest.mark.parametrize("beta", PPF_BETAS)
    def test_cdf_ppf_identity_to_the_far_tails(self, beta):
        d = unit_variance(beta, mu=-0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = gennorm_cdf(gennorm_ppf(self.PPF_Q, d), d)
        assert np.max(np.abs(back - self.PPF_Q)) <= 1e-12

    def test_ppf_centre_is_exactly_mu(self):
        d = GenNormParams(1.3, 0.7, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            centre = gennorm_ppf(0.5, d)
            grid = gennorm_ppf(np.array([[0.25, 0.5], [0.5, 0.75]]), d)
        assert type(centre) is float and centre == d.mu
        assert grid.shape == (2, 2) and grid[0, 1] == grid[1, 0] == d.mu

    @pytest.mark.parametrize("beta", [20.0, 100.0])
    def test_ppf_near_the_centre_of_flat_shapes(self, beta):
        # Pinv(1/beta, |2q-1|) underflows here (scipy returns 0 for beta = 100),
        # while |x-mu|^beta < 1e-50, so P(s, |x|^beta) = |x| / Gamma(1 + s)
        # holds to double precision and gives the reference
        d = GenNormParams(beta, 0.0, 1.0)
        q = 0.5 + np.concatenate((-np.geomspace(1e-15, 1e-3, 13), np.geomspace(1e-15, 1e-3, 13)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ours = gennorm_ppf(q, d)
        ref = (2.0 * q - 1.0) * math.gamma(1.0 + 1.0 / beta)
        assert np.max(np.abs(ours - ref) / np.abs(ref)) <= 1e-12

    def test_ppf_rejects_nan(self):
        with pytest.raises(ValueError):
            gennorm_ppf(np.array([0.3, np.nan]), unit_variance(2.0))

    def test_gamma_inverse_raises_when_steps_run_out(self, monkeypatch):
        monkeypatch.setattr(distmodel, "_INV_MAX_STEPS", 1)
        with pytest.raises(FloatingPointError):
            gennorm_ppf(np.array([0.1, 0.3]), unit_variance(1.5))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GenNormParams(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            GenNormParams(2.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            GenNormParams(2.0, float("inf"), 1.0)


class TestFits:
    def test_normal_on_symmetric_pair(self):
        samples = np.tile([-1.0, 1.0], 60)
        assert fit_normal(samples) == (0.0, 1.0)

    def test_laplace_on_spiked_sample(self):
        samples = np.tile([0.0, 0.0, 0.0, 4.0], 30)
        loc, scale = fit_laplace(samples)
        assert loc == 0.0 and scale == 1.0

    def test_degenerate_and_short_samples_rejected(self):
        with pytest.raises(DegenerateSampleError):
            fit_normal(np.full(500, 2.5))
        with pytest.raises(DegenerateSampleError):
            fit_gennorm(np.zeros(500))
        with pytest.raises(InsufficientDataError):
            fit_gennorm(np.arange(50, dtype=float))

    @pytest.mark.parametrize(
        "samples, message",
        [
            (np.r_[np.zeros(199), [1e-300]], "zero standard deviation"),  # squares underflow
            (np.random.default_rng(0).laplace(0, 1e-170, 1000), "zero standard deviation"),  # so do these
            (np.r_[np.zeros(199_999), [5e-324]], "zero standard deviation"),  # mean and deviations underflow too
            # two neighbouring floats: beta 0.1 and alpha 2e-32, so |mu| / sigma is about 1e19
            (np.r_[np.ones(150), np.full(50, np.nextafter(1.0, 2.0))], "past the bias search's range"),
        ],
    )
    @pytest.mark.parametrize("fit", [fit_gennorm, fit_all])
    def test_samples_too_narrow_to_fit_raise_typed(self, fit, samples, message):
        with pytest.raises(DegenerateSampleError, match=message):
            fit(samples)

    def test_samples_whose_squares_overflow_fit_as_at_unit_scale(self):
        # at about 1e160 alpha^2 and the squares in np.std pass float64's range;
        # 2^531 rescales exactly, so the Normal and Laplace fits scale exactly
        unit = np.random.default_rng(16).laplace(0.001, 1.0, 2000)
        big = unit * 2.0**531
        for r, r_unit in zip(fit_all(big), fit_all(unit)):
            assert (r.family, r.beta) == (r_unit.family, pytest.approx(r_unit.beta, rel=1e-6))
            assert r.mu == pytest.approx(r_unit.mu * 2.0**531, rel=1e-6)
            assert r.scale == pytest.approx(r_unit.scale * 2.0**531, rel=1e-6)
            assert r.w2 == pytest.approx(r_unit.w2 * 2.0**531, rel=1e-6)
        assert fit_normal(big) == tuple(v * 2.0**531 for v in fit_normal(unit))
        assert fit_laplace(big) == tuple(v * 2.0**531 for v in fit_laplace(unit))

    def test_sigma_past_the_range_of_alpha_squared(self):
        for beta in (0.5, 1.0, 2.0):
            unit = GenNormParams(beta, 0.0, 1.0)
            assert GenNormParams(beta, 0.0, 1e160).sigma == pytest.approx(unit.sigma * 1e160, rel=1e-12)
        assert GenNormParams(0.1, 0.0, 1e300).sigma == math.inf
        assert GenNormParams(0.001, 0.0, 1.0).variance == GenNormParams(0.001, 0.0, 1.0).sigma == math.inf

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_sigma_at_every_scale(self, beta):
        # the variance is subnormal at alpha 1e-160 and 0 at 1e-170; sigma is neither
        ratio = math.sqrt(math.gamma(3.0 / beta) / math.gamma(1.0 / beta))
        for alpha in (1e-160, 1e-170, *(10.0**e for e in range(-300, 301, 10))):
            assert GenNormParams(beta, 0.0, alpha).sigma == pytest.approx(alpha * ratio, rel=1e-15, abs=0.0)
        assert GenNormParams(beta, 0.0, 5e-324).sigma > 0.0

    def test_sigma_where_alpha_squared_underflows_but_the_variance_does_not(self):
        # beta 0.1: Gamma(30) / Gamma(10) lifts alpha^2 = 1e-322, a subnormal, to a normal variance
        ratio = math.sqrt(math.gamma(30.0) / math.gamma(10.0))
        assert GenNormParams(0.1, 0.0, 1e-161).sigma == pytest.approx(1e-161 * ratio, rel=1e-14, abs=0.0)

    def test_gennorm_recovers_normal_shape(self):
        rng = np.random.default_rng(11)
        fit = fit_gennorm(rng.normal(0, 1, 200_000))
        assert 1.9 <= fit.beta <= 2.1
        assert 0.98 <= fit.sigma <= 1.02

    def test_gennorm_recovers_laplace_shape(self):
        rng = np.random.default_rng(12)
        fit = fit_gennorm(rng.laplace(0, 1, 200_000))
        assert 0.9 <= fit.beta <= 1.1

    def test_profile_fit_matches_dense_likelihood_grid(self):
        rng = np.random.default_rng(13)
        x = sample_gennorm(GenNormParams(1.4, 0.0, 0.8), 30_000, rng)
        fit = fit_gennorm(x)
        mu = float(np.mean(x))
        dev = np.abs(x - mu)
        betas = np.linspace(0.8, 2.2, 57)
        alphas = np.geomspace(0.4, 1.6, 57)
        n = x.size

        def loglik(beta, alpha):
            return n * (
                math.log(beta) - math.log(2 * alpha) - math.lgamma(1 / beta)
            ) - float(np.sum((dev / alpha) ** beta))

        grid = np.array([[loglik(b, a) for a in alphas] for b in betas])
        bi, ai = np.unravel_index(np.argmax(grid), grid.shape)
        db = betas[1] - betas[0]
        da_rel = alphas[1] / alphas[0]
        assert abs(fit.beta - betas[bi]) <= db
        assert alphas[ai] / da_rel <= fit.alpha <= alphas[ai] * da_rel

    def test_sample_whose_alpha_overflows_raises_typed(self):
        # 200 values at +-1.5e308 fit beta 5, and alpha = 5^(1/5) * 1.5e308 overflows
        samples = np.r_[np.full(100, 1.5e308), np.full(100, -1.5e308)]
        for fit in (fit_gennorm, fit_all):
            with pytest.raises(DegenerateSampleError, match="alpha overflows"):
                fit(samples)

    @pytest.mark.parametrize("k", [-300, -232, 300, 531, 1000])
    def test_fit_is_exact_at_every_power_of_two_scale(self, k):
        # the old grid lost the fit here: M(beta) overflowed or underflowed at some shapes
        rng = np.random.default_rng(5)
        for x in (rng.normal(size=2000), rng.laplace(size=2000), sample_gennorm(GenNormParams(0.5, 0.1, 1.0), 2000, rng)):
            unit = fit_gennorm(x)
            scaled = fit_gennorm(x * 2.0**k)
            assert scaled.beta == unit.beta
            assert scaled.alpha == unit.alpha * 2.0**k
            assert scaled.mu == unit.mu * 2.0**k

    def test_bounded_shape_grid_saves_passes(self, monkeypatch):
        calls = []
        raw = distmodel.profile_alpha
        monkeypatch.setattr(distmodel, "profile_alpha", lambda *args: calls.append(args[0]) or raw(*args))
        fit_gennorm(np.random.default_rng(15).laplace(0, 1, 33_024))
        assert len(calls) <= 40  # golden section to 2e-7 over ln beta: 37 passes, and the result and both ends


class TestW2:
    def test_zero_on_model_quantiles(self):
        d = unit_variance(1.7)
        q = (np.arange(1, 513) - 0.5) / 512
        samples = gennorm_ppf(q, d)
        assert w2_distance(samples, d) < 1e-8

    def test_pure_location_shift_equals_abs_mu(self):
        mu = 0.37
        base = unit_variance(2.0)
        q = (np.arange(1, 2049) - 0.5) / 2048
        samples = gennorm_ppf(q, base)
        shifted = GenNormParams(2.0, mu, base.alpha)
        assert w2_distance(samples, shifted) == pytest.approx(mu, abs=1e-7)

    def test_gennorm_fit_beats_laplace_on_normal_data(self):
        rng = np.random.default_rng(21)
        x = rng.normal(0, 1, 50_000)
        reports = {r.family: r.w2 for r in fit_all(x)}
        assert reports["gennorm"] <= reports["laplace"] + 1e-9

    @pytest.mark.parametrize("n", [650, 4095, 4096, 10_000])
    @pytest.mark.parametrize("beta", [0.37, 1.0, 2.0])
    def test_equals_the_ppf_coupling_bit_for_bit(self, n, beta):
        x = np.sort(np.random.default_rng(23).laplace(0.01, 0.003, n))
        model = GenNormParams(beta, 0.011, 0.0027)
        k = min(n, distmodel.W2_MAX_QUANTILES)
        q = (np.arange(1, k + 1) - 0.5) / k
        emp = x[np.ceil(q * n).astype(np.int64) - 1]
        ref = float(np.sqrt(np.mean((emp - gennorm_ppf(q, model)) ** 2)))
        assert w2_distance(x, model) == ref
        assert w2_distance(x, model) == ref  # from the cached unit quantiles

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_raise(self, bad):
        x = np.r_[np.linspace(-1.0, 1.0, 300), [bad]]
        with pytest.raises(ValueError, match="non-finite"):
            w2_distance(x, GenNormParams(2.0, 0.0, 1.0))

    def test_cached_unit_quantiles_are_read_only(self):
        w2_distance(np.linspace(-1.0, 1.0, 300), GenNormParams(2.0, 0.0, 1.0))
        z = distmodel._unit_quantiles(2.0, 300)
        assert z is distmodel._unit_quantiles(2.0, 300)
        with pytest.raises(ValueError):
            z[0] = 0.0

    def test_affine_equivariance(self):
        rng = np.random.default_rng(22)
        x = rng.normal(0, 1, 5000)
        d = GenNormParams(2.0, float(np.mean(x)), float(np.std(x)) * math.sqrt(2))
        a, b = -2.5, 0.7
        d2 = GenNormParams(2.0, a * d.mu + b, abs(a) * d.alpha)
        w1 = w2_distance(x, d)
        w2 = w2_distance(a * x + b, d2)
        assert w2 == pytest.approx(abs(a) * w1, rel=1e-6)


class TestCellProbabilities:
    def test_symmetric_distribution_gives_symmetric_cells(self):
        p = cell_probabilities(unit_variance(1.2), FP4)
        assert np.allclose(p, p[::-1], atol=1e-14)

    def test_sums_to_one(self):
        for beta in (0.6, 1.0, 2.0):
            p = cell_probabilities(unit_variance(beta), FP4.with_bias(-0.5))
            assert abs(float(p.sum()) - 1.0) <= 1e-12
            assert np.all(p >= 1e-13)

    def test_zero_cell_mass_is_normal_cdf_difference(self):
        d = GenNormParams(2.0, 0.0, math.sqrt(2.0))  # standard normal
        p = cell_probabilities(d, FP4)
        expected = scipy.stats.norm.cdf(0.125) - scipy.stats.norm.cdf(-0.125)
        assert p[7] == pytest.approx(expected, abs=1e-12)

    def test_cells_near_the_float64_limit_keep_their_mass(self):
        # the top FP4 levels at bias 1023.15 are 1.50e308 and 1.75e308, whose sum overflows
        d = GenNormParams(2.0, 0.0, 1e308)  # Normal with standard deviation 1e308 / sqrt(2)
        fmt = FP4.with_bias(1023.15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = cell_probabilities(d, fmt)
        from co3.fpq import enumerate_levels

        unit = enumerate_levels(fmt) / d.alpha
        edges = 0.5 * (unit[:-1] + unit[1:])
        mass = np.diff(np.concatenate(([0.0], scipy.stats.norm.cdf(edges * math.sqrt(2.0)), [1.0])))
        expected = (mass + distmodel.CELL_PROB_FLOOR) / (mass + distmodel.CELL_PROB_FLOOR).sum()
        assert p[:3].min() > 1e-3 and p[-3:].min() > 1e-3
        assert p == pytest.approx(expected, rel=1e-9)

    def test_cells_non_negative_before_flooring(self):
        d = unit_variance(0.7)
        from co3.fpq import enumerate_levels

        levels = enumerate_levels(FP4.with_bias(2.0))
        mids = 0.5 * (levels[:-1] + levels[1:])
        cdf = gennorm_cdf(mids, d)
        raw = np.diff(np.concatenate(([0.0], cdf, [1.0])))
        assert np.all(raw >= 0.0)


def test_profile_alpha_closed_form():
    x = np.array([1.0, -1.0, 2.0, -2.0])
    # beta=2: alpha = sqrt(2 * mean(x^2))
    assert profile_alpha(2.0, np.abs(x)) == pytest.approx(math.sqrt(5.0), rel=1e-12)


def shape_battery(kind):
    """Samples of one kind for the shape-search oracles, each at its own location and scale."""
    rng = np.random.default_rng(sum(map(ord, kind)))

    def gennorm(beta, n):
        return sample_gennorm(GenNormParams(beta, 0.0, 1.0), n, rng)

    if kind == "gennorm":
        betas = (0.15, 0.25, 0.4, 0.6, 0.8, 1.0, 1.3, 1.7, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)
        raw = [gennorm(b, n) for b in betas for n in (100, 300, 1000, 5000)]
        raw += [gennorm(b, 33_024) for b in (0.3, 1.0, 2.0, 5.0)]
    elif kind == "scale-mixture":
        raw = [
            np.where(rng.random(n) < w, r, 1.0) * gennorm(b, n)
            for n in (500, 5000)
            for b in (0.5, 1.0, 2.0)
            for w, r in ((0.05, 10.0), (0.3, 4.0), (0.5, 0.1))
        ]
    elif kind == "bimodal":
        raw = [rng.choice([-m, m], n) + rng.normal(size=n) for m in (0.5, 1.0, 1.5, 2.0, 3.0, 5.0) for n in (200, 2000)]
    elif kind == "zero-heavy":
        raw = [
            np.where(rng.random(n) < p, 0.0, gennorm(b, n))
            for p in (0.3, 0.6, 0.9, 0.97)
            for b in (0.7, 1.0, 2.0)
            for n in (300, 3000)
        ]
    elif kind == "uniform":
        raw = [rng.uniform(-1.0, 1.0, n) for n in (100, 300, 1000, 3000, 10_000, 33_024)]
    elif kind == "two-point":
        raw = [np.where(rng.random(n) < p, 1.0, -1.0) for p in (0.5, 0.3, 0.1) for n in (100, 1000, 10_000)]
    elif kind == "cauchy":
        raw = [rng.standard_cauchy(n) for n in (100, 1000, 5000) for _ in range(3)]
        raw += [rng.standard_t(df, 2000) for df in (1.5, 2.5, 4.0, 10.0)]
    elif kind == "few-valued":
        # three values with a central mass have a second basin at beta 5, and the
        # lower of the two lies on either side as the mass and n vary
        raw = [
            rng.choice([-1.0, 0.0, 1.0], n, p=[(1 - p0) / 2, p0, (1 - p0) / 2])
            for p0 in (0.3, 0.35, 0.4, 0.45, 0.5, 0.6, 0.7, 0.9)
            for n in (100, 500, 2000, 5000)
        ]
        raw += [rng.choice([-1.0, 0.0, 2.0], 1000, p=[0.2, p0, 0.8 - p0]) for p0 in (0.3, 0.45, 0.6)]
        raw += [rng.choice(np.arange(-2.0, 3.0), 1000, p=rng.dirichlet(np.ones(5))) for _ in range(5)]
    elif kind == "integer-ties":
        raw = [np.round(rng.laplace(0, s, 2000)) for s in (0.3, 0.7, 1.0, 2.0, 5.0, 20.0)]
        raw += [np.round(rng.normal(0, s, 2000)) for s in (0.4, 1.0, 3.0, 30.0)]
        raw += [np.round(gennorm(0.5, 5000) * 3.0)]
    elif kind == "float32-gradients":
        raw = [(gennorm(b, 5000) * 1e-3).astype(np.float32) for b in (0.4, 0.54, 0.8, 1.0, 1.4, 2.0)]
        raw += [np.r_[np.zeros(500), 3.0, rng.normal(size=200)], rng.exponential(size=2000)]
    scales = np.geomspace(1e-6, 1e3, len(raw))
    return [float(rng.normal()) * a + a * np.asarray(x, dtype=np.float64) for a, x in zip(scales, raw)]


SHAPE_KINDS = (
    "gennorm",
    "scale-mixture",
    "bimodal",
    "zero-heavy",
    "uniform",
    "two-point",
    "few-valued",
    "cauchy",
    "integer-ties",
    "float32-gradients",
)


class TestShapeSearch:
    """fit_gennorm's golden section and end comparison against a dense shape grid and scipy's bounded Brent.

    They find the global minimum if the profile likelihood has at most one
    interior basin, which the search settles in whenever it holds the
    minimum; the grid checks the first premise on every sample, and the
    oracles the second.
    """

    @staticmethod
    def profile_nll(x, mu):
        """Per-sample negative profile log-likelihood in beta, computed directly from the sample."""
        dev = np.abs(np.asarray(x, dtype=np.float64) - mu)

        def nll(beta):
            log_alpha = (math.log(beta) + math.log(np.mean(dev**beta))) / beta
            return -(math.log(beta) - math.log(2.0) - log_alpha - math.lgamma(1.0 / beta) - 1.0 / beta)

        return nll

    @staticmethod
    def check_against_oracles(x):
        fit = fit_gennorm(x)
        nll = TestShapeSearch.profile_nll(x, fit.mu)
        betas = np.geomspace(*distmodel.BETA_SEARCH_RANGE, 200)
        grid = np.array([nll(b) for b in betas])
        padded = np.r_[np.inf, grid, np.inf]
        minima = np.flatnonzero((grid < padded[:-2]) & (grid <= padded[2:]))
        interior = minima[(minima > 0) & (minima < betas.size - 1)]
        assert interior.size <= 1, f"interior local minima at beta {betas[interior]}"
        ref = scipy.optimize.minimize_scalar(nll, bounds=distmodel.BETA_SEARCH_RANGE, method="bounded")
        ours = nll(fit.beta)
        for best in (grid.min(), ref.fun):
            assert ours <= best + 1e-8 * max(abs(best), 1.0)
        dev = np.abs(x - fit.mu)
        assert fit.alpha == pytest.approx((fit.beta * np.mean(dev**fit.beta)) ** (1.0 / fit.beta), rel=1e-12)

    def test_battery_holds_150_samples(self):
        assert sum(len(shape_battery(kind)) for kind in SHAPE_KINDS) >= 150

    @pytest.mark.parametrize("kind", SHAPE_KINDS)
    def test_fit_is_the_oracles_minimum(self, kind):
        for x in shape_battery(kind):
            self.check_against_oracles(x)

    @pytest.mark.parametrize("n", [2000, 20_000])
    def test_three_valued_samples_take_the_lower_basin(self, n):
        # half zeros, a quarter each at +-1: the minimum is near beta 0.11 (n 2000) and 0.18
        # (n 20000), below a second basin at the upper end, where a search linear in beta ended
        x = np.random.default_rng(0).choice([-1.0, 0.0, 1.0], n, p=[0.25, 0.5, 0.25])
        assert fit_gennorm(x).beta < 0.2
        self.check_against_oracles(x)

    def test_sample_whose_minimum_is_the_upper_end_fits_it(self):
        # 40 % zeros: golden section settles in the interior basin near beta 0.37, and
        # the end beta 5 is lower
        x = np.random.default_rng(1).choice([-1.0, 0.0, 1.0], 200, p=[0.3, 0.4, 0.3])
        assert fit_gennorm(x).beta == distmodel.BETA_SEARCH_RANGE[1]
        self.check_against_oracles(x)
