"""Gradient distribution models.

Fits Normal, Laplace, and generalized-normal (GenNorm) families to gradient
samples, scores them with the one-dimensional Wasserstein-2 distance, and
turns a fitted model into per-quantization-cell probabilities for codebook
construction.

The GenNorm density is ``beta / (2 alpha Gamma(1/beta)) * exp(-(|x-mu|/alpha)^beta)``;
``beta=2`` is Normal (variance ``alpha^2/2``), ``beta=1`` is Laplace with
diversity ``alpha``. The CDF needs the regularized lower incomplete gamma
function, implemented here with the classic series / continued-fraction split
at ``x = s + 1`` so the core library stays numpy-only. The quantiles are in
closed form, ``mu +- alpha * Pinv(1/beta, |2q-1|)^(1/beta)``, with ``P``
inverted by Halley steps from the Numerical Recipes ``invgammp`` starting
point (DiDonato & Morris, ACM TOMS 12(4), 1986).
"""

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._minimize import golden_section

BETA_SEARCH_RANGE = (0.1, 5.0)
MIN_FIT_SAMPLES = 100
CELL_PROB_FLOOR = 1e-12
W2_MAX_QUANTILES = 4096
# fpq.optimize_bias rejects a model with |mu| / sigma at or above this, and
# fit_gennorm fits none. From there the float64s around mu / sigma are sigma
# or more apart, so the bias quadrature's nodes over mu +- 16 sigma round onto
# 32 values or fewer and the bias it returns is set by rounding: FP4 at beta 2
# gives 3.90 at 2**54 and 2.25 at 2**56, where each power of two from 2**12 to
# 2**52 tried gives the grid's end, 4.
MAX_MU_SIGMAS = 2.0**52


class DegenerateSampleError(ValueError):
    """No scale family fits the sample in float64: it has no spread, or its fitted scale overflows."""


class InsufficientDataError(ValueError):
    """Too few samples for a stable fit."""


@dataclass(frozen=True)
class GenNormParams:
    """Shape ``beta``, location ``mu``, scale ``alpha`` of a generalized normal."""

    beta: float
    mu: float
    alpha: float

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")

    @property
    def _log_variance_ratio(self):
        return math.lgamma(3.0 / self.beta) - math.lgamma(1.0 / self.beta)

    @property
    def variance(self):
        """alpha^2 Gamma(3/beta) / Gamma(1/beta); inf above float64's range, subnormal or 0 below it."""
        try:
            return self.alpha**2 * math.exp(self._log_variance_ratio)
        except OverflowError:
            return math.inf

    @property
    def sigma(self):
        """Standard deviation, positive; inf past float64's range.

        The root of the variance while alpha^2 and the variance are normal float64s;
        where either leaves that range but sigma may not, ``alpha * exp(log ratio / 2)``.
        """
        variance = self.variance
        if sys.float_info.min <= min(self.alpha * self.alpha, variance) and variance < math.inf:
            return math.sqrt(variance)
        try:
            return self.alpha * math.exp(0.5 * self._log_variance_ratio)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class FitReport:
    """One fitted family and its Wasserstein-2 distance to the sample."""

    family: str  # "normal" | "laplace" | "gennorm"
    beta: float
    mu: float
    scale: float  # family-native scale: stdev / diversity / alpha
    w2: float

    def as_gennorm(self):
        if self.family == "normal":
            return GenNormParams(2.0, self.mu, self.scale * math.sqrt(2.0))
        if self.family == "laplace":
            return GenNormParams(1.0, self.mu, self.scale)
        return GenNormParams(self.beta, self.mu, self.scale)


# ----------------------------------------------------------------------
# regularized lower incomplete gamma, vectorized over x for scalar s

_TINY = 1e-300
_CONV_EPS = 1e-15
_GAMMA_MAX_TERMS = 600  # series terms or continued-fraction steps before giving up


def _gamma_series(s, x):
    # P(s, x) by power series; valid for x < s + 1
    out = np.zeros_like(x)
    pos = x > 0
    xv = x[pos]
    if xv.size:
        term = np.full_like(xv, 1.0 / s)
        total = term.copy()
        ap = s
        for _ in range(_GAMMA_MAX_TERMS):
            ap += 1.0
            term = term * xv / ap
            total += term
            if np.all(np.abs(term) <= np.abs(total) * _CONV_EPS):
                break
        else:
            raise FloatingPointError("incomplete gamma series did not converge")
        out[pos] = total * np.exp(-xv + s * np.log(xv) - math.lgamma(s))
    return out


def _gamma_cf(s, x):
    # Q(s, x) by modified Lentz continued fraction; valid for x >= s + 1
    if x.size == 0:
        return x.copy()
    b = x + 1.0 - s
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _GAMMA_MAX_TERMS + 1):
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = b + an / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if np.all(np.abs(delta - 1.0) < _CONV_EPS):
            break
    else:
        raise FloatingPointError("incomplete gamma continued fraction did not converge")
    return h * np.exp(-x + s * np.log(x) - math.lgamma(s))


def _gamma_pq(s, x):
    # (P(s, x), Q(s, x)) for 1-D x >= 0, P(s, inf) = 1 included; the side
    # computed directly keeps full relative precision, the other is its complement
    p = np.ones_like(x)
    q = np.zeros_like(x)
    small = x < s + 1.0
    p[small] = _gamma_series(s, x[small])
    q[small] = 1.0 - p[small]
    cf = ~small & (x < math.inf)
    q[cf] = _gamma_cf(s, x[cf])
    p[cf] = 1.0 - q[cf]
    return p, q


def lower_gamma_reg(s, x):
    """Regularized lower incomplete gamma P(s, x) for scalar s > 0, array x >= 0 (inf included, NaN not)."""
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if not np.all(x >= 0):
        raise ValueError("x must be non-negative and not NaN")
    out = _gamma_pq(s, x)[0]
    return float(out[0]) if scalar else out


_INV_RTOL = 1e-12
_INV_MAX_STEPS = 32


def _lower_gamma_inv(s, p, pc):
    """x with P(s, x) = p, given p and its complement pc = 1 - p as 1-D arrays.

    Each entry is solved on the side of the smaller of p and pc (P below 1/2,
    Q above), so both exactly-known tails keep full relative precision.
    Starting point from Numerical Recipes ``invgammp`` (Wilson-Hilferty for
    s > 1, a power-law / exponential split for s <= 1), then Halley steps on
    the not-yet-converged entries until the step is below 1e-12 relative.
    ``p = 0`` returns 0.
    """
    x = np.zeros_like(p)
    active = np.flatnonzero(p > 0)
    pa, pca = p[active], pc[active]
    lo = pa < 0.5
    lg = math.lgamma(s)
    if s > 1.0:
        t = np.sqrt(-2.0 * np.log(np.where(lo, pa, pca)))
        z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
        z = np.where(lo, -z, z)
        xa = np.maximum(1e-3, s * (1.0 - 1.0 / (9.0 * s) - z / (3.0 * math.sqrt(s))) ** 3)
    else:
        t = 1.0 - s * (0.253 + s * 0.12)
        xa = np.where(pa < t, (pa / t) ** (1.0 / s), 1.0 - np.log(pca / (1.0 - t)))
    for _ in range(_INV_MAX_STEPS):
        if not active.size:
            break
        gp, gq = _gamma_pq(s, xa)
        err = np.where(lo, gp - pa, pca - gq)
        dens = np.exp((s - 1.0) * np.log(xa) - xa - lg)
        u = err / dens
        step = u / (1.0 - 0.5 * np.minimum(1.0, (s - 1.0) * (u / xa) - u))
        new = xa - step
        new = np.where(new > 0, new, 0.5 * xa)
        done = np.abs(step) < _INV_RTOL * new
        x[active[done]] = new[done]
        keep = ~done
        active, xa, pa, pca, lo = active[keep], new[keep], pa[keep], pca[keep], lo[keep]
    if active.size:
        raise FloatingPointError("incomplete gamma inverse did not converge")
    return x


# ----------------------------------------------------------------------
# GenNorm density / CDF / quantiles


def gennorm_pdf(x, params):
    """Density at ``x``, a scalar for a scalar x: exp(log normalizer - (|x - mu| / alpha)^beta).

    Each step runs in place on one array of x's shape that it allocates.
    """
    x = np.asarray(x, dtype=np.float64)
    b, a = params.beta, params.alpha
    lognorm = math.log(b) - math.log(2.0 * a) - math.lgamma(1.0 / b)
    z = np.subtract(x, params.mu, out=np.empty_like(x))
    np.abs(z, out=z)
    z /= a
    z **= b
    np.subtract(lognorm, z, out=z)
    return np.exp(z, out=z)[()]


def gennorm_cdf(x, params):
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    z = (np.abs(x - params.mu) / params.alpha) ** params.beta
    p = lower_gamma_reg(1.0 / params.beta, z)
    out = 0.5 + 0.5 * np.sign(x - params.mu) * p
    return float(out[0]) if scalar else out


def gennorm_ppf(q, params):
    """Quantiles in closed form: ``mu +- alpha * Pinv(1/beta, |2q-1|)^(1/beta)``.

    ``Pinv`` inverts the regularized lower incomplete gamma function by
    Halley steps (``_lower_gamma_inv``); the tail mass ``2 min(q, 1-q)`` is
    passed alongside ``|2q-1|`` so far-tail quantiles keep full relative
    precision. Near the centre of flat shapes (large beta), where ``Pinv``
    would underflow, ``Pinv^(1/beta)`` is its leading term
    ``|2q-1| Gamma(1 + 1/beta)``. ``q = 0.5`` gives ``mu`` exactly.
    """
    q = np.asarray(q, dtype=np.float64)
    if not np.all((q > 0) & (q < 1)):
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    flat = q.ravel()
    s = 1.0 / params.beta
    p = np.abs(2.0 * flat - 1.0)
    # below x = 1e-200, P(s, x) = x^s / Gamma(s + 1) to double precision; there
    # x^s = p Gamma(s + 1) is taken as is, since x itself may underflow
    head = p < math.exp(s * math.log(1e-200) - math.lgamma(s + 1.0))
    z = _lower_gamma_inv(s, np.where(head, 0.0, p), 2.0 * np.minimum(flat, 1.0 - flat))
    dev = z**s
    if head.any():
        dev[head] = p[head] * math.gamma(s + 1.0)
    out = params.mu + np.sign(flat - 0.5) * params.alpha * dev
    return float(out[0]) if q.ndim == 0 else out.reshape(q.shape)


def sample_gennorm(params, size, rng):
    """Draw i.i.d. GenNorm variates: alpha * sign * Gamma(1/beta)^(1/beta) + mu."""
    g = rng.gamma(shape=1.0 / params.beta, scale=1.0, size=size)
    sign = rng.integers(0, 2, size=size) * 2 - 1
    return params.mu + params.alpha * sign * g ** (1.0 / params.beta)


# ----------------------------------------------------------------------
# fitting


def _check_sample(samples):
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < MIN_FIT_SAMPLES:
        raise InsufficientDataError(
            f"need at least {MIN_FIT_SAMPLES} samples, got {x.size}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("samples contain non-finite values")
    if np.min(x) == np.max(x):
        raise DegenerateSampleError("all samples are equal; no scale to fit")
    return x


def _power_of_two_below(value):
    """The power of two s with value / s in [1, 2), for a positive finite value."""
    return math.ldexp(1.0, math.frexp(value)[1] - 1)


def _without_overflow(stat, x):
    """``stat(x)`` for a statistic that scales with x; where that overflows, ``stat(x / s) * s`` for a power of two s."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = stat(x)
    if not math.isfinite(value):
        s = _power_of_two_below(float(np.max(np.abs(x))))
        value = stat(x / s) * s
    return value


def mean_std(samples):
    """(mean, population stdev), each taken as ``_without_overflow`` does, so finite where float64 holds it."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    return _without_overflow(lambda v: float(np.mean(v)), x), _without_overflow(lambda v: float(np.std(v)), x)


def fit_normal(samples):
    """MLE Normal fit: (mean, population stdev)."""
    return mean_std(_check_sample(samples))


def fit_laplace(samples):
    """MLE Laplace fit: (median, mean absolute deviation from the median)."""
    x = _check_sample(samples)
    med = float(np.median(x))
    return med, _without_overflow(lambda v: float(np.mean(np.abs(v))), x - med)


def profile_alpha(beta, deviations):
    """Closed-form scale MLE given beta: (beta * mean|x-mu|^beta)^(1/beta); inf where that overflows."""
    with np.errstate(over="ignore"):
        return float((beta * np.mean(deviations**beta)) ** (1.0 / beta))


def fit_gennorm(samples):
    """GenNorm MLE with mu pinned to the sample mean and alpha profiled out.

    The shape minimizes the negative profile log-likelihood over ``beta in
    [0.1, 5]`` by one golden-section search (``_minimize.golden_section``) in
    ln beta, to 1e-7 relative, then takes the best of its result and the
    range's two ends. Samples of a few values, such as three values with a
    central mass, have a second local minimum at an end, which that
    comparison catches; in ln beta the first probes (beta 0.45 and 1.12)
    keep the search out of the end's basin when the interior one is lower.
    These premises are measured, not proved: ``TestShapeSearch`` in
    ``tests/test_distmodel.py`` checks them, and the result against a dense
    beta grid and scipy, on GenNorm, mixture, bimodal, zero-heavy, uniform,
    two-point, few-valued, Cauchy and integer-tie samples.

    The deviations |x - mu| are divided by an exact power of two s near their
    largest, so M(beta) = mean (|x - mu| / s)^beta lies in [1/n, 2^beta] at
    every shape. The likelihood is compared without its constant ln s, so
    beta is bitwise the same for the sample scaled by any power of two (while
    the scaled values stay normal float64s), and alpha is
    ``profile_alpha(beta, |x - mu| / s) * s``.

    Raises ``DegenerateSampleError`` for a sample whose standard deviation is
    zero, for one whose fitted alpha overflows float64, and for one whose
    fitted |mu| / sigma is ``MAX_MU_SIGMAS`` or more, which the bias search
    rejects (a near-constant sample, whose shape fit goes to beta 0.1).
    """
    x = _check_sample(samples)
    mu, sd = mean_std(x)
    if sd == 0.0:
        raise DegenerateSampleError("zero standard deviation")
    dev = np.abs(x - mu)
    s = _power_of_two_below(float(np.max(dev)))
    dev /= s

    def profile(beta):
        return beta, profile_alpha(beta, dev)

    def neg_profile_loglik(fit):
        # per-sample profile log-likelihood less ln s: ln b - ln 2 - ln a - lgamma(1/b) - 1/b
        beta, alpha = fit
        return -(math.log(beta) - math.log(2.0) - math.log(alpha) - math.lgamma(1.0 / beta) - 1.0 / beta)

    lo, hi = BETA_SEARCH_RANGE
    # a bracket 2e-7 wide in ln beta puts its midpoint within 1e-7 of the minimum
    t = golden_section(lambda t: neg_profile_loglik(profile(math.exp(t))), math.log(lo), math.log(hi), 2e-7)
    beta, alpha = min(map(profile, (math.exp(t), lo, hi)), key=neg_profile_loglik)
    alpha *= s
    if math.isinf(alpha):
        raise DegenerateSampleError("the fitted alpha overflows float64")
    fit = GenNormParams(beta, mu, alpha)
    if not abs(mu) / fit.sigma < MAX_MU_SIGMAS:
        raise DegenerateSampleError(f"the fitted |mu| / sigma of {fit} is past the bias search's range (2**52)")
    return fit


# ----------------------------------------------------------------------
# goodness of fit and codebook probabilities


@lru_cache(maxsize=16)
def _unit_quantiles(beta, k):
    """Read-only quantiles of GenNorm(beta, mu=0, alpha=1) at (i - 1/2) / k, i = 1..k."""
    z = gennorm_ppf((np.arange(1, k + 1) - 0.5) / k, GenNormParams(beta, 0.0, 1.0))
    z.setflags(write=False)
    return z


def w2_distance(samples, model):
    """Wasserstein-2 distance via quantile coupling on a capped interior grid.

    The model quantiles are ``mu + alpha * z``, with ``z`` the unit-scale
    quantiles of shape ``beta`` at the k = min(n, 4096) grid points; they
    equal ``gennorm_ppf`` bit for bit. ``z`` is cached per (beta, k), so the
    Normal and Laplace fits (beta 2 and 1) invert the incomplete gamma once
    per quantile count, not once per call.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples contain non-finite values")
    k = min(n, W2_MAX_QUANTILES)
    q = (np.arange(1, k + 1) - 0.5) / k
    emp = x[np.ceil(q * n).astype(np.int64) - 1]  # type-1 empirical quantiles
    mod = model.mu + model.alpha * _unit_quantiles(model.beta, k)
    return _without_overflow(lambda d: float(np.sqrt(np.mean(d**2))), emp - mod)


def fit_all(samples):
    """Fit all three families and score each with W2; order: normal, laplace, gennorm.

    Raises what ``fit_gennorm`` raises. A sample it accepts has a non-zero
    standard deviation, so the Laplace scale is non-zero too: the mean
    absolute deviation from the median underflows to zero only when every
    deviation is below n * 2**-1074, and then every squared deviation from
    the mean underflows as well.
    """
    gn = fit_gennorm(samples)
    mean, sd = fit_normal(samples)
    med, div = fit_laplace(samples)
    fits = [
        FitReport("normal", 2.0, mean, sd, math.nan),
        FitReport("laplace", 1.0, med, div, math.nan),
        FitReport("gennorm", gn.beta, gn.mu, gn.alpha, math.nan),
    ]
    return [replace(fit, w2=w2_distance(samples, fit.as_gennorm())) for fit in fits]


def cell_probabilities(dist, fmt):
    """Probability mass of each nearest-neighbor quantization cell under ``dist``.

    Cell boundaries sit at midpoints between adjacent levels; the outermost
    cells extend to +-infinity so saturated mass is absorbed. Every level gets
    at least the floor probability (added, then renormalized) so all symbols
    stay encodable.
    """
    from .fpq import _midpoints, enumerate_levels

    mids = _midpoints(enumerate_levels(fmt))
    cdf = gennorm_cdf(mids, dist)
    p = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    p = p + CELL_PROB_FLOOR
    return p / p.sum()
