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
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._minimize import bounded_scores, grid_then_golden

BETA_SEARCH_RANGE = (0.1, 5.0)
MIN_FIT_SAMPLES = 100
CELL_PROB_FLOOR = 1e-12
W2_MAX_QUANTILES = 4096


class DegenerateSampleError(ValueError):
    """Sample has no spread; no scale family can be fitted."""


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
        """alpha^2 Gamma(3/beta) / Gamma(1/beta); inf past float64's range."""
        try:
            return self.alpha**2 * math.exp(self._log_variance_ratio)
        except OverflowError:
            return math.inf

    @property
    def sigma(self):
        """Standard deviation; inf past float64's range."""
        variance = self.variance
        if math.isfinite(variance):
            return math.sqrt(variance)
        try:  # alpha^2 overflows where sigma may not
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


def gennorm_logpdf(x, params, out=None):
    """Log density at ``x``; ``out``, an array of x's shape, receives it if given."""
    x = np.asarray(x, dtype=np.float64)
    b, a = params.beta, params.alpha
    lognorm = math.log(b) - math.log(2.0 * a) - math.lgamma(1.0 / b)
    z = np.subtract(x, params.mu, out=np.empty_like(x) if out is None else out)
    np.abs(z, out=z)
    z /= a
    z **= b
    return np.subtract(lognorm, z, out=z)[()]  # [()]: a scalar for a scalar x


def gennorm_pdf(x, params, out=None):
    """Density at ``x``; ``out``, an array of x's shape, receives it if given."""
    return np.exp(gennorm_logpdf(x, params, out), out=out)


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


def _without_overflow(stat, x):
    """``stat(x)`` for a statistic that scales with x; where that overflows, ``stat(x / s) * s`` for a power of two s."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = stat(x)
    if not math.isfinite(value):
        s = math.ldexp(1.0, math.frexp(float(np.max(np.abs(x))))[1] - 1)  # max |x / s| in [1, 2)
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


def _neg_profile_loglik(beta, log_alpha):
    # per-sample profile log-likelihood: ln b - ln 2 - ln a - lgamma(1/b) - 1/b
    return -(math.log(beta) - math.log(2.0) - log_alpha - math.lgamma(1.0 / beta) - 1.0 / beta)


def _secant_floor(x, xs, ys):
    """Lower bound at each ``x`` on a convex function known at the ascending ``xs``.

    For x between xs[k] and xs[k+1], the secants through (xs[k-1], xs[k]) and
    (xs[k+1], xs[k+2]), extended to x, both lie below the function there;
    the larger is returned, -inf where neither exists, NaN where ``ys`` is
    not finite.
    """
    k = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
    with np.errstate(invalid="ignore"):
        slope = np.diff(ys) / np.diff(xs)
        left = np.where(k >= 1, ys[k] + slope[k - 1] * (x - xs[k]), -np.inf)
        right_k = np.minimum(k + 1, slope.size - 1)
        right = np.where(k + 2 < xs.size, ys[k + 1] + slope[right_k] * (x - xs[k + 1]), -np.inf)
    return np.maximum(left, right)


def fit_gennorm(samples):
    """GenNorm MLE with mu pinned to the sample mean and alpha profiled out.

    The shape parameter comes from a bounded 1-D search of the profile
    log-likelihood over ``beta in [0.1, 5]`` (coarse grid plus golden-section
    refinement), which keeps the fit deterministic for a fixed input.

    Only the grid points that can hold the grid minimum are scored, each by
    one pass over the sample. Every 4th point is scored first. M(beta) =
    mean|x-mu|^beta is log-convex (Hoelder's inequality), so the neighbouring
    secants of log M at those points, extended, bound log M from below at the
    others; the negative profile log-likelihood rises with log M (with
    coefficient 1/beta), so they bound it too. The other points are scored
    in ascending order of that bound until none left is below the best score
    (``_minimize.bounded_scores``), and the grid argmin, hence the result,
    is the one the full grid gives. Each score's ``profile_alpha`` call gives
    log M = beta ln(alpha) - ln(beta) as well, so bounding costs no pass.

    A sample with no spread raises ``DegenerateSampleError``: one whose
    standard deviation is zero, and one so narrow that M(beta) underflows to
    zero at a scored shape.
    """
    x = _check_sample(samples)
    mu, sd = mean_std(x)
    if sd == 0.0:
        raise DegenerateSampleError("zero standard deviation")
    dev = np.abs(x - mu)

    def profile(beta):
        """(negative profile log-likelihood, log M) at ``beta``; alpha^beta = beta M."""
        alpha = profile_alpha(beta, dev)
        if alpha == 0.0:
            raise DegenerateSampleError(f"mean |x - mu|^{beta:.4g} underflows to zero")
        log_alpha = math.log(alpha)
        return _neg_profile_loglik(beta, log_alpha), beta * log_alpha - math.log(beta)

    # geometric coarse grid: the likelihood varies on a log scale in beta
    grid = np.geomspace(*BETA_SEARCH_RANGE, 61)
    nll = np.full(grid.size, np.nan)
    log_m = np.full(grid.size, np.nan)

    def score(idx):
        for i in idx:
            if np.isnan(nll[i]):
                nll[i], log_m[i] = profile(grid[i])
        return nll[idx]

    first = np.arange(0, grid.size, 4)
    score(first)
    floor = _secant_floor(grid, grid[first], log_m[first])
    bounds = [_neg_profile_loglik(b, (math.log(b) + m) / b) for b, m in zip(grid, floor)]
    bounds = np.where(np.isnan(nll), bounds, nll)
    beta = grid_then_golden(lambda b: profile(b)[0], grid, bounded_scores(score, bounds), 1e-7)
    return GenNormParams(beta, mu, profile_alpha(beta, dev))


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
    stay encodable. A midpoint is ``0.5 * (a + b)``, or ``0.5 * a + 0.5 * b``
    where the sum of two levels near float64's largest value overflows.
    """
    from .fpq import enumerate_levels

    levels = enumerate_levels(fmt)
    with np.errstate(over="ignore"):
        mids = 0.5 * (levels[:-1] + levels[1:])
    wide = ~np.isfinite(mids)
    mids[wide] = 0.5 * levels[:-1][wide] + 0.5 * levels[1:][wide]
    cdf = gennorm_cdf(mids, dist)
    p = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    p = p + CELL_PROB_FLOOR
    return p / p.sum()
