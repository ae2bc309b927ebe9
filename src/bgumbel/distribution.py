"""Quadratically weighted (bimodal) Gumbel distribution.

A random variable X follows the bimodal Gumbel law BG(mu, sigma, delta) when
its density is a Gumbel density reshaped by a quadratic weight,

    f(x) = [(1 - delta*x)^2 + 1] * f_G(x; mu, sigma) / Z,

where f_G is the Gumbel density with location mu and scale sigma and

    Z = 1 + delta^2 sigma^2 pi^2 / 6 + (delta*mu + delta*sigma*gamma - 1)^2

normalizes the weight (gamma is the Euler-Mascheroni constant).  delta = 0
recovers the plain Gumbel distribution; nonzero delta can split the density
into two modes.

This module provides the parameter types, the normalizer, density / log
density / distribution and survival functions, weighted Gumbel distribution
functions, raw moments and moment summaries, and the moment generating
function with its polynomial-weighted generalization E[X^m exp(tX)].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DegenerateWeightError
from .special import (
    CONSTANTS,
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    gamma_deriv,
    log_moment_constant,
    log_weight_shares,
)

__all__ = [
    "BgParams",
    "GumbelParams",
    "MomentSet",
    "normalizer",
    "gumbel_pdf",
    "gumbel_log_pdf",
    "gumbel_cdf",
    "gumbel_ppf",
    "gumbel_moment",
    "bg_pdf",
    "bg_log_pdf",
    "bg_cdf",
    "bg_sf",
    "weighted_gumbel_cdf",
    "mixture_weights",
    "bg_moment",
    "bg_moment_set",
    "bg_mgf",
    "bg_exp_moment",
]

_EG = CONSTANTS.euler_gamma
_PI = CONSTANTS.pi


@dataclass(frozen=True)
class GumbelParams:
    """Location/scale pair of a Gumbel distribution."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma", float(self.sigma))
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("parameters must be finite")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class BgParams:
    """Parameter triple (mu, sigma, delta) of the bimodal Gumbel distribution."""

    mu: float
    sigma: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "delta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (
            math.isfinite(self.mu)
            and math.isfinite(self.sigma)
            and math.isfinite(self.delta)
        ):
            raise ValueError("parameters must be finite")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @property
    def gumbel(self) -> GumbelParams:
        """The underlying Gumbel location/scale pair."""
        return GumbelParams(self.mu, self.sigma)


@dataclass(frozen=True)
class MomentSet:
    """First moments of a BG distribution.

    ``skewness`` and ``kurtosis`` are the standardized third and fourth
    moments (kurtosis is reported plain, not excess).
    """

    mean: float
    second_raw: float
    third_raw: float
    variance: float
    skewness: float
    kurtosis: float


def normalizer(p: BgParams) -> float:
    """Weight-normalizing constant Z = 1 + d^2 s^2 pi^2/6 + (d*mu + d*s*gamma - 1)^2."""
    return (
        1.0
        + p.delta**2 * p.sigma**2 * _PI**2 / 6.0
        + (p.delta * p.mu + p.delta * p.sigma * _EG - 1.0) ** 2
    )


# ----------------------------------------------------------------------
# Plain Gumbel building blocks
# ----------------------------------------------------------------------

def gumbel_log_pdf(p: GumbelParams, x: float | np.ndarray) -> float | np.ndarray:
    w = (np.asarray(x, dtype=float) - p.mu) / p.sigma
    with np.errstate(over="ignore"):
        out = -w - np.exp(-w) - math.log(p.sigma)
    return out if out.ndim else float(out)


def gumbel_pdf(p: GumbelParams, x: float | np.ndarray) -> float | np.ndarray:
    out = np.exp(gumbel_log_pdf(p, x))
    return out if np.ndim(out) else float(out)


def gumbel_cdf(p: GumbelParams, x: float | np.ndarray) -> float | np.ndarray:
    w = (np.asarray(x, dtype=float) - p.mu) / p.sigma
    with np.errstate(over="ignore"):
        out = np.exp(-np.exp(-w))
    return out if out.ndim else float(out)


def gumbel_ppf(p: GumbelParams, q: float | np.ndarray) -> float | np.ndarray:
    q = np.asarray(q, dtype=float)
    if np.any((q <= 0) | (q >= 1)):
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    out = p.mu - p.sigma * np.log(-np.log(q))
    return out if out.ndim else float(out)


def gumbel_moment(p: GumbelParams, k: int) -> float:
    """Raw moment E[Y^k] of a Gumbel variable, k = 0..6.

    Expands (mu - sigma ln v)^k binomially against the log-moment constants
    I(i; 0, inf).
    """
    if not 0 <= k <= 6:
        raise ValueError(f"gumbel_moment supports k = 0..6, got {k}")
    return float(
        sum(
            math.comb(k, i) * p.mu ** (k - i) * p.sigma**i * log_moment_constant(i)
            for i in range(k + 1)
        )
    )


# ----------------------------------------------------------------------
# Density and distribution function
# ----------------------------------------------------------------------

def bg_log_pdf(p: BgParams, x: float | np.ndarray) -> float | np.ndarray:
    """Log density; finite (no overflow) for |x - mu| / sigma up to 700."""
    xv = np.asarray(x, dtype=float)
    w = (xv - p.mu) / p.sigma
    u = 1.0 - p.delta * xv
    with np.errstate(over="ignore"):
        out = np.log1p(u * u) - w - np.exp(-w) - math.log(p.sigma * normalizer(p))
    return out if out.ndim else float(out)


def bg_pdf(p: BgParams, x: float | np.ndarray) -> float | np.ndarray:
    """Density of the BG distribution; strictly positive for all finite x."""
    out = np.exp(bg_log_pdf(p, x))
    return out if np.ndim(out) else float(out)


def _shares(
    p: BgParams | GumbelParams, q: tuple[float, float, float], x: float | np.ndarray
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Shares of the weight q0 + q1 ln v + q2 ln^2 v above and below v = z(x).

    With v = exp(-(y - mu)/sigma), {Y <= x} is {V >= z(x)} for a Gumbel
    variable Y, so the upper share is a distribution function and the lower
    one its survival function.
    """
    w = (np.asarray(x, dtype=float) - p.mu) / p.sigma
    with np.errstate(over="ignore"):
        z = np.exp(-w)
    upper, lower = log_weight_shares(q, z)
    if upper.ndim:
        return upper, lower
    return float(upper), float(lower)


def _bg_weight(p: BgParams) -> tuple[float, float, float]:
    """(1 - delta x)^2 + 1 at x = mu - sigma ln v, as coefficients of 1, ln v, ln^2 v."""
    a, b = 1.0 - p.delta * p.mu, p.delta * p.sigma
    return a * a + 1.0, 2.0 * a * b, b * b


def bg_cdf(
    p: BgParams,
    x: float | np.ndarray,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float | np.ndarray:
    """Distribution function of the BG law, vectorized over ``x``.

    Accurate to about 1e-13 relative even in the far left tail, down to
    values near 1e-300; the delta = 0 case reduces to the Gumbel
    distribution function.  ``spec`` is accepted for compatibility and not
    used: the kernel (:func:`~bgumbel.special.log_weight_shares`) has no
    adaptive quadrature.
    """
    return _shares(p, _bg_weight(p), x)[0]


def bg_sf(p: BgParams, x: float | np.ndarray) -> float | np.ndarray:
    """Survival function 1 - F of the BG law, vectorized over ``x``.

    Computed as an integral of its own, not as 1 - F, so it keeps about
    1e-13 relative accuracy in the far right tail.
    """
    return _shares(p, _bg_weight(p), x)[1]


def weighted_gumbel_cdf(
    p: GumbelParams,
    k: int,
    x: float | np.ndarray,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float | np.ndarray:
    """Distribution function of the Y^k-weighted Gumbel law, k = 0, 1, 2.

    Returns E[Y^k 1_{Y <= x}] / E[Y^k].  k = 0 is the plain Gumbel
    distribution function.  For k = 1 the weight takes both signs, so the
    returned function is a signed mixture component and may leave [0, 1];
    it is still the exact ingredient of the three-part mixture identity.
    ``spec`` is unused, as in :func:`bg_cdf`.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"weighted_gumbel_cdf supports k = 0, 1, 2, got {k}")
    den = gumbel_moment(p, k)
    if abs(den) < 1e-12:
        raise DegenerateWeightError(
            f"E[Y^{k}] = {den!r} is numerically zero; the weighted law is undefined"
        )
    # Y^k with Y = mu - sigma ln v, as coefficients of 1, ln v, ln^2 v.
    mu, sg = p.mu, p.sigma
    q = ((1.0, 0.0, 0.0), (mu, -sg, 0.0), (mu * mu, -2.0 * mu * sg, sg * sg))[k]
    return _shares(p, q, x)[0]


def mixture_weights(p: BgParams) -> tuple[float, float, float]:
    """Probabilities (p1, p2, p3) of the three-part weighted-Gumbel mixture.

    p1 = 2/Z, p2 = -2 delta (mu + sigma gamma) / Z and
    p3 = delta^2 [sigma^2 pi^2/6 + (mu + sigma gamma)^2] / Z sum to one for
    every parameter triple; all three are nonnegative exactly when
    delta * (mu + sigma gamma) < 0.
    """
    z = normalizer(p)
    m = p.mu + p.sigma * _EG
    p1 = 2.0 / z
    p2 = -2.0 * m * p.delta / z
    p3 = (p.sigma**2 * _PI**2 / 6.0 + m * m) * p.delta**2 / z
    return p1, p2, p3


def _quantile(
    p: BgParams,
    q: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Numerical quantile by bracketed root finding on the distribution function.

    Internal helper (used by test oracles); accuracy follows the bracketing
    tolerance, not a public contract.  ``spec`` is unused, as in :func:`bg_cdf`.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    lo, hi = _bracket(p, q, q)
    return float(brentq(lambda t: bg_cdf(p, t) - q, lo, hi, xtol=1e-12))


def _bracket(p: BgParams, f_lo: float, f_hi: float) -> tuple[float, float]:
    """The nearest lo = mu - r and hi = mu + r' with F(lo) <= f_lo and F(hi) >= f_hi.

    r and r' are taken from sigma * (1, 3, 7, 15, ...); 0 < f_lo and
    f_hi < 1 are always met before the end of the ladder.
    """
    reach = p.sigma * (2.0 ** np.arange(1.0, 41.0) - 1.0)
    lo = p.mu - reach[np.argmax(bg_cdf(p, p.mu - reach) <= f_lo)]
    hi = p.mu + reach[np.argmax(bg_cdf(p, p.mu + reach) >= f_hi)]
    return float(lo), float(hi)


# ----------------------------------------------------------------------
# Moments
# ----------------------------------------------------------------------

def bg_moment(p: BgParams, k: int) -> float:
    """Raw moment E[X^k] for k = 0..4 via the binomial/log-moment expansion.

    E[X^k] * Z = delta^2 s^(k+2) I(k+2) - delta s^(k+1) [2 - delta mu (k+2)] I(k+1)
                 + sum_i s^i mu^(k-i) [2 C(k,i) - 2 delta mu C(k+1,i)
                                       + delta^2 mu^2 C(k+2,i)] I(i),

    where I(i) = I(i; 0, inf) and s = sigma.
    """
    if not 0 <= k <= 4:
        raise ValueError(f"bg_moment supports k = 0..4, got {k}")
    if k == 0:
        return 1.0
    mu, sg, dl = p.mu, p.sigma, p.delta
    lead = dl**2 * sg ** (k + 2) * log_moment_constant(k + 2) - dl * sg ** (k + 1) * (
        2.0 - dl * mu * (k + 2)
    ) * log_moment_constant(k + 1)
    tail = sum(
        sg**i
        * mu ** (k - i)
        * (
            2.0 * math.comb(k, i)
            - 2.0 * dl * mu * math.comb(k + 1, i)
            + dl**2 * mu**2 * math.comb(k + 2, i)
        )
        * log_moment_constant(i)
        for i in range(k + 1)
    )
    return (lead + tail) / normalizer(p)


def bg_moment_set(p: BgParams) -> MomentSet:
    """Mean, raw second/third moments, variance, skewness and kurtosis.

    The raw moments E[X^k], k = 1..4, come from :func:`bg_moment`; skewness
    and kurtosis standardize them through the binomial expansion
    E[(X - m)/s]^n = s^-n sum_k C(n,k) (-m)^(n-k) E[X^k].
    """
    moments = tuple(bg_moment(p, k) for k in range(5))
    m1, m2, m3 = moments[1:4]
    var = m2 - m1 * m1
    sd = math.sqrt(var)

    def standardized(n: int) -> float:
        total = sum(
            math.comb(n, j) * (-m1) ** (n - j) * moments[j] for j in range(n + 1)
        )
        return total / sd**n

    return MomentSet(
        mean=m1,
        second_raw=m2,
        third_raw=m3,
        variance=var,
        skewness=standardized(3),
        kurtosis=standardized(4),
    )


# ----------------------------------------------------------------------
# Moment generating function and polynomial-weighted exponential moments
# ----------------------------------------------------------------------

def _exp_moment_raw(p: BgParams, m: int, t: float) -> float:
    """E[X^m exp(tX)] via gamma derivatives; valid whenever 1 - sigma*t > 0."""
    mu, sg, dl = p.mu, p.sigma, p.delta
    a = 1.0 - sg * t
    lead = (-1.0) ** m * math.exp(t * mu) * (
        dl**2 * sg ** (m + 2) * gamma_deriv(m + 2, a)
        + dl * sg ** (m + 1) * (2.0 - dl * mu * (m + 2)) * gamma_deriv(m + 1, a)
    )
    tail = sum(
        (-1.0) ** i
        * sg**i
        * mu ** (m - i)
        * (
            2.0 * math.comb(m, i)
            - 2.0 * dl * mu * math.comb(m + 1, i)
            + dl**2 * mu**2 * math.comb(m + 2, i)
        )
        * gamma_deriv(i, a)
        for i in range(m + 1)
    )
    return (lead + math.exp(t * mu) * tail) / normalizer(p)


def bg_mgf(p: BgParams, t: float) -> float:
    """Moment generating function E[exp(tX)].

    Defined for t < 0; when delta = 0 the Gumbel form exp(mu t) Gamma(1 - sigma t)
    applies on the wider range t < 1/sigma.
    """
    if p.delta == 0.0:
        if t >= 1.0 / p.sigma:
            raise ValueError(f"mgf of the Gumbel case requires t < 1/sigma, got t={t}")
        return math.exp(p.mu * t) * gamma_deriv(0, 1.0 - p.sigma * t)
    if t >= 0.0:
        raise ValueError(f"mgf requires t < 0, got t={t}")
    mu, sg, dl = p.mu, p.sigma, p.delta
    a = 1.0 - sg * t
    gam = gamma_deriv(0, a)
    bracket = (
        2.0
        - 2.0 * mu * dl
        + mu**2 * dl**2
        + 2.0 * sg * dl * (1.0 - mu * dl) * (gamma_deriv(1, a) / gam)
        + sg**2 * dl**2 * gamma_deriv(2, a) / gam
    )
    return math.exp(mu * t) * gam * bracket / normalizer(p)


def bg_exp_moment(p: BgParams, m: int, t: float) -> float:
    """Polynomial-weighted exponential moment E[X^m exp(tX)] for m = 0, 1, 2.

    The stated domain is t < 0 with t <= -m/sigma (the boundary point
    t = -m/sigma is included; the underlying gamma-derivative representation
    converges there).  m = 0 coincides with :func:`bg_mgf`.
    """
    if m not in (0, 1, 2):
        raise ValueError(f"bg_exp_moment supports m = 0, 1, 2, got {m}")
    if t >= 0.0 or t > -m / p.sigma:
        raise ValueError(
            f"bg_exp_moment requires t < 0 and t <= -m/sigma, got m={m}, t={t}"
        )
    return _exp_moment_raw(p, m, t)
