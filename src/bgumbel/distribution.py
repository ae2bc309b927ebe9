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

from .errors import DegenerateWeightError, RegimeError
from .special import CONSTANTS, _exp, _log_poly_gamma, log_weight_shares

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
_FLOAT_MAX = float(np.finfo(float).max)


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
    """Parameter triple (mu, sigma, delta) of the bimodal Gumbel distribution.

    Raises RegimeError, naming the triple, where its normalizer Z overflows.
    """

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
        if not _z(self.mu, self.sigma, self.delta)[0] < math.inf:
            raise RegimeError(f"the normalizer Z overflows at mu={self.mu!r}, "
                              f"sigma={self.sigma!r}, delta={self.delta!r}")

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


def _z(mu, sg, dl) -> tuple:
    """(Z, v, dm): Z = 1 + v + (dm - 1)^2, v = delta^2 sigma^2 pi^2/6, dm = delta mu + delta sigma gamma.

    Elementwise, with the same bits for floats and rows; inf or nan where Z overflows, never an exception.
    """
    v = dl * dl * (sg * sg) * _PI**2 / 6.0
    dm = dl * mu + dl * sg * _EG
    return 1.0 + v + (dm - 1.0) * (dm - 1.0), v, dm


def normalizer(p: BgParams) -> float:
    """Weight-normalizing constant Z = 1 + d^2 s^2 pi^2/6 + (d*mu + d*s*gamma - 1)^2.

    Finite: BgParams refuses a triple where Z is above the float range
    (|delta|, |delta sigma| or |delta mu| above about 1e154).
    """
    return _z(p.mu, p.sigma, p.delta)[0]


# ----------------------------------------------------------------------
# Plain Gumbel building blocks
# ----------------------------------------------------------------------

def gumbel_log_pdf(p: GumbelParams, x: float | np.ndarray) -> float | np.ndarray:
    # w floored at -max: at x = -inf, -w - e^-w is then -inf, not inf - inf.
    w = np.maximum((np.asarray(x, dtype=float) - p.mu) / p.sigma, -_FLOAT_MAX)
    out = -w - _exp(-w) - math.log(p.sigma)
    return out if out.ndim else float(out)


def gumbel_pdf(p: GumbelParams, x: float | np.ndarray) -> float | np.ndarray:
    out = np.exp(gumbel_log_pdf(p, x))
    return out if np.ndim(out) else float(out)


def gumbel_cdf(p: GumbelParams, x: float | np.ndarray) -> float | np.ndarray:
    w = (np.asarray(x, dtype=float) - p.mu) / p.sigma
    out = np.exp(-_exp(-w))
    return out if out.ndim else float(out)


def gumbel_ppf(p: GumbelParams, q: float | np.ndarray) -> float | np.ndarray:
    q = np.asarray(q, dtype=float)
    if np.any((q <= 0) | (q >= 1)):
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    out = p.mu - p.sigma * np.log(-np.log(q))
    return out if out.ndim else float(out)


def gumbel_moment(p: GumbelParams, k: int) -> float:
    """Raw moment E[Y^k] of a Gumbel variable, k = 0..6.

    With Y = mu - sigma ln V and V ~ Exp(1), this is
    sum_j q_j Gamma^(j)(1) for the coefficients q of (mu - sigma ln v)^k.
    """
    if not 0 <= k <= 6:
        raise ValueError(f"gumbel_moment supports k = 0..6, got {k}")
    return _log_poly_gamma(_linear_powers(p.mu, -p.sigma, k)[-1])


# ----------------------------------------------------------------------
# Density and distribution function
# ----------------------------------------------------------------------

def _float_or_array(x) -> float | np.ndarray:
    """``x`` as a Python float if it is a scalar or a 0-d array, else as a float array."""
    if type(x) is float:
        return x
    xs = np.asarray(x, dtype=float)
    return xs if xs.ndim else float(xs)


def _log_density(p: BgParams, x: float | np.ndarray) -> tuple:
    """ln f and z = exp(-(x - mu)/sigma), inf where it overflows, at a float or float array ``x``.

    ln f is -inf where the density underflows, at x = +-inf included, and
    nan only for a nan ``x``.  A float ``x`` gives floats, with the bits of
    the array path, in Python arithmetic and numpy's exp and log1p on floats.
    """
    w = (x - p.mu) / p.sigma
    u = 1.0 - p.delta * x
    log_z = math.log(p.sigma * normalizer(p))
    if type(x) is float:
        z = _exp(-w)
        out = float(np.log1p(u * u)) - w - z - log_z
        if out < math.inf:
            return out, z
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.exp(-w)
        out = np.log1p(u * u) - w - z - log_z
        # +inf or nan only where u^2 overflowed or x is +-inf; redone only
        # then, so the common case pays one comparison.  From |u| = 1e150 on,
        # ln(1 + u^2) is 2 ln|u| up to rounding.  A nan left over is
        # inf - inf at x = +-inf, where the density is 0.
        if not (out < np.inf).all():
            au = np.abs(u)
            log_weight = np.where(au < 1e150, np.log1p(u * u), 2.0 * np.log(np.maximum(au, 1e150)))
            out = log_weight - w - z - log_z
            out = np.where(np.isnan(out) & ~np.isnan(x), -np.inf, out)
    return (out, z) if out.ndim else (float(out), float(z))


def bg_log_pdf(p: BgParams, x: float | np.ndarray) -> float | np.ndarray:
    """Log density; finite (no overflow) for |x - mu| / sigma up to 700.

    -inf where the density underflows, at x = +-inf included; nan only for
    a nan ``x``.
    """
    return _log_density(p, _float_or_array(x))[0]


def bg_pdf(p: BgParams, x: float | np.ndarray) -> float | np.ndarray:
    """Density of the BG distribution; 0 only where it underflows, at x = +-inf included."""
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
    return log_weight_shares(q, _exp((p.mu - _float_or_array(x)) / p.sigma))


def _bg_weight(p: BgParams) -> tuple[float, float, float]:
    """(1 - delta x)^2 + 1 at x = mu - sigma ln v, as coefficients of 1, ln v, ln^2 v."""
    a, b = 1.0 - p.delta * p.mu, p.delta * p.sigma
    return a * a + 1.0, 2.0 * a * b, b * b


def bg_cdf(p: BgParams, x: float | np.ndarray) -> float | np.ndarray:
    """Distribution function of the BG law, vectorized over ``x``.

    Accurate to about 1e-13 relative even in the far left tail, down to
    values near 1e-300; the delta = 0 case reduces to the Gumbel
    distribution function.
    """
    return _shares(p, _bg_weight(p), x)[0]


def bg_sf(p: BgParams, x: float | np.ndarray) -> float | np.ndarray:
    """Survival function 1 - F of the BG law, vectorized over ``x``.

    Computed as an integral of its own, not as 1 - F, so it keeps about
    1e-13 relative accuracy in the far right tail.
    """
    return _shares(p, _bg_weight(p), x)[1]


def weighted_gumbel_cdf(p: GumbelParams, k: int, x: float | np.ndarray) -> float | np.ndarray:
    """Distribution function of the Y^k-weighted Gumbel law, k = 0, 1, 2.

    Returns E[Y^k 1_{Y <= x}] / E[Y^k].  k = 0 is the plain Gumbel
    distribution function.  For k = 1 the weight takes both signs, so the
    returned function is a signed mixture component and may leave [0, 1];
    it is still the exact ingredient of the three-part mixture identity.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"weighted_gumbel_cdf supports k = 0, 1, 2, got {k}")
    den = gumbel_moment(p, k)
    if abs(den) < 1e-12:
        raise DegenerateWeightError(
            f"E[Y^{k}] = {den!r} is numerically zero; the weighted law is undefined"
        )
    q = _linear_powers(p.mu, -p.sigma, k)[-1] + (0.0,) * (2 - k)
    return _shares(p, q, x)[0]


def mixture_weights(p: BgParams) -> tuple[float, float, float]:
    """Probabilities (p1, p2, p3) of the three-part weighted-Gumbel mixture.

    p1 = 2/Z, p2 = -2 delta m / Z and p3 = (delta^2 sigma^2 pi^2/6 +
    (delta m)^2) / Z with delta m = delta mu + delta sigma gamma, from the
    terms of Z itself (`_z`), so they sum to one and are finite for every
    triple; all three are nonnegative exactly when delta m <= 0.
    """
    z, v, dm = _z(p.mu, p.sigma, p.delta)
    return 2.0 / z, -2.0 * dm / z, (v + dm * dm) / z


def _bracket(p: BgParams, f_lo: float, f_hi: float) -> tuple[float, float]:
    """The nearest lo = mu - r and hi = mu + r' with F(lo) <= f_lo and F(hi) >= f_hi.

    A ladder of reaches sigma * (1, 3, 7, 15, ...) finds the first rung that
    meets each bound; 64 even steps up from the rung below refine it, so r
    and r' exceed the least reach by at most 1/64 of the last ladder step.
    0 < f_lo and f_hi < 1 are always met before the end of the ladder.
    """
    reach = p.sigma * (2.0 ** np.arange(41.0) - 1.0)
    steps = np.arange(1.0, 65.0) / 64.0

    def side(sign: float, met) -> float:
        k = 1 + np.argmax(met(bg_cdf(p, p.mu + sign * reach[1:])))
        r = reach[k - 1] + steps * (reach[k] - reach[k - 1])
        return float(p.mu + sign * r[np.argmax(met(bg_cdf(p, p.mu + sign * r)))])

    return side(-1.0, lambda f: f <= f_lo), side(1.0, lambda f: f >= f_hi)


# ----------------------------------------------------------------------
# Moments
# ----------------------------------------------------------------------

def _poly_mul(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    """Product of two polynomials in ln v, as coefficients of 1, ln v, ..."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _linear_powers(c0: float, c1: float, k: int) -> list[tuple[float, ...]]:
    """(c0 + c1 ln v)^n for n = 0..k; with (mu, -sigma) they are Y^n for Y = mu - sigma ln v."""
    out = [(1.0,)]
    for _ in range(k):
        out.append(_poly_mul(out[-1], (c0, c1)))
    return out


def _expectation(p: BgParams):
    """The map (c, a) -> E[c(ln V) V^(a-1)] / Gamma(a) for X = mu - sigma ln V under the BG law.

    The density of V is _bg_weight(ln v) e^-v / Z, so this is
    sum_j (c * weight)_j Gamma^(j)(a) / (Gamma(a) Z); see
    :func:`~bgumbel.special._log_poly_gamma`.  Gamma(a) = 1 at a = 1 and 2.
    The weight and Z are formed once, for every expectation taken from the
    map.
    """
    weight, z = _bg_weight(p), normalizer(p)

    def expect(c: tuple[float, ...], a: float = 1.0) -> float:
        return _log_poly_gamma(_poly_mul(c, weight), a) / z

    return expect


def bg_moment(p: BgParams, k: int) -> float:
    """Raw moment E[X^k] for k = 0..4: the expectation of (mu - sigma ln V)^k."""
    if not 0 <= k <= 4:
        raise ValueError(f"bg_moment supports k = 0..4, got {k}")
    if k == 0:
        return 1.0
    return _expectation(p)(_linear_powers(p.mu, -p.sigma, k)[-1])


def bg_moment_set(p: BgParams) -> MomentSet:
    """Mean, raw second/third moments, variance, skewness and kurtosis.

    The raw moments are those of :func:`bg_moment`.  The central moments are
    taken about the mean directly, never from raw moments:
    X - E[X] = d - sigma ln V with d = mu - E[X] = sigma E[ln V], so
    E[(X - E[X])^n] is the expectation of (d - sigma ln V)^n.  This holds
    for any |mu| / sigma.  Skewness and kurtosis do not depend on sigma, so
    they come from the central moments of (X - E[X]) / sigma = s - ln V,
    s = E[ln V], and stay finite where a power of the variance underflows.
    """
    expect = _expectation(p)
    d = expect((0.0, p.sigma))
    mean, second_raw, third_raw = (expect(c) for c in _linear_powers(p.mu, -p.sigma, 3)[1:])
    var = expect(_linear_powers(d, -p.sigma, 2)[-1])
    unit_var, mu3, mu4 = (expect(c) for c in _linear_powers(expect((0.0, 1.0)), -1.0, 4)[2:])
    return MomentSet(
        mean=mean,
        second_raw=second_raw,
        third_raw=third_raw,
        variance=var,
        skewness=mu3 / unit_var**1.5,
        kurtosis=mu4 / unit_var**2,
    )


# ----------------------------------------------------------------------
# Moment generating function and polynomial-weighted exponential moments
# ----------------------------------------------------------------------

def bg_mgf(p: BgParams, t: float) -> float:
    """Moment generating function E[exp(tX)], for t < 1/sigma and every delta.

    The m = 0 case of :func:`bg_exp_moment`, which holds its domain.
    """
    return bg_exp_moment(p, 0, t)


def bg_exp_moment(p: BgParams, m: int, t: float) -> float:
    """Polynomial-weighted exponential moment E[X^m exp(tX)] for m = 0, 1, 2 and t < 1/sigma.

    E[X^m exp(tX)] = exp(t mu) E[(mu - sigma ln V)^m V^(a-1)] with
    a = 1 - sigma t, which holds for every a > 0 and every delta; a t that
    rounds a to 0 or to inf, or a nan t, raises ValueError.  exp(t mu)
    Gamma(a) is taken as one exponential, so it is inf only where the
    product, not a factor, is above the float range.
    """
    if m not in (0, 1, 2):
        raise ValueError(f"bg_exp_moment supports m = 0, 1, 2, got {m}")
    a = 1.0 - p.sigma * t
    if not 0.0 < a < math.inf:
        raise ValueError(f"exponential moments require t < 1/sigma, with sigma*t finite, got t={t}")
    scale = _exp(t * p.mu + math.lgamma(a))
    return float(scale * _expectation(p)(_linear_powers(p.mu, -p.sigma, m)[-1], a))
