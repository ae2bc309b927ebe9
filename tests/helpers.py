"""Independent numerical oracles used across the test suite.

Everything here deliberately avoids the package's own evaluation paths:
distribution functions come from direct quadrature of the density, the
log-moment integrals from composite Simpson sums, and derivatives from
central finite differences.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from bgumbel import BgParams, bg_log_pdf, bg_pdf


def quad_cdf(p: BgParams, x: float) -> float:
    """Distribution function by adaptive quadrature of the density."""
    lo = p.mu - 40.0 * p.sigma
    if x <= lo:
        return 0.0
    val, _ = quad(
        lambda t: float(bg_pdf(p, t)),
        lo,
        x,
        limit=500,
        epsabs=1e-12,
        epsrel=1e-11,
        points=[v for v in (p.mu - 2 * p.sigma, p.mu, p.mu + 3 * p.sigma) if lo < v < x],
    )
    return val


def quad_expectation(p: BgParams, fn, lo_sig=40.0, hi_sig=120.0) -> float:
    """E[fn(X)] by adaptive quadrature of fn * density."""
    lo, hi = p.mu - lo_sig * p.sigma, p.mu + hi_sig * p.sigma
    val, _ = quad(
        lambda t: fn(t) * float(bg_pdf(p, t)),
        lo,
        hi,
        limit=800,
        epsabs=1e-12,
        epsrel=1e-11,
        points=[p.mu - 2 * p.sigma, p.mu, p.mu + 4 * p.sigma],
    )
    return val


def cdf_interpolator(p: BgParams) -> PchipInterpolator:
    """Dense cumulative-quadrature distribution function (for KS oracles).

    Builds F on a wide grid by trapezoid accumulation of the density; the
    grid is fine enough that interpolation error is far below Monte Carlo
    resolution of any sample compared against it.
    """
    reach = 20.0 / max(abs(p.delta), 0.2)
    xs = np.linspace(p.mu - 16.0 * p.sigma, p.mu + 60.0 * p.sigma + reach, 400001)
    pv = np.asarray(bg_pdf(p, xs))
    f = np.concatenate([[0.0], np.cumsum((pv[1:] + pv[:-1]) / 2.0 * np.diff(xs))])
    f = np.clip(f / f[-1], 0.0, 1.0)
    keep = np.concatenate([[True], np.diff(f) > 1e-15])
    return PchipInterpolator(xs[keep], f[keep])


def inverse_sampler(p: BgParams):
    """i.i.d. draws by inverting a dense cumulative-quadrature CDF table."""
    fwd = cdf_interpolator(p)
    xs = fwd.x
    fs = fwd(xs)
    keep = np.concatenate([[True], np.diff(fs) > 1e-14])
    inv = PchipInterpolator(fs[keep], xs[keep])
    lo, hi = float(fs[keep][0]), float(fs[keep][-1])

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        return np.asarray(inv(np.clip(rng.uniform(size=n), lo, hi)), dtype=float)

    return draw


def ks_distance_to_cdf(draws: np.ndarray, cdf_values_of_sorted: np.ndarray) -> float:
    """Two-sided sup distance between the empirical law and F (F at sorted draws)."""
    n = len(draws)
    i = np.arange(1, n + 1)
    return float(
        max(
            np.max(i / n - cdf_values_of_sorted),
            np.max(cdf_values_of_sorted - (i - 1) / n),
        )
    )


def simpson_log_moment(k: int, a: float, b: float = math.inf, panels: int = 10**6) -> float:
    """Composite-Simpson oracle for I(k; a, b) on the Gumbel-transformed domain."""
    s_lo = -math.log(b) if math.isfinite(b) else -38.0
    s_hi = -math.log(a) if a > 0 else 60.0 + 12.0 * k
    s_hi = min(s_hi, 60.0 + 12.0 * k)
    if s_lo >= s_hi:
        return 0.0
    n = panels if panels % 2 == 0 else panels + 1
    s = np.linspace(s_lo, s_hi, n + 1)
    y = s**k * np.exp(-s - np.exp(-np.minimum(s, 700.0)))
    h = (s_hi - s_lo) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def fd_gradient(fn, theta: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with per-coordinate relative step."""
    g = np.zeros_like(theta, dtype=float)
    for i in range(len(theta)):
        step = h * max(1.0, abs(theta[i]))
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (fn(up) - fn(dn)) / (2.0 * step)
    return g


def fd_log_pdf_derivative(p: BgParams, x: float, h: float = 1e-6) -> float:
    """d/dx of the density via central differences of exp(log pdf)."""
    return (float(bg_pdf(p, x + h)) - float(bg_pdf(p, x - h))) / (2.0 * h)


def random_params(rng: np.random.Generator, delta_scale: float = 1.5) -> BgParams:
    """A broadly dispersed but numerically tame parameter triple."""
    return BgParams(
        mu=float(rng.uniform(-3.0, 3.0)),
        sigma=float(rng.uniform(0.3, 3.0)),
        delta=float(rng.uniform(-delta_scale, delta_scale)),
    )


def wide_box(rng: np.random.Generator, n: int) -> list[BgParams]:
    """mu in [-20, 20], sigma = 10^U(-2, 1.5), |delta| = 10^U(-4, 3), one in ten 0."""
    mu, sg = rng.uniform(-20, 20, n), 10.0 ** rng.uniform(-2, 1.5, n)
    dl = 10.0 ** rng.uniform(-4, 3, n) * rng.choice([-1.0, 1.0], n)
    dl[rng.uniform(size=n) < 0.1] = 0.0
    return [BgParams(*map(float, t)) for t in zip(mu, sg, dl)]
