"""Reference values and generated inputs, computed apart from ``bgumbel``.

Everything here starts from the density formula of the bimodal Gumbel law,

    f(x) = [(1 - delta x)^2 + 1] f_G(x; mu, sigma) / Z,

and never imports the package it checks.  Body values come from composite
16-point Gauss-Legendre quadrature of the unnormalized density over panels
no wider than sigma/8, normalized by the quadrature of the whole line.  Tail
values come from mpmath quadrature in v = exp(-(x - mu)/sigma), where

    F(x) = (1/Z) int_z^inf [(a + b ln v)^2 + 1] e^-v dv,   z = exp(-(x - mu)/sigma),

with a = 1 - delta mu and b = delta sigma, and the survival function is the
same integral over (0, z), so neither tail is a difference of nearly equal
numbers.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np

EULER_GAMMA = 0.57721566490153286061
# The unnormalized density is below exp(-700) outside [-ln(750), 100] in
# w = (x - mu)/sigma, up to the polynomial weight.
_W_LO = -math.log(750.0)
_W_HI = 100.0
_PANEL = 1.0 / 8.0
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def normalizer(mu: float, sigma: float, delta: float) -> float:
    """Closed-form Z, used only to cross-check the quadrature of the density."""
    return (1.0 + delta**2 * sigma**2 * math.pi**2 / 6.0
            + (delta * mu + delta * sigma * EULER_GAMMA - 1.0) ** 2)


def log_density_unnormalized(mu, sigma, delta, x):
    """ln of [(1 - delta x)^2 + 1] f_G(x; mu, sigma)."""
    x = np.asarray(x, dtype=float)
    w = (x - mu) / sigma
    u = 1.0 - delta * x
    with np.errstate(over="ignore"):
        return np.log1p(u * u) - w - np.exp(-w) - math.log(sigma)


class Law:
    """Quadrature tables for one parameter triple."""

    def __init__(self, mu: float, sigma: float, delta: float):
        self.mu, self.sigma, self.delta = float(mu), float(sigma), float(delta)
        self.lo = mu + sigma * _W_LO
        self.hi = mu + sigma * _W_HI
        edges = np.arange(self.lo, self.hi, sigma * _PANEL)
        self._edges = np.append(edges, self.hi)
        x, wt = self._nodes(self._edges)
        self.z = float(np.sum(wt * self._u(x)))
        closed = normalizer(mu, sigma, delta)
        if abs(self.z - closed) > 1e-11 * closed:
            raise ArithmeticError(
                f"density quadrature {self.z!r} disagrees with Z = {closed!r} "
                f"for ({mu}, {sigma}, {delta})"
            )
        self._x, self._wt = x, wt

    def _u(self, x):
        with np.errstate(under="ignore"):
            return np.exp(log_density_unnormalized(self.mu, self.sigma, self.delta, x))

    @staticmethod
    def _nodes(edges):
        a, b = edges[:-1], edges[1:]
        half = (b - a)[:, None] / 2.0
        x = (a + b)[:, None] / 2.0 + half * _GL_X[None, :]
        return x, half * _GL_W[None, :]

    def pdf(self, x):
        return self._u(x) / self.z

    def dlogpdf(self, x):
        """d/dx ln f(x)."""
        x = np.asarray(x, dtype=float)
        w = (x - self.mu) / self.sigma
        u = 1.0 - self.delta * x
        return (np.exp(-w) - 1.0) / self.sigma - 2.0 * self.delta * u / (u * u + 1.0)

    def cdf_sf(self, xs):
        """(F, S) at the points ``xs``; both are accurate relative to themselves
        down to about 1e-290 inside the quadrature window."""
        xs = np.asarray(xs, dtype=float)
        order = np.argsort(xs, kind="stable")
        inside = np.clip(xs[order], self.lo, self.hi)
        edges = np.union1d(self._edges, inside)
        x, wt = self._nodes(edges)
        mass = np.sum(wt * self._u(x), axis=1)
        left = np.concatenate([[0.0], np.cumsum(mass)])
        right = np.concatenate([np.cumsum(mass[::-1])[::-1], [0.0]])
        idx = np.searchsorted(edges, inside)
        f = np.empty_like(xs)
        s = np.empty_like(xs)
        f[order] = left[idx] / self.z
        s[order] = right[idx] / self.z
        return f, s

    def expect(self, fn):
        """E[fn(X)] for a vectorized fn (may return a stacked array)."""
        vals = fn(self._x) * (self._wt * self._u(self._x))
        return np.sum(vals, axis=(-2, -1)) / self.z

    def moments(self) -> dict:
        m = float(self.expect(lambda x: x))
        c = [float(self.expect(lambda x, k=k: (x - m) ** k)) for k in (2, 3, 4)]
        return {"mean": m, "variance": c[0], "skewness": c[1] / c[0] ** 1.5,
                "kurtosis": c[2] / c[0] ** 2}

    def fisher_information(self) -> np.ndarray:
        """Covariance of the gradient of ln [weight * f_G] in (mu, sigma, delta).

        The normalizer does not depend on x, so its gradient only shifts the
        mean of that vector and leaves the covariance, the per-observation
        Fisher information, unchanged.
        """
        mu, sg, dl = self.mu, self.sigma, self.delta

        def grad(x):
            w = (x - mu) / sg
            with np.errstate(over="ignore"):
                ew = np.exp(-w)
            u = 1.0 - dl * x
            return np.stack([(1.0 - ew) / sg, (-1.0 + w * (1.0 - ew)) / sg,
                             -2.0 * x * u / (u * u + 1.0)])

        def outer(x):
            g = grad(x)
            return g[:, None] * g[None, :]

        with np.errstate(invalid="ignore"):
            mean = self.expect(grad)
            second = self.expect(outer)
        return second - np.outer(mean, mean)

    def cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, F) at 16385 points with spacing under sigma/200; linear
        interpolation in it is off by less than 1e-5."""
        edges = np.linspace(self.lo, self.mu + 60.0 * self.sigma, 16385)
        f, _ = self.cdf_sf(edges)
        return edges, f

    def inverse_sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF draws: uniforms through the tabulated F, linear in between."""
        edges, f = self.cdf_table()
        keep = np.concatenate([[True], np.diff(f) > 0.0])
        return np.interp(rng.uniform(size=n), f[keep], edges[keep])


def log_likelihood(mu: float, sigma: float, delta: float, data) -> float:
    """Sum of ln f over ``data`` with Z from the density quadrature."""
    z = Law(mu, sigma, delta).z
    x = np.asarray(data, dtype=float)
    return float(np.sum(log_density_unnormalized(mu, sigma, delta, x)) - x.size * math.log(z))


def ks_distance(sorted_cdf: np.ndarray) -> float:
    """sup |F_n - F| from F at the sorted sample."""
    n = sorted_cdf.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - sorted_cdf), np.max(sorted_cdf - (i - 1) / n)))


def gumbel_cdf(mu: float, sigma: float, x):
    return np.exp(-np.exp(-(np.asarray(x, dtype=float) - mu) / sigma))


# ----------------------------------------------------------------------
# Far tails in mpmath
# ----------------------------------------------------------------------

def tail_values(mu: float, sigma: float, delta: float, x: float) -> dict:
    """F, S and the hazard f/S at ``x`` to about 30 digits."""
    with mpmath.workdps(40):
        mu_, sg, dl = mpmath.mpf(mu), mpmath.mpf(sigma), mpmath.mpf(delta)
        a, b = 1 - dl * mu_, dl * sg
        z = mpmath.exp(-(mpmath.mpf(x) - mu_) / sg)

        def weight(v):
            return (a + b * mpmath.log(v)) ** 2 + 1

        norm = mpmath.quad(lambda v: weight(v) * mpmath.exp(-v), [0, 1, mpmath.inf])
        # F: v = z + t over t in (0, inf); S: v = z s over s in (0, 1).
        upper = mpmath.exp(-z) * mpmath.quad(
            lambda t: weight(z + t) * mpmath.exp(-t), [0, mpmath.inf])
        lower = z * mpmath.quad(lambda s: weight(z * s) * mpmath.exp(-z * s), [0, 1])
        dens = weight(z) * z * mpmath.exp(-z) / (sg * norm)
        return {"cdf": float(upper / norm), "sf": float(lower / norm),
                "hazard": float(dens * norm / lower)}
