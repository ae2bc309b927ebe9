"""Maximum-likelihood estimation of (mu, sigma, delta).

The log likelihood of observations x_1..x_n is

    l = B(delta) - n ln Z(mu, sigma, delta) + G(mu, sigma),
    B = sum_i ln[(1 - delta x_i)^2 + 1],   G = -n ln sigma - sum_i { w_i + exp(-w_i) },

with w_i = (x_i - mu)/sigma and Z the closed-form weight normalizer.  One
kernel gives l with its gradient and Hessian in (mu, ln sigma, delta) for K
rows at once: `_sums` forms the sums over the data for G and B, and
`_terms` turns each row's sums and ln Z into l and its derivatives.
`log_likelihood`, `score`, `hessian` and each fit's result are one-row calls
of it (`_at`), so each point has one l; every derivative is validated
against finite differences in the test suite.

delta enters l only through B, which holds no (mu, sigma), and through ln Z.
So the fit is a profile-likelihood search: the profile
l_p(delta) = max over (mu, sigma) of l is computed on a grid of delta, and
each local maximum of the grid (the likelihood can hold several in delta) is
polished in all three parameters.  One damped Newton, `_newton`, serves
every fit, its rows in lockstep: 2x2 at fixed delta for the profile's grid
points, whose delta = 0 row is the Gumbel fit, and 3x3 for the polish of
every maximum.  G holds no delta, so one `_sums` pass over the data at a few
sigma values predicts every grid point's optimum (`_starts`), and each
fixed-delta Newton starts there, or from the Gumbel moment estimates where
no prediction is found.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from operator import mul
from typing import NamedTuple

import numpy as np

from .distribution import BgParams, _z
from .errors import DegenerateDataError, InsufficientDataError
from .special import CONSTANTS, _hermite, _horner

__all__ = [
    "FitResult",
    "FitDiagnostics",
    "LocalMaximum",
    "log_likelihood",
    "score",
    "hessian",
    "fisher_information",
    "fit_mle",
    "fit_gumbel_mle",
]

_EG = CONSTANTS.euler_gamma
_PI = CONSTANTS.pi

_CONVERGENCE_FACTOR = 1e-6
# Maxima whose log likelihoods differ by at most this much per observation tie.
_TIE_TOL = 1e-8
# delta grid of 2 * _GRID_HALF + 1 points (see _delta_grid).
_GRID_HALF, _GRID_REACH, _GRID_KNEE = 40, 10.0, 0.1
# Newton: step halvings before giving up, the |ln sigma| it may reach, and
# the fall in l per observation taken as rounding: near the optimum a step
# gains less than the rounding of terms such as sum w.
_LINE_SEARCH_HALVINGS, _MAX_LOG_SIGMA, _ROUNDING = 20, 300.0, 1e-12
# Newton at fixed delta: step cap and gradient tolerance per observation.
_MAX_ITER, _TOL = 500, 1e-9
# Newton steps of the 3-D polish of each maximum; from a grid end the polish
# can drift out in delta, where the profile flattens.
_POLISH_STEPS = 40
# Two maxima closer than chi2_1(0.95) / 2 in log likelihood leave delta weakly identified.
_WEAK_GAP = 0.5 * 3.841458820694124
# Elements per block of the row kernel `_sums`: 81 x n temporaries of a
# large sample leave the cache, and fresh large arrays cost page faults.
_CHUNK = 1 << 14
# Free one 1 MiB block at import.  glibc then raises its dynamic mmap
# threshold to 1 MiB and its heap trim threshold to twice that (mallopt(3)).
# At the default 128 KiB trim threshold, the heap top freed after every fit
# is given back and page-faulted in again by the next: ~1000 minor faults
# a fit on 2000 points.
np.empty(1 << 17)
# Rows up to which `_newton` evaluates row by row in Python floats, where
# numpy's cost of about 1 us a call would exceed the arithmetic.
_FEW = 8
# fisher_information's integral: 24-point Gauss-Legendre panels in s = ln V
# on [-45, 6.8], split at fixed breaks and at s0 +- 2^j h, j = -2..59, around
# the poles s0 +- i h of 1 / (1 + u^2).
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_PANEL_BREAKS = (-45.0, -30.0, -18.0, -10.0, -5.0, -2.0, 0.0, 1.5, 3.0, 4.5, 6.8)
_POLE_CUTS = 2.0 ** np.arange(-2, 60)
# `_starts`' sigma table, at t = ln sigma0 + _TABLE_STEP * k for k in
# _TABLE_NODES, and its Newton steps: in mu at each node, and on each cubic.
_TABLE_STEP, _TABLE_NODES = 0.125, np.arange(-12, 6)
_START_ITER, _CUBIC_ITER = 4, 4


class LocalMaximum(NamedTuple):
    """A polished local maximum of the likelihood.

    ``at_grid_edge`` marks one whose polish started only from an end point
    of the delta grid; such a run may stop far out in delta (within the
    polish's step cap) where the profile flattens.
    """

    params: BgParams
    log_likelihood: float
    at_grid_edge: bool


@dataclass(frozen=True)
class FitDiagnostics:
    """How ``fit_mle`` reached its estimate.

    ``profile_loglik[k]`` is the profile log likelihood at ``delta_grid[k]``.
    ``maxima`` holds every distinct polished local maximum, highest first.
    ``inner_steps`` counts the fixed-delta (2x2) Newton steps, summed over
    the grid points.  ``weakly_identified`` is set when the top two maxima
    differ by less than chi2_1(0.95) / 2 ~ 1.92 in log likelihood.
    ``gumbel`` is the fit of the nested Gumbel model: the profile's
    delta = 0 row, equal to ``fit_gumbel_mle`` on the same data.
    """

    delta_grid: tuple[float, ...]
    profile_loglik: tuple[float, ...]
    maxima: tuple[LocalMaximum, ...]
    inner_steps: int
    weakly_identified: bool
    gumbel: FitResult


@dataclass(frozen=True)
class FitResult:
    """Point estimates with standard errors and convergence diagnostics.

    ``std_errors`` is the square root of the diagonal of the inverse observed
    information (negative Hessian at the optimum), or None when that matrix
    is not positive definite.  ``diagnostics`` is set by ``fit_mle`` only.
    """

    params: BgParams
    std_errors: tuple[float, float, float] | None
    log_likelihood: float
    n_obs: int
    converged: bool
    iterations: int
    grad_norm_at_solution: float
    diagnostics: FitDiagnostics | None = None


def _as_data(data) -> np.ndarray:
    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0:
        raise InsufficientDataError("empty data")
    if not np.all(np.isfinite(x)):
        raise ValueError("data contain non-finite values")
    return x


def _log_z(mu, sg, dl, k: int = 3) -> tuple:
    """Z with the gradient and Hessian of ln Z in (mu, t = ln sigma[, delta]).

    Z = 1 + (delta sigma pi)^2 / 6 + a^2 from `_z`, with a = dm - 1 for its
    term dm = delta mu + delta sigma gamma, and m = mu + sigma gamma; the
    derivatives of ln Z are those of Z over Z.  With k = 2 only the (mu, t)
    parts.  Elementwise, so it takes floats or arrays of rows alike.
    """
    c = _PI**2 / 3.0
    m = mu + sg * _EG
    z, _, dm = _z(mu, sg, dl)
    a = dm - 1.0
    d2 = dl * dl
    z_t = sg * (d2 * sg * c + 2.0 * dl * _EG * a)
    g0, g1 = 2.0 * dl * a / z, z_t / z
    h01 = 2.0 * d2 * _EG * sg / z - g0 * g1
    h11 = (z_t + d2 * sg * sg * (c + 2.0 * _EG**2)) / z - g1 * g1
    g, h = [g0, g1], [[2.0 * d2 / z - g0 * g0, h01], [h01, h11]]
    if k == 3:
        g2 = (dl * sg * sg * c + 2.0 * m * a) / z
        h02 = (4.0 * dl * m - 2.0) / z - g0 * g2
        h12 = sg * (2.0 * dl * sg * c + 4.0 * dl * _EG * m - 2.0 * _EG) / z - g1 * g2
        g.append(g2)
        h = [[*h[0], h02], [*h[1], h12], [h02, h12, (sg * sg * c + 2.0 * m * m) / z - g2 * g2]]
    return z, g, h


def _to_sigma(g, h, sg: float) -> tuple[np.ndarray, np.ndarray]:
    """A gradient and Hessian in (mu, t = ln sigma, delta), taken to (mu, sigma, delta)."""
    j = np.array([1.0, 1.0 / sg, 1.0])
    grad = np.array(g) * j
    hess = np.array(h) * np.outer(j, j)
    hess[1, 1] -= grad[1] / sg
    return grad, hess


def _sums(x: np.ndarray, mu: np.ndarray, sg: np.ndarray, dl: np.ndarray, parts: int) -> np.ndarray:
    """The sums over the data that l is built from, for K rows of (mu, sigma, delta), as a (parts, K) array.

    G's sums of e, w e, w^2 e and w (w = (x - mu)/sigma, e = exp(-w); sum w
    term by term, as (sum x - n mu)/sigma cancels far from the origin), then
    with parts = 5 B = sum ln(1 + u^2), u = 1 - delta x, and with parts = 7
    also B's two delta derivatives.  In blocks of at most _CHUNK elements, so
    the temporaries stay in cache and memory does not grow with K; each row
    gets the bits it would get alone.  Overflow in e is the caller's to silence.
    """
    out = np.zeros((parts, mu.size))
    add = np.add.reduce  # the bits of .sum(axis=1), at less overhead a call
    rows, cols = max(1, _CHUNK // x.size), min(x.size, _CHUNK)
    for i, j in product(range(0, mu.size, rows), range(0, x.size, cols)):
        r, c = slice(i, i + rows), slice(j, j + cols)
        xc = x[c]
        w = (xc - mu[r, None]) / sg[r, None]
        e = np.exp(-w)
        we = w * e
        sums = [add(e, 1), add(we, 1), np.einsum("ij,ij->i", we, w), add(w, 1)]
        if parts > 4:
            u = 1.0 - dl[r, None] * xc
            uu = u * u
            sums.append(add(np.log1p(uu), 1))
        if parts > 5:  # one BLAS dot per row, so rows never mix
            q = 1.0 / (1.0 + uu)
            sums.append(-2.0 * ((u * q)[:, None] @ xc)[:, 0])
            sums.append(2.0 * (((1.0 - uu) * q * q)[:, None] @ (xc * xc))[:, 0])
        out[:, r] += sums
    return out


def _terms(n: int, mu, sg, t, dl, s0, s1, s2, sw, *b) -> tuple:
    """l with its gradient and Hessian in (mu, t = ln sigma[, delta]) from a row's `_sums`.

    l = B - n ln Z + G with G = -n t - sum w - sum e and ln Z from `_log_z`.
    With B alone (delta held fixed), only the (mu, t) parts; with B's two
    delta derivatives, the delta row and column too.  Elementwise: floats or
    arrays of rows alike, with the same bits.
    """
    z, gz, hz = _log_z(mu, sg, dl, 2 if len(b) == 1 else 3)
    h_mt = (s0 - s1 - n) / sg - n * hz[0][1]
    g = [(n - s0) / sg - n * gz[0], sw - s1 - n - n * gz[1]]
    h = [[-s0 / (sg * sg) - n * hz[0][0], h_mt], [h_mt, s1 - sw - s2 - n * hz[1][1]]]
    if len(b) == 3:
        h_md, h_td = -n * hz[0][2], -n * hz[1][2]
        g.append(b[1] - n * gz[2])
        h = [[*h[0], h_md], [*h[1], h_td], [h_md, h_td, b[2] - n * hz[2][2]]]
    return b[0] - n * np.log(z) - n * t - sw - s0, g, h


def _at(x: np.ndarray, p: BgParams, t: float) -> tuple:
    """`_terms` with the delta parts at p, t = ln sigma: `_newton`'s kernel for one row, on its float route."""
    one = [np.array([v]) for v in (p.mu, p.sigma, p.delta)]
    with np.errstate(over="ignore", invalid="ignore"):
        return _terms(x.size, p.mu, p.sigma, t, p.delta, *_sums(x, *one, 7)[:, 0].tolist())


def log_likelihood(p: BgParams, data) -> float:
    """Log likelihood; identical to summing the log density over the data."""
    return float(_at(_as_data(data), p, math.log(p.sigma))[0])


def score(p: BgParams, data) -> np.ndarray:
    """Analytic gradient of the log likelihood, ordered (mu, sigma, delta)."""
    _, g, h = _at(_as_data(data), p, math.log(p.sigma))
    return _to_sigma(g, h, p.sigma)[0]


def hessian(p: BgParams, data) -> np.ndarray:
    """Analytic Hessian of the log likelihood (symmetric 3x3)."""
    _, g, h = _at(_as_data(data), p, math.log(p.sigma))
    return _to_sigma(g, h, p.sigma)[1]


def fisher_information(p: BgParams) -> np.ndarray:
    """Per-observation Fisher information matrix: the covariance E[s s'] of the score s = grad ln f.

    One integral in s = ln V, with X = mu - sigma s and u = 1 - delta X,
    where the density is (1 + u^2) e^(s - e^s) / Z and

        s_mu    = (1 - e^s) / sigma - d ln Z / d mu,
        s_sigma = (s e^s - s - 1) / sigma - d ln Z / d sigma,
        s_delta = -2 X u / (1 + u^2) - d ln Z / d delta,

    with grad ln Z from `_log_z`.  24-point Gauss-Legendre panels cover
    [-45, 6.8], outside which e^(s - e^s) is under 3e-20, split at
    s0 +- 2^j h, j = -2..59, around the poles s0 +- i h of 1 / (1 + u^2)
    (s0 = (mu - 1/delta) / sigma, h = 1/|delta sigma|), so near the poles
    no panel is wider than its distance from them; a cut that repeats a
    break makes a panel of width 0.  Every weight is >= 0, and so is every
    diagonal entry.  (1 + u^2) / Z is formed as 1/Z + (u / sqrt Z)^2 and
    s_delta with 1/u for u where |u| > 1, so nothing overflows where u^2
    would.  One triangle is mirrored onto the other: exactly symmetric.
    """
    mu, sg, dl = p.mu, p.sigma, p.delta
    breaks = np.array(_PANEL_BREAKS)
    q = abs(dl * sg)  # 1/h; poles further out leave every panel smooth
    if q > 1e-6:
        cuts = (mu - 1.0 / dl) / sg + np.concatenate([-_POLE_CUTS, _POLE_CUTS]) / q
        inner = cuts[(cuts > breaks[0]) & (cuts < breaks[-1])]
        breaks = np.sort(np.concatenate([breaks, inner]))
    half = 0.5 * np.diff(breaks)[:, None]
    s = (breaks[:-1, None] + half * (1.0 + _GL_NODES)).ravel()
    x = mu - sg * s
    u = 1.0 - dl * x
    z, g, _ = _log_z(mu, sg, dl)
    es = np.exp(s)
    k = np.maximum(1.0, np.abs(u))
    r = u / k / k  # u, or 1/u where |u| > 1
    score = np.array([
        (1.0 - es) / sg - g[0],
        (s * es - s - 1.0) / sg - g[1] / sg,
        -2.0 * x * r / (1.0 + r * r) - g[2],
    ])
    w = (half * _GL_WEIGHTS).ravel() * (1.0 / z + (u / math.sqrt(z)) ** 2) * np.exp(s - es)
    info = (score * w) @ score.T
    for i, j in ((1, 0), (2, 0), (2, 1)):
        info[i, j] = info[j, i]
    return info


# ----------------------------------------------------------------------
# Fitting
# ----------------------------------------------------------------------

def _gumbel_moment_init(x: np.ndarray) -> tuple[float, float]:
    s = float(x.std(ddof=1))
    sg0 = s * math.sqrt(6.0) / _PI
    mu0 = float(x.mean()) - _EG * sg0
    return mu0, sg0


def _starts(x: np.ndarray, grid) -> np.ndarray:
    """`_newton`'s start for each fixed-delta row of ``grid``, as (R, 3) rows (mu, t = ln sigma, delta).

    The data enter a row only through G, which holds no delta.  One `_sums`
    pass at mu0 and sigma_k = exp(t_k), t_k = ln sigma0 + k / 8 for
    k = -12..5 ((mu0, sigma0) the Gumbel moment estimates), gives G's sums
    S0, S1, S2, Sw at every mu on those sigma_k: with d = (mu - mu0) /
    sigma_k, sum e = e^d S0, sum w e = e^d (S1 - d S0), sum w^2 e =
    e^d (S2 - 2 d S1 + d^2 S0) and sum w = Sw - n d.  So, free of the data,
    for each row and node _START_ITER Newton steps in mu from d = ln(n / S0)
    (the delta = 0 root) give the mu* that maximises l, and `_terms` there
    the profile's slope P' = dl/dt, its curvature P'' = l_tt - l_mt^2 / l_mm
    and dmu*/dt = -l_mt / l_mm.  The start is the root of the cubic Hermite
    of P' in the first cell where P' falls from > 0 to <= 0, with mu from
    the Hermite of mu*(t).  A row with no such cell, or a non-finite start,
    keeps the moment start.  Elementwise in the rows, with fixed step counts:
    each row's start is what it would be alone.
    """
    n = x.size
    mu0, sg0 = _gumbel_moment_init(x)
    t0 = math.log(sg0)
    t = t0 + _TABLE_STEP * _TABLE_NODES
    sg = np.exp(t)
    dl = np.asarray(grid, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sums = _sums(x, np.full(t.size, mu0), sg, np.zeros(t.size), 4)
        # Every table quantity as an (R, K) array: numpy broadcasts at twice the cost.
        sg, tk, s0, s1, s2, sw = np.tile(np.array([sg, t, *sums])[:, None], (1, dl.size, 1))
        dk = np.tile(dl[:, None], (1, t.size))
        d = np.log(n / s0)
        for _ in range(_START_ITER):
            e = np.exp(d)
            mu = mu0 + sg * d
            _, g, h = _terms(n, mu, sg, tk, dk, e * s0, e * (s1 - d * s0),
                             e * (s2 - d * (2.0 * s1 - d * s0)), sw - n * d, 0.0)
            y = _solve(h, g[:1])[0][0]
            d = d + y / sg
        # mu* and P' at the last Newton point, mu + y, to first order in y.
        mu, dmu, dp = mu + y, -h[0][1] / h[0][0], g[1] + h[0][1] * y
        # The first cell [t_k, t_k+1] where P' falls through 0; k = 0 with none.
        cell = (dp[:, :-1] > 0.0) & (dp[:, 1:] <= 0.0)
        rows, k = np.arange(dl.size), cell.argmax(axis=1)

        def ends(v):
            return v[rows, k], v[rows, k + 1]

        p0, p1 = ends(dp)
        c = _hermite(p0, p1, *ends(_TABLE_STEP * (h[1][1] + h[0][1] * dmu)))
        # The root of P''s cubic in s on [0, 1]: safeguarded Newton from the
        # secant root, bisecting where a step leaves the bracket.
        lo, hi, s = 0.0, 1.0, p0 / (p0 - p1)
        for _ in range(_CUBIC_ITER):
            v = _horner(c, s)
            lo, hi = np.where(v > 0.0, s, lo), np.where(v > 0.0, hi, s)
            s_new = s - v / (c[1] + s * (2.0 * c[2] + s * 3.0 * c[3]))
            s = np.where((s_new >= lo) & (s_new <= hi), s_new, 0.5 * (lo + hi))
        mu = _horner(_hermite(*ends(mu), *ends(_TABLE_STEP * dmu)), s)
        out = np.stack([mu, t[k] + _TABLE_STEP * s, dl], axis=1)
    out[~(cell.any(axis=1) & np.isfinite(out).all(axis=1)), :2] = mu0, t0
    return out


def _delta_grid(x: np.ndarray) -> np.ndarray:
    """Sinh-spaced delta grid in +-_GRID_REACH / s, with 0 at its centre.

    s is the robust scale of x (the standard deviation when over half the
    data tie).  The profile has structure on the scale 1/s, where 1 - delta x
    changes sign inside the data, and, for data far from the origin, on the
    finer scale 1/|median|.  So the spacing is even for |delta| below
    _GRID_KNEE / (|median| + s) and geometric beyond it.
    """
    med = _median(x)
    s = 1.4826 * _median(np.abs(x - med)) or float(x.std())
    c = math.asinh(_GRID_REACH * (abs(med) + s) / (_GRID_KNEE * s))
    u = np.arange(-_GRID_HALF, _GRID_HALF + 1) / _GRID_HALF
    return (_GRID_REACH / s) * np.sinh(c * u) / math.sinh(c)


def _median(v: np.ndarray) -> float:
    """np.median's value from one sort: np.median imports numpy.ma on its first call, about 10 ms."""
    v = np.sort(v)
    k = v.size // 2
    return float(v[k] if v.size % 2 else (v[k - 1] + v[k]) / 2.0)


def _maximum(a, b):
    """max(a, b) elementwise, for floats or arrays: numpy's costs about 1 us a call on floats."""
    return np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)


def _solve(h, g) -> tuple[list, object]:
    """The Newton ascent step: solve (a + E) y = g with a = -h.

    Uses the leading len(g) block of the symmetric h, by LDL^T
    (square-root-free Cholesky).  Each pivot d is replaced by
    max(|d|, 1e-12 |a_ii|), a diagonal E that is 0 when a is positive
    definite and not near singular.  So y is still an ascent direction and,
    along a stretch of negative curvature, steps about as far as a curvature
    of the opposite sign would; and y does not depend on the units of the
    parameters.  Elementwise: the entries of h and g are floats or arrays of
    rows alike.  Returns y and whether all pivots are > 0 (not nan, no zero
    diagonal), per row; a row of floats returns at the first pivot that is
    not, with y nan, so that `_newton` stops it as it stops an array's row.
    """
    low, d, y = [], [], []  # rows of unit-lower L, pivots, L^-1 g
    ok = True
    for i, gi in enumerate(g):
        row, li = h[i], []
        for j in range(i):
            s, lj = -row[j], low[j]
            for m in range(j):
                s = s - li[m] * lj[m] * d[m]
            li.append(s / d[j])
        s, yi = -row[i], gi
        for m in range(i):
            s = s - li[m] * li[m] * d[m]
            yi = yi - li[m] * y[m]
        d.append(_maximum(abs(s), 1e-12 * abs(row[i])))
        ok = ok & (d[i] > 0.0)
        if ok is False:
            return [math.nan] * len(g), False
        low.append(li)
        y.append(yi)
    for i in reversed(range(len(y))):
        y[i] = y[i] / d[i]
        for m in range(i + 1, len(y)):
            y[i] = y[i] - low[m][i] * y[m]
    return y, ok


def _row_step(n: int, *row) -> list:
    """One Newton point of a row: [l, gradient size, pivots ok, promised gain, step y].

    ``row`` is the row's (mu, sigma, t, delta) and `_sums`, as `_terms`
    takes them.  The gradient size is the largest gradient entry in
    (mu, t[, delta]), the mu entry times sigma; the gain is g . y.
    Elementwise: floats or arrays of rows alike.
    """
    value, g, h = _terms(n, *row)
    y, ok = _solve(h, g)
    size = abs(g[0]) * row[1]
    for gi in g[1:]:
        size = _maximum(size, abs(gi))
    return [value, size, ok, sum(map(mul, g, y)), *y]


def _newton(x: np.ndarray, starts, k: int, max_steps: int, tol: float) -> tuple[list, list, list]:
    """Maximise l by damped Newton from ``starts``, K rows of (mu, t = ln sigma, delta), in lockstep.

    With k = 2 each row's delta is held fixed, its B formed once, and the
    step is in (mu, t); with k = 3 the step moves delta too.  Each
    evaluation serves all the rows that need one: their sums from one
    `_sums` call, then `_row_step` on arrays of rows or, for at most _FEW
    rows, on floats (the bits agree).  Each row's step is halved until l
    does not fall by more than rounding.  A row stops once its gradient per
    observation, the mu part times sigma, is at most ``tol`` (with
    ``tol`` = 0, never), after a step that gains, or whose quadratic model
    promises, no more than rounding, or after ``max_steps``.  Rows never
    mix: each row's result is what it would be alone.  Returns per row
    [mu, t, delta], l there and the steps taken.
    """
    n = x.size
    floor = _ROUNDING * n
    pts = np.array(starts, dtype=float).reshape(-1, 3)
    b = None  # with k = 2, each row's B, from the first evaluation

    def evaluate(rows, pts):  # `_row_step` at the points (R, 3) of these rows, a list per row
        nonlocal b
        mu, t, dl = pts.T
        sg = np.exp(t)
        sums = _sums(x, mu, sg, dl, 7 if k == 3 else 5 if b is None else 4)
        if k == 2:
            b = sums[4] if b is None else b
            sums = [*sums[:4], b[rows]]
        cols = [mu, sg, t, dl, *sums]
        if mu.size > _FEW:
            return np.array(_row_step(n, *cols), dtype=float).T.tolist()
        return [_row_step(n, *row) for row in zip(*(c.tolist() for c in cols))]

    state = pts.tolist()
    steps = [0] * len(state)
    act, small = range(len(state)), tol * n
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cur = evaluate(act, pts)
        while act:
            todo = [r for r in act if cur[r][1] > small and cur[r][2]]  # also stops on nan
            # Halve each row's step until l falls by no more than rounding.  Every
            # row still searching was halved at each pass, so all share lam.
            act, lam = [], 1.0
            for _ in range(_LINE_SEARCH_HALVINGS):
                rows, trial, left = [], [], []
                for r in todo:
                    (mu, t, dl), y = state[r], cur[r][4:]
                    q = [mu + lam * y[0], t + lam * y[1], dl + lam * y[2] if k == 3 else dl]
                    if abs(q[1]) <= _MAX_LOG_SIGMA:
                        rows.append(r)
                        trial.append(q)
                    else:
                        left.append(r)
                for r, q, c in zip(rows, trial, evaluate(rows, np.array(trial)) if rows else ()):
                    value, gain = cur[r][0], cur[r][3]
                    if not c[0] >= value - floor:
                        left.append(r)
                        continue
                    state[r], cur[r] = q, c
                    steps[r] += 1
                    # No gain above rounding, seen or promised by the Newton model.
                    if c[0] > value and gain > 2.0 * floor and steps[r] < max_steps:
                        act.append(r)
                todo = left
                if not todo:
                    break
                lam *= 0.5
    return state, [float(c[0]) for c in cur], steps


def _params(row) -> BgParams:
    """The parameters at a row (mu, t = ln sigma, delta), with sigma = exp(t) formed as `_newton` forms it."""
    mu, t, dl = row
    return BgParams(mu, float(np.exp(t)), dl)


def _finish(x: np.ndarray, row, iters: int, fix_delta: bool) -> FitResult:
    """The fit at a row (mu, t = ln sigma, delta): t itself, since ln(exp t) need not round back to it."""
    p = _params(row)
    value, g, h = _at(x, p, row[1])
    ll = float(value)
    sc, hs = _to_sigma(g, h, p.sigma)
    if fix_delta:
        sc[2] = 0.0
    gnorm = float(np.linalg.norm(sc))
    converged = gnorm < _CONVERGENCE_FACTOR * max(1.0, abs(ll))

    obs = -hs[:2, :2] if fix_delta else -hs
    std_errors: tuple[float, float, float] | None
    try:
        cov = np.linalg.inv(obs)
        diag = np.diag(cov)
        if np.any(diag <= 0) or np.any(np.linalg.eigvalsh(obs) <= 0):
            std_errors = None
        elif fix_delta:
            std_errors = (math.sqrt(diag[0]), math.sqrt(diag[1]), 0.0)
        else:
            std_errors = tuple(math.sqrt(v) for v in diag)
    except np.linalg.LinAlgError:
        std_errors = None

    return FitResult(
        params=p,
        std_errors=std_errors,
        log_likelihood=ll,
        n_obs=int(x.size),
        converged=converged,
        iterations=iters,
        grad_norm_at_solution=gnorm,
    )


def _fit_data(data) -> np.ndarray:
    x = _as_data(data)
    if x.size < 4:
        raise InsufficientDataError(f"need at least 4 observations, got {x.size}")
    if float(x.max()) == float(x.min()):
        raise DegenerateDataError("all observations identical; scale is not estimable")
    return x


def fit_mle(data) -> FitResult:
    """Maximum-likelihood fit of the full three-parameter model.

    A profile-likelihood search in delta, which can hold several local
    maxima.  On a sinh-spaced grid of 81 delta values (``_delta_grid``) the
    profile l_p(delta) = max over (mu, sigma) of l is computed by the damped
    Newton `_newton` in (mu, ln sigma) at fixed delta, all 81 run together.
    Each grid point starts at its predicted optimum (`_starts`): G's sums at
    18 values of sigma around the moment estimate, sigma0 e^(k/8) for
    k = -12..5, taken in one pass over the data, give l at every mu and
    delta on them, and the root of the profile's slope in sigma is
    interpolated between the two values where it changes sign.  A grid
    point whose optimum lies outside that range of sigma, or whose
    prediction is not finite, starts from the Gumbel moment estimates.  At
    each fixed delta the Newton stops after 500 steps or at a gradient of
    1e-9 per observation.  The same Newton, now in (mu, ln sigma, delta),
    then polishes every local maximum of the grid together, each until a
    step gains nothing above rounding (at most 40 steps), and the highest
    maximum is returned, near ties (within 1e-8 per observation) going to
    the smaller |delta|.  The profile, all maxima and the Gumbel fit (the
    grid's delta = 0 row) are in ``diagnostics``.  A result with
    ``converged=False`` is still returned so callers can inspect the partial
    fit.
    """
    x = _fit_data(data)
    grid = _delta_grid(x)
    rows, profile, steps = _newton(x, _starts(x, grid), 2, _MAX_ITER, _TOL)
    inner = sum(steps)

    last = grid.size - 1
    peaks = [
        k for k in range(grid.size)
        if (k == 0 or profile[k] > profile[k - 1]) and (k == last or profile[k] >= profile[k + 1])
    ] or [_GRID_HALF]
    edges = [k in (0, last) for k in peaks]
    pts, lls, polish = _newton(x, [rows[k] for k in peaks], 3, _POLISH_STEPS, 0.0)

    found: list[tuple[LocalMaximum, list]] = []  # each distinct maximum with its row
    for row, ll, edge in zip(pts, lls, edges):
        p = _params(row)
        for i, (m, r) in enumerate(found):
            if _same_point(m.params, p):
                found[i] = m._replace(at_grid_edge=m.at_grid_edge and edge), r
                break
        else:
            found.append((LocalMaximum(p, ll, edge), row))
    found.sort(key=lambda f: -f[0].log_likelihood)
    maxima = [m for m, _ in found]

    top = maxima[0].log_likelihood
    best = min(
        (f for f in found if f[0].log_likelihood >= top - _TIE_TOL * x.size),
        key=lambda f: abs(f[0].params.delta),
    )
    diagnostics = FitDiagnostics(
        delta_grid=tuple(grid.tolist()),
        profile_loglik=tuple(profile),
        maxima=tuple(maxima),
        inner_steps=inner,
        weakly_identified=len(maxima) > 1 and top - maxima[1].log_likelihood < _WEAK_GAP,
        gumbel=_finish(x, rows[_GRID_HALF], steps[_GRID_HALF], fix_delta=True),  # delta = 0
    )
    return replace(_finish(x, best[1], inner + sum(polish), fix_delta=False), diagnostics=diagnostics)


def _same_point(a: BgParams, b: BgParams) -> bool:
    return all(
        abs(u - v) <= 1e-6 * max(abs(u), abs(v)) + 1e-12
        for u, v in ((a.mu, b.mu), (a.sigma, b.sigma), (a.delta, b.delta))
    )


def fit_gumbel_mle(data) -> FitResult:
    """Maximum-likelihood fit of the nested Gumbel model (delta fixed at 0).

    ``fit_mle``'s profile row at delta = 0 alone, from the same predicted
    start, so the same fit as its ``diagnostics.gumbel``.
    """
    x = _fit_data(data)
    pts, _, steps = _newton(x, _starts(x, (0.0,)), 2, _MAX_ITER, _TOL)
    return _finish(x, pts[0], steps[0], fix_delta=True)
