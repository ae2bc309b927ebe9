"""Maximum-likelihood estimation of (mu, sigma, delta).

The log likelihood of observations x_1..x_n is

    l = B(delta) - n ln Z(mu, sigma, delta) + G(mu, sigma),
    B = sum_i ln[(1 - delta x_i)^2 + 1],   G = -n ln sigma - sum_i { w_i + exp(-w_i) },

with w_i = (x_i - mu)/sigma and Z the closed-form weight normalizer.  One
kernel (`_terms`) gives l with its gradient and Hessian in
(mu, ln sigma, delta) from one pass for G, one for B and the closed-form
derivatives of ln Z; `log_likelihood`, `score`, `hessian` and the ln Z block
of `fisher_information` are thin wrappers over it, and every derivative is
validated against finite differences in the test suite.

delta enters l only through B, which holds no (mu, sigma), and through ln Z.
So the fit is a profile-likelihood search: the profile
l_p(delta) = max over (mu, sigma) of l is computed on a grid of delta, and
each local maximum of the grid (the likelihood can hold several in delta) is
polished in all three parameters.  The profile runs one 2x2 damped Newton
per grid point, all in lockstep on arrays of rows (`_profile`, with G's sums
from the row kernel `_g_sums`); the polish runs the scalar damped Newton
`_newton` in 3x3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import mul
from typing import NamedTuple

import numpy as np

from .distribution import BgParams, _expect
from .errors import DegenerateDataError, InsufficientDataError
from .special import CONSTANTS

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
# Elements per block of the row kernel `_g_sums`: 81 x n temporaries of a
# large sample leave the cache, and fresh large arrays cost page faults.
_CHUNK = 1 << 14
# E[F4] of fisher_information (`_f4_integral`): 24-point Gauss-Legendre
# panels in s = ln V on [-45, 6.8], split at fixed breaks and at s0 +- 2^j h,
# j = -2..5, around the poles s0 +- i h of 1 / (1 + u^2).
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_PANEL_BREAKS = (-45.0, -30.0, -18.0, -10.0, -5.0, -2.0, 0.0, 1.5, 3.0, 4.5, 6.8)
_POLE_CUTS = 2.0 ** np.arange(-2, 6)


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
    ``inner_steps`` counts the 2x2 Newton steps of the profile, summed over
    the grid points (and the ``init`` start, when given).
    ``weakly_identified`` is set when the top two maxima differ by less than
    chi2_1(0.95) / 2 ~ 1.92 in log likelihood.
    """

    delta_grid: tuple[float, ...]
    profile_loglik: tuple[float, ...]
    maxima: tuple[LocalMaximum, ...]
    inner_steps: int
    weakly_identified: bool


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


def _log_z(mu, sg, dl) -> tuple:
    """Z with the gradient and Hessian of ln Z in (mu, t = ln sigma, delta).

    Z = 1 + (delta sigma pi)^2 / 6 + a^2 with a = delta m - 1 and
    m = mu + sigma gamma; the derivatives of ln Z are those of Z over Z.
    Elementwise, so it takes floats or arrays of rows alike.
    """
    c = _PI**2 / 3.0
    m = mu + sg * _EG
    a = dl * m - 1.0
    d2 = dl * dl
    z = 1.0 + 0.5 * c * (dl * sg) ** 2 + a * a
    z_t = sg * (d2 * sg * c + 2.0 * dl * _EG * a)
    g0, g1, g2 = 2.0 * dl * a / z, z_t / z, (dl * sg * sg * c + 2.0 * m * a) / z
    h01 = 2.0 * d2 * _EG * sg / z - g0 * g1
    h02 = (4.0 * dl * m - 2.0) / z - g0 * g2
    h12 = sg * (2.0 * dl * sg * c + 4.0 * dl * _EG * m - 2.0 * _EG) / z - g1 * g2
    return z, (g0, g1, g2), (
        (2.0 * d2 / z - g0 * g0, h01, h02),
        (h01, (z_t + d2 * sg * sg * (c + 2.0 * _EG**2)) / z - g1 * g1, h12),
        (h02, h12, (sg * sg * c + 2.0 * m * m) / z - g2 * g2),
    )


def _to_sigma(g, h, sg: float) -> tuple[np.ndarray, np.ndarray]:
    """A gradient and Hessian in (mu, t = ln sigma, delta), taken to (mu, sigma, delta)."""
    j = np.array([1.0, 1.0 / sg, 1.0])
    grad = np.array(g) * j
    hess = np.array(h) * np.outer(j, j)
    hess[1, 1] -= grad[1] / sg
    return grad, hess


def _z_first_derivs(p: BgParams) -> tuple[float, float, float]:
    """dZ/dmu, dZ/dsigma, dZ/ddelta."""
    z, g, h = _log_z(p.mu, p.sigma, p.delta)
    return tuple(z * _to_sigma(g, h, p.sigma)[0])


def _b_terms(x: np.ndarray, dl: float, derivs: bool = True) -> tuple[float, float, float]:
    """B = sum ln(1 + u^2) with u = 1 - delta x, and its first two delta derivatives.

    With ``derivs`` False, for a fixed delta, the derivatives are nan.
    """
    u = 1.0 - dl * x
    uu = u * u
    bv = float(np.log1p(uu).sum())
    if not derivs:
        return bv, math.nan, math.nan
    q = 1.0 / (1.0 + uu)
    return bv, -2.0 * float(x @ (u * q)), 2.0 * float((x * x) @ ((1.0 - uu) * q * q))


def _mu_t_terms(n: int, sg, t, sums, z_terms, bv) -> tuple:
    """l with its gradient and Hessian in (mu, t = ln sigma), elementwise.

    ``sums`` = (sum e, sum w e, sum w^2 e, sum w), ``z_terms`` = (ln Z, its
    gradient, its Hessian) at (mu, sigma = exp(t)) and ``bv`` = B; floats or
    arrays of rows alike.
    """
    s0, s1, s2, sw = sums
    lz, (g0, g1, _), ((h00, h01, _), (_, h11, _), _) = z_terms
    h_mt = (s0 - s1 - n) / sg - n * h01
    return (
        bv - n * lz - n * t - sw - s0,
        ((n - s0) / sg - n * g0, sw - s1 - n - n * g1),
        ((-s0 / (sg * sg) - n * h00, h_mt), (h_mt, s1 - sw - s2 - n * h11)),
    )


def _terms(
    x: np.ndarray, mu: float, sg: float, dl: float, b: tuple[float, float, float] | None = None
) -> tuple[float, tuple, tuple]:
    """l at (mu, sigma, delta), with its gradient and Hessian in (mu, t = ln sigma, delta).

    l = B(delta) - n ln Z(mu, sigma, delta) + G(mu, sigma), with B from
    `_b_terms` (or ``b``, when the caller holds it for a fixed delta), ln Z
    from `_log_z` and G = -n t - sum w - sum e, w = (x - mu)/sigma and
    e = exp(-w): one exp pass and the sums of w, e, w e and w^2 e.  sum w is
    added up term by term; (sum x - n mu)/sigma cancels far from the origin.
    """
    n = x.size
    w = (x - mu) / sg
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(-w)
        we = w * e
        sums = float(e.sum()), float(we.sum()), float(we @ w), float(w.sum())
    bv, b1, b2 = _b_terms(x, dl) if b is None else b
    z, gz, hz = _log_z(mu, sg, dl)
    value, (g0, g1), ((h00, h_mt), (_, h11)) = _mu_t_terms(
        n, sg, math.log(sg), sums, (math.log(z), gz, hz), bv
    )
    h_md, h_td = -n * hz[0][2], -n * hz[1][2]
    return (
        value,
        (g0, g1, b1 - n * gz[2]),
        ((h00, h_mt, h_md), (h_mt, h11, h_td), (h_md, h_td, b2 - n * hz[2][2])),
    )


def _blocks(n: int, rows: int):
    """(row, column) slices covering a rows x n array in blocks of at most _CHUNK elements."""
    r, c = max(1, _CHUNK // n), min(n, _CHUNK)
    for i in range(0, rows, r):
        for j in range(0, n, c):
            yield slice(i, i + r), slice(j, j + c)


def _g_sums(x: np.ndarray, mu: np.ndarray, sg: np.ndarray) -> np.ndarray:
    """The sums of e, w e, w^2 e and w of `_terms` for K rows of (mu, sigma), as a (4, K) array.

    It works in blocks of at most _CHUNK elements, so its temporaries stay in
    cache and its memory does not grow with K.
    """
    n = x.size
    out = np.zeros((4, mu.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for r, c in _blocks(n, mu.size):
            w = (x[c] - mu[r, None]) / sg[r, None]
            e = np.exp(-w)
            we = w * e
            out[:, r] += (e.sum(axis=1), we.sum(axis=1), np.einsum("ij,ij->i", we, w), w.sum(axis=1))
    return out


def log_likelihood(p: BgParams, data) -> float:
    """Log likelihood; identical to summing the log density over the data."""
    return _terms(_as_data(data), p.mu, p.sigma, p.delta)[0]


def score(p: BgParams, data) -> np.ndarray:
    """Analytic gradient of the log likelihood, ordered (mu, sigma, delta)."""
    _, g, h = _terms(_as_data(data), p.mu, p.sigma, p.delta)
    return _to_sigma(g, h, p.sigma)[0]


def hessian(p: BgParams, data) -> np.ndarray:
    """Analytic Hessian of the log likelihood (symmetric 3x3)."""
    _, g, h = _terms(_as_data(data), p.mu, p.sigma, p.delta)
    return _to_sigma(g, h, p.sigma)[1]


def fisher_information(p: BgParams) -> np.ndarray:
    """Per-observation Fisher information matrix E[-d2 ln f / dtheta dtheta'].

    With W = (X - mu)/sigma = -ln V, the exponential-weight expectations

        E[F1] = E[exp(-W)]                     = E[V],
        E[F2] = E[(1 - W) exp(-W)]             = E[(1 + ln V) V],
        E[F3] = E[(X - mu)(2 - (2 - W) exp(-W))]
              = -2 sigma E[ln V] + sigma E[(2 ln V + ln^2 V) V]

    are log-polynomial expectations at a = 2 (and a = 1), with no exp(mu)
    factor, so they hold for any |mu| / sigma.  The delta-block expectation
    E[F4] = E[X^2 (u^2 - 1) / (u^2 + 1)^2] with u = 1 - delta X has no closed
    form; `_f4_integral` integrates it by a fixed rule.
    """
    mu, sg, dl = p.mu, p.sigma, p.delta
    ef1 = _expect(p, (1.0,), 2.0)
    ef2 = _expect(p, (1.0, 1.0), 2.0)
    ef3 = -2.0 * sg * _expect(p, (0.0, 1.0)) + sg * _expect(p, (0.0, 2.0, 1.0), 2.0)

    z, g, h = _log_z(mu, sg, dl)
    ef4 = _f4_integral(mu, sg, dl) / z

    info = _to_sigma(g, h, sg)[1]  # the Hessian of ln Z
    info[:2, :2] += np.array([[ef1, 1.0 - ef2], [1.0 - ef2, ef3 / sg - 1.0]]) / sg**2
    info[2, 2] += 2.0 * ef4
    return info


def _f4_integral(mu: float, sg: float, dl: float) -> float:
    """Z E[F4]: the integral of x^2 (u^2 - 1) / (u^2 + 1) e^(s - e^s) over s = ln v.

    Here x = mu - sigma s and u = 1 - delta x, so the density's weight
    1 + u^2 cancels one factor of (1 + u^2)^2, and u^2 - 1 is written as
    -delta x (2 - delta x), which does not cancel for small delta.  The
    integrand is analytic but for the poles s0 +- i h, s0 = (mu - 1/delta) /
    sigma and h = 1/|delta sigma|, where u = -+i; the panels are graded
    geometrically towards s0, so near the poles no panel is wider than its
    distance from them.  Below s = -45 and above s = 6.8 the Gumbel factor is
    under 3e-20.
    """
    breaks = np.array(_PANEL_BREAKS)
    q = abs(dl * sg)  # 1/h; poles further out leave every panel smooth
    if q > 1e-6:
        cuts = (mu - 1.0 / dl) / sg + np.concatenate([-_POLE_CUTS, _POLE_CUTS]) / q
        breaks = np.union1d(breaks, cuts[(cuts > breaks[0]) & (cuts < breaks[-1])])
    half = 0.5 * np.diff(breaks)[:, None]
    s = breaks[:-1, None] + half * (1.0 + _GL_NODES)
    x = mu - sg * s
    dx = dl * x
    f = x * x * dx * (dx - 2.0) / ((1.0 - dx) ** 2 + 1.0) * np.exp(s - np.exp(s))
    return float((half * _GL_WEIGHTS * f).sum())


# ----------------------------------------------------------------------
# Fitting
# ----------------------------------------------------------------------

def _gumbel_moment_init(x: np.ndarray) -> tuple[float, float]:
    s = float(x.std(ddof=1))
    sg0 = s * math.sqrt(6.0) / _PI
    mu0 = float(x.mean()) - _EG * sg0
    return mu0, sg0


def _delta_grid(x: np.ndarray) -> np.ndarray:
    """Sinh-spaced delta grid in +-_GRID_REACH / s, with 0 at its centre.

    s is the robust scale of x (the standard deviation when over half the
    data tie).  The profile has structure on the scale 1/s, where 1 - delta x
    changes sign inside the data, and, for data far from the origin, on the
    finer scale 1/|median|.  So the spacing is even for |delta| below
    _GRID_KNEE / (|median| + s) and geometric beyond it.
    """
    med = float(np.median(x))
    s = 1.4826 * float(np.median(np.abs(x - med))) or float(x.std())
    c = math.asinh(_GRID_REACH * (abs(med) + s) / (_GRID_KNEE * s))
    u = np.arange(-_GRID_HALF, _GRID_HALF + 1) / _GRID_HALF
    return (_GRID_REACH / s) * np.sinh(c * u) / math.sinh(c)


def _solve(h, g: list[float]) -> list[float] | None:
    """The Newton ascent step: solve (a + E) y = g with a = -h, in plain floats.

    Uses the leading len(g) block of the symmetric h, by LDL^T
    (square-root-free Cholesky).  Each pivot d is replaced by
    max(|d|, 1e-12 a_ii), a diagonal E that is 0 when a is positive definite
    and not near singular.  So y is still an ascent direction and, along a
    stretch of negative curvature, steps about as far as a curvature of the
    opposite sign would; and y does not depend on the units of the
    parameters.  None when h holds nan.
    """
    low, d, y = [], [], []  # rows of unit-lower L, pivots, L^-1 g
    for i, gi in enumerate(g):
        row, li = h[i], []
        for j in range(i):
            s, lj = -row[j], low[j]
            for m in range(j):
                s -= li[m] * lj[m] * d[m]
            li.append(s / d[j])
        s, yi = -row[i], gi
        for m in range(i):
            s -= li[m] * li[m] * d[m]
            yi -= li[m] * y[m]
        d.append(max(abs(s), 1e-12 * abs(row[i])))
        if not d[i] > 0.0:  # nan, or a zero diagonal
            return None
        low.append(li)
        y.append(yi)
    for i in reversed(range(len(y))):
        y[i] /= d[i]
        for m in range(i + 1, len(y)):
            y[i] -= low[m][i] * y[m]
    return y


def _newton(
    x: np.ndarray, mu: float, sg: float, dl: float, max_steps: int, tol: float,
    b: tuple[float, float, float] | None = None,
) -> tuple[float, float, float, tuple, int]:
    """Maximise l by damped Newton in (mu, t = ln sigma, delta) from (mu, sigma, delta).

    With ``b`` = `_b_terms`(x, delta, False) given, delta and B are held
    fixed and the step is 2x2.  Each step takes one `_terms` call and one
    `_solve`; the step is halved until l does not fall by more than
    rounding.  Stops once the gradient per observation, its mu part times
    sigma, is at most ``tol`` (with ``tol`` = 0, never), after a step that
    gains, or whose quadratic model promises, no more than rounding, or
    after ``max_steps``.
    Returns (mu, sigma, delta), the `_terms` there and the steps taken.
    """
    n = x.size
    k = 2 if b is not None else 3
    terms = _terms(x, mu, sg, dl, b)
    steps = 0
    while steps < max_steps:
        value, g, h = terms
        g = g[:k]
        if not max(abs(g[0]) * sg, *map(abs, g[1:])) > tol * n:  # also stops on nan
            break
        y = _solve(h, g)
        if y is None:
            break
        d_m, d_t, d_d = y[0], y[1], (y[2] if k == 3 else 0.0)
        t, lam = math.log(sg), 1.0
        for _ in range(_LINE_SEARCH_HALVINGS):
            t_c = t + lam * d_t
            if abs(t_c) <= _MAX_LOG_SIGMA:
                trial = (mu + lam * d_m, math.exp(t_c), dl + lam * d_d)
                cand = _terms(x, *trial, b)
                if cand[0] >= value - _ROUNDING * n:
                    break
            lam *= 0.5
        else:
            break
        (mu, sg, dl), terms = trial, cand
        steps += 1
        # No gain above rounding, seen or promised by the Newton model.
        if cand[0] <= value or sum(map(mul, g, y)) <= 2.0 * _ROUNDING * n:
            break
    return mu, sg, dl, terms, steps


def _profile(x: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """l_p at each delta of ``grid``, by the 2x2 Newton of `_newton` run on every row at once.

    Every row starts cold from the Gumbel moment estimates; an iteration
    evaluates only the rows not yet stopped, with G's sums from the row
    kernel `_g_sums` and ln Z from `_log_z` on arrays.  The pivots, the
    stopping tests and the line search are those of `_solve` and `_newton`.
    Returns mu, sigma and l_p per row, and the Newton steps summed over rows.
    """
    n, rows = x.size, grid.size
    b = np.zeros(rows)
    for r, c in _blocks(n, rows):
        u = 1.0 - grid[r, None] * x[c]
        b[r] += np.log1p(u * u).sum(axis=1)

    def terms(k, mu, t):  # rows: l, its gradient in (mu, t), h_mm, h_mt, h_tt
        sg = np.exp(t)
        z, gz, hz = _log_z(mu, sg, grid[k])
        value, g, ((h00, h01), (_, h11)) = _mu_t_terms(n, sg, t, _g_sums(x, mu, sg), (np.log(z), gz, hz), b[k])
        return np.array([value, *g, h00, h01, h11])

    mu0, sg0 = _gumbel_moment_init(x)
    mu, t = np.full(rows, mu0), np.full(rows, math.log(sg0))
    steps = np.zeros(rows, dtype=int)
    act = np.arange(rows)
    floor = _ROUNDING * n
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cur = terms(act, mu, t)
        while act.size:
            value, g0, g1, h00, h01, h11 = cur[:, act]
            # _solve's LDL^T with pivots max(|d|, 1e-12 |h_ii|), then the gradient test.
            d0 = np.abs(h00)
            lo = -h01 / d0
            d1 = np.maximum(np.abs(-h11 - lo * lo * d0), 1e-12 * np.abs(h11))
            d_t = (g1 - lo * g0) / d1
            d_m = g0 / d0 - lo * d_t
            go = (np.maximum(np.abs(g0) * np.exp(t[act]), np.abs(g1)) > _TOL * n) & (d0 > 0.0) & (d1 > 0.0)
            act, value, d_m, d_t = act[go], value[go], d_m[go], d_t[go]
            gain = g0[go] * d_m + g1[go] * d_t
            # Halve each row's step until l falls by no more than rounding.
            lam, todo, new = np.ones(act.size), np.ones(act.size, dtype=bool), np.empty((6, act.size))
            for _ in range(_LINE_SEARCH_HALVINGS):
                t_c = t[act] + lam * d_t
                i = np.flatnonzero(todo & (np.abs(t_c) <= _MAX_LOG_SIGMA))
                if i.size:
                    new[:, i] = terms(act[i], mu[act[i]] + lam[i] * d_m[i], t_c[i])
                    todo[i] = ~(new[0, i] >= value[i] - floor)
                if not todo.any():
                    break
                lam[todo] *= 0.5
            done = ~todo
            act, new = act[done], new[:, done]
            mu[act] += lam[done] * d_m[done]
            t[act] += lam[done] * d_t[done]
            cur[:, act] = new
            steps[act] += 1
            # No gain above rounding, seen or promised by the Newton model.
            act = act[(new[0] > value[done]) & (gain[done] > 2.0 * floor) & (steps[act] < _MAX_ITER)]
    return mu, np.exp(t), cur[0], int(steps.sum())


def _finish(p: BgParams, x: np.ndarray, iters: int, fix_delta: bool) -> FitResult:
    ll, g, h = _terms(x, p.mu, p.sigma, p.delta)
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


def fit_mle(data, init: BgParams | None = None) -> FitResult:
    """Maximum-likelihood fit of the full three-parameter model.

    A profile-likelihood search in delta, which can hold several local
    maxima.  On a sinh-spaced grid of 81 delta values (``_delta_grid``) the
    profile l_p(delta) = max over (mu, sigma) of l is computed by the damped
    Newton in (mu, ln sigma) at fixed delta, every grid point started from
    the Gumbel moment estimates and all 81 run together (`_profile`);
    ``init``, when given, is one more start at its own delta.  The damped
    Newton `_newton`, now in (mu, ln sigma, delta), polishes every local
    maximum of the grid until a step gains nothing above rounding (at most
    40 steps), and the highest maximum is returned, near ties (within 1e-8
    per observation) going to the smaller |delta|.  At each fixed delta the
    Newton stops after 500 steps or at a gradient of 1e-9 per observation.
    The profile and all maxima are in ``diagnostics``.  A result with
    ``converged=False`` is still returned so callers can inspect the partial
    fit.
    """
    x = _fit_data(data)
    grid = _delta_grid(x)
    mus, sgs, prof, inner = _profile(x, grid)
    grid, profile = grid.tolist(), prof.tolist()
    sol = list(zip(mus.tolist(), sgs.tolist()))
    mid, last = len(grid) // 2, len(grid) - 1

    peaks = [
        k for k in range(len(grid))
        if (k == 0 or profile[k] > profile[k - 1]) and (k == last or profile[k] >= profile[k + 1])
    ] or [mid]
    starts = [(*sol[k], grid[k], k in (0, last)) for k in peaks]
    if init is not None:
        mu, sg, dl, _, steps = _newton(
            x, init.mu, init.sigma, init.delta, _MAX_ITER, _TOL, _b_terms(x, init.delta, False)
        )
        inner += steps
        starts.append((mu, sg, dl, False))

    total = inner
    maxima: list[LocalMaximum] = []
    for mu, sg, dl, edge in starts:
        mu, sg, dl, terms, steps = _newton(x, mu, sg, dl, _POLISH_STEPS, 0.0)
        total += steps
        p = BgParams(mu, sg, dl)
        for i, m in enumerate(maxima):
            if _same_point(m.params, p):
                maxima[i] = m._replace(at_grid_edge=m.at_grid_edge and edge)
                break
        else:
            maxima.append(LocalMaximum(p, terms[0], edge))
    maxima.sort(key=lambda m: -m.log_likelihood)

    top = maxima[0].log_likelihood
    best = min(
        (m for m in maxima if m.log_likelihood >= top - _TIE_TOL * x.size),
        key=lambda m: abs(m.params.delta),
    )
    diagnostics = FitDiagnostics(
        delta_grid=tuple(grid),
        profile_loglik=tuple(profile),
        maxima=tuple(maxima),
        inner_steps=inner,
        weakly_identified=len(maxima) > 1 and top - maxima[1].log_likelihood < _WEAK_GAP,
    )
    return replace(_finish(best.params, x, total, fix_delta=False), diagnostics=diagnostics)


def _same_point(a: BgParams, b: BgParams) -> bool:
    return all(
        abs(u - v) <= 1e-6 * max(abs(u), abs(v)) + 1e-12
        for u, v in ((a.mu, b.mu), (a.sigma, b.sigma), (a.delta, b.delta))
    )


def fit_gumbel_mle(data) -> FitResult:
    """Maximum-likelihood fit of the nested Gumbel model (delta fixed at 0).

    The fixed-delta Newton of ``fit_mle``'s profile at delta = 0, from the
    moment estimates.
    """
    x = _fit_data(data)
    mu, sg = _gumbel_moment_init(x)
    mu, sg, _, _, steps = _newton(x, mu, sg, 0.0, _MAX_ITER, _TOL, _b_terms(x, 0.0, False))
    return _finish(BgParams(mu, sg, 0.0), x, steps, fix_delta=True)
