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
polished in all three parameters.  One damped Newton, `_newton`, serves
every fit: it runs rows in lockstep, each evaluation forming G's sums for
all its rows at once (the row kernel `_g_sums`) and the rest of each row's
step in one elementwise function (`_row_step`: ln Z, the terms as `_terms`
assembles them, and the LDL^T solve `_solve`).  It runs 2x2 at fixed delta
for the profile's grid points, whose delta = 0 row is the Gumbel fit, and
3x3 for the polish of every maximum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import mul
from typing import NamedTuple

import numpy as np

from .distribution import BgParams, _expectation
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
# Free one 1 MiB block at import.  glibc then raises its dynamic mmap
# threshold to 1 MiB and its heap trim threshold to twice that (mallopt(3)).
# At the default 128 KiB trim threshold, the heap top freed after every fit
# is given back and page-faulted in again by the next: ~1000 minor faults
# a fit on 2000 points.
np.empty(1 << 17)
# Rows up to which `_newton` evaluates row by row in Python floats, where
# numpy's cost of about 1 us a call would exceed the arithmetic.
_FEW = 8
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

    Z = 1 + (delta sigma pi)^2 / 6 + a^2 with a = delta m - 1 and
    m = mu + sigma gamma; the derivatives of ln Z are those of Z over Z.
    With k = 2 only the (mu, t) parts.  Elementwise, so it takes floats or
    arrays of rows alike.
    """
    c = _PI**2 / 3.0
    m = mu + sg * _EG
    a = dl * m - 1.0
    d2 = dl * dl
    q = dl * sg
    z = 1.0 + 0.5 * c * (q * q) + a * a
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


def _b_terms(x: np.ndarray, dl: float) -> tuple[float, float, float]:
    """B = sum ln(1 + u^2) with u = 1 - delta x, and its first two delta derivatives."""
    u = 1.0 - dl * x
    uu = u * u
    q = 1.0 / (1.0 + uu)
    return float(np.log1p(uu).sum()), -2.0 * float(x @ (u * q)), 2.0 * float((x * x) @ ((1.0 - uu) * q * q))


def _assemble(n: int, sg, t, sums, z_terms, b) -> tuple:
    """l with its gradient and Hessian in (mu, t = ln sigma[, delta]), elementwise.

    ``sums`` = (sum e, sum w e, sum w^2 e, sum w), ``z_terms`` = (ln Z, its
    gradient, its Hessian) at (mu, sigma = exp(t), delta) and ``b`` = (B,)
    with delta held fixed, or B with its two delta derivatives for the
    delta row and column as well; floats or arrays of rows alike.
    """
    s0, s1, s2, sw = sums
    lz, gz, hz = z_terms
    h_mt = (s0 - s1 - n) / sg - n * hz[0][1]
    g = [(n - s0) / sg - n * gz[0], sw - s1 - n - n * gz[1]]
    h = [[-s0 / (sg * sg) - n * hz[0][0], h_mt], [h_mt, s1 - sw - s2 - n * hz[1][1]]]
    if len(b) == 3:
        h_md, h_td = -n * hz[0][2], -n * hz[1][2]
        g.append(b[1] - n * gz[2])
        h = [[*h[0], h_md], [*h[1], h_td], [h_md, h_td, b[2] - n * hz[2][2]]]
    return b[0] - n * lz - n * t - sw - s0, g, h


def _terms(x: np.ndarray, mu: float, sg: float, dl: float) -> tuple[float, list, list]:
    """l at (mu, sigma, delta), with its gradient and Hessian in (mu, t = ln sigma, delta).

    l = B(delta) - n ln Z(mu, sigma, delta) + G(mu, sigma), with B from
    `_b_terms`, ln Z from `_log_z` and G = -n t - sum w - sum e,
    w = (x - mu)/sigma and e = exp(-w): one exp pass and the sums of w, e,
    w e and w^2 e.  sum w is added up term by term; (sum x - n mu)/sigma
    cancels far from the origin.
    """
    w = (x - mu) / sg
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(-w)
        we = w * e
        sums = float(e.sum()), float(we.sum()), float(we @ w), float(w.sum())
    z, gz, hz = _log_z(mu, sg, dl)
    return _assemble(x.size, sg, math.log(sg), sums, (math.log(z), gz, hz), _b_terms(x, dl))


def _blocks(n: int, rows: int):
    """(row, column) slices covering a rows x n array in blocks of at most _CHUNK elements."""
    r, c = max(1, _CHUNK // n), min(n, _CHUNK)
    for i in range(0, rows, r):
        for j in range(0, n, c):
            yield slice(i, i + r), slice(j, j + c)


def _g_sums(x: np.ndarray, mu: np.ndarray, sg: np.ndarray) -> np.ndarray:
    """The sums of e, w e, w^2 e and w of `_terms` for K rows of (mu, sigma), as a (4, K) array.

    It works in blocks of at most _CHUNK elements, so its temporaries stay in
    cache and its memory does not grow with K.  Overflow in e is the
    caller's to silence.
    """
    out = np.zeros((4, mu.size))
    add = np.add.reduce  # the bits of .sum(axis=1), at less overhead a call
    for r, c in _blocks(x.size, mu.size):
        w = (x[c] - mu[r, None]) / sg[r, None]
        e = np.exp(-w)
        we = w * e
        out[:, r] += (add(e, 1), add(we, 1), np.einsum("ij,ij->i", we, w), add(w, 1))
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
    expect = _expectation(p)
    ef1 = expect((1.0,), 2.0)
    ef2 = expect((1.0, 1.0), 2.0)
    ef3 = -2.0 * sg * expect((0.0, 1.0)) + sg * expect((0.0, 2.0, 1.0), 2.0)

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
    diagonal), per row.
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
        low.append(li)
        y.append(yi)
    for i in reversed(range(len(y))):
        y[i] = y[i] / d[i]
        for m in range(i + 1, len(y)):
            y[i] = y[i] - low[m][i] * y[m]
    return y, ok


def _row_step(n: int, k: int, mu, sg, t, dl, *sums_b) -> list:
    """One Newton point of a row: [l, gradient size, pivots ok, promised gain, step y].

    ``sums_b`` holds the sums of `_g_sums` and B with, when k = 3, its two
    delta derivatives.  The gradient size is the largest gradient entry in
    (mu, t[, delta]), the mu entry times sigma; the gain is g . y.
    Elementwise: floats or arrays of rows alike.
    """
    z, gz, hz = _log_z(mu, sg, dl, k)
    value, g, h = _assemble(n, sg, t, sums_b[:4], (np.log(z), gz, hz), sums_b[4:])
    y, ok = _solve(h, g)
    size = abs(g[0]) * sg
    for gi in g[1:]:
        size = _maximum(size, abs(gi))
    return [value, size, ok, sum(map(mul, g, y)), *y]


def _newton(x: np.ndarray, starts, k: int, max_steps: int, tol: float) -> tuple[list, list, list]:
    """Maximise l by damped Newton from ``starts``, K rows of (mu, t = ln sigma, delta), in lockstep.

    With k = 2 each row's delta is held fixed and its B formed once, and the
    step is in (mu, t); with k = 3 the step moves delta too, and each
    evaluation takes B with its two delta derivatives from `_b_terms`, row by
    row.  Each evaluation serves all the rows that need one: G's sums from
    the row kernel `_g_sums`, the rest from `_row_step`, on arrays of rows
    or, for at most _FEW rows, on floats (the bits agree).  Each row's step
    is halved until l does not fall by more than rounding.  A row stops once
    its gradient per observation, the mu part times sigma, is at most
    ``tol`` (with ``tol`` = 0, never), after a step that gains, or whose
    quadratic model promises, no more than rounding, or after
    ``max_steps``.  Rows never mix: each row's result is what it would be
    alone.  Returns per row [mu, t, delta], l there and the steps taken.
    """
    n = x.size
    floor = _ROUNDING * n
    pts = np.array(starts, dtype=float).reshape(-1, 3)
    if k == 2:  # B once per row, in blocks as in `_g_sums`
        b = np.zeros(len(pts))
        for r, c in _blocks(n, b.size):
            u = 1.0 - pts[r, 2, None] * x[c]
            b[r] += np.log1p(u * u).sum(axis=1)

    def evaluate(rows, pts):  # `_row_step` at the points (R, 3) of these rows, a list per row
        mu, t, dl = pts.T
        sg = np.exp(t)
        b_r = b[rows, None] if k == 2 else np.array([_b_terms(x, d) for d in dl.tolist()])
        cols = [mu, sg, t, dl, *_g_sums(x, mu, sg), *b_r.T]
        if mu.size > _FEW:
            return np.array(_row_step(n, k, *cols), dtype=float).T.tolist()
        return [_row_step(n, k, *row) for row in zip(*(c.tolist() for c in cols))]

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


def fit_mle(data) -> FitResult:
    """Maximum-likelihood fit of the full three-parameter model.

    A profile-likelihood search in delta, which can hold several local
    maxima.  On a sinh-spaced grid of 81 delta values (``_delta_grid``) the
    profile l_p(delta) = max over (mu, sigma) of l is computed by the damped
    Newton `_newton` in (mu, ln sigma) at fixed delta, every grid point
    started from the Gumbel moment estimates and all 81 run together.  At
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
    mu0, sg0 = _gumbel_moment_init(x)
    starts = [(mu0, math.log(sg0), dl) for dl in grid.tolist()]
    rows, profile, steps = _newton(x, starts, 2, _MAX_ITER, _TOL)
    inner = sum(steps)

    last = grid.size - 1
    peaks = [
        k for k in range(grid.size)
        if (k == 0 or profile[k] > profile[k - 1]) and (k == last or profile[k] >= profile[k + 1])
    ] or [_GRID_HALF]
    edges = [k in (0, last) for k in peaks]
    pts, _, polish = _newton(x, [rows[k] for k in peaks], 3, _POLISH_STEPS, 0.0)

    maxima: list[LocalMaximum] = []
    for (mu, t, dl), edge in zip(pts, edges):
        p = BgParams(mu, math.exp(t), dl)
        for i, m in enumerate(maxima):
            if _same_point(m.params, p):
                maxima[i] = m._replace(at_grid_edge=m.at_grid_edge and edge)
                break
        else:
            # l from `_terms`, as `_finish` takes it, so the fit's l is the top maximum's.
            maxima.append(LocalMaximum(p, _terms(x, mu, p.sigma, dl)[0], edge))
    maxima.sort(key=lambda m: -m.log_likelihood)

    top = maxima[0].log_likelihood
    best = min(
        (m for m in maxima if m.log_likelihood >= top - _TIE_TOL * x.size),
        key=lambda m: abs(m.params.delta),
    )
    mu, t, _ = rows[_GRID_HALF]  # delta = 0: the Gumbel fit
    diagnostics = FitDiagnostics(
        delta_grid=tuple(grid.tolist()),
        profile_loglik=tuple(profile),
        maxima=tuple(maxima),
        inner_steps=inner,
        weakly_identified=len(maxima) > 1 and top - maxima[1].log_likelihood < _WEAK_GAP,
        gumbel=_finish(BgParams(mu, math.exp(t), 0.0), x, steps[_GRID_HALF], fix_delta=True),
    )
    return replace(_finish(best.params, x, inner + sum(polish), fix_delta=False), diagnostics=diagnostics)


def _same_point(a: BgParams, b: BgParams) -> bool:
    return all(
        abs(u - v) <= 1e-6 * max(abs(u), abs(v)) + 1e-12
        for u, v in ((a.mu, b.mu), (a.sigma, b.sigma), (a.delta, b.delta))
    )


def fit_gumbel_mle(data) -> FitResult:
    """Maximum-likelihood fit of the nested Gumbel model (delta fixed at 0).

    ``fit_mle``'s profile row at delta = 0 alone, the same fit as its
    ``diagnostics.gumbel``.
    """
    x = _fit_data(data)
    mu, sg = _gumbel_moment_init(x)
    pts, _, steps = _newton(x, [(mu, math.log(sg), 0.0)], 2, _MAX_ITER, _TOL)
    mu, t, _ = pts[0]
    return _finish(BgParams(mu, math.exp(t), 0.0), x, steps[0], fix_delta=True)
