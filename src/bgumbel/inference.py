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
polished in all three parameters.  Both use one damped Newton (`_newton`),
2x2 with delta and B held fixed, 3x3 otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import mul
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

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
# Newton steps of the 3-D polish of each maximum; from a grid end the polish
# can drift out in delta, where the profile flattens.
_POLISH_STEPS = 40
# Two maxima closer than chi2_1(0.95) / 2 in log likelihood leave delta weakly identified.
_WEAK_GAP = 0.5 * 3.841458820694124
# Adaptive quadrature of the E[F4] term of fisher_information.
_F4_ABS_TOL, _F4_REL_TOL, _F4_LIMIT = 1e-12, 1e-10, 200


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
    ``inner_steps`` counts the 2x2 Newton steps of the profile.
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


def _log_z(mu: float, sg: float, dl: float) -> tuple[float, tuple, tuple]:
    """ln Z with its gradient and Hessian in (mu, t = ln sigma, delta).

    Z = 1 + (delta sigma pi)^2 / 6 + a^2 with a = delta m - 1 and
    m = mu + sigma gamma; the derivatives of ln Z are those of Z over Z.
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
    return math.log(z), (g0, g1, g2), (
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
    lz, g, h = _log_z(p.mu, p.sigma, p.delta)
    return tuple(math.exp(lz) * _to_sigma(g, h, p.sigma)[0])


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
        s0, s1, s2 = float(e.sum()), float(we.sum()), float(we @ w)
    sw = float(w.sum())
    bv, b1, b2 = _b_terms(x, dl) if b is None else b
    lz, (g0, g1, g2), ((h00, h01, h02), (_, h11, h12), (_, _, h22)) = _log_z(mu, sg, dl)
    h_mt = (s0 - s1 - n) / sg - n * h01
    h_md, h_td = -n * h02, -n * h12
    return (
        bv - n * lz - n * math.log(sg) - sw - s0,
        ((n - s0) / sg - n * g0, sw - s1 - n - n * g1, b1 - n * g2),
        (
            (-s0 / (sg * sg) - n * h00, h_mt, h_md),
            (h_mt, s1 - sw - s2 - n * h11, h_td),
            (h_md, h_td, b2 - n * h22),
        ),
    )


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
    E[F4] has no closed form and is integrated numerically.
    """
    mu, sg, dl = p.mu, p.sigma, p.delta
    ef1 = _expect(p, (1.0,), 2.0)
    ef2 = _expect(p, (1.0, 1.0), 2.0)
    ef3 = -2.0 * sg * _expect(p, (0.0, 1.0)) + sg * _expect(p, (0.0, 2.0, 1.0), 2.0)

    lz, g, h = _log_z(mu, sg, dl)
    log_norm = math.log(sg) + lz

    def f4_density(x: float) -> float:
        w = (x - mu) / sg
        u = 1.0 - dl * x
        uu = u * u
        return x * x * (uu - 1.0) / (uu + 1.0) ** 2 * math.exp(
            math.log1p(uu) - w - math.exp(-w) - log_norm
        )

    lo, hi = mu - 40.0 * sg, mu + 250.0 * sg
    res = quad(
        f4_density,
        lo,
        hi,
        epsabs=_F4_ABS_TOL,
        epsrel=_F4_REL_TOL,
        limit=_F4_LIMIT,
        points=[mu - 2.0 * sg, mu, mu + 4.0 * sg] + ([1.0 / dl] if dl != 0 and lo < 1.0 / dl < hi else []),
    )
    ef4 = res[0]

    info = _to_sigma(g, h, sg)[1]  # the Hessian of ln Z
    info[:2, :2] += np.array([[ef1, 1.0 - ef2], [1.0 - ef2, ef3 / sg - 1.0]]) / sg**2
    info[2, 2] += 2.0 * ef4
    return info


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


def fit_mle(
    data,
    init: BgParams | None = None,
    max_iter: int = 500,
    tol: float = 1e-9,
) -> FitResult:
    """Maximum-likelihood fit of the full three-parameter model.

    A profile-likelihood search in delta, which can hold several local
    maxima.  On a sinh-spaced grid of 81 delta values (``_delta_grid``) the
    profile l_p(delta) = max over (mu, sigma) of l is computed by the damped
    Newton `_newton` in (mu, ln sigma) at fixed delta, walking out from
    delta = 0 both ways and warm-starting each point from its neighbour;
    ``init``, when given, is one more start at its own delta.  The same
    Newton, now in (mu, ln sigma, delta), polishes every local maximum of the
    grid until a step gains nothing above rounding (at most 40 steps), and
    the highest maximum is returned, near ties (within 1e-8 per observation)
    going to the smaller |delta|.  ``max_iter`` caps the Newton steps at each fixed
    delta and ``tol`` is their gradient tolerance per observation.  The
    profile and all maxima are in ``diagnostics``.  A result with
    ``converged=False`` is still returned so callers can inspect the partial
    fit.
    """
    x = _fit_data(data)
    grid = _delta_grid(x).tolist()
    mid, last = len(grid) // 2, len(grid) - 1
    sol = [(0.0, 0.0)] * len(grid)
    profile = [0.0] * len(grid)

    def solve(k: int, mu: float, sg: float) -> int:
        b = _b_terms(x, grid[k], False)
        mu, sg, _, terms, steps = _newton(x, mu, sg, grid[k], max_iter, tol, b)
        sol[k], profile[k] = (mu, sg), terms[0]
        return steps

    inner = solve(mid, *_gumbel_moment_init(x))
    for k in range(mid + 1, len(grid)):
        inner += solve(k, *sol[k - 1])
    for k in range(mid - 1, -1, -1):
        inner += solve(k, *sol[k + 1])

    peaks = [
        k for k in range(len(grid))
        if (k == 0 or profile[k] > profile[k - 1]) and (k == last or profile[k] >= profile[k + 1])
    ] or [mid]
    starts = [(*sol[k], grid[k], k in (0, last)) for k in peaks]
    if init is not None:
        mu, sg, dl, _, steps = _newton(
            x, init.mu, init.sigma, init.delta, max_iter, tol, _b_terms(x, init.delta, False)
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


def fit_gumbel_mle(
    data,
    init: BgParams | None = None,
    max_iter: int = 500,
    tol: float = 1e-9,
) -> FitResult:
    """Maximum-likelihood fit of the nested Gumbel model (delta fixed at 0).

    The fixed-delta Newton of ``fit_mle``'s profile at delta = 0, from the
    moment estimates or from ``init``; ``max_iter`` and ``tol`` are as there.
    """
    x = _fit_data(data)
    mu, sg = _gumbel_moment_init(x) if init is None else (init.mu, init.sigma)
    mu, sg, _, _, steps = _newton(x, mu, sg, 0.0, max_iter, tol, _b_terms(x, 0.0, False))
    return _finish(BgParams(mu, sg, 0.0), x, steps, fix_delta=True)
