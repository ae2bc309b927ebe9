"""Maximum-likelihood estimation of (mu, sigma, delta).

The log likelihood of observations x_1..x_n is

    l = -n ln Z - n ln sigma
        + sum_i { ln[(1 - delta x_i)^2 + 1] - w_i - exp(-w_i) },   w_i = (x_i - mu)/sigma,

with Z the weight normalizer.  Score, Hessian and Fisher information are
implemented analytically; every derivative here is validated against finite
differences in the test suite.

delta enters l only through sum_i ln[(1 - delta x_i)^2 + 1], which holds no
(mu, sigma), and through the closed-form -n ln Z.  So the fit is a
profile-likelihood search: the profile l_p(delta) = max over (mu, sigma) of
l is computed on a grid of delta by a 2x2 Newton in (mu, ln sigma), one exp
pass and three sums a step, and each local maximum of the grid (the
likelihood can hold several in delta) is polished by a guarded 3-D Newton in
the original parametrization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from .distribution import BgParams, _expect, normalizer
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
# 2x2 Newton: step halvings before giving up, the |ln sigma| it may reach, and
# the fall in its objective per observation taken as rounding: near the
# optimum a step gains less than the rounding of terms such as sum w.
_LINE_SEARCH_HALVINGS, _MAX_LOG_SIGMA, _ROUNDING = 20, 300.0, 1e-12
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


def _z_first_derivs(p: BgParams) -> tuple[float, float, float]:
    mu, sg, dl = p.mu, p.sigma, p.delta
    a = dl * (mu + sg * _EG) - 1.0
    z_mu = 2.0 * dl * a
    z_sg = dl**2 * sg * _PI**2 / 3.0 + 2.0 * dl * _EG * a
    z_dl = dl * sg**2 * _PI**2 / 3.0 + 2.0 * (mu + sg * _EG) * a
    return z_mu, z_sg, z_dl


def _z_second_derivs(p: BgParams) -> dict[tuple[int, int], float]:
    mu, sg, dl = p.mu, p.sigma, p.delta
    m = mu + sg * _EG
    return {
        (0, 0): 2.0 * dl**2,
        (1, 1): dl**2 * _PI**2 / 3.0 + 2.0 * dl**2 * _EG**2,
        (2, 2): sg**2 * _PI**2 / 3.0 + 2.0 * m * m,
        (0, 1): 2.0 * dl**2 * _EG,
        (0, 2): 4.0 * dl * m - 2.0,
        (1, 2): 2.0 * dl * sg * _PI**2 / 3.0 + 4.0 * dl * _EG * m - 2.0 * _EG,
    }


def _d_matrix(p: BgParams, n: float) -> np.ndarray:
    """D_{u,v} = (n/Z) (d2Z/dudv - (dZ/du)(dZ/dv)/Z) for u, v in (mu, sigma, delta)."""
    z = normalizer(p)
    z1 = _z_first_derivs(p)
    z2 = _z_second_derivs(p)
    out = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            out[i, j] = out[j, i] = n / z * (z2[(i, j)] - z1[i] * z1[j] / z)
    return out


def log_likelihood(p: BgParams, data) -> float:
    """Log likelihood; identical to summing the log density over the data."""
    x = _as_data(data)
    n = x.size
    w = (x - p.mu) / p.sigma
    with np.errstate(over="ignore"):
        ew = np.exp(-w)
    u = 1.0 - p.delta * x
    return float(
        -n * math.log(normalizer(p))
        - n * math.log(p.sigma)
        + np.sum(np.log1p(u * u) - w - ew)
    )


def score(p: BgParams, data) -> np.ndarray:
    """Analytic gradient of the log likelihood, ordered (mu, sigma, delta)."""
    x = _as_data(data)
    n = x.size
    mu, sg, dl = p.mu, p.sigma, p.delta
    w = (x - mu) / sg
    with np.errstate(over="ignore"):
        ew = np.exp(-w)
    z = normalizer(p)
    z_mu, z_sg, z_dl = _z_first_derivs(p)
    u = 1.0 - dl * x
    return np.array(
        [
            -n * z_mu / z + n / sg - np.sum(ew) / sg,
            -n * z_sg / z - n / sg + np.sum((x - mu) * (1.0 - ew)) / sg**2,
            -n * z_dl / z - 2.0 * np.sum(x * u / (u * u + 1.0)),
        ]
    )


def hessian(p: BgParams, data) -> np.ndarray:
    """Analytic Hessian of the log likelihood (symmetric 3x3)."""
    x = _as_data(data)
    n = x.size
    mu, sg, dl = p.mu, p.sigma, p.delta
    w = (x - mu) / sg
    with np.errstate(over="ignore"):
        ew = np.exp(-w)
    u = 1.0 - dl * x
    d = _d_matrix(p, n)
    h = np.empty((3, 3))
    h[0, 0] = -d[0, 0] - np.sum(ew) / sg**2
    h[0, 1] = h[1, 0] = -d[0, 1] - n / sg**2 + np.sum((1.0 - w) * ew) / sg**2
    h[0, 2] = h[2, 0] = -d[0, 2]
    h[1, 1] = -d[1, 1] + n / sg**2 - np.sum((x - mu) * (2.0 - (2.0 - w) * ew)) / sg**3
    h[1, 2] = h[2, 1] = -d[1, 2]
    h[2, 2] = -d[2, 2] - 2.0 * np.sum(x * x * (u * u - 1.0) / (u * u + 1.0) ** 2)
    return h


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

    log_norm = math.log(sg * normalizer(p))

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

    d = _d_matrix(p, 1.0)
    info = np.empty((3, 3))
    info[0, 0] = d[0, 0] + ef1 / sg**2
    info[0, 1] = info[1, 0] = d[0, 1] + 1.0 / sg**2 - ef2 / sg**2
    info[0, 2] = info[2, 0] = d[0, 2]
    info[1, 1] = d[1, 1] - 1.0 / sg**2 + ef3 / sg**3
    info[1, 2] = info[2, 1] = d[1, 2]
    info[2, 2] = d[2, 2] + 2.0 * ef4
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


def _profile_terms(
    x: np.ndarray, sx: float, delta: float, mu: float, t: float
) -> tuple[float, float, float, float]:
    """The (mu, ln sigma) part of l at fixed delta, with the sums its derivatives need.

    Returns (-n ln Z - n t - sum w - sum e, sum e, sum w e, sum w^2 e) with
    t = ln sigma, w = (x - mu)/sigma and e = exp(-w); sum w = (sx - n mu)/sigma.
    The term sum ln(1 + (1 - delta x)^2) has no (mu, sigma) in it and is left out.
    """
    n = x.size
    sg = math.exp(t)
    w = (x - mu) / sg
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(-w)
        we = w * e
        s0, s1, s2 = float(e.sum()), float(we.sum()), float(we @ w)
    z = 1.0 + (delta * sg * _PI) ** 2 / 6.0 + (delta * (mu + sg * _EG) - 1.0) ** 2
    return -n * math.log(z) - n * t - (sx - n * mu) / sg - s0, s0, s1, s2


def _profile_newton(
    x: np.ndarray, sx: float, delta: float, mu: float, t: float, max_steps: int, tol: float
) -> tuple[float, float, float, int]:
    """Maximise l over (mu, t = ln sigma) at fixed delta by damped Newton.

    Each step takes the sums of one `_profile_terms` pass and the closed-form
    derivatives of ln Z, and solves the 2x2 system in plain floats.  An
    indefinite Hessian has its spectrum shifted below zero, and the step is
    halved until the objective does not fall by more than rounding.  Stops
    once the gradient per observation in (mu / sigma, t) is at most ``tol``
    or a step gains nothing.  Returns (mu, t, the `_profile_terms` value
    there, steps taken).
    """
    n = x.size
    d2 = delta * delta
    terms = _profile_terms(x, sx, delta, mu, t)
    steps = 0
    while steps < max_steps:
        value, s0, s1, s2 = terms
        sg = math.exp(t)
        a = delta * (mu + sg * _EG) - 1.0
        z = 1.0 + d2 * (sg * _PI) ** 2 / 6.0 + a * a
        # Derivatives of ln Z in (mu, t), from those of Z over Z.
        z_m = 2.0 * delta * a / z
        z_t = sg * (d2 * sg * _PI**2 / 3.0 + 2.0 * delta * _EG * a) / z
        z_mm = 2.0 * d2 / z - z_m * z_m
        z_mt = 2.0 * d2 * _EG * sg / z - z_m * z_t
        z_tt = z_t + d2 * sg * sg * (_PI**2 / 3.0 + 2.0 * _EG**2) / z - z_t * z_t
        w_sum = (sx - n * mu) / sg
        g_m = (n - s0) / sg - n * z_m
        g_t = w_sum - s1 - n - n * z_t
        if not max(abs(g_m) * sg, abs(g_t)) > tol * n:  # also stops on nan
            break
        h_mm = -n * z_mm - s0 / (sg * sg)
        h_mt = -n * z_mt + (s0 - s1 - n) / sg
        h_tt = -n * z_tt - w_sum - s2 + s1
        det = h_mm * h_tt - h_mt * h_mt
        if not (h_mm < 0.0 and det > 0.0):
            half_tr = 0.5 * (h_mm + h_tt)
            top = half_tr + math.sqrt(max(half_tr * half_tr - det, 0.0))
            shift = top + 1e-3 * (abs(h_mm) + abs(h_tt)) + 1e-12 * n
            h_mm, h_tt = h_mm - shift, h_tt - shift
            det = h_mm * h_tt - h_mt * h_mt
        d_m = (h_mt * g_t - h_tt * g_m) / det
        d_t = (h_mt * g_m - h_mm * g_t) / det
        lam = 1.0
        for _ in range(_LINE_SEARCH_HALVINGS):
            mu_c, t_c = mu + lam * d_m, t + lam * d_t
            if abs(t_c) <= _MAX_LOG_SIGMA:
                cand = _profile_terms(x, sx, delta, mu_c, t_c)
                if cand[0] >= value - _ROUNDING * n:
                    break
            lam *= 0.5
        else:
            break
        mu, t, terms = mu_c, t_c, cand
        steps += 1
        if cand[0] <= value:  # no gain left above rounding
            break
    return mu, t, terms[0], steps


def _newton_polish(
    th: np.ndarray, x: np.ndarray, max_steps: int = 40
) -> tuple[np.ndarray, int]:
    steps = 0
    for _ in range(max_steps):
        p = BgParams(th[0], th[1], th[2])
        sc = score(p, x)
        ll0 = log_likelihood(p, x)
        if np.max(np.abs(sc)) < 1e-10 * max(1.0, abs(ll0)):
            break
        try:
            step = np.linalg.solve(hessian(p, x), -sc)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        moved = False
        while lam > 1e-6:
            cand = th + lam * step
            if cand[1] > 0:
                try:
                    if log_likelihood(BgParams(*cand), x) >= ll0 - 1e-12:
                        moved = True
                        break
                except (ValueError, OverflowError):
                    pass
            lam /= 2.0
        if not moved:
            break
        th = th + lam * step
        steps += 1
    return th, steps


def _finish(th: np.ndarray, x: np.ndarray, iters: int, fix_delta: bool) -> FitResult:
    p = BgParams(th[0], th[1], th[2])
    ll = log_likelihood(p, x)
    sc = score(p, x)
    if fix_delta:
        sc = sc.copy()
        sc[2] = 0.0
    gnorm = float(np.linalg.norm(sc))
    converged = gnorm < _CONVERGENCE_FACTOR * max(1.0, abs(ll))

    h = hessian(p, x)
    if fix_delta:
        obs = -h[:2, :2]
    else:
        obs = -h
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
    profile l_p(delta) = max over (mu, sigma) of l is computed by a 2x2
    Newton in (mu, ln sigma), walking out from delta = 0 both ways and
    warm-starting each point from its neighbour; ``init``, when given, is one
    more start at its own delta.  Every local maximum of the grid is polished
    by a 3-D Newton in (mu, sigma, delta), and the highest is returned, near
    ties (within 1e-8 per observation) going to the smaller |delta|.
    ``max_iter`` caps the Newton steps of each 2x2 solve and ``tol`` is its
    gradient tolerance per observation.  The profile and all maxima are in
    ``diagnostics``.  A result with ``converged=False`` is still returned so
    callers can inspect the partial fit.
    """
    x = _fit_data(data)
    sx = float(x.sum())
    grid = _delta_grid(x)
    mid = grid.size // 2
    sol = np.empty((grid.size, 2))
    profile = np.empty(grid.size)

    def solve(k: int, mu: float, t: float) -> int:
        mu, t, value, steps = _profile_newton(x, sx, float(grid[k]), mu, t, max_iter, tol)
        sol[k] = mu, t
        u = 1.0 - grid[k] * x
        profile[k] = value + float(np.log1p(u * u).sum())
        return steps

    mu0, sg0 = _gumbel_moment_init(x)
    inner = solve(mid, mu0, math.log(sg0))
    for k in range(mid + 1, grid.size):
        inner += solve(k, *sol[k - 1])
    for k in range(mid - 1, -1, -1):
        inner += solve(k, *sol[k + 1])

    last = grid.size - 1
    peaks = [
        k for k in range(grid.size)
        if (k == 0 or profile[k] > profile[k - 1]) and (k == last or profile[k] >= profile[k + 1])
    ] or [mid]
    starts = [(sol[k, 0], math.exp(sol[k, 1]), grid[k], k in (0, last)) for k in peaks]
    if init is not None:
        mu, t, _, steps = _profile_newton(
            x, sx, init.delta, init.mu, math.log(init.sigma), max_iter, tol
        )
        inner += steps
        starts.append((mu, math.exp(t), init.delta, False))

    total = inner
    maxima: list[LocalMaximum] = []
    for mu, sg, dl, edge in starts:
        th, steps = _newton_polish(np.array([mu, sg, dl]), x)
        total += steps
        p = BgParams(*th)
        for i, m in enumerate(maxima):
            if _same_point(m.params, p):
                maxima[i] = m._replace(at_grid_edge=m.at_grid_edge and edge)
                break
        else:
            maxima.append(LocalMaximum(p, log_likelihood(p, x), edge))
    maxima.sort(key=lambda m: -m.log_likelihood)

    top = maxima[0].log_likelihood
    best = min(
        (m for m in maxima if m.log_likelihood >= top - _TIE_TOL * x.size),
        key=lambda m: abs(m.params.delta),
    )
    diagnostics = FitDiagnostics(
        delta_grid=tuple(grid.tolist()),
        profile_loglik=tuple(profile.tolist()),
        maxima=tuple(maxima),
        inner_steps=inner,
        weakly_identified=len(maxima) > 1 and top - maxima[1].log_likelihood < _WEAK_GAP,
    )
    p = best.params
    fit = _finish(np.array([p.mu, p.sigma, p.delta]), x, total, fix_delta=False)
    return replace(fit, diagnostics=diagnostics)


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

    The 2x2 Newton of ``fit_mle``'s profile at delta = 0, from the moment
    estimates or from ``init``; ``max_iter`` and ``tol`` are as there.
    """
    x = _fit_data(data)
    mu0, sg0 = _gumbel_moment_init(x)
    if init is not None:
        mu0, sg0 = init.mu, init.sigma
    mu, t, _, steps = _profile_newton(x, float(x.sum()), 0.0, mu0, math.log(sg0), max_iter, tol)
    return _finish(np.array([mu, math.exp(t), 0.0]), x, steps, fix_delta=True)
