"""Maximum-likelihood estimation of (mu, sigma, delta).

The log likelihood of observations x_1..x_n is

    l = -n ln Z - n ln sigma
        + sum_i { ln[(1 - delta x_i)^2 + 1] - w_i - exp(-w_i) },   w_i = (x_i - mu)/sigma,

with Z the weight normalizer.  Score, Hessian and Fisher information are
implemented analytically; every derivative here is validated against finite
differences in the test suite.  The optimizer is quasi-Newton (BFGS with the
analytic gradient) in the reparametrized space (mu, ln sigma, delta), run
from a lattice of delta starting points because the likelihood can hold
several local optima in the delta direction, followed by a guarded Newton
polish in the original parametrization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize

from .distribution import BgParams, _expect, normalizer
from .errors import DegenerateDataError, InsufficientDataError
from .special import CONSTANTS

__all__ = [
    "FitResult",
    "log_likelihood",
    "score",
    "hessian",
    "fisher_information",
    "fit_mle",
    "fit_gumbel_mle",
]

_EG = CONSTANTS.euler_gamma
_PI = CONSTANTS.pi

_DELTA_START_MULTIPLIERS = (0.1, 0.25, 0.63, 1.6, 4.0, 10.0)
_CONVERGENCE_FACTOR = 1e-6
_TIE_TOL = 1e-8
# Adaptive quadrature of the E[F4] term of fisher_information.
_F4_ABS_TOL, _F4_REL_TOL, _F4_LIMIT = 1e-12, 1e-10, 200


@dataclass(frozen=True)
class FitResult:
    """Point estimates with standard errors and convergence diagnostics.

    ``std_errors`` is the square root of the diagonal of the inverse observed
    information (negative Hessian at the optimum), or None when that matrix
    is not positive definite.
    """

    params: BgParams
    std_errors: tuple[float, float, float] | None
    log_likelihood: float
    n_obs: int
    converged: bool
    iterations: int
    grad_norm_at_solution: float


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


def _delta_starts(x: np.ndarray) -> list[float]:
    med = float(np.median(x))
    s_rob = 1.4826 * float(np.median(np.abs(x - med)))
    s_rob = max(s_rob, 1e-8 * max(1.0, abs(med)), 1e-12)
    base = [m / s_rob for m in _DELTA_START_MULTIPLIERS]
    return [0.0] + base + [-b for b in base]


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


def _optimize(
    x: np.ndarray,
    delta_starts: list[float],
    mu0: float,
    sg0: float,
    fix_delta: bool,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, int]:
    n = x.size

    def _sigma_of(t: np.ndarray) -> float:
        # Clamp so a wandering line search cannot overflow exp or reach 0.
        return math.exp(min(max(float(t[1]), -300.0), 300.0))

    def nll(t: np.ndarray) -> float:
        try:
            val = log_likelihood(BgParams(t[0], _sigma_of(t), t[2]), x)
        except (ValueError, OverflowError):
            return 1e300
        return -val / n if math.isfinite(val) else 1e300

    def grad(t: np.ndarray) -> np.ndarray:
        sg = _sigma_of(t)
        sc = score(BgParams(t[0], sg, t[2]), x)
        g = -np.array([sc[0], sc[1] * sg, 0.0 if fix_delta else sc[2]]) / n
        return np.nan_to_num(g, nan=0.0, posinf=1e10, neginf=-1e10)

    best = None
    best_iters = 0
    for d0 in delta_starts:
        t0 = np.array([mu0, math.log(sg0), d0])
        if fix_delta:
            # Optimize (mu, ln sigma) only; delta stays at d0 (= 0).
            def nll2(t2):
                return nll(np.array([t2[0], t2[1], d0]))

            def grad2(t2):
                return grad(np.array([t2[0], t2[1], d0]))[:2]

            r = minimize(
                nll2, t0[:2], jac=grad2, method="BFGS",
                options={"maxiter": max_iter, "gtol": tol},
            )
            cand = np.array([r.x[0], r.x[1], d0])
        else:
            r = minimize(
                nll, t0, jac=grad, method="BFGS",
                options={"maxiter": max_iter, "gtol": tol},
            )
            cand = r.x
        entry = (float(r.fun), abs(float(cand[2])), cand, int(r.nit))
        if best is None:
            best, best_iters = entry, entry[3]
            continue
        # Keep the higher likelihood; break near-ties toward smaller |delta|.
        if entry[0] < best[0] - _TIE_TOL or (
            abs(entry[0] - best[0]) <= _TIE_TOL and entry[1] < best[1]
        ):
            best, best_iters = entry, entry[3]
    th = np.array([best[2][0], math.exp(best[2][1]), best[2][2]])
    return th, best_iters


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


def fit_mle(
    data,
    init: BgParams | None = None,
    max_iter: int = 500,
    tol: float = 1e-9,
) -> FitResult:
    """Maximum-likelihood fit of the full three-parameter model.

    Multistart quasi-Newton over a lattice of delta starting values (the
    likelihood can be multimodal in delta), then a Newton polish.  A result
    with ``converged=False`` is still returned so callers can inspect the
    partial fit.
    """
    x = _as_data(data)
    if x.size < 4:
        raise InsufficientDataError(f"need at least 4 observations, got {x.size}")
    if float(x.max()) == float(x.min()):
        raise DegenerateDataError("all observations identical; scale is not estimable")
    mu0, sg0 = _gumbel_moment_init(x)
    starts = _delta_starts(x)
    if init is not None:
        starts = [init.delta] + starts
        mu0, sg0 = init.mu, init.sigma
    th, iters = _optimize(x, starts, mu0, sg0, False, max_iter, tol)
    th, extra = _newton_polish(th, x)
    return _finish(th, x, iters + extra, fix_delta=False)


def fit_gumbel_mle(
    data,
    init: BgParams | None = None,
    max_iter: int = 500,
    tol: float = 1e-9,
) -> FitResult:
    """Maximum-likelihood fit of the nested Gumbel model (delta fixed at 0)."""
    x = _as_data(data)
    if x.size < 4:
        raise InsufficientDataError(f"need at least 4 observations, got {x.size}")
    if float(x.max()) == float(x.min()):
        raise DegenerateDataError("all observations identical; scale is not estimable")
    mu0, sg0 = _gumbel_moment_init(x)
    if init is not None:
        mu0, sg0 = init.mu, init.sigma
    th, iters = _optimize(x, [0.0], mu0, sg0, True, max_iter, tol)
    return _finish(th, x, iters, fix_delta=True)
