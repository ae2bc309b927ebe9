"""Scalar special functions and quadrature shared by every other module.

The central object is the incomplete log-moment integral

    I(k; a, b) = (-1)^k * integral_a^b ln(v)^k exp(-v) dv,   0 <= a < b <= inf,

which appears in every raw moment of the quadratically weighted Gumbel
model.  Substituting v = exp(-s) turns it into a smooth moment integral of
the standard Gumbel density,

    I(k; a, b) = integral_{-ln b}^{-ln a} s^k exp(-s - exp(-s)) ds,

which removes the logarithmic endpoint singularity at v = 0 and maps the
exponential tail onto a doubly-exponential one.  The adaptive quadrature of
:func:`incomplete_log_moment` runs on that transformed domain.  The
distribution functions use the vectorized :func:`log_weight_shares` instead,
and every complete moment the private :func:`_log_poly_gamma`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc
from scipy.integrate import quad

from .errors import DivergentIntegralError, QuadratureError

__all__ = [
    "Constants",
    "CONSTANTS",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "upper_incomplete_gamma",
    "incomplete_log_moment",
    "log_weight_shares",
    "log_moment_constant",
    "digamma",
    "trigamma",
    "gamma_deriv",
]


@dataclass(frozen=True)
class Constants:
    """Mathematical constants used in closed-form moment expressions."""

    euler_gamma: float = 0.5772156649015328606
    pi: float = math.pi
    zeta3: float = 1.2020569031595942854
    zeta5: float = 1.0369277551433699263


CONSTANTS = Constants()

_EG = CONSTANTS.euler_gamma
_PI = CONSTANTS.pi
_Z3 = CONSTANTS.zeta3
_Z5 = CONSTANTS.zeta5

# I(k; 0, inf) for k = 0..6, assembled from gamma / pi / zeta constants.
_LOG_MOMENT_CONSTANTS = (
    1.0,
    _EG,
    _EG**2 + _PI**2 / 6.0,
    2.0 * _Z3 + _EG**3 + _EG * _PI**2 / 2.0,
    8.0 * _EG * _Z3 + _EG**4 + _EG**2 * _PI**2 + 3.0 * _PI**4 / 20.0,
    20.0 * _EG**2 * _Z3
    + 10.0 * _PI**2 * _Z3 / 3.0
    + 24.0 * _Z5
    + _EG**5
    + 5.0 * _EG**3 * _PI**2 / 3.0
    + 3.0 * _EG * _PI**4 / 4.0,
    20.0 * _EG * (2.0 * _EG**2 + _PI**2) * _Z3
    + 40.0 * _Z3**2
    + 144.0 * _EG * _Z5
    + _EG**6
    + 5.0 * _EG**4 * _PI**2 / 2.0
    + 9.0 * _EG**2 * _PI**4 / 4.0
    + 61.0 * _PI**6 / 168.0,
)
# Gamma^(j)(1) = (-1)^j I(j; 0, inf).
_GAMMA_DERIVS_AT_1 = tuple((-1.0) ** j * c for j, c in enumerate(_LOG_MOMENT_CONSTANTS))


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for adaptive quadrature."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("abs_tol and rel_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureSpec()

# Below s = -38 the transformed integrand exp(-s - exp(-s)) underflows to 0;
# above s = 60 + 12k the factor s^k exp(-s) is < 1e-40.
_S_FLOOR = -38.0


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Upper incomplete gamma function Gamma(a, x) = int_x^inf t^(a-1) e^-t dt.

    Supports a = 0, where Gamma(0, x) equals the exponential integral E1(x),
    and nonnegative a in general.  Gamma(0, 0) diverges.
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if a == 0.0:
        if x == 0.0:
            raise DivergentIntegralError("Gamma(0, 0) diverges")
        return float(sc.exp1(x))
    if a < 0:
        raise ValueError(f"a must be >= 0, got {a}")
    # Regularized complement times Gamma(a); exact for the integer orders
    # this package needs and accurate for any a > 0.
    return float(sc.gammaincc(a, x) * sc.gamma(a))


def _transformed_bounds(k: int, a: float, b: float) -> tuple[float, float]:
    """Map (a, b) in v-space to clipped integration bounds in s-space."""
    s_hi = -math.log(a) if a > 0.0 else math.inf
    s_lo = -math.log(b) if math.isfinite(b) else -math.inf
    s_lo = max(s_lo, _S_FLOOR)
    s_hi = min(s_hi, 60.0 + 12.0 * k)
    return s_lo, s_hi


def incomplete_log_moment(
    k: int,
    a: float,
    b: float = math.inf,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Incomplete log-moment integral I(k; a, b) = (-1)^k int_a^b ln(v)^k e^-v dv.

    Closed forms are used for k = 0 and k = 1:

        I(0; a, inf) = exp(-a)
        I(1; a, inf) = -exp(-a) ln(a) - Gamma(0, a),  with I(1; 0, inf) = euler_gamma

    and finite upper limits are handled as differences of the upper forms.
    Orders k >= 2 fall back to adaptive quadrature on the Gumbel-transformed
    domain (see module docstring), controlled by ``spec``.
    """
    if k < 0 or int(k) != k:
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    if a < 0 or not a < b:
        raise ValueError(f"require 0 <= a < b, got a={a}, b={b}")
    k = int(k)

    if k == 0:
        upper = 0.0 if not math.isfinite(b) else math.exp(-b)
        return math.exp(-a) - upper
    if k == 1:
        return _log_moment_order1(a) - (_log_moment_order1(b) if math.isfinite(b) else 0.0)

    s_lo, s_hi = _transformed_bounds(k, a, b)
    if s_lo >= s_hi:
        return 0.0

    def integrand(s: float) -> float:
        return s**k * math.exp(-s - math.exp(-s))

    # Interior break points help the subdivision find the bulk quickly
    # (quad needs the subdivision budget to exceed the break-point count).
    pts = [p for p in (0.0, 1.0, float(k), float(3 * k + 5)) if s_lo < p < s_hi]
    if len(pts) >= spec.max_subdivisions:
        pts = []
    result = quad(
        integrand,
        s_lo,
        s_hi,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        points=pts or None,
        full_output=1,
    )
    value, abserr = result[0], result[1]
    tol = max(spec.abs_tol, spec.rel_tol * abs(value))
    if len(result) > 3 or abserr > 100.0 * tol:
        raise QuadratureError(
            f"I({k}; {a}, {b}) did not converge to tolerance", value, abserr
        )
    return float(value)


def _log_moment_order1(a: float) -> float:
    """I(1; a, inf), with the a -> 0 limit handled without evaluating ln(0)."""
    if a == 0.0:
        return _EG
    return -math.exp(-a) * math.log(a) - upper_incomplete_gamma(0.0, a)


_SPLIT = 2.0  # z from which log_weight_shares sums Gauss-Laguerre nodes
_BLOCK = 256  # points per block: keeps the (points x nodes) temporaries small
_Z_MAX = 800.0  # exp(-z) is 0.0 from z = 746 on
_LAGUERRE_T, _LAGUERRE_W = np.polynomial.laguerre.laggauss(40)
# Series terms (-1)^n / n! int_0^z v^n ln^j v dv with m = n + 1; the 30th
# term is below 1e-23 of the sum for z < 2.
_M = np.arange(1.0, 31.0)
_SIGNED_INV_FACT = np.array([(-1.0) ** n / math.factorial(n) for n in range(30)])
_R1 = _SIGNED_INV_FACT / _M
_R2 = _SIGNED_INV_FACT / _M**2
_R3 = 2.0 * _SIGNED_INV_FACT / _M**3


def _upper_laguerre(q: tuple[float, float, float], z: np.ndarray) -> np.ndarray:
    """int_z^inf w(v) e^-v dv = e^-z int_0^inf w(z + t) e^-t dt, for z >= 2."""
    q0, q1, q2 = q
    ell = np.log(z[:, None] + _LAGUERRE_T)
    w = q0 + ell * (q1 + q2 * ell)
    return np.exp(-z) * (w * _LAGUERRE_W).sum(axis=1)


def _lower_series(q: tuple[float, float, float], z: np.ndarray) -> np.ndarray:
    """int_0^z w(v) e^-v dv by the power series of e^-v, for 0 <= z < 2.

    With L = ln z the n-th term is (-1)^n/n! z^m [w(z)/m - z w'(z)/m^2 + 2 q2/m^3].
    """
    q0, q1, q2 = q
    ln_z = np.log(np.where(z > 0.0, z, 1.0))[:, None]  # z = 0 gives 0 below
    w = q0 + ln_z * (q1 + q2 * ln_z)
    zw = q1 + 2.0 * q2 * ln_z
    return (z[:, None] ** _M * (w * _R1 - zw * _R2 + q2 * _R3)).sum(axis=1)


def _blocked(part, q, z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    for i in range(0, z.size, _BLOCK):
        out[i : i + _BLOCK] = part(q, z[i : i + _BLOCK])
    return out


def log_weight_shares(
    q: tuple[float, float, float], z: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower shares of the log-polynomial-weighted exponential integral.

    For the weight w(v) = q0 + q1 ln v + q2 ln^2 v and z >= 0 (elementwise),

        upper = int_z^inf w(v) e^-v dv / T,   lower = int_0^z w(v) e^-v dv / T,

    with T = int_0^inf w(v) e^-v dv = q0 - q1 euler_gamma + q2 I(2; 0, inf).
    For z >= 2 the upper integral is e^-z times a 40-node Gauss-Laguerre sum
    of w(z + t); for z < 2 the lower integral is the power series
    sum_n (-1)^n/n! int_0^z v^n w(v) dv.  Each regime gets the other part
    as T minus its own.  For the positive weights of the distribution
    functions that difference is never small (the lower part holds most of
    T from z = 2 on, the upper part a few percent or more below it), so it
    costs at most about one digit.  The part computed directly keeps its
    relative accuracy down to the smallest normal numbers: upper in the left
    tail of X = mu - sigma ln V, lower in the right tail.

    Returns two arrays of the shape of ``z`` (0-d for a scalar).
    """
    q = tuple(float(c) for c in q)
    total = _log_poly_gamma(q)
    zs = np.minimum(np.asarray(z, dtype=float), _Z_MAX)
    flat = zs.ravel()
    far = flat >= _SPLIT
    upper, lower = np.empty_like(flat), np.empty_like(flat)
    upper[far] = _blocked(_upper_laguerre, q, flat[far])
    lower[far] = total - upper[far]
    lower[~far] = _blocked(_lower_series, q, flat[~far])
    upper[~far] = total - lower[~far]
    return (upper / total).reshape(zs.shape), (lower / total).reshape(zs.shape)


def log_moment_constant(k: int) -> float:
    """Closed-form value of I(k; 0, inf) for k = 0..6."""
    if not 0 <= k <= 6:
        raise ValueError(f"closed-form log-moment constants cover k = 0..6, got {k}")
    return _LOG_MOMENT_CONSTANTS[k]


def digamma(x: float) -> float:
    """Digamma function psi(x) = Gamma'(x) / Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    return float(sc.digamma(x))


def trigamma(x: float) -> float:
    """Trigamma function psi'(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"trigamma requires x > 0, got {x}")
    return float(sc.polygamma(1, x))


def gamma_deriv(i: int, x: float) -> float:
    """i-th derivative of the gamma function at x > 0, for i = 0..4.

    Uses the polygamma representation
        Gamma'   = Gamma * psi
        Gamma''  = Gamma * (psi^2 + psi')
        Gamma''' = Gamma * (psi^3 + 3 psi psi' + psi'')
        Gamma'''' = Gamma * (psi^4 + 6 psi^2 psi' + 3 psi'^2 + 4 psi psi'' + psi''')
    """
    if x <= 0:
        raise ValueError(f"gamma_deriv requires x > 0, got {x}")
    if not 0 <= i <= 4:
        raise ValueError(f"gamma derivatives implemented for order 0..4, got {i}")
    return _gamma_derivs(i, x)[i]


def _gamma_derivs(n: int, x: float) -> tuple[float, ...]:
    """Gamma^(i)(x) for i = 0..min(n, 4), by the polygamma forms of gamma_deriv."""
    gam = float(sc.gamma(x))
    if n == 0:
        return (gam,)
    psi = float(sc.digamma(x))
    p1 = float(sc.polygamma(1, x)) if n >= 2 else 0.0
    p2 = float(sc.polygamma(2, x)) if n >= 3 else 0.0
    p3 = float(sc.polygamma(3, x)) if n >= 4 else 0.0
    return (
        gam,
        gam * psi,
        gam * (psi**2 + p1),
        gam * (psi**3 + 3.0 * psi * p1 + p2),
        gam * (psi**4 + 6.0 * psi**2 * p1 + 3.0 * p1**2 + 4.0 * psi * p2 + p3),
    )[: n + 1]


def _log_poly_gamma(q: tuple[float, ...], a: float = 1.0) -> float:
    """int_0^inf q(ln v) v^(a-1) e^-v dv = sum_j q_j Gamma^(j)(a), for a > 0.

    ``q`` holds the coefficients of 1, ln v, ln^2 v, ...  At a = 1 the
    derivatives are the exact constants (-1)^j I(j; 0, inf), j = 0..6; at
    any other a they come from the polygamma forms, j = 0..4.  With
    X = mu - sigma ln V, every moment, exponential moment and Fisher
    expectation of the package is this sum for some q and a.
    """
    derivs = _GAMMA_DERIVS_AT_1 if a == 1.0 else _gamma_derivs(len(q) - 1, a)
    if len(q) > len(derivs):
        raise ValueError(f"log-polynomial degree {len(q) - 1} exceeds {len(derivs) - 1} at a = {a}")
    return sum(c * g for c, g in zip(q, derivs))
