"""Special functions and the two kernels shared by every other module.

The central object is the incomplete log-moment integral

    I(k; a, b) = (-1)^k * integral_a^b ln(v)^k exp(-v) dv,   0 <= a < b <= inf,

which appears in every raw moment of the quadratically weighted Gumbel
model.  The package computes it, and every weighted version of it, with one
vectorized kernel, :func:`log_weight_shares`: for a polynomial weight q(ln v)
of degree at most 6 it gives the shares of int_0^inf q(ln v) e^-v dv above
and below z, by Gauss-Laguerre for z >= 2 and a power series below.  The
distribution functions and :func:`incomplete_log_moment` are wrappers over
it.  Every complete integral, hence every moment, comes from the private
:func:`_log_poly_gamma`.  The private :func:`_roots` is the one bracketed
root search of the package (the modes and the interval D).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc
from scipy.optimize import brentq

from .errors import DivergentIntegralError

__all__ = [
    "Constants",
    "CONSTANTS",
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


_SPLIT = 2.0  # z from which log_weight_shares sums Gauss-Laguerre nodes
_BLOCK = 256  # points per block: keeps the (points x nodes) temporaries small
_Z_MAX = 800.0  # exp(-z) is 0.0 from z = 746 on
_LAGUERRE_T, _LAGUERRE_W = np.polynomial.laguerre.laggauss(40)
# Series factors (-1)^n / n! * (-1)^i / m^(i+1) with m = n + 1, for the i-th
# derivative of the weight, i = 0..6; the 30th term is below 1e-23 of the
# sum for z < 2.
_M = np.arange(1.0, 31.0)
_SIGNED_INV_FACT = np.array([(-1.0) ** n / math.factorial(n) for n in range(30)])
_SERIES_R = tuple((-1.0) ** i * _SIGNED_INV_FACT / _M ** (i + 1) for i in range(7))


def _horner(c: tuple[float, ...], x: np.ndarray) -> np.ndarray | float:
    """c[0] + c[1] x + c[2] x^2 + ... by Horner's rule."""
    out = c[-1]
    for ci in c[-2::-1]:
        out = out * x + ci
    return out


def _derivatives(q: tuple[float, ...]) -> list[tuple[float, ...]]:
    """Coefficients of q, q', q'', ... down to the constant derivative."""
    out = [q]
    while len(q) > 1:
        q = tuple([j * q[j] for j in range(1, len(q))])
        out.append(q)
    return out


def _upper_laguerre(q: tuple[float, ...], z: np.ndarray) -> np.ndarray:
    """int_z^inf q(ln v) e^-v dv = e^-z int_0^inf q(ln(z + t)) e^-t dt, for z >= 2."""
    ell = np.log(z[:, None] + _LAGUERRE_T)
    return np.exp(-z) * (_horner(q, ell) * _LAGUERRE_W).sum(axis=1)


def _lower_series(derivs: list[tuple[float, ...]], z: np.ndarray) -> np.ndarray:
    """int_0^z q(ln v) e^-v dv by the power series of e^-v, for 0 <= z < 2.

    With m = n + 1 and L = ln z, int_0^z v^n q(ln v) dv is
    z^m sum_i (-1)^i q^(i)(L) / m^(i+1); the n-th term carries (-1)^n / n!.
    ``derivs`` holds the coefficients of q, q', q'', ...
    """
    ln_z = np.log(np.where(z > 0.0, z, 1.0))[:, None]  # z = 0 gives 0 below
    terms = _horner(derivs[0], ln_z) * _SERIES_R[0]
    for d, r in zip(derivs[1:], _SERIES_R[1:]):
        terms = terms + _horner(d, ln_z) * r
    return (z[:, None] ** _M * terms).sum(axis=1)


def _blocked(part, coef, z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    for i in range(0, z.size, _BLOCK):
        out[i : i + _BLOCK] = part(coef, z[i : i + _BLOCK])
    return out


def log_weight_shares(
    q: tuple[float, ...], z: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower shares of the log-polynomial-weighted exponential integral.

    For the weight w(v) = q(ln v) = q0 + q1 ln v + ... + qd ln^d v, d <= 6,
    and z >= 0 (elementwise),

        upper = int_z^inf w(v) e^-v dv / T,   lower = int_0^z w(v) e^-v dv / T,

    with T = int_0^inf w(v) e^-v dv = sum_j qj Gamma^(j)(1), which must not
    be 0.  For z >= 2 the upper integral is e^-z times a 40-node
    Gauss-Laguerre sum of w(z + t); for z < 2 the lower integral is the
    power series sum_n (-1)^n/n! int_0^z v^n w(v) dv.  Each regime gets the
    other part as T minus its own.  For the positive weights of the
    distribution functions that difference is never small (the lower part
    holds most of T from z = 2 on, the upper part a few percent or more
    below it), so it costs at most about one digit.  The part computed
    directly keeps its relative accuracy down to the smallest normal
    numbers: upper in the left tail of X = mu - sigma ln V, lower in the
    right tail.  A signed weight (ln^k v for odd k, say) can make a part
    itself pass through 0; near there only the absolute accuracy, about
    1e-16 |T|, holds.

    Returns two arrays of the shape of ``z`` (0-d for a scalar).
    """
    q = tuple(map(float, q))
    total = _log_poly_gamma(q)
    zs = np.minimum(np.asarray(z, dtype=float), _Z_MAX)
    flat = zs.ravel()
    far = flat >= _SPLIT
    near = ~far
    upper, lower = np.empty_like(flat), np.empty_like(flat)
    part = _blocked(_upper_laguerre, q, flat[far])
    upper[far], lower[far] = part, total - part
    part = _blocked(_lower_series, _derivatives(q), flat[near])
    lower[near], upper[near] = part, total - part
    return (upper / total).reshape(zs.shape), (lower / total).reshape(zs.shape)


def incomplete_log_moment(k: int, a: float, b: float = math.inf) -> float:
    """Incomplete log-moment integral I(k; a, b) = (-1)^k int_a^b ln(v)^k e^-v dv, k = 0..6.

    k = 0 is exp(-a) - exp(-b).  For k >= 1, with s the upper share of the
    weight ln^k v (:func:`log_weight_shares`),

        I(k; a, b) = I(k; 0, inf) * (s(a) - s(b)),

    so I(k; 0, inf) is exactly :func:`log_moment_constant` and I(k; a, inf)
    keeps its relative accuracy in the far tail a -> inf.
    """
    if int(k) != k or not 0 <= k <= 6:
        raise ValueError(f"k must be an integer in 0..6, got {k}")
    if a < 0 or not a < b:
        raise ValueError(f"require 0 <= a < b, got a={a}, b={b}")
    k = int(k)
    if k == 0:
        return math.exp(-a) - math.exp(-b)
    s = log_weight_shares((0.0,) * k + (1.0,), np.array([a, b]))[0]
    return float(log_moment_constant(k) * (s[0] - s[1]))


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


def _roots(f, xs: np.ndarray) -> list[tuple[float, bool]]:
    """Every change of the vectorized ``f`` between > 0 and <= 0 on the grid ``xs``.

    Each is refined by ``brentq`` (xtol 1e-12, rtol 8.9e-16) on ``f`` called
    with a scalar.  Returns ascending (root, f falls there) pairs.  A node
    where f is exactly 0 sides with the nonpositive values, so a simple root
    there is found once, with its right flag.
    """
    pos = f(xs) > 0
    return [
        (brentq(lambda t: float(f(t)), xs[i], xs[i + 1], xtol=1e-12, rtol=8.9e-16), bool(pos[i]))
        for i in np.flatnonzero(pos[1:] != pos[:-1])
    ]
