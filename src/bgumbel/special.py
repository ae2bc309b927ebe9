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
:func:`_log_poly_gamma`.  The private :func:`_brentq`, the package's one
root finder (the modes and the interval D), is a port of Brent's method as
SciPy's ``optimize/Zeros/brentq.c`` writes it (Brent 1973, ch. 4), which
gives the same floats.  The goodness-of-fit p-values come from the pure-Python
:func:`_kolmogorov_sf` and :func:`_chi2_sf`, and psi^(m), m = 0..3, from the
recurrence and asymptotic series of :func:`_polygammas`.  No SciPy is used.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Constants",
    "CONSTANTS",
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
# Gamma^(j)(2) = Gamma^(j)(1) + j Gamma^(j-1)(1), from Gamma(x + 1) = x Gamma(x),
# rounded from 60 digits: that sum of the floats above cancels, down to three
# correct digits at j = 5.
_GAMMA_DERIVS_AT_2 = (
    1.0,
    0.42278433509846713,
    0.8236806608528794,
    0.4894615154825176,
    1.7819762580843335,
    -0.03203784824940177,
    8.030912917054314,
)


_SPLIT = 2.0  # z from which log_weight_shares sums Gauss-Laguerre nodes
_BLOCK = 256  # points per block: keeps the (points x nodes) temporaries small
_Z_MAX = 800.0  # exp(-z) is 0.0 from z = 746 on
_LN_MAX = 709.782712893384  # the largest float whose exponential is finite
_PLANS = 32  # weights whose series table log_weight_shares keeps
_LAGUERRE_T, _LAGUERRE_W = np.polynomial.laguerre.laggauss(40)
# Series factors (-1)^n / n! * (-1)^i / m^(i+1) with m = n + 1, for the i-th
# derivative of the weight, i = 0..6; 32 terms, a power of two for Estrin's
# scheme.  The last is below 1e-25 of the sum for z < 2.
_M = np.arange(1.0, 33.0)
_SIGNED_INV_FACT = np.array([(-1.0) ** n / math.factorial(n) for n in range(_M.size)])
_SERIES_R = tuple((-1.0) ** i * _SIGNED_INV_FACT / _M ** (i + 1) for i in range(7))
_BIT_REVERSED = [int(f"{k:05b}"[::-1], 2) for k in range(32)]


def _horner(c: tuple[float, ...], x: np.ndarray) -> np.ndarray | float:
    """c[0] + c[1] x + c[2] x^2 + ... by Horner's rule, elementwise; it evaluates :func:`_hermite`'s cubics."""
    out = c[-1]
    for ci in c[-2::-1]:
        out = out * x + ci
    return out


def _hermite(f0, f1, m0, m1) -> tuple:
    """Coefficients, constant first, of the cubic on [0, 1] with values f0, f1 and slopes m0, m1 at 0, 1."""
    return f0, m0, 3.0 * (f1 - f0) - 2.0 * m0 - m1, 2.0 * (f0 - f1) + m0 + m1


def _estrin(c, x):
    """sum_n c[n] x^n for each run of 32 coefficients in ``c``, by Estrin's scheme.

    Pairs c[2i] + c[2i+1] x, then pairs of those in x^2, x^4, x^8 and
    x^16, so the runs never mix.  A sequence of floats, run after run,
    with a float ``x`` gives a list of floats, one per run, three levels
    and then two at a time, hand-unrolled: a loop over the levels costs a
    scalar call about half as much again.  An array ``c`` (:func:`_plan`'s
    column), against an array ``x``, gives an array of one row per run, a
    level at a time: its first axis holds the coefficients in an order in
    which each level pairs its first half with its second, so every
    operand is one contiguous block.  Same operations, same bits.
    """
    if isinstance(c, np.ndarray):
        runs = len(c) // 32
        for half in (16 * runs, 8 * runs, 4 * runs, 2 * runs):
            c = c[:half] + c[half:] * x
            x = x * x
        return c[:runs] + c[runs:] * x
    x2 = x * x
    x4 = x2 * x2
    x8 = x4 * x4
    x16 = x8 * x8
    eights = iter(c)
    c = [(a + b * x + (d + e * x) * x2) + (f + g * x + (h + k * x) * x2) * x4
         for a, b, d, e, f, g, h, k in zip(*[eights] * 8)]
    fours = iter(c)
    return [(a + b * x8) + (d + e * x8) * x16 for a, b, d, e in zip(*[fours] * 4)]


def _exp(t: float | np.ndarray) -> float | np.ndarray:
    """np.exp(t), with its bits, and inf where it overflows, without a warning.

    The package's one rule for e^t.  A Python float gives a float, by one
    comparison with ``_LN_MAX``, so a scalar caller such as each of Brent's
    steps pays no ``np.errstate``; anything else (an array, a 0-d array, a
    numpy scalar) gives what ``np.exp`` gives.
    """
    if type(t) is float:
        return float(np.exp(t)) if not t > _LN_MAX else math.inf
    with np.errstate(over="ignore"):
        return np.exp(t)


@functools.lru_cache(maxsize=_PLANS)
def _plan(q: tuple[float, ...]) -> tuple[tuple[float, ...], np.ndarray, tuple[float, ...]]:
    """The weight q / T, whose integral is 1, and its series table in two forms.

    T = int_0^inf q(ln v) e^-v dv.  Row j of the (d + 1, 32) table holds
    C[j, n] = sum_i q^(i)_j R_i[n] for the normalized weight, where q^(i)_j
    is the coefficient of L^j in its i-th derivative and R_i the series
    factors, so the n-th series term of :func:`_lower_series` is
    z^(n+1) sum_j C[j, n] L^j.  The table is kept, for the last ``_PLANS``
    weights, in the two forms that :func:`_estrin` takes: for arrays, a
    read-only column whose entry k (d + 1) + j is C[j, n] with n the 5-bit
    reversal of k; for floats, Python floats row after row.
    """
    total = _log_poly_gamma(q)
    q = tuple(c / total for c in q)
    deriv = np.array(q)
    table = np.zeros((len(q), _M.size))
    for r in _SERIES_R[: len(q)]:
        table[: deriv.size] += deriv[:, None] * r
        deriv = deriv[1:] * np.arange(1.0, deriv.size)
    column = table[:, _BIT_REVERSED].T.reshape(-1, 1)
    column.flags.writeable = False
    return q, column, tuple(table.ravel().tolist())


def _upper_laguerre(q: tuple[float, ...], z: np.ndarray) -> np.ndarray:
    """int_z^inf q(ln v) e^-v dv = e^-z int_0^inf q(ln(z + t)) e^-t dt, for z >= 2.

    e^-z is applied as two factors e^(-z/2), so a result below the normal
    range is rounded once, not scaled from an e^-z that already lost its
    digits.  For a constant q, Horner gives one scalar, so the sum runs
    over the last axis.  z is taken as at most 800, where e^-z is 0.0.
    """
    z = np.minimum(z, _Z_MAX)
    ell = np.log(z[:, None] + _LAGUERRE_T)
    half = np.exp(-0.5 * z)
    return half * (_horner(q, ell) * _LAGUERRE_W).sum(axis=-1) * half


def _lower_series(coef, z):
    """int_0^z q(ln v) e^-v dv by the power series of e^-v, for 0 <= z < 2.

    With m = n + 1 and L = ln z, int_0^z v^n q(ln v) dv is
    z^m sum_i (-1)^i q^(i)(L) / m^(i+1), and the n-th term carries
    (-1)^n / n!.  Summed over i first, that is z^m sum_j C[j, n] L^j for
    the weight's table C (:func:`_plan`).  So the sum is z times a Horner
    in L over the rows' polynomials sum_n C[j, n] z^n, each by Estrin's
    scheme.  The factor z comes last, so a subnormal z keeps every digit
    the result can hold.  Elementwise: a float z with the table as floats
    gives a float, an array z with the table as a column gives an array,
    with the same bits (:func:`_plan` keeps both).
    """
    ln_z = np.log(z + (z == 0.0))  # ln 1 at z = 0, where the factor z gives 0
    return _horner(_estrin(coef, z), ln_z) * z


def _blocked(part, coef, z: np.ndarray) -> np.ndarray:
    """``part(coef, z)`` on the 1-D array ``z``, in blocks of ``_BLOCK`` points.

    An empty ``z`` is returned as it is, so a regime without points costs
    nothing.
    """
    if not z.size:
        return z
    if z.size <= _BLOCK:
        return part(coef, z)
    out = np.empty_like(z)
    for i in range(0, z.size, _BLOCK):
        out[i : i + _BLOCK] = part(coef, z[i : i + _BLOCK])
    return out


def log_weight_shares(
    q: tuple[float, ...], z: float | np.ndarray
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Upper and lower shares of the log-polynomial-weighted exponential integral.

    For the weight w(v) = q(ln v) = q0 + q1 ln v + ... + qd ln^d v, d <= 6,
    and z >= 0 (elementwise),

        upper = int_z^inf w(v) e^-v dv / T,   lower = int_0^z w(v) e^-v dv / T,

    with T = int_0^inf w(v) e^-v dv = sum_j qj Gamma^(j)(1), which must not
    be 0.  For z >= 2 the upper integral is e^-z times a 40-node
    Gauss-Laguerre sum of w(z + t); for z < 2 the lower integral is the
    power series sum_n (-1)^n/n! int_0^z v^n w(v) dv, 32 terms, which is z
    times a polynomial in ln z whose coefficients are polynomials in z
    (:func:`_lower_series`).  The weight divided by T and the series
    table, (d + 1, 32), are built once per weight and kept for the last 32
    weights (:func:`_plan`).  A float z runs on Python floats and an array
    z on numpy arrays, whatever its size or regimes, with the same bits:
    an array call pays a fixed numpy cost, a float one only for its point.
    Each regime gets the other share as 1 minus its own.  For the positive
    weights of the distribution functions that difference is never small
    (the lower part holds most of T from z = 2 on, the upper part a few
    percent or more below it), so it costs at most about one digit.  The
    share computed directly keeps its relative accuracy down to the
    smallest normal numbers: upper in the left tail of X = mu - sigma ln V,
    lower in the right tail.  A signed weight (ln^k v for odd k, say) can
    make a part itself pass through 0; near there only the absolute
    accuracy, about 1e-16 in the share, holds.

    Returns two floats for a float (or int) ``z``, else two arrays of the
    shape of ``z`` (0-d for a 0-d array).
    """
    q, column, floats = _plan(tuple(map(float, q)))
    if isinstance(z, (float, int)):
        z = float(z)
        if z >= _SPLIT:
            upper = float(_upper_laguerre(q, np.array([z]))[0])
            return upper, 1.0 - upper
        lower = float(_lower_series(floats, z))
        return 1.0 - lower, lower
    zs = np.asarray(z, dtype=float)
    flat = zs.ravel()
    far = flat >= _SPLIT
    near = ~far
    upper, lower = np.empty_like(flat), np.empty_like(flat)
    part = _blocked(_upper_laguerre, q, flat[far])
    upper[far], lower[far] = part, 1.0 - part
    part = _blocked(_lower_series, column, flat[near])
    lower[near], upper[near] = part, 1.0 - part
    return upper.reshape(zs.shape), lower.reshape(zs.shape)


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
    q = (0.0,) * k + (1.0,)
    return float(log_moment_constant(k) * (log_weight_shares(q, a)[0] - log_weight_shares(q, b)[0]))


def log_moment_constant(k: int) -> float:
    """Closed-form value of I(k; 0, inf) for k = 0..6."""
    if not 0 <= k <= 6:
        raise ValueError(f"closed-form log-moment constants cover k = 0..6, got {k}")
    return _LOG_MOMENT_CONSTANTS[k]


def digamma(x: float) -> float:
    """Digamma function psi(x) = Gamma'(x) / Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    return _polygammas(x)[0]


def trigamma(x: float) -> float:
    """Trigamma function psi'(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"trigamma requires x > 0, got {x}")
    return _polygammas(x)[1]


def gamma_deriv(i: int, x: float) -> float:
    """i-th derivative of the gamma function at x > 0, for i = 0..4.

    Uses the polygamma representation
        Gamma'   = Gamma * psi
        Gamma''  = Gamma * (psi^2 + psi')
        Gamma''' = Gamma * (psi^3 + 3 psi psi' + psi'')
        Gamma'''' = Gamma * (psi^4 + 6 psi^2 psi' + 3 psi'^2 + 4 psi psi'' + psi''')
    and is inf where Gamma(x) overflows.
    """
    if x <= 0:
        raise ValueError(f"gamma_deriv requires x > 0, got {x}")
    if not 0 <= i <= 4:
        raise ValueError(f"gamma derivatives implemented for order 0..4, got {i}")
    try:
        gam = math.gamma(x)
    except OverflowError:  # x above 171.62
        gam = math.inf
    return gam * _log_poly_gamma((0.0,) * i + (1.0,), x)


# B_2, ..., B_20; _PSI_SERIES[m] is 0, then B_2k (2k+m-1)!/(2k)! for k = 1..10.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798,
              -174611 / 330)
_PSI_SERIES = tuple((0.0,) + tuple(b * math.factorial(2 * k + m - 1) / math.factorial(2 * k)
                                   for k, b in enumerate(_BERNOULLI, 1)) for m in range(4))


def _polygammas(x: float) -> tuple[float, float, float, float]:
    """psi^(m)(x) = d^(m+1)/dx^(m+1) ln Gamma(x) for m = 0..3 and x > 0.

    psi^(m)(x) = psi^(m)(x + 1) - (-1)^m m! / x^(m+1) carries x to z >= 10,
    where psi^(m)(z) ~ (-1)^(m-1) [(m-1)!/z^m + m!/(2 z^(m+1)) + sum_k B_2k
    (2k+m-1)!/((2k)! z^(2k+m))], with -ln z for (m-1)!/z^m at m = 0, is
    summed to B_20 (Abramowitz & Stegun 6.3.18, 6.4.11).  For m >= 1 all
    terms share a sign, so the error is relative; psi, which has a root,
    is accurate relative to max(|psi|, 1).  Where x^-4 or z^4 is above the
    float range (x below about 1e-77 or above about 1.2e77), each is its
    leading term, -1/x, 1/x^2, -2/x^3, 6/x^4 or ln x, 1/x, -1/x^2, 2/x^3,
    which the next term changes by under 1e-76 relative (inf where it
    overflows).
    """
    n = max(0, math.ceil(10.0 - x))
    z = x + n
    out = []
    try:
        for m, c in enumerate(_PSI_SERIES):
            fact = math.factorial(m)
            head = -math.log(z) if m == 0 else math.factorial(m - 1) / z**m
            series = _horner(c, 1.0 / (z * z)) / z**m + fact / (2.0 * z ** (m + 1)) + head
            near = fact * sum((x + j) ** -(m + 1) for j in range(n))
            out.append((-1.0) ** (m - 1) * (series + near))
    except OverflowError:
        if x < 1.0:
            return -1.0 / x, 1.0 / x / x, -2.0 / x / x / x, 6.0 / x / x / x / x
        return math.log(x), 1.0 / x, -1.0 / x / x, 2.0 / x / x / x
    return tuple(out)


def _log_poly_gamma(q: tuple[float, ...], a: float = 1.0) -> float:
    """int_0^inf q(ln v) v^(a-1) e^-v dv / Gamma(a) = sum_j q_j Gamma^(j)(a) / Gamma(a), for a > 0.

    ``q`` holds the coefficients of 1, ln v, ln^2 v, ...  At a = 1 and 2,
    where Gamma(a) = 1, the derivatives, j = 0..6, come from the exact
    constants (-1)^j I(j; 0, inf); at any other a the ratios come from the
    polygamma forms of :func:`gamma_deriv`, j = 0..4, so the sum stays
    finite where Gamma(a) overflows.  With X = mu - sigma ln V, every
    moment and exponential moment of the package is Gamma(a) times this
    sum for some q and a.
    """
    if a == 1.0 or a == 2.0:
        derivs = _GAMMA_DERIVS_AT_1 if a == 1.0 else _GAMMA_DERIVS_AT_2
    else:
        psi, p1, p2, p3 = _polygammas(a)
        derivs = (1.0, psi, psi**2 + p1, psi**3 + 3.0 * psi * p1 + p2,
                  psi**4 + 6.0 * psi**2 * p1 + 3.0 * p1**2 + 4.0 * psi * p2 + p3)
    if len(q) > len(derivs):
        raise ValueError(f"log-polynomial degree {len(q) - 1} exceeds {len(derivs) - 1} at a = {a}")
    return sum(c * g for c, g in zip(q, derivs))


_RTOL, _ITERATIONS = 8.9e-16, 100  # of _brentq


def _brentq(f, xa: float, xb: float, xtol: float = 1e-12) -> float:
    """A root of ``f`` in [xa, xb], where f changes sign, by Brent's method.

    A line-for-line port of SciPy's ``optimize/Zeros/brentq.c``, so it
    returns the same float as ``scipy.optimize.brentq`` with the same
    ``xtol``, rtol 8.9e-16 and at most 100 iterations.  Each step takes the
    inverse quadratic (or secant) step when it is short enough and bisects
    otherwise (also where it divides by zero: C's inf or nan is not short),
    and the search stops when half the bracket is under (xtol + rtol |x|) / 2.
    A NaN value of f raises ValueError, as does a bracket without a sign
    change; running out of iterations raises RuntimeError.
    """
    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ITERATIONS):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's inf or nan, which fails the test below
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"brentq did not converge in {_ITERATIONS} iterations; last x = {xcur}")


def _kolmogorov_sf(y: float) -> float:
    """P(K > y) for the Kolmogorov distribution K, the limit law of sqrt(n) D_n.

    For y >= 1 the alternating series 2 sum_k (-1)^(k-1) exp(-2 k^2 y^2);
    below 1, one minus the theta-function form of the distribution
    function, (sqrt(2 pi)/y) sum_k exp(-(2k - 1)^2 pi^2 / (8 y^2))
    (Marsaglia, Tsang & Wang 2003).  Five terms of either leave a
    remainder below 1e-30 of the sum.  Below y = 0.1 the distribution
    function is under 1e-50, so the result is 1.
    """
    ks = range(5, 0, -1)  # smallest term first
    if y >= 1.0:
        return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * y * y) for k in ks)
    if y < 0.1:
        return 1.0
    t = _PI * _PI / (8.0 * y * y)
    return 1.0 - math.sqrt(2.0 * _PI) / y * sum(math.exp(-(2 * k - 1) ** 2 * t) for k in ks)


def _chi2_sf(x: float, k: int) -> float:
    """P(X > x) for X chi-square with an integer number k >= 1 of degrees of freedom.

    With lam = x/2 this is the regularized upper gamma function Q(k/2, lam).
    Q(a, lam) = Q(a - 1, lam) + lam^(a-1) e^-lam / Gamma(a) steps down to
    Q(1, lam) = e^-lam for even k and Q(1/2, lam) = erfc(sqrt(lam)) for odd
    k, so Q is a finite sum: a Poisson tail for even k and erfc plus a sum
    for odd k.  Each term is exp(nu ln lam - lam - lgamma(nu + 1)), so none
    overflows or underflows while it still counts, at any k and x.
    """
    if not x > 0.0:
        return 1.0
    lam = 0.5 * x
    ln_lam = math.log(lam)
    half = 0.5 * (k % 2)
    nus = [j + half for j in range(k // 2)]
    terms = sum(math.exp(nu * ln_lam - lam - math.lgamma(nu + 1.0)) for nu in nus)
    return (math.erfc(math.sqrt(lam)) if half else 0.0) + terms
