"""Mode location, bimodality classification, hazard rate and tail rate.

Critical points of the BG density are the roots of

    g(x) = (1/sigma) [exp(-(x - mu)/sigma) - 1] - 2 delta (1 - delta x) / [(1 - delta x)^2 + 1]

since f'(x) = f(x) g(x).  With t = delta x, u = 1 - t, w = (x - mu)/sigma,
g' = (e^-w/sigma^2)(e^phi_2 - 1) for 0 < t < 2, and g' < 0 for other x, where

    phi_k = ln(2 sigma^2 delta^2) + ln(t (2 - t)) - k ln(1 + u^2) + w

is strictly concave in t.  So g has at most two extrema and three roots
r1 < r2 < r3, and the density is at most bimodal: the outer roots are
modes, the middle one the antimode.  The paper's sufficient condition set C
and interval D = {h < 0} = {phi_1 > 0} are reported as diagnostics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import BgParams, _bg_weight, _float_or_array, _log_density
from .errors import RegimeError, RootIsolationError
from .special import _brentq, _exp, log_weight_shares

_EPS = float(np.finfo(float).eps)

__all__ = [
    "ConditionCReport",
    "ShapeReport",
    "HazardPoint",
    "critical_function_g",
    "check_condition_c",
    "d_interval",
    "find_modes",
    "hazard",
    "tail_rate",
]


@dataclass(frozen=True)
class ConditionCReport:
    """Truth values of the four inequalities defining the condition set C."""

    holds: bool
    inequality1: bool
    inequality2: bool
    inequality3: bool
    inequality4: bool

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class ShapeReport:
    """Mode structure of a BG density.

    ``modes`` is ascending; a bimodal report carries exactly two modes and
    the antimode strictly between them.
    """

    modality: str  # "unimodal" | "bimodal"
    modes: tuple[float, ...]
    antimode: float | None
    condition_c_holds: bool
    r2_in_d: bool
    d_interval: tuple[float, float] | None


@dataclass(frozen=True)
class HazardPoint:
    """Survival and hazard rate at ``x``: floats for a scalar ``x``, arrays for
    an array ``x`` (compare those with ``np.array_equal``, not ``==``)."""

    x: float | np.ndarray
    survival: float | np.ndarray
    hazard: float | np.ndarray


def critical_function_g(p: BgParams, x: float | np.ndarray) -> float | np.ndarray:
    """The critical-point function g whose roots are modes/antimodes (f' = f g).

    A scalar ``x``, such as each of Brent's steps, is evaluated on Python
    floats, with the bits of the array path.
    """
    xv = _float_or_array(x)
    w = (xv - p.mu) / p.sigma
    u = 1.0 - p.delta * xv
    if type(xv) is float:
        return (_exp(-w) - 1.0) / p.sigma - 2.0 * p.delta * u / (u * u + 1.0)
    with np.errstate(over="ignore"):
        return (np.exp(-w) - 1.0) / p.sigma - 2.0 * p.delta * u / (u * u + 1.0)


def check_condition_c(p: BgParams) -> ConditionCReport:
    """The paper's four sufficient inequalities for a three-root structure, as signs of g.

    They read delta > 1 and g(0) < 0, g(-1) > 0, g(2) > 0 and g(3) < 0.  An
    exponential too large for a float is inf, so each takes its limit there:
    1 and 4 are false, 2 and 3 true.
    """
    c1 = p.delta > 1.0 and critical_function_g(p, 0.0) < 0.0
    c2 = critical_function_g(p, -1.0) > 0.0
    c3 = critical_function_g(p, 2.0) > 0.0
    c4 = critical_function_g(p, 3.0) < 0.0
    return ConditionCReport(c1 and c2 and c3 and c4, c1, c2, c3, c4)


def _crossings(p: BgParams, k: int) -> tuple[float, float] | None:
    """The zeros x_a < x_b of phi_k (module docstring), or None if phi_k <= 0.

    Solved in s = ln(t/(2 - t)), where ln(t (2 - t)) = 2 ln 2 - |s| -
    2 ln(1 + e^-|s|) keeps its digits at both ends and phi_k <= c + w - |s|,
    c = ln(8 sigma^2 delta^2), with w monotone in s, bounds each zero's
    bracket.  dphi_k/ds has the sign of psi = 1/(delta sigma) - sinh s +
    2k u/(1 + u^2), which falls strictly, so the maximum lies where sinh s
    is within k of 1/(delta sigma); a margin of 2k holds for sigma|delta|
    above about 1e-14.  Every solve has xtol 4 eps in s.
    """
    mu, sg, dl = p.mu, p.sigma, p.delta
    a, c = 1.0 / (dl * sg), math.log(8.0 * (sg * dl) ** 2)

    def t_at(s: float) -> float:
        e = math.exp(-abs(s))
        return 2.0 * (e if s < 0.0 else 1.0) / (1.0 + e)

    def w(t: float) -> float:
        return (t / dl - mu) / sg

    def phi(s: float) -> float:
        t = t_at(s)
        return c - abs(s) - 2.0 * math.log1p(math.exp(-abs(s))) - k * math.log1p((1.0 - t) ** 2) + w(t)

    def psi(s: float) -> float:
        u = -math.tanh(0.5 * s)
        return a - math.sinh(s) + 2.0 * k * u / (1.0 + u * u)

    top = _brentq(psi, math.asinh(a - 2.0 * k), math.asinh(a + 2.0 * k), 4.0 * _EPS)
    if not phi(top) > 0.0:
        return None
    w_top = w(t_at(top))
    ends = (-(c + max(w(0.0), w_top) + 1.0), c + max(w(2.0), w_top) + 1.0)
    x_a, x_b = sorted(t_at(_brentq(phi, top, end, 4.0 * _EPS)) / dl for end in ends)
    return x_a, x_b


def d_interval(p: BgParams) -> tuple[float, float] | None:
    """The paper's interval D = {x : h(x) < 0}, for parameters in C.

    h = 2 delta^2 (u^2 - 1)/(u^2 + 1) + e^-w/sigma^2 < 0 exactly where
    phi_1 > 0.  D contains the interval where g increases, ``_crossings(p, 2)``,
    but is wider: h has (u^2 + 1) where -g' has (u^2 + 1)^2.
    """
    if not check_condition_c(p).holds:
        raise RegimeError("d_interval requires the condition set C to hold")
    return _crossings(p, 1)


def find_modes(p: BgParams) -> ShapeReport:
    """Locate all critical points of the density and classify the shape.

    The condition-set diagnostics never gate the search.  With
    r = 2 delta u/(u^2 + 1), |r| <= |delta| and |r| < 2|delta|/|u|, so
    g >= (e - 1)(1/sigma + |delta|) > 0 for x <= lo = mu - sigma (1 + ln(1 + sigma|delta|)),
    and g < 0 for x >= hi: e^-w <= 1/2 beyond mu + sigma ln 2, and |r| < 1/(2 sigma)
    if sigma|delta| < 1/2, else beyond 1/delta + 4 sigma.  In the first case g' < 0
    on all of [lo, hi] (e^-w >= 1/2 there, 2 delta^2 (1 - u^2)/(1 + u^2)^2 <= 2 delta^2);
    else g rises only on (x_a, x_b) = ``_crossings(p, 2)``.  So g is monotone between
    the cuts lo, x_a, x_b, hi, and each pair that differs in sign (> 0 against <= 0)
    holds one root: 1 or 3 in all.  Brent's rtol 8.9e-16 ties each root's tolerance
    to the root; the xtol eps sigma/16 floors it near 0, at a sixteenth of the step
    in x at which e^-w rounds.
    """
    mu, sg, dl = p.mu, p.sigma, p.delta
    lo, hi = mu - sg * (1.0 + math.log1p(sg * abs(dl))), mu + sg * math.log(2.0)
    inner: tuple[float, ...] = ()
    if sg * abs(dl) >= 0.5:
        hi = max(hi, 1.0 / dl + 4.0 * sg)
        inner = tuple(min(max(x, lo), hi) for x in _crossings(p, 2) or ())
    cuts = (lo, *inner, hi)

    pos = [critical_function_g(p, x) > 0.0 for x in cuts]
    roots = [(_brentq(lambda x: critical_function_g(p, x), a, b, _EPS * sg / 16.0), pos_a)
             for a, b, pos_a, pos_b in zip(cuts, cuts[1:], pos, pos[1:]) if pos_a != pos_b]
    if [is_mode for _, is_mode in roots] not in ([True], [True, False, True]):
        raise RootIsolationError(f"unexpected critical-point structure for {p}: {roots}")
    modes = tuple(r for r, is_mode in roots if is_mode)
    antimode = roots[1][0] if len(roots) == 3 else None

    creport = check_condition_c(p)
    dint = _crossings(p, 1) if creport.holds else None
    r2_in_d = bool(
        antimode is not None and dint is not None and dint[0] < antimode < dint[1]
    )
    return ShapeReport(
        modality="bimodal" if antimode is not None else "unimodal",
        modes=modes,
        antimode=antimode,
        condition_c_holds=creport.holds,
        r2_in_d=r2_in_d,
        d_interval=dint,
    )


def tail_rate(p: BgParams) -> float:
    """Right-tail decay rate -lim d ln f / dx = 1/sigma (exponential-like tail)."""
    return 1.0 / p.sigma


def hazard(p: BgParams, x: float | np.ndarray) -> HazardPoint:
    """Survival S(x) = 1 - F(x) and hazard rate f(x) / S(x), vectorized over ``x``.

    One pass: z = exp(-(x - mu)/sigma), formed with the log density, also
    gives the survival, computed as :func:`~bgumbel.distribution.bg_sf`
    computes it (accurate in relative terms in the far right tail); the
    density has the bits of :func:`~bgumbel.distribution.bg_pdf`.  Only
    where the survival underflows to 0 is the hazard reported at its tail
    limit 1/sigma.  A scalar ``x`` runs on Python floats and gives float
    fields, with the bits of the array path.
    """
    xv = _float_or_array(x)
    log_dens, z = _log_density(p, xv)
    surv = log_weight_shares(_bg_weight(p), z)[1]
    if type(xv) is float:
        rate = float(np.exp(log_dens)) / surv if surv != 0.0 else tail_rate(p)
    else:
        dens = np.exp(log_dens)
        rate = np.divide(dens, surv, out=np.full_like(surv, tail_rate(p)), where=surv != 0.0)
    return HazardPoint(x=x, survival=surv, hazard=rate)
