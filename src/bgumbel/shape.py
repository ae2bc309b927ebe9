"""Mode location, bimodality classification, hazard rate and tail rate.

Critical points of the BG density are the roots of

    g(x) = (1/sigma) [exp(-(x - mu)/sigma) - 1] - 2 delta (1 - delta x) / [(1 - delta x)^2 + 1]

since f'(x) = f(x) g(x).  The density is bimodal exactly when g has three
roots r1 < r2 < r3: the outer two are modes, the middle one the antimode.
A sufficient condition set C on (mu, sigma, delta), together with an
x-interval D on which g is strictly increasing, guarantees that root
structure; both are evaluated here as diagnostics alongside a fully general
grid-plus-bisection root search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .distribution import BgParams, bg_pdf, bg_sf
from .errors import RegimeError, RootIsolationError

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

_GRID_SIZES = (4096, 8192, 16384, 32768, 65536)
_MIN_ABS_DELTA = 0.05  # caps the search-window widening for small |delta|


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
    """Survival and hazard rate at a point."""

    x: float
    survival: float
    hazard: float


def critical_function_g(p: BgParams, x: float | np.ndarray) -> float | np.ndarray:
    """The critical-point function g whose roots are modes/antimodes (f' = f g)."""
    xv = np.asarray(x, dtype=float)
    w = (xv - p.mu) / p.sigma
    u = 1.0 - p.delta * xv
    with np.errstate(over="ignore"):
        out = (np.exp(-w) - 1.0) / p.sigma - 2.0 * p.delta * u / (u * u + 1.0)
    return out if out.ndim else float(out)


def check_condition_c(p: BgParams) -> ConditionCReport:
    """Evaluate the four sufficient inequalities for a three-root structure."""
    mu, sg, dl = p.mu, p.sigma, p.delta

    def ratio(u: float) -> float:
        return 2.0 * dl * u / (u * u + 1.0)

    c1 = dl > max(1.0, (math.exp(mu / sg) - 1.0) / sg)
    c2 = ratio(1.0 + dl) < (math.exp((1.0 + mu) / sg) - 1.0) / sg
    c3 = ratio(1.0 - 2.0 * dl) < (math.exp(-(2.0 - mu) / sg) - 1.0) / sg
    c4 = ratio(1.0 - 3.0 * dl) > (math.exp(-(3.0 - mu) / sg) - 1.0) / sg
    return ConditionCReport(c1 and c2 and c3 and c4, c1, c2, c3, c4)


def _g_increase_gap(p: BgParams, x: np.ndarray) -> np.ndarray:
    """h(x) = 2 d^2 (u^2-1)/(u^2+1) + exp(-(x-mu)/s)/s^2; D is where h < 0 (g' > 0)."""
    u = 1.0 - p.delta * x
    w = (x - p.mu) / p.sigma
    with np.errstate(over="ignore"):
        return 2.0 * p.delta**2 * (u * u - 1.0) / (u * u + 1.0) + np.exp(-w) / p.sigma**2


def d_interval(p: BgParams) -> tuple[float, float] | None:
    """Interval D on which g is strictly increasing, for parameters in C.

    Located by sign-scanning on a dense grid and bisection-refining the
    endpoints; returns None when no sign change is found.
    """
    if not check_condition_c(p).holds:
        raise RegimeError("d_interval requires the condition set C to hold")
    # Condition 1 forces delta > 1; the defining inequality can only hold
    # where (1 - delta x)^2 < 1, i.e. x in (0, 2/delta).
    lo, hi = 0.0, 2.0 / p.delta
    xs = np.linspace(lo, hi, 16385)
    hv = _g_increase_gap(p, xs)
    neg = np.flatnonzero(hv < 0.0)
    if neg.size == 0:
        return None
    i0, i1 = neg[0], neg[-1]
    f = lambda t: float(_g_increase_gap(p, np.asarray([t]))[0])
    left = brentq(f, xs[i0 - 1], xs[i0], xtol=1e-12) if i0 > 0 else lo
    right = brentq(f, xs[i1], xs[i1 + 1], xtol=1e-12) if i1 < xs.size - 1 else hi
    return float(left), float(right)


def _search_grid(p: BgParams, n: int) -> np.ndarray:
    """Root-search abscissae: wide window plus clusters at both natural scales."""
    reach = 10.0 / max(abs(p.delta), _MIN_ABS_DELTA)
    lo = p.mu - 10.0 * p.sigma - reach
    hi = p.mu + 10.0 * p.sigma + reach
    pieces = [np.linspace(lo, hi, n)]
    pieces.append(np.linspace(p.mu - 8.0 * p.sigma, p.mu + 8.0 * p.sigma, n // 2))
    if p.delta != 0.0:
        # The rational term varies on the 1/delta scale around x = 1/delta.
        c, r = 1.0 / p.delta, 3.0 / abs(p.delta)
        pieces.append(np.linspace(max(lo, c - r), min(hi, c + r), n // 2))
    return np.unique(np.concatenate(pieces))


def find_modes(p: BgParams) -> ShapeReport:
    """Locate all critical points of the density and classify the shape.

    Works for arbitrary valid parameters; the condition-set diagnostics are
    reported but never gate the search.  Roots are bracketed on an adaptive
    grid and refined by bisection; a sign change + -> - marks a mode and
    - -> + marks the antimode.
    """
    roots: list[tuple[float, bool]] = []
    for n in _GRID_SIZES:
        xs = _search_grid(p, n)
        gv = critical_function_g(p, xs)
        sgn = np.sign(gv)
        idx = np.flatnonzero(np.diff(sgn) != 0)
        roots = []
        for i in idx:
            r = brentq(
                lambda t: float(critical_function_g(p, t)),
                xs[i],
                xs[i + 1],
                xtol=1e-12,
                rtol=8.9e-16,
            )
            is_mode = sgn[i] > 0  # + -> - : density rises then falls
            roots.append((float(r), bool(is_mode)))
        # g -> +inf on the far left and -> -1/sigma on the far right, so the
        # number of simple roots must be odd; an even count means a pair is
        # hiding between grid nodes.
        if len(roots) % 2 == 1:
            break
    else:
        raise RootIsolationError(
            f"could not isolate an odd number of critical points for {p}; "
            f"found {len(roots)} sign changes at the finest grid"
        )

    modes = tuple(r for r, is_mode in roots if is_mode)
    antimodes = tuple(r for r, is_mode in roots if not is_mode)
    if len(modes) == 1 and not antimodes:
        modality, antimode = "unimodal", None
    elif len(modes) == 2 and len(antimodes) == 1:
        modality, antimode = "bimodal", antimodes[0]
    else:
        raise RootIsolationError(
            f"unexpected critical-point structure for {p}: modes={modes}, antimodes={antimodes}"
        )

    creport = check_condition_c(p)
    dint = d_interval(p) if creport.holds else None
    r2_in_d = bool(
        antimode is not None and dint is not None and dint[0] < antimode < dint[1]
    )
    return ShapeReport(
        modality=modality,
        modes=modes,
        antimode=antimode,
        condition_c_holds=creport.holds,
        r2_in_d=r2_in_d,
        d_interval=dint,
    )


def tail_rate(p: BgParams) -> float:
    """Right-tail decay rate -lim d ln f / dx = 1/sigma (exponential-like tail)."""
    return 1.0 / p.sigma


def hazard(p: BgParams, x: float) -> HazardPoint:
    """Survival S(x) = 1 - F(x) and hazard rate f(x) / S(x).

    The survival comes from :func:`~bgumbel.distribution.bg_sf`, accurate in
    relative terms in the far right tail.  Only where it underflows to 0 is
    the hazard reported at its tail limit 1/sigma.
    """
    surv = bg_sf(p, x)
    if surv == 0.0:
        return HazardPoint(x=x, survival=0.0, hazard=tail_rate(p))
    return HazardPoint(x=x, survival=surv, hazard=bg_pdf(p, x) / surv)
