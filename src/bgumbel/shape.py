"""Mode location, bimodality classification, hazard rate and tail rate.

Critical points of the BG density are the roots of

    g(x) = (1/sigma) [exp(-(x - mu)/sigma) - 1] - 2 delta (1 - delta x) / [(1 - delta x)^2 + 1]

since f'(x) = f(x) g(x).  The density is bimodal exactly when g has three
roots r1 < r2 < r3: the outer two are modes, the middle one the antimode.
A sufficient condition set C on (mu, sigma, delta), together with an
x-interval D on which g is strictly increasing, guarantees that root
structure; both are evaluated here as diagnostics alongside a general root
search: one grid of a window proven to hold every root of g, its sign changes
refined by ``brentq``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import BgParams, _bg_weight, _log_density
from .errors import RegimeError, RootIsolationError
from .special import _roots, log_weight_shares

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
    """The critical-point function g whose roots are modes/antimodes (f' = f g)."""
    xv = np.asarray(x, dtype=float)
    w = (xv - p.mu) / p.sigma
    u = 1.0 - p.delta * xv
    with np.errstate(over="ignore"):
        out = (np.exp(-w) - 1.0) / p.sigma - 2.0 * p.delta * u / (u * u + 1.0)
    return out if out.ndim else float(out)


def check_condition_c(p: BgParams) -> ConditionCReport:
    """Evaluate the four sufficient inequalities for a three-root structure.

    An exponential too large for a float is taken as inf, so each inequality
    takes its limit there: 1 and 4 are false, 2 and 3 true.
    """
    mu, sg, dl = p.mu, p.sigma, p.delta

    def ratio(u: float) -> float:
        return 2.0 * dl * u / (u * u + 1.0)

    def exp(t: float) -> float:  # math.exp, but inf where it overflows
        try:
            return math.exp(t)
        except OverflowError:
            return math.inf

    c1 = dl > max(1.0, (exp(mu / sg) - 1.0) / sg)
    c2 = ratio(1.0 + dl) < (exp((1.0 + mu) / sg) - 1.0) / sg
    c3 = ratio(1.0 - 2.0 * dl) < (exp(-(2.0 - mu) / sg) - 1.0) / sg
    c4 = ratio(1.0 - 3.0 * dl) > (exp(-(3.0 - mu) / sg) - 1.0) / sg
    return ConditionCReport(c1 and c2 and c3 and c4, c1, c2, c3, c4)


def _g_increase_gap(p: BgParams, x: float | np.ndarray) -> float | np.ndarray:
    """h(x) = 2 d^2 (u^2-1)/(u^2+1) + exp(-(x-mu)/s)/s^2; D is where h < 0 (g' > 0)."""
    u = 1.0 - p.delta * x
    w = (x - p.mu) / p.sigma
    with np.errstate(over="ignore"):
        return 2.0 * p.delta**2 * (u * u - 1.0) / (u * u + 1.0) + np.exp(-w) / p.sigma**2


def d_interval(p: BgParams) -> tuple[float, float] | None:
    """Interval D on which g is strictly increasing, for parameters in C.

    Condition 1 forces delta > 1, and h < 0 needs (1 - delta x)^2 < 1, so D
    lies in (0, 2/delta).  At both ends (1 - delta x)^2 = 1 and h > 0, so
    D runs from the first to the last sign change of h on a 16385-point
    grid of that interval, each refined by ``brentq``; returns None when h
    has no sign change.
    """
    if not check_condition_c(p).holds:
        raise RegimeError("d_interval requires the condition set C to hold")
    roots = _roots(lambda x: _g_increase_gap(p, x), np.linspace(0.0, 2.0 / p.delta, 16385))
    return (roots[0][0], roots[-1][0]) if roots else None


def _search_grid(p: BgParams) -> np.ndarray:
    """Root-search abscissae on a window [lo, hi] proven to hold every root of g.

    Write g = (e^-w - 1)/sigma - r with w = (x - mu)/sigma, u = 1 - delta x
    and r = 2 delta u/(u^2 + 1), so |r| <= |delta| and |r| < 2|delta|/|u|.
    For x <= lo = mu - sigma (1 + ln(1 + sigma|delta|)), e^-w is at least
    e (1 + sigma|delta|), so g >= (e - 1)(1/sigma + |delta|) > 0.  For
    x >= mu + sigma ln 2, e^-w <= 1/2, and |r| < 1/(2 sigma) too: by
    |r| <= |delta| if sigma|delta| < 1/2, else for x >= 1/delta + 4 sigma,
    where |u| >= 4 sigma|delta|.  So g < 0 for x >= hi, the bound the case
    needs, and any grid of [lo, hi] shows an odd number of sign changes.
    The grid: 4096 points on [lo, hi] and 2048 on each of mu +- 8 sigma and
    1/delta +- 3/|delta| (where the rational term varies), clipped to [lo, hi].
    """
    mu, sg, dl = p.mu, p.sigma, p.delta
    lo = mu - sg * (1.0 + math.log1p(sg * abs(dl)))
    hi = mu + sg * math.log(2.0)
    if sg * abs(dl) >= 0.5:
        hi = max(hi, 1.0 / dl + 4.0 * sg)
    pieces = [np.linspace(lo, hi, 4096)]
    for c, r in [(mu, 8.0 * sg)] + ([(1.0 / dl, 3.0 / abs(dl))] if dl else []):
        if max(lo, c - r) < min(hi, c + r):
            pieces.append(np.linspace(max(lo, c - r), min(hi, c + r), 2048))
    return np.unique(np.concatenate(pieces))


def find_modes(p: BgParams) -> ShapeReport:
    """Locate all critical points of the density and classify the shape.

    Works for arbitrary valid parameters; the condition-set diagnostics are
    reported but never gate the search.  The roots of g are bracketed on one
    grid of a window proven to hold them all (``_search_grid``) and refined
    by ``brentq``; + -> - marks a mode and - -> + the antimode.  A pair of
    roots closer together than the grid spacing can still go unseen.
    """
    roots = _roots(lambda x: critical_function_g(p, x), _search_grid(p))
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


def hazard(p: BgParams, x: float | np.ndarray) -> HazardPoint:
    """Survival S(x) = 1 - F(x) and hazard rate f(x) / S(x), vectorized over ``x``.

    One pass: z = exp(-(x - mu)/sigma), formed with the log density, also
    gives the survival, computed as :func:`~bgumbel.distribution.bg_sf`
    computes it (accurate in relative terms in the far right tail); the
    density has the bits of :func:`~bgumbel.distribution.bg_pdf`.  Only
    where the survival underflows to 0 is the hazard reported at its tail
    limit 1/sigma.
    """
    log_dens, z = _log_density(p, np.asarray(x, dtype=float))
    surv = log_weight_shares(_bg_weight(p), z)[1]
    dens = np.exp(log_dens)
    rate = np.divide(dens, surv, out=np.full_like(surv, tail_rate(p)), where=surv != 0.0)
    if not surv.ndim:
        surv, rate = float(surv), float(rate)
    return HazardPoint(x=x, survival=surv, hazard=rate)
