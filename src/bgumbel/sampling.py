"""Random-variate generation and chain diagnostics.

Two generators are provided:

* :func:`mh_sample` - a random-walk Metropolis sampler targeting the BG log
  density.  This works for every valid parameter triple.
* :func:`representation_sample` - exact i.i.d. draws built from the
  three-part weighted-Gumbel mixture representation of the distribution
  function, valid in the regime delta * (mu + sigma * gamma) < 0 where all
  three mixture probabilities are nonnegative.  The middle mixture
  component carries a signed weight (the weight y changes sign on the
  Gumbel support), so the components cannot be inverted one at a time;
  instead the assembled mixture distribution function
  p1 F0 + p2 F1 + p3 F2 - which is the monotone BG distribution function -
  is tabulated once on an adaptive grid and inverted through a monotone
  cubic interpolant.

Randomness comes from ``numpy.random.default_rng`` (PCG64); the seed is part
of the public contract and identical seeds give bit-identical output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import PchipInterpolator

from .distribution import BgParams, _bracket, bg_cdf, bg_moment_set, bg_pdf, normalizer
from .errors import RegimeError
from .special import CONSTANTS

__all__ = [
    "McmcConfig",
    "Chain",
    "ChainSummary",
    "mh_sample",
    "representation_sample",
    "chain_summary",
    "save_draws_csv",
]

_EG = CONSTANTS.euler_gamma
_ACCEPTANCE_BAND = (0.1, 0.6)


@dataclass(frozen=True)
class McmcConfig:
    """Tuning of the random-walk Metropolis sampler.

    ``burn_in``, ``proposal_scale`` and ``initial_point`` may be left as None
    to use the defaults: 10% of the iterations, 2.4 x the target standard
    deviation, and the location parameter mu.
    """

    n_iterations: int
    burn_in: int | None = None
    proposal_scale: float | None = None
    seed: int = 0
    initial_point: float | None = None

    def __post_init__(self) -> None:
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be positive")
        if self.burn_in is not None and not 0 <= self.burn_in < self.n_iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < n_iterations")
        if self.proposal_scale is not None and self.proposal_scale <= 0:
            raise ValueError("proposal_scale must be positive")


@dataclass(frozen=True)
class Chain:
    """Post-burn-in draws plus acceptance bookkeeping."""

    draws: np.ndarray
    acceptance_rate: float
    seed: int

    @property
    def acceptance_flag(self) -> str | None:
        """Warning string when the acceptance rate falls outside [0.1, 0.6]."""
        lo, hi = _ACCEPTANCE_BAND
        if self.acceptance_rate < lo:
            return f"acceptance rate {self.acceptance_rate:.3f} below {lo}; proposal scale likely too large"
        if self.acceptance_rate > hi:
            return f"acceptance rate {self.acceptance_rate:.3f} above {hi}; proposal scale likely too small"
        return None


@dataclass(frozen=True)
class ChainSummary:
    """Sample mean/variance of a chain, with bias helpers against a target law."""

    mean: float
    variance: float
    n: int

    def bias_vs(self, p: BgParams) -> tuple[float, float]:
        """(sample mean - E[X], sample variance - Var[X]) under ``p``."""
        ms = bg_moment_set(p)
        return self.mean - ms.mean, self.variance - ms.variance


def _default_proposal_scale(p: BgParams) -> float:
    try:
        var = bg_moment_set(p).variance
        if math.isfinite(var) and var > 0:
            return 2.4 * math.sqrt(var)
    except (ValueError, OverflowError):
        pass
    return p.sigma


def mh_sample(p: BgParams, cfg: McmcConfig) -> Chain:
    """Random-walk Metropolis chain targeting the BG density.

    Gaussian increments of standard deviation ``proposal_scale``; the target
    is evaluated in log space.  Deterministic given the seed.
    """
    n = cfg.n_iterations
    burn = cfg.burn_in if cfg.burn_in is not None else n // 10
    scale = cfg.proposal_scale if cfg.proposal_scale is not None else _default_proposal_scale(p)
    x = cfg.initial_point if cfg.initial_point is not None else p.mu

    rng = np.random.default_rng(cfg.seed)
    steps = rng.normal(0.0, scale, size=n)
    log_u = np.log(rng.uniform(size=n))

    mu, sg, dl = p.mu, p.sigma, p.delta
    log_norm = math.log(sg * normalizer(p))

    def logpdf(v: float) -> float:
        w = (v - mu) / sg
        ew = math.exp(-w) if w > -700.0 else math.inf
        u = 1.0 - dl * v
        return math.log(u * u + 1.0) - w - ew - log_norm

    lp = logpdf(x)
    out = np.empty(n)
    accepted = 0
    for i in range(n):
        y = x + steps[i]
        lpy = logpdf(y)
        if lpy - lp > log_u[i]:
            x, lp = y, lpy
            accepted += 1
        out[i] = x
    return Chain(draws=out[burn:], acceptance_rate=accepted / n, seed=cfg.seed)


# ----------------------------------------------------------------------
# Mixture-representation sampler
# ----------------------------------------------------------------------

def _cdf_table(p: BgParams) -> tuple[np.ndarray, np.ndarray]:
    """Tabulate the distribution function on an adaptive node set.

    By the mixture identity this is p1 F0 + p2 F1 + p3 F2.  The nodes span
    F from 1e-12 to 1 - 1e-12 and are refined until no panel carries more
    than ~1e-3 probability.
    """
    xs = np.linspace(*_bracket(p, 1e-12, 1.0 - 1e-12), 2049)
    for _ in range(8):
        dens = bg_pdf(p, xs)
        mass = (dens[1:] + dens[:-1]) / 2.0 * np.diff(xs)
        heavy = mass > 1e-3
        if not heavy.any():
            break
        mids = (xs[:-1][heavy] + xs[1:][heavy]) / 2.0
        xs = np.unique(np.concatenate([xs, mids]))

    cdf = np.maximum.accumulate(bg_cdf(p, xs))
    keep = np.concatenate([[True], np.diff(cdf) > 1e-15])
    return cdf[keep], xs[keep]


def representation_sample(p: BgParams, n: int, seed: int) -> np.ndarray:
    """Exact i.i.d. draws from the weighted-Gumbel mixture representation.

    Requires delta * (mu + sigma * gamma) < 0, the regime in which the
    mixture probabilities (p1, p2, p3) are all nonnegative.  Uniform variates
    are pushed through a monotone interpolant of the tabulated mixture
    distribution function p1 F0 + p2 F1 + p3 F2.
    """
    if n < 1:
        raise ValueError("n must be positive")
    m = p.mu + p.sigma * _EG
    if not p.delta * m < 0.0:
        raise RegimeError(
            "representation sampling requires delta * (mu + sigma * euler_gamma) < 0 "
            f"(got delta={p.delta}, mu + sigma*gamma={m}); "
            "use mh_sample for parameters outside this regime"
        )
    cdf, xs = _cdf_table(p)
    inverse = PchipInterpolator(cdf, xs)
    rng = np.random.default_rng(seed)
    u = np.clip(rng.uniform(size=n), cdf[0], cdf[-1])
    return np.asarray(inverse(u), dtype=float)


def chain_summary(c: Chain | np.ndarray) -> ChainSummary:
    """Sample mean and (n-1)-denominator variance of a chain or plain array."""
    draws = c.draws if isinstance(c, Chain) else np.asarray(c, dtype=float)
    if draws.size == 0:
        raise ValueError("empty chain")
    var = float(draws.var(ddof=1)) if draws.size > 1 else 0.0
    return ChainSummary(mean=float(draws.mean()), variance=var, n=int(draws.size))


def _draws_csv_text(draws: np.ndarray) -> str:
    """Single-column CSV text with header ``draw``, one ``.17g`` line per draw."""
    lines = ["draw"] + [f"{float(v):.17g}" for v in np.asarray(draws, dtype=float)]
    return "\n".join(lines) + "\n"


def save_draws_csv(draws: np.ndarray, path: str | Path) -> None:
    """Write draws as a single-column CSV with header ``draw``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_draws_csv_text(draws))
