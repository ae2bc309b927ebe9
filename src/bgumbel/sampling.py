"""Random-variate generation and chain diagnostics.

Two generators are provided:

* :func:`mh_sample` - a random-walk Metropolis sampler targeting the BG log
  density.  This works for every valid parameter triple.
* :func:`representation_sample` - i.i.d. draws from the three-part
  weighted-Gumbel mixture p1 F0 + p2 F1 + p3 F2, valid in the regime
  delta * (mu + sigma * gamma) < 0 where all three probabilities are
  nonnegative.  The middle component's weight changes sign, so the parts
  cannot be inverted one at a time; the assembled mixture, which is the BG
  distribution function, is inverted by one cubic Hermite table.

Randomness comes from ``numpy.random.default_rng`` (PCG64); the seed is part
of the public contract and identical seeds give bit-identical output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distribution import BgParams, _bg_weight, _bracket, _shares, bg_moment_set, bg_pdf, normalizer
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
_BLOCK = 4096  # Metropolis iterations per block of Python floats


@dataclass(frozen=True)
class McmcConfig:
    """Tuning of the random-walk Metropolis sampler.

    ``burn_in`` and ``proposal_scale`` may be left as None to use the
    defaults: 10% of the iterations and 2.4 x the target standard
    deviation.  Chains start at the location parameter mu.
    """

    n_iterations: int
    burn_in: int | None = None
    proposal_scale: float | None = None
    seed: int = 0

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
    is evaluated in log space.  Deterministic given the seed.  Runs in blocks
    of ``_BLOCK`` iterations, so no chain-length Python list is ever built.
    """
    n = cfg.n_iterations
    burn = cfg.burn_in if cfg.burn_in is not None else n // 10
    scale = cfg.proposal_scale if cfg.proposal_scale is not None else _default_proposal_scale(p)
    x = p.mu

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
    for start in range(0, n, _BLOCK):
        block, stop = [], start + _BLOCK
        for step, lu in zip(steps[start:stop].tolist(), log_u[start:stop].tolist()):
            y = x + step
            lpy = logpdf(y)
            if lpy - lp > lu:
                x, lp = y, lpy
                accepted += 1
            block.append(x)
        out[start:stop] = block
    return Chain(draws=out[burn:], acceptance_rate=accepted / n, seed=cfg.seed)


# ----------------------------------------------------------------------
# Mixture-representation sampler
# ----------------------------------------------------------------------

def _inverse_cdf(p: BgParams, u: np.ndarray) -> np.ndarray:
    """x with F(x) = u for every u in [0, 1], by a cubic Hermite table of the inverse.

    2305 nodes evenly spaced in x, from F = 1e-12 to 1 - 1e-12 (within 1/64
    of a ladder step, :func:`~bgumbel.distribution._bracket`), are mapped
    to the Gumbel variate s = -ln(-ln F), in which x is nearly linear in
    both tails; -ln F is -log1p(-S) where F > 1/2, and the slope
    dx/ds = F (-ln F) / f is exact.  |F(x) - u| / min(u, 1 - u) is at most
    about 2e-8, more where the density dips within a few node spacings
    (4.5e-6 at delta = -65); u beyond the table is clipped to its ends.
    """
    xs = np.linspace(*_bracket(p, 1e-12, 1.0 - 1e-12), 2305)
    cdf, sf = _shares(p, _bg_weight(p), xs)
    dens = bg_pdf(p, xs)
    keep = (cdf > 0.0) & (sf > 0.0) & (dens > 0.0)  # no log of 0 below
    xs, cdf, sf, dens = xs[keep], cdf[keep], sf[keep], dens[keep]
    neg_log_cdf = -np.log(cdf)
    upper = cdf > 0.5
    neg_log_cdf[upper] = -np.log1p(-sf[upper])
    nodes = -np.log(neg_log_cdf)
    # The Hermite cubic on the cell from nodes[j] is c0 + t (c1 + t (c2 + t c3)),
    # t = (s - nodes[j]) / h.
    slopes = cdf * neg_log_cdf / dens  # dx/ds
    h, dx = np.diff(nodes), np.diff(xs)
    m0, m1 = h * slopes[:-1], h * slopes[1:]
    cells = np.stack([nodes[:-1], 1.0 / h, xs[:-1], m0, 3.0 * dx - 2.0 * m0 - m1, m0 + m1 - 2.0 * dx])

    with np.errstate(divide="ignore"):  # u = 0 is s = -inf
        s = np.clip(-np.log(-np.log(u)), nodes[0], nodes[-1])
    lo, inv_h, c0, c1, c2, c3 = np.take(cells, np.searchsorted(nodes[1:-1], s), axis=1)
    t = (s - lo) * inv_h
    return c0 + t * (c1 + t * (c2 + t * c3))


def representation_sample(p: BgParams, n: int, seed: int) -> np.ndarray:
    """Exact i.i.d. draws from the weighted-Gumbel mixture representation.

    Requires delta * (mu + sigma * gamma) < 0, the regime in which the
    mixture probabilities (p1, p2, p3) are all nonnegative.  Uniform variates
    are pushed through the inverse of the mixture distribution function
    p1 F0 + p2 F1 + p3 F2, interpolated from one table (see
    :func:`_inverse_cdf` for its accuracy).
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
    return _inverse_cdf(p, np.random.default_rng(seed).uniform(size=n))


def chain_summary(c: Chain | np.ndarray) -> ChainSummary:
    """Sample mean and (n-1)-denominator variance of a chain or plain array."""
    draws = c.draws if isinstance(c, Chain) else np.asarray(c, dtype=float)
    if draws.size == 0:
        raise ValueError("empty chain")
    var = float(draws.var(ddof=1)) if draws.size > 1 else 0.0
    return ChainSummary(mean=float(draws.mean()), variance=var, n=int(draws.size))


def _csv_text(header: list[str], rows: np.ndarray, fmt: str) -> str:
    """CSV text: the header line, then one line per row with every value in ``fmt``.

    ``rows`` holds one column per header name (a 1-D array is one column).
    The whole flattened table is formatted by one ``%`` on a repeated line.
    """
    values = np.asarray(rows, dtype=float).ravel().tolist()
    line = ",".join([fmt] * len(header)) + "\n"
    return ",".join(header) + "\n" + (line * (len(values) // len(header))) % tuple(values)


def _draws_csv_text(draws: np.ndarray) -> str:
    """Single-column CSV text with header ``draw``, one ``.17g`` line per draw."""
    return _csv_text(["draw"], draws, "%.17g")


def save_draws_csv(draws: np.ndarray, path: str | Path) -> None:
    """Write draws as a single-column CSV with header ``draw``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_draws_csv_text(draws))
