"""Random-variate generation and chain diagnostics.

Two generators are provided:

* :func:`mh_sample` - a random-walk Metropolis sampler targeting the BG log
  density.  This works for every valid parameter triple.
* :func:`representation_sample` - exact i.i.d. draws for every valid
  parameter triple, by inverting the BG distribution function F through
  one cubic Hermite table.  F is the weighted-Gumbel mixture
  p1 F0 + p2 F1 + p3 F2, but its middle weight changes sign, so F itself
  is inverted, not its parts, whatever the signs of p1, p2, p3.

Randomness comes from ``numpy.random.default_rng`` (PCG64); the seed is part
of the public contract and identical seeds give bit-identical output.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distribution import BgParams, _bg_weight, _bracket, _log_density, bg_moment_set
from .special import _hermite, _horner, log_weight_shares

__all__ = [
    "McmcConfig",
    "Chain",
    "ChainSummary",
    "mh_sample",
    "representation_sample",
    "chain_summary",
    "save_draws_csv",
]

_ACCEPTANCE_BAND = (0.1, 0.6)
_BLOCK = 4096  # Metropolis iterations per block of Python floats


@dataclass(frozen=True)
class McmcConfig:
    """Tuning of the random-walk Metropolis sampler.

    ``burn_in`` and ``proposal_scale`` may be left as None to use the
    defaults: 10% of the iterations and 2.4 x the target standard
    deviation (see :func:`_default_proposal_scale`).  A given
    ``proposal_scale`` must satisfy 0 < scale < inf; nan and inf raise
    ValueError.  Chains start at the location parameter mu.
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
        if self.proposal_scale is not None and not 0 < self.proposal_scale < math.inf:
            raise ValueError(
                f"proposal_scale must be positive and finite, got {self.proposal_scale}"
            )


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
    """2.4 x the standard deviation of the BG law, or sigma where the variance is no positive float.

    That is where the variance underflows to 0 (sigma below about 1e-162),
    or is inf, or where :func:`bg_moment_set` overflows.
    """
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
    is evaluated in log space, less its constant ln(sigma Z), since only
    differences enter: a sigma Z above the float range does not stop the
    chain.  Deterministic given the seed.  Runs in blocks of ``_BLOCK``
    iterations, so no chain-length Python list is ever built.
    """
    n = cfg.n_iterations
    burn = cfg.burn_in if cfg.burn_in is not None else n // 10
    scale = cfg.proposal_scale if cfg.proposal_scale is not None else _default_proposal_scale(p)
    x = p.mu

    rng = np.random.default_rng(cfg.seed)
    steps = rng.normal(0.0, scale, size=n)
    log_u = np.log(rng.uniform(size=n))

    mu, sg, dl = p.mu, p.sigma, p.delta
    exp, log, inf = math.exp, math.log, math.inf

    # ln f(v) + ln(sg Z) = ln((1 - dl v)^2 + 1) - w - e^-w with w = (v - mu)/sg,
    # written out in the loop, e^-w taken as inf below w = -700; at v = mu, w = 0.
    u = 1.0 - dl * x
    lp = log(u * u + 1.0) - 1.0
    out = np.empty(n)
    accepted = 0
    for start in range(0, n, _BLOCK):
        block, stop = [], start + _BLOCK
        append = block.append
        for step, lu in zip(steps[start:stop].tolist(), log_u[start:stop].tolist()):
            y = x + step
            w = (y - mu) / sg
            u = 1.0 - dl * y
            lpy = log(u * u + 1.0) - w - (exp(-w) if w > -700.0 else inf)
            if lpy - lp > lu:
                x, lp = y, lpy
                accepted += 1
            append(x)
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
    dx/ds = F (-ln F) / f is exact.  On the cell [s_j, s_j + h], x is the
    `_hermite` cubic in (s - s_j) / h with slopes h dx/ds.
    |F(x) - u| / min(u, 1 - u) is at most about 2e-8, more where the
    density dips within a few node spacings (4.5e-6 at delta = -65); u
    beyond the table is clipped to its ends.
    """
    xs = np.linspace(*_bracket(p, 1e-12, 1.0 - 1e-12), 2305)
    log_dens, z = _log_density(p, xs)  # z = exp(-(x - mu)/sigma) serves F and S, as in `hazard`
    cdf, sf = log_weight_shares(_bg_weight(p), z)
    dens = np.exp(log_dens)
    keep = (cdf > 0.0) & (sf > 0.0) & (dens > 0.0)  # no log of 0 below
    xs, cdf, sf, dens = xs[keep], cdf[keep], sf[keep], dens[keep]
    neg_log_cdf = -np.log(cdf)
    upper = cdf > 0.5
    neg_log_cdf[upper] = -np.log1p(-sf[upper])
    nodes = -np.log(neg_log_cdf)
    slopes = cdf * neg_log_cdf / dens  # dx/ds
    h = np.diff(nodes)
    cells = np.stack([nodes[:-1], 1.0 / h, *_hermite(xs[:-1], xs[1:], h * slopes[:-1], h * slopes[1:])])

    with np.errstate(divide="ignore"):  # u = 0 is s = -inf
        s = np.clip(-np.log(-np.log(u)), nodes[0], nodes[-1])
    lo, inv_h, *c = np.take(cells, np.searchsorted(nodes[1:-1], s), axis=1)
    return _horner(c, (s - lo) * inv_h)


def representation_sample(p: BgParams, n: int, seed: int) -> np.ndarray:
    """Exact i.i.d. draws by inversion of the distribution function, for every parameter triple.

    Uniform variates are pushed through the inverse of F, interpolated
    from one table (see :func:`_inverse_cdf` for its accuracy).  F is the
    mixture p1 F0 + p2 F1 + p3 F2, but the table inverts F itself, so p1,
    p2, p3 need not all be nonnegative, as they are only where
    delta * (mu + sigma * gamma) < 0.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _inverse_cdf(p, np.random.default_rng(seed).uniform(size=n))


def chain_summary(c: Chain | np.ndarray) -> ChainSummary:
    """Sample mean and (n-1)-denominator variance of a chain or plain array."""
    draws = c.draws if isinstance(c, Chain) else np.asarray(c, dtype=float)
    if draws.size == 0:
        raise ValueError("empty chain")
    var = float(draws.var(ddof=1)) if draws.size > 1 else 0.0
    return ChainSummary(mean=float(draws.mean()), variance=var, n=int(draws.size))


# ----------------------------------------------------------------------
# CSV text
# ----------------------------------------------------------------------

_TEXT_BLOCK = 1 << 14  # values formatted at once, so the temporaries stay in cache
_POW5 = np.array([5**j for j in range(28)], dtype=np.uint64)  # 5**27 < 2**64
_LOW32 = np.uint64(0xFFFFFFFF)
_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)


def _scaled(m: np.ndarray, e: np.ndarray, j: np.ndarray):
    """floor(m 5^j 2^(e+j)) for m < 2^53, whether it rounds up (half to even), and where it is in reach.

    m 5^j is formed exactly in two 64-bit limbs from 32-bit halves.  In reach
    are 0 <= j <= 27 (5^j < 2^64) and a right shift -(e + j) of 1 to 63 whose
    result fits one limb.
    """
    f = _POW5[np.clip(j, 0, 27)]
    ml, mh, fl, fh = m & _LOW32, m >> np.uint64(32), f & _LOW32, f >> np.uint64(32)
    low = ml * fl
    mid = ml * fh + mh * fl + (low >> np.uint64(32))
    lo = (mid << np.uint64(32)) | (low & _LOW32)
    hi = mh * fh + (mid >> np.uint64(32))
    s = e + j
    r = np.clip(-s, 1, 63).astype(np.uint64)
    q = (hi << (np.uint64(64) - r)) | (lo >> r)
    rem, half = lo & ((np.uint64(1) << r) - np.uint64(1)), np.uint64(1) << (r - np.uint64(1))
    up = (rem > half) | ((rem == half) & ((q & np.uint64(1)) == 1))
    return q, up, (j >= 0) & (j <= 27) & (s <= -1) & (s >= -63) & ((hi >> r) == 0)


def _decimal_digits(x: np.ndarray, digits: int):
    """(ok, d, k): where ``ok``, |x| rounded half-even to ``digits`` significant digits is d 10^(k-digits+1).

    10^(digits-1) <= d < 10^digits.  Not ok are 0, subnormals, inf, nan and
    values out of reach of :func:`_scaled`: ok is 1e-11 <= |x| < 2^51 at 17
    digits, 2.3e-10 <= |x| < 1e12 at 12.  The exponent k from log10 is one
    too high just below a power of ten; that is detected by the truncated d
    falling below 10^(digits-1), not by the rounded one (1e-7 has the 17
    digits 99999999999999995, where the rounded d would print 1e-07).
    """
    a = np.abs(x)
    ok = (a >= np.finfo(float).tiny) & (a < np.inf)
    a = np.where(ok, a, 1.0)
    frac, exp2 = np.frexp(a)
    m, e = (frac * 2.0**53).astype(np.uint64), exp2 - 53
    k = np.floor(np.log10(a)).astype(np.int64)
    q, up, reach = _scaled(m, e, digits - 1 - k)
    lo10, hi10 = np.uint64(10 ** (digits - 1)), np.uint64(10**digits)
    low = np.flatnonzero(reach & (q < lo10))  # log10 rounded up to k just below 10^k
    if low.size:
        k[low] -= 1
        q[low], up[low], reach[low] = _scaled(m[low], e[low], digits - 1 - k[low])
    reach &= (q >= lo10) & (q < hi10)  # any other miss of k goes to %
    d = q + up
    carry = d == hi10  # 9.99... rounded up to 10.0...
    d[carry] = lo10
    return ok & reach, d, k + carry


def _ascii_digits(d: np.ndarray, digits: int) -> np.ndarray:
    """The ``digits`` ASCII digits of each d < 10^digits <= 10^17, as rows of a uint8 array."""
    out = np.empty((d.size, 18), dtype=np.uint8)
    pairs = out.view(np.uint16)
    top = (d // np.uint64(10**8)).astype(np.uint32)
    for last, part in ((8, (d % np.uint64(10**8)).astype(np.uint32)), (4, top % np.uint32(10**8))):
        for col in range(last, last - 4, -1):
            pairs[:, col] = _DIGIT_PAIRS[part % np.uint32(100)]
            part //= np.uint32(100)
    out[:, 1] = (top // np.uint32(10**8)).astype(np.uint8) + np.uint8(ord("0"))
    return out[:, 18 - digits:]


@functools.cache
def _g_rows(digits: int) -> np.ndarray:
    """The canvas row of ``'%.{digits}g'`` text for each decimal exponent k and count n of digits kept.

    Row (k - digits + 28) (digits + 1) + n, for digits - 28 <= k <= digits and
    1 <= n <= digits.  Columns: the sign; "0.000" for fixed notation below 1;
    digit i, then a point, for each i; "e+XX"; the separator.  A row holds its
    fixed characters, 0xFF where a digit shows and NUL elsewhere.
    """
    rows = np.zeros((29, digits + 1, 2 * digits + 10), dtype=np.uint8)
    for k in range(digits - 28, digits + 1):
        fixed = -4 <= k < digits  # Python's rule for %g
        for n in range(1, digits + 1):
            row = rows[k - digits + 28, n]
            if fixed and k < 0:
                row[1:2 - k] = list(b"0.000"[:1 - k])
            row[6:6 + 2 * (max(n, k + 1) if fixed else n):2] = 0xFF
            point = k if fixed else 0
            if 0 <= point < n - 1:
                row[7 + 2 * point] = ord(".")
            if not fixed:
                row[-5:-1] = list(b"e%+03d" % k)
    return rows.reshape(-1, 2 * digits + 10)


def _g_text(x: np.ndarray, digits: int, width: int) -> str:
    """Rows of ``width`` values, each written as Python's ``'%.{digits}g' % v`` writes it, ',' between.

    Each value gets one row of a uint8 canvas from :func:`_g_rows`, ANDed
    with its exact digits; NULs are then deleted.  Values the integer path
    does not cover (see :func:`_decimal_digits`) are written by ``%`` one at
    a time, in place.
    """
    ok, d, k = _decimal_digits(x, digits)
    ascii_digits = _ascii_digits(d, digits)
    kept = digits - np.argmax(ascii_digits[:, ::-1] != ord("0"), axis=1)  # trailing zeros go
    canvas = _g_rows(digits)[(np.clip(k, digits - 28, digits) - digits + 28) * (digits + 1) + kept]
    canvas[:, 6:2 * digits + 5:2] &= ascii_digits
    canvas[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    ends = canvas.reshape(-1, width, canvas.shape[1])[:, :, -1]
    ends[:, :-1], ends[:, -1] = ord(","), ord("\n")
    rest = np.flatnonzero(~ok)
    for i, v in zip(rest.tolist(), x[rest].tolist()):
        text = b"%.*g" % (digits, v)
        canvas[i, :-1] = 0
        canvas[i, :len(text)] = list(text)
    return canvas.tobytes().translate(None, b"\0").decode("ascii")


def _csv_text(header: list[str], rows: np.ndarray, digits: int) -> str:
    """CSV text: the header line, then one line per row, every value exactly as ``'%.{digits}g' % v``.

    ``rows`` holds one column per header name (a 1-D array is one column);
    1 <= digits <= 17.  The table is written by :func:`_g_text` in blocks of
    whole rows.
    """
    values = np.asarray(rows, dtype=float).ravel()
    step = max(_TEXT_BLOCK // len(header), 1) * len(header)
    return ",".join(header) + "\n" + "".join(
        _g_text(values[start:start + step], digits, len(header)) for start in range(0, values.size, step)
    )


def _draws_csv_text(draws: np.ndarray) -> str:
    """Single-column CSV text with header ``draw``, one ``'%.17g'`` line per draw (round-trips exactly)."""
    return _csv_text(["draw"], draws, 17)


def save_draws_csv(draws: np.ndarray, path: str | Path) -> None:
    """Write draws as a single-column CSV with header ``draw``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_draws_csv_text(draws))
