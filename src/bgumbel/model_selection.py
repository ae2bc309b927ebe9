"""Block-maxima goodness-of-fit pipeline.

Reduce a series to per-block maxima, screen them for serial dependence
(Ljung-Box), optionally center them, fit the BG and Gumbel models, and
compare the fits by Kolmogorov-Smirnov statistic, AIC and BIC.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .distribution import bg_cdf, gumbel_cdf
from .errors import InsufficientDataError
from .inference import FitResult, fit_gumbel_mle, fit_mle
from .special import _chi2_sf, _kolmogorov_sf

__all__ = [
    "BlockMaximaConfig",
    "GofReport",
    "ModelComparison",
    "DescriptiveStats",
    "block_maxima",
    "ljung_box",
    "ks_test",
    "information_criteria",
    "descriptive_stats",
    "compare_models",
    "read_series_csv",
]

# Fitter and parameter count of each model.  The fitters are looked up when
# called, so a rebinding of the module names (as the benchmark's span tracer
# does) reaches them.
_MODELS = {
    "bg": (lambda x: fit_mle(x), 3),
    "gumbel": (lambda x: fit_gumbel_mle(x), 2),
}


@dataclass(frozen=True)
class BlockMaximaConfig:
    """Non-overlapping block reduction settings.

    With ``allow_partial_last_block`` the tail observations that do not fill
    a whole block still contribute one (shorter) block, giving
    ceil(T / N) maxima; otherwise they are dropped, giving floor(T / N).
    """

    block_length: int
    allow_partial_last_block: bool = True

    def __post_init__(self) -> None:
        if self.block_length < 1:
            raise ValueError("block_length must be >= 1")


@dataclass(frozen=True)
class GofReport:
    """Goodness-of-fit summary for one fitted model on one dataset."""

    model_name: str
    ks_statistic: float
    ks_p_value: float
    aic: float
    bic: float
    n_obs: int

    def to_json_dict(self) -> dict:
        """Stable wire format: model, ks_stat, ks_p, aic, bic, n."""
        return {
            "model": self.model_name,
            "ks_stat": self.ks_statistic,
            "ks_p": self.ks_p_value,
            "aic": self.aic,
            "bic": self.bic,
            "n": self.n_obs,
        }


@dataclass(frozen=True)
class ModelComparison:
    """Paired BG/Gumbel reports with the preferred model name."""

    bg: GofReport | None
    gumbel: GofReport | None
    preferred: str
    bg_fit: FitResult | None = None
    gumbel_fit: FitResult | None = None
    errors: dict | None = None


@dataclass(frozen=True)
class DescriptiveStats:
    mean: float
    median: float
    maximum: float
    minimum: float
    std_dev: float


def block_maxima(series: Sequence[float], cfg: BlockMaximaConfig) -> np.ndarray:
    """Per-block maxima of non-overlapping blocks of length ``cfg.block_length``."""
    x = np.asarray(series, dtype=float).ravel()
    if x.size == 0:
        raise InsufficientDataError("empty series")
    n = cfg.block_length
    n_full = x.size // n
    maxima = x[: n_full * n].reshape(n_full, n).max(axis=1)
    if cfg.allow_partial_last_block and x.size % n:
        maxima = np.append(maxima, x[n_full * n :].max())
    return maxima


def ljung_box(series: Sequence[float], lags: int) -> tuple[float, float]:
    """Ljung-Box portmanteau test of serial independence.

    Q = n (n + 2) sum_{k=1}^{lags} rho_k^2 / (n - k), with a chi-square(lags)
    p-value, computed in pure Python as a finite sum
    (:func:`~bgumbel.special._chi2_sf`).  Returns (statistic, p_value).
    """
    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    if lags < 1:
        raise ValueError("lags must be >= 1")
    if lags >= n:
        raise InsufficientDataError(f"need more than {lags} observations, got {n}")
    xc = x - x.mean()
    denom = float(np.sum(xc * xc))
    if denom == 0.0:
        raise InsufficientDataError("series is constant; autocorrelation undefined")
    q = 0.0
    for k in range(1, lags + 1):
        rho = float(np.sum(xc[:-k] * xc[k:])) / denom
        q += rho * rho / (n - k)
    q *= n * (n + 2.0)
    return q, _chi2_sf(q, lags)


def ks_test(data, cdf: Callable[[float], float]) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov test against an arbitrary distribution function.

    D = sup_x |F_n(x) - F(x)| evaluated from both sides of the empirical step
    function; the p-value uses the asymptotic Kolmogorov distribution of
    sqrt(n) D, summed in pure Python (:func:`~bgumbel.special._kolmogorov_sf`).
    """
    x = np.sort(np.asarray(data, dtype=float).ravel())
    if x.size == 0:
        raise InsufficientDataError("empty data")
    return _ks_statistic(np.asarray([float(cdf(v)) for v in x]))


def _ks_statistic(f: np.ndarray) -> tuple[float, float]:
    """KS distance and asymptotic p-value from F at the sorted sample."""
    n = f.size
    i = np.arange(1, n + 1)
    d_plus = float(np.max(i / n - f))
    d_minus = float(np.max(f - (i - 1) / n))
    d = max(d_plus, d_minus)
    return d, _kolmogorov_sf(math.sqrt(n) * d)


def information_criteria(loglik: float, k: int, n: int) -> tuple[float, float]:
    """AIC = 2k - 2l and BIC = k ln(n) - 2l."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    return 2.0 * k - 2.0 * loglik, k * math.log(n) - 2.0 * loglik


def descriptive_stats(data) -> DescriptiveStats:
    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0:
        raise InsufficientDataError("empty data")
    sd = float(x.std(ddof=1)) if x.size > 1 else 0.0
    return DescriptiveStats(
        mean=float(x.mean()),
        median=float(np.median(x)),
        maximum=float(x.max()),
        minimum=float(x.min()),
        std_dev=sd,
    )


def _gof_for_fit(fit: FitResult, data: np.ndarray, model_name: str) -> GofReport:
    x = np.sort(data)
    if model_name == "gumbel":
        f = gumbel_cdf(fit.params.gumbel, x)
    else:
        f = bg_cdf(fit.params, x)
    stat, p = _ks_statistic(f)
    aic, bic = information_criteria(fit.log_likelihood, _MODELS[model_name][1], data.size)
    return GofReport(
        model_name=model_name,
        ks_statistic=stat,
        ks_p_value=p,
        aic=aic,
        bic=bic,
        n_obs=int(data.size),
    )


def compare_models(data) -> ModelComparison:
    """Fit BG and Gumbel to the same data and rank them.

    Preference goes to the lowest AIC, ties broken by lowest BIC and then by
    fewer parameters.  A failure in one model is recorded without aborting
    the other; when both fail, the first failure is raised.  The Gumbel fit
    is the BG fit's delta = 0 profile row, unless the BG fit failed.
    """
    x = np.asarray(data, dtype=float).ravel()
    if x.size < 5:
        raise InsufficientDataError(f"need at least 5 observations, got {x.size}")

    results: dict[str, GofReport] = {}
    fits: dict[str, FitResult] = {}
    failures: dict[str, Exception] = {}
    for name, (fitter, _) in _MODELS.items():
        try:
            fits[name] = fits["bg"].diagnostics.gumbel if name == "gumbel" and "bg" in fits else fitter(x)
            results[name] = _gof_for_fit(fits[name], x, name)
        except Exception as exc:  # noqa: BLE001 - per-model isolation is the contract
            failures[name] = exc
    if not results:
        raise next(iter(failures.values()))

    preferred = min(
        results,
        key=lambda name: (results[name].aic, results[name].bic, _MODELS[name][1]),
    )
    return ModelComparison(
        bg=results.get("bg"),
        gumbel=results.get("gumbel"),
        preferred=preferred,
        bg_fit=fits.get("bg"),
        gumbel_fit=fits.get("gumbel"),
        errors={name: f"{type(exc).__name__}: {exc}" for name, exc in failures.items()} or None,
    )


def read_series_csv(path: str | Path) -> np.ndarray:
    """Read a single-column numeric CSV; a non-numeric first line is a header.

    Non-numeric values on later lines and non-finite values (``nan``,
    ``inf``) on any line raise ValueError.
    """
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh):
            token = raw.strip().split(",")[0].strip()
            if not token:
                continue
            try:
                value = float(token)
            except ValueError:
                if lineno == 0:
                    continue  # header
                raise ValueError(f"{path}: non-numeric value {token!r} on line {lineno + 1}")
            if not math.isfinite(value):
                raise ValueError(f"{path}: non-finite value {token!r} on line {lineno + 1}")
            values.append(value)
    if not values:
        raise InsufficientDataError(f"{path}: no numeric data found")
    return np.asarray(values)
