"""Acceptance suite: one test per release criterion.

Every test prints a single ``[criterion NN] PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them stream) and enforces
the criterion at its stated tolerance, including runtime bounds where the
criterion carries one.
"""
import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from bgumbel import (
    BgParams,
    McmcConfig,
    bg_cdf,
    bg_mgf,
    bg_moment_set,
    bg_pdf,
    chain_summary,
    compare_models,
    d_interval,
    find_modes,
    fisher_information,
    fit_mle,
    gumbel_cdf,
    gumbel_pdf,
    hessian,
    information_criteria,
    log_likelihood,
    mh_sample,
    representation_sample,
    score,
)
from bgumbel.special import gamma_deriv
from helpers import inverse_sampler, quad_cdf, random_params

# Reference moment values (closed forms rounded to reporting precision) and
# Monte Carlo tolerances for the four simulation parameter sets.
MOMENT_ROWS = [
    (BgParams(-2, 1, -1), -1.0640, 5.0126),
    (BgParams(-1, 2, -1), 4.0170, 18.016),
    (BgParams(-1, 2, -2), 3.9909, 21.575),
    (BgParams(-2, 2, -1), 1.9512, 24.592),
]
# Twice the largest reference-run bias magnitude per column; a per-row bound
# would be below Monte Carlo resolution for the third row's mean.
MH_MEAN_TOL = 2 * 0.0666
MH_VAR_TOL = 2 * 0.8902


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


def test_criterion_01_population_moments():
    t0 = time.perf_counter()
    worst = 0.0
    for p, mean_ref, var_ref in MOMENT_ROWS:
        ms = bg_moment_set(p)
        assert abs(ms.mean - mean_ref) < 5e-4
        assert abs(ms.variance - var_ref) < 5e-3
        worst = max(worst, abs(ms.mean - mean_ref), abs(ms.variance - var_ref))
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 1.0, f"4 rows, worst abs dev {worst:.2e}, {elapsed:.3f}s")


def test_criterion_02_mh_sampling_biases():
    t0 = time.perf_counter()
    worst_mean, worst_var = 0.0, 0.0
    for p, _, _ in MOMENT_ROWS:
        ms = bg_moment_set(p)
        means, variances = [], []
        for seed in range(5):
            chain = mh_sample(
                p, McmcConfig(n_iterations=111112, burn_in=11112, seed=seed)
            )
            s = chain_summary(chain)
            means.append(s.mean)
            variances.append(s.variance)
        bias_mean = abs(float(np.median(means)) - ms.mean)
        bias_var = abs(float(np.median(variances)) - ms.variance)
        worst_mean = max(worst_mean, bias_mean)
        worst_var = max(worst_var, bias_var)
        assert bias_mean < MH_MEAN_TOL
        assert bias_var < MH_VAR_TOL
    elapsed = time.perf_counter() - t0
    _report(
        2,
        elapsed < 60.0,
        f"median-of-5 biases: mean<= {worst_mean:.4f} (tol {MH_MEAN_TOL:.4f}), "
        f"var<= {worst_var:.4f} (tol {MH_VAR_TOL:.4f}), {elapsed:.1f}s",
    )


def test_criterion_03_bimodality_reference_points():
    p = BgParams(1, 1, 2)
    rep = find_modes(p)
    lo, hi = d_interval(p)
    checks = [
        abs(rep.modes[0] - (-0.0896138)) < 1e-4,
        abs(rep.antimode - 0.389792) < 1e-4,
        abs(rep.modes[1] - 2.79117) < 1e-4,
        abs(lo - 0.132178) < 1e-4,
        abs(hi - 0.937349) < 1e-4,
        rep.modality == "bimodal",
    ]
    _report(
        3,
        all(checks),
        f"roots ({rep.modes[0]:.6f}, {rep.antimode:.6f}, {rep.modes[1]:.6f}), "
        f"increase interval ({lo:.6f}, {hi:.6f})",
    )


def test_criterion_04_cdf_vs_quadrature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(40):
        p = random_params(rng)
        for _ in range(5):
            x = p.mu + p.sigma * float(rng.uniform(-4.0, 8.0))
            err = abs(bg_cdf(p, x) - quad_cdf(p, x))
            worst = max(worst, err)
            assert err < 1e-8
    elapsed = time.perf_counter() - t0
    _report(4, elapsed < 30.0, f"200 pairs, worst |closed-quad| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_delta_zero_reduction():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        mu = float(rng.uniform(-3, 3))
        sg = float(rng.uniform(0.3, 3))
        x = mu + sg * float(rng.uniform(-3, 6))
        t = -float(rng.uniform(0.05, 2.0))
        p = BgParams(mu, sg, 0.0)
        gp = p.gumbel
        pdf_err = abs(bg_pdf(p, x) / float(gumbel_pdf(gp, x)) - 1.0)
        cdf_ref = math.exp(-math.exp(-(x - mu) / sg))
        cdf_err = abs(bg_cdf(p, x) - cdf_ref) / max(cdf_ref, 1e-300)
        ms = bg_moment_set(p)
        mean_ref = mu + sg * np.euler_gamma
        var_ref = sg**2 * math.pi**2 / 6
        mom_err = max(
            abs(ms.mean / mean_ref - 1.0) if mean_ref != 0 else abs(ms.mean),
            abs(ms.variance / var_ref - 1.0),
        )
        mgf_ref = math.exp(mu * t) * gamma_deriv(0, 1 - sg * t)
        mgf_err = abs(bg_mgf(p, t) / mgf_ref - 1.0)
        worst = max(worst, pdf_err, cdf_err, mom_err, mgf_err)
    _report(5, worst < 1e-12, f"50 draws, worst relative deviation {worst:.2e}")


def test_criterion_06_score_and_hessian_vs_finite_differences():
    rng = np.random.default_rng(11)
    worst_g, worst_h = 0.0, 0.0
    for _ in range(50):
        p = random_params(rng)
        x = rng.normal(p.mu + p.sigma, 1.5 * p.sigma, size=60)
        theta = np.array([p.mu, p.sigma, p.delta])
        sc = score(p, x)
        for i in range(3):
            step = 1e-6 * max(1.0, abs(theta[i]))
            up, dn = theta.copy(), theta.copy()
            up[i] += step
            dn[i] -= step
            fd = (
                log_likelihood(BgParams(*up), x) - log_likelihood(BgParams(*dn), x)
            ) / (2 * step)
            rel = abs(sc[i] - fd) / max(1.0, abs(fd))
            worst_g = max(worst_g, rel)
            assert rel < 1e-6
        h = hessian(p, x)
        for i in range(3):
            step = 1e-6 * max(1.0, abs(theta[i]))
            up, dn = theta.copy(), theta.copy()
            up[i] += step
            dn[i] -= step
            col = (score(BgParams(*up), x) - score(BgParams(*dn), x)) / (2 * step)
            rel = float(np.max(np.abs(h[:, i] - col) / np.maximum(1.0, np.abs(col))))
            worst_h = max(worst_h, rel)
            assert rel < 1e-5
    _report(6, True, f"50 instances, worst rel err: score {worst_g:.2e}, hessian {worst_h:.2e}")


def test_criterion_07_fisher_information():
    t0 = time.perf_counter()
    truth = BgParams(-1, 2, -1)
    draw = inverse_sampler(truth)
    rng = np.random.default_rng(5)
    fit = fit_mle(draw(rng, 4000))
    info = fisher_information(fit.params)
    symmetric = np.array_equal(info, info.T)
    eigs = np.linalg.eigvalsh(info)
    psd = bool(np.all(eigs > 0))

    info_truth = fisher_information(truth)
    acc = np.zeros((3, 3))
    reps, n = 200, 2000
    for _ in range(reps):
        acc += hessian(truth, draw(rng, n)) / n
    mc = -acc / reps
    rel = float(np.linalg.norm(info_truth - mc) / np.linalg.norm(info_truth))
    elapsed = time.perf_counter() - t0
    _report(
        7,
        symmetric and psd and rel < 0.05 and elapsed < 300.0,
        f"symmetric={symmetric}, min eig {eigs[0]:.4f}, MC rel dev {rel:.3f}, {elapsed:.1f}s",
    )


def test_criterion_08_mle_consistency():
    t0 = time.perf_counter()
    details = []
    for truth in (BgParams(-2, 1, -1), BgParams(1, 1, 2)):
        draw = inverse_sampler(truth)
        rng = np.random.default_rng(808)
        target = np.array([truth.mu, truth.sigma, truth.delta])
        hits = np.zeros(3, dtype=int)
        for _ in range(20):
            fit = fit_mle(draw(rng, 5000))
            se = fit.std_errors
            assert se is not None
            est = np.array([fit.params.mu, fit.params.sigma, fit.params.delta])
            hits += (np.abs(est - target) <= 3 * np.array(se)).astype(int)
        details.append(f"({truth.mu}, {truth.sigma}, {truth.delta}): {hits.tolist()}/20")
        assert np.all(hits >= 18)
    elapsed = time.perf_counter() - t0
    _report(8, True, f"3-SE coverage {'; '.join(details)}, {elapsed:.1f}s")


def test_criterion_09_representation_vs_mh():
    t0 = time.perf_counter()
    p = BgParams(-2, 1, 1)  # inside the mixture regime
    chain = mh_sample(p, McmcConfig(n_iterations=2011112, burn_in=11112, seed=13))
    thinned = chain.draws[::20]
    assert len(thinned) == 100000
    rep = representation_sample(p, 100000, seed=17)
    stat = ks_2samp(thinned, rep).statistic
    crit = 1.6276 * math.sqrt(2.0 / 100000)
    elapsed = time.perf_counter() - t0
    _report(9, stat < crit, f"two-sample KS {stat:.5f} < 1% critical {crit:.5f}, {elapsed:.1f}s")


def test_criterion_10_model_comparison_direction():
    t0 = time.perf_counter()
    truth = BgParams(1, 1, 2)
    draw = inverse_sampler(truth)
    wins = 0
    margins = []
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        result = compare_models(draw(rng, 500))
        delta_aic = result.gumbel.aic - result.bg.aic
        margins.append(delta_aic)
        if result.preferred == "bg" and delta_aic > 10.0:
            wins += 1
    elapsed = time.perf_counter() - t0
    _report(
        10,
        wins >= 19,
        f"{wins}/20 seeds prefer the bimodal model with AIC margin > 10 "
        f"(min margin {min(margins):.1f}), {elapsed:.1f}s",
    )


def test_criterion_11_information_criterion_arithmetic():
    ll = -81.9114
    aic, bic29 = information_criteria(ll, 3, 29)
    _, bic28 = information_criteria(ll, 3, 28)
    checks = [
        abs(aic - 169.8228) < 5e-5,
        abs(bic28 - 173.8194) < 5e-5,  # the published report's n convention
        abs(bic29 - 173.9247) < 5e-5,
        abs((bic29 - aic) - 3 * (math.log(29) - 2.0)) < 1e-9,
    ]
    _report(
        11,
        all(checks),
        f"AIC {aic:.4f}, BIC(n=28) {bic28:.4f}, BIC(n=29) {bic29:.4f}",
    )
