"""Far-tail accuracy of the distribution, survival and hazard functions.

The oracle works in v = exp(-(x - mu)/sigma) with mpmath at 40 digits and
never calls bgumbel: F(x) = int_z^inf w(v) e^-v dv / Z and
S(x) = int_0^z w(v) e^-v dv / Z, with w(v) = (1 - delta mu + delta sigma ln v)^2 + 1
and Z = int_0^inf w(v) e^-v dv, so neither tail is a difference of nearly
equal numbers.
"""
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from bgumbel import (
    BgParams,
    HazardPoint,
    bg_cdf,
    bg_log_pdf,
    bg_pdf,
    bg_sf,
    compare_models,
    gumbel_cdf,
    hazard,
    ks_test,
    representation_sample,
    weighted_gumbel_cdf,
)

TRIPLES = [(1.0, 1.0, 2.0), (-2.0, 0.5, -1.0), (2.5, 2.0, -1.2), (1.5, 0.3, -0.7), (0.0, 1.0, 0.0)]


def _oracle(mu, sigma, delta, x):
    """(F, S, f) at the float ``x``, to about 30 digits."""
    with mp.workdps(40):
        a = 1 - mp.mpf(delta) * mu
        b = mp.mpf(delta) * sigma

        def weight(v):
            return (a + b * mp.log(v)) ** 2 + 1

        z = mp.exp(-(mp.mpf(x) - mu) / sigma)
        total = mp.quad(lambda v: weight(v) * mp.exp(-v), [0, 1, 10, mp.inf])
        upper = mp.exp(-z) * mp.quad(lambda t: weight(z + t) * mp.exp(-t), [0, 1, 10, 100, mp.inf])
        lower = z * mp.quad(lambda u: weight(z * u) * mp.exp(-z * u), [0, 1])
        dens = weight(z) * z * mp.exp(-z) / (sigma * total)
        return float(upper / total), float(lower / total), float(dens)


@pytest.mark.parametrize("triple", TRIPLES)
def test_left_tail_cdf_is_relatively_exact(triple):
    mu, sigma, delta = triple
    p = BgParams(*triple)
    for z in (10.0, 40.0, 150.0, 400.0, 680.0):
        x = mu - sigma * math.log(z)
        want, _, _ = _oracle(mu, sigma, delta, x)
        assert 1e-300 < want < 1e-3
        assert bg_cdf(p, x) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("triple", TRIPLES)
def test_right_tail_survival_is_relatively_exact(triple):
    mu, sigma, delta = triple
    p = BgParams(*triple)
    for z in (1e-5, 1e-20, 1e-80, 1e-200, 1e-295):
        x = mu - sigma * math.log(z)
        _, want, _ = _oracle(mu, sigma, delta, x)
        assert 1e-300 < want < 1e-3
        assert bg_sf(p, x) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_right_tail_hazard_is_not_pinned_at_tail_rate():
    p = BgParams(1.0, 1.0, 2.0)
    _, surv, dens = _oracle(1.0, 1.0, 2.0, 41.0)
    hp = hazard(p, 41.0)
    assert hp.survival == pytest.approx(surv, rel=1e-12)
    assert hp.hazard == pytest.approx(dens / surv, rel=1e-10)
    assert hp.hazard == pytest.approx(0.9518, abs=1e-4)


def test_hazard_tail_limit_only_where_survival_underflows():
    p = BgParams(0.0, 1.0, 0.0)
    assert hazard(p, 750.0) == HazardPoint(x=750.0, survival=0.0, hazard=1.0)
    hp = hazard(p, 700.0)
    assert 0.0 < hp.survival < 1e-300
    assert hp.hazard == pytest.approx(1.0, rel=1e-12)


def test_density_is_zero_at_huge_and_infinite_x():
    # (1 - delta x)^2 overflows from |x| = 1.3e154 on, and x = +-inf gives inf - inf.
    p = BgParams(0.0, 1.0, 1.0)
    xs = np.array([1e155, 1e200, np.inf, -np.inf, -1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(bg_pdf(p, xs), np.zeros(5))
        assert [bg_pdf(p, float(x)) for x in xs] == [0.0] * 5
        assert np.all(bg_log_pdf(p, xs) < -1e150)
        assert math.isnan(bg_pdf(p, math.nan))
        assert np.isnan(bg_pdf(p, np.array([0.0, np.nan]))[1])
        assert np.array_equal(hazard(p, np.array([-np.inf, np.inf])).hazard, [0.0, 1.0])


def test_array_and_scalar_agree_bit_for_bit():
    rng = np.random.default_rng(3)
    for triple in TRIPLES:
        p = BgParams(*triple)
        xs = p.mu + p.sigma * np.concatenate([rng.uniform(-6.5, 40.0, 702), [-7.0, 0.0, 750.0]])
        for fn in (bg_cdf, bg_sf):
            vec = fn(p, xs)
            assert vec.shape == xs.shape
            assert np.array_equal(vec, [fn(p, float(x)) for x in xs])
        assert np.array_equal(bg_cdf(p, xs.reshape(-1, 3)), bg_cdf(p, xs).reshape(-1, 3))
        # 0-d and 2-D inputs, a few points of both regimes (z = 2 falls at
        # x = mu - sigma ln 2), hazard and the weighted Gumbel laws.
        few = p.mu + p.sigma * np.array([-3.0, -math.log(2.0), 0.5, 30.0])
        for fn in (bg_cdf, bg_sf):
            assert np.array_equal(fn(p, few), [fn(p, np.asarray(x)) for x in few])
            assert np.array_equal(fn(p, few.reshape(2, 2)), fn(p, few).reshape(2, 2))
        hp = hazard(p, xs)
        assert np.array_equal(hp.hazard, [hazard(p, float(x)).hazard for x in xs])
        assert np.array_equal(hazard(p, xs.reshape(-1, 5)).hazard, hp.hazard.reshape(-1, 5))
        for k in (0, 1, 2):
            vec = weighted_gumbel_cdf(p.gumbel, k, xs)
            assert np.array_equal(vec, [weighted_gumbel_cdf(p.gumbel, k, float(x)) for x in xs])


def test_cdf_plus_survival_is_one_in_the_body():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = BgParams(rng.uniform(-3, 3), rng.uniform(0.3, 3), rng.uniform(-1.5, 1.5))
        xs = p.mu + p.sigma * np.linspace(-3.0, 20.0, 500)
        assert np.max(np.abs(bg_cdf(p, xs) + bg_sf(p, xs) - 1.0)) <= 1e-15


def test_compare_models_ks_matches_per_point_ks_test():
    x = representation_sample(BgParams(-2.0, 1.0, 1.0), n=400, seed=5)
    cmp = compare_models(x)
    bg_stat, bg_p = ks_test(x, lambda v: bg_cdf(cmp.bg_fit.params, v))
    assert (cmp.bg.ks_statistic, cmp.bg.ks_p_value) == (bg_stat, bg_p)
    gp = cmp.gumbel_fit.params.gumbel
    g_stat, g_p = ks_test(x, lambda v: gumbel_cdf(gp, v))
    assert (cmp.gumbel.ks_statistic, cmp.gumbel.ks_p_value) == (g_stat, g_p)


def test_density_oracle_agrees():
    # Guards the oracle itself: its density matches bg_pdf in the body.
    mu, sigma, delta = TRIPLES[0]
    for x in (-1.0, 0.5, 3.0):
        want = _oracle(mu, sigma, delta, x)[2]
        assert bg_pdf(BgParams(*TRIPLES[0]), x) == pytest.approx(want, rel=1e-12)
