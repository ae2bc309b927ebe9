import math

import numpy as np
import pytest
from scipy.integrate import quad

from bgumbel import (
    CONSTANTS,
    BgParams,
    DegenerateWeightError,
    GumbelParams,
    bg_cdf,
    bg_exp_moment,
    bg_log_pdf,
    bg_mgf,
    bg_moment,
    bg_moment_set,
    bg_pdf,
    gumbel_cdf,
    gumbel_moment,
    gumbel_pdf,
    mixture_weights,
    normalizer,
    weighted_gumbel_cdf,
)
from helpers import quad_cdf, random_params

EG = CONSTANTS.euler_gamma
PI = math.pi


class TestParams:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            BgParams(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            GumbelParams(0.0, -1.0)

    def test_finite_required(self):
        with pytest.raises(ValueError):
            BgParams(math.inf, 1.0, 0.0)

    def test_coerces_to_float(self):
        p = BgParams(np.float64(1.0), np.float64(2.0), np.int64(0))
        assert type(p.mu) is float and type(p.delta) is float


class TestNormalizer:
    def test_standard_gumbel_case(self):
        assert normalizer(BgParams(0, 1, 0)) == 2.0

    def test_closed_form_121(self):
        expect = 1 + 2 * PI**2 / 3 + 4 * EG**2
        assert normalizer(BgParams(1, 2, 1)) == pytest.approx(expect, rel=1e-15)
        assert normalizer(BgParams(1, 2, 1)) == pytest.approx(8.912447962623780, rel=1e-14)

    def test_closed_form_negative_delta(self):
        expect = 1 + PI**2 / 6 + (1 - EG) ** 2
        assert normalizer(BgParams(-2, 1, -1)) == pytest.approx(expect, rel=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_unnormalized_weight_integrates_to_z(self, seed):
        rng = np.random.default_rng(seed)
        p = random_params(rng)
        gp = p.gumbel
        val, _ = quad(
            lambda x: ((1 - p.delta * x) ** 2 + 1) * float(gumbel_pdf(gp, x)),
            p.mu - 40 * p.sigma,
            p.mu + 120 * p.sigma,
            limit=500,
        )
        assert val == pytest.approx(normalizer(p), rel=1e-9)

    def test_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert normalizer(random_params(rng, delta_scale=4.0)) >= 1.0


class TestPdf:
    def test_delta_zero_reduces_to_gumbel(self):
        p = BgParams(0.7, 1.8, 0.0)
        xs = np.linspace(-5, 12, 101)
        np.testing.assert_allclose(bg_pdf(p, xs), gumbel_pdf(p.gumbel, xs), rtol=1e-14)

    def test_point_value_against_high_precision(self):
        # f(0; mu=1, sigma=2, delta=1) from a 40-digit independent evaluation.
        assert bg_pdf(BgParams(1, 2, 1), 0.0) == pytest.approx(
            0.035572933767189885, rel=1e-13
        )

    def test_integrates_to_one(self):
        p = BgParams(-2, 2, -1)
        val, _ = quad(lambda x: float(bg_pdf(p, x)), -80, 260, limit=500)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_normalization_random_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = random_params(rng)
            val, _ = quad(
                lambda x: float(bg_pdf(p, x)),
                p.mu - 40 * p.sigma,
                p.mu + 120 * p.sigma,
                limit=500,
            )
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_strictly_positive(self):
        p = BgParams(1, 1, 2)
        for x in (-3.0, 0.5, 1.0 / 2.0, 10.0):
            assert bg_pdf(p, x) > 0


class TestLogPdf:
    def test_exp_matches_pdf(self):
        p = BgParams(0.5, 1.5, -0.8)
        xs = np.linspace(-8, 15, 201)
        np.testing.assert_allclose(np.exp(bg_log_pdf(p, xs)), bg_pdf(p, xs), rtol=1e-12)

    def test_gumbel_mode_value(self):
        p = BgParams(3.0, 2.0, 0.0)
        assert bg_log_pdf(p, 3.0) == pytest.approx(math.log(1 / 2.0) - 1.0, rel=1e-14)

    def test_far_left_tail_is_finite(self):
        v = bg_log_pdf(BgParams(1, 2, 1), -50.0)
        assert math.isfinite(v) and v < -1e9

    def test_no_overflow_to_w_700(self):
        p = BgParams(0.0, 1.0, 0.5)
        assert math.isfinite(bg_log_pdf(p, -700.0))
        assert math.isfinite(bg_log_pdf(p, 700.0))


class TestCdf:
    def test_delta_zero_is_gumbel(self):
        p = BgParams(1.2, 0.7, 0.0)
        for x in (-1.0, 0.5, 1.2, 4.0):
            assert bg_cdf(p, x) == pytest.approx(
                math.exp(-math.exp(-(x - 1.2) / 0.7)), rel=1e-14
            )

    @pytest.mark.parametrize("x", [-5.0, -2.0, 0.0, 1.0, 3.0, 6.0, 10.0])
    def test_against_density_quadrature(self, x):
        p = BgParams(1, 2, 1)
        assert bg_cdf(p, x) == pytest.approx(quad_cdf(p, x), abs=1e-8)

    def test_right_limit(self):
        p = BgParams(1, 2, 1)
        assert abs(bg_cdf(p, p.mu + 40 * p.sigma) - 1.0) < 1e-12

    def test_left_tail_reports_zero(self):
        assert bg_cdf(BgParams(0, 1, 0.3), -20.0) == 0.0

    def test_monotone(self):
        p = BgParams(-1, 1.5, -1.2)
        xs = np.linspace(-8, 25, 200)
        vals = bg_cdf(p, xs)
        assert np.all(np.diff(vals) >= 0)

    def test_derivative_matches_pdf(self):
        p = BgParams(0.5, 1.0, 1.5)
        h = 1e-6
        for x in (-1.0, 0.2, 1.5, 3.0):
            fd = (bg_cdf(p, x + h) - bg_cdf(p, x - h)) / (2 * h)
            assert fd == pytest.approx(bg_pdf(p, x), rel=1e-5)


class TestWeightedGumbelCdf:
    def test_order_zero_is_gumbel(self):
        gp = GumbelParams(-1, 2)
        for x in (-4.0, 0.0, 3.0):
            assert weighted_gumbel_cdf(gp, 0, x) == pytest.approx(
                float(gumbel_cdf(gp, x)), rel=1e-13
            )

    def test_degenerate_weight(self):
        gp = GumbelParams(-2 * EG, 2.0)  # E[Y] = -2g + 2g = 0
        with pytest.raises(DegenerateWeightError):
            weighted_gumbel_cdf(gp, 1, 0.5)

    def test_order_two_frozen_value(self):
        # F_{Y_2}(0) for (mu, sigma) = (-1, 2) from 40-digit quadrature.
        assert weighted_gumbel_cdf(GumbelParams(-1, 2), 2, 0.0) == pytest.approx(
            0.31630971425745248, rel=1e-11
        )

    def test_order_two_monte_carlo(self):
        rng = np.random.default_rng(77)
        y = rng.gumbel(loc=-1.0, scale=2.0, size=10**7)
        w = y * y
        est = float(w[y <= 0.0].sum() / w.sum())
        se = 3.0 / math.sqrt(len(y))  # crude 3-sigma band for a bounded ratio
        assert abs(weighted_gumbel_cdf(GumbelParams(-1, 2), 2, 0.0) - est) < 5 * se

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            weighted_gumbel_cdf(GumbelParams(0, 1), 3, 0.0)


class TestMixtureIdentity:
    def test_weights_sum_to_one(self):
        p = BgParams(-2, 1, 1)
        p1, p2, p3 = mixture_weights(p)
        assert p1 + p2 + p3 == pytest.approx(1.0, abs=1e-15)
        assert min(p1, p2, p3) >= 0

    def test_weights_in_unit_interval_in_regime(self):
        rng = np.random.default_rng(11)
        found = 0
        while found < 20:
            p = random_params(rng)
            if p.delta * (p.mu + p.sigma * EG) < 0:
                found += 1
                ws = mixture_weights(p)
                assert all(0 <= w <= 1 for w in ws)
                assert sum(ws) == pytest.approx(1.0, abs=1e-12)

    def test_mixture_equals_cdf(self):
        p = BgParams(-2, 1, 1)
        w1, w2, w3 = mixture_weights(p)
        gp = p.gumbel
        for x in np.linspace(-6, 6, 25):
            mix = (
                w1 * weighted_gumbel_cdf(gp, 0, float(x))
                + w2 * weighted_gumbel_cdf(gp, 1, float(x))
                + w3 * weighted_gumbel_cdf(gp, 2, float(x))
            )
            assert mix == pytest.approx(bg_cdf(p, float(x)), abs=1e-8)


class TestMoments:
    # Closed-form moment values for the simulation parameter sets, rounded
    # to the four decimals used in reporting.
    TABLE = [
        (BgParams(-2, 1, -1), -1.0640, 5.0126),
        (BgParams(-1, 2, -1), 4.0170, 18.016),
        (BgParams(-1, 2, -2), 3.9909, 21.575),
        (BgParams(-2, 2, -1), 1.9512, 24.592),
    ]

    @pytest.mark.parametrize("p,mean,var", TABLE)
    def test_reference_means_and_variances(self, p, mean, var):
        ms = bg_moment_set(p)
        assert ms.mean == pytest.approx(mean, abs=5e-4)
        assert ms.variance == pytest.approx(var, abs=5e-3)
        assert bg_moment(p, 1) == pytest.approx(mean, abs=5e-4)

    def test_delta_zero_gumbel_moments(self):
        p = BgParams(0.3, 1.7, 0.0)
        m = 0.3 + 1.7 * EG
        assert bg_moment(p, 1) == pytest.approx(m, rel=1e-13)
        assert bg_moment(p, 2) == pytest.approx(m**2 + 1.7**2 * PI**2 / 6, rel=1e-13)

    def test_moment_zero(self):
        assert bg_moment(BgParams(1, 1, 1), 0) == 1.0

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            bg_moment(BgParams(0, 1, 0), 5)

    def test_variance_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_params(rng)
            ms = bg_moment_set(p)
            assert ms.variance == pytest.approx(ms.second_raw - ms.mean**2, rel=1e-12)
            assert ms.variance > 0

    def test_closed_forms_match_expansion_sums(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = random_params(rng)
            ms = bg_moment_set(p)
            assert ms.mean == pytest.approx(bg_moment(p, 1), rel=1e-11, abs=1e-11)
            assert ms.second_raw == pytest.approx(bg_moment(p, 2), rel=1e-11, abs=1e-11)
            assert ms.third_raw == pytest.approx(bg_moment(p, 3), rel=1e-10, abs=1e-10)

    def test_expectation_decomposition_identity(self):
        # E[X^k] = (2 E[Y^k] - 2 d E[Y^(k+1)] + d^2 E[Y^(k+2)]) / Z, Y Gumbel.
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = random_params(rng)
            gp = p.gumbel
            z = normalizer(p)
            for k in range(3):
                decomposed = (
                    2 * gumbel_moment(gp, k)
                    - 2 * p.delta * gumbel_moment(gp, k + 1)
                    + p.delta**2 * gumbel_moment(gp, k + 2)
                ) / z
                assert bg_moment(p, k) == pytest.approx(decomposed, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("mu", [0.0, 1e3, 1e5, -1e5])
    def test_gumbel_skewness_constant(self, mu):
        ms = bg_moment_set(BgParams(mu, 1, 0))
        assert ms.skewness == pytest.approx(1.1395470994046487, abs=1e-5)
        assert ms.kurtosis == pytest.approx(27.0 / 5.0, abs=1e-5)

    def test_central_moments_far_from_origin_match_quadrature(self):
        # Central moments about a mean of ~1000 must not come from raw moments.
        from helpers import quad_expectation

        p = BgParams(1000.0, 1.0, 0.001)
        mean = quad_expectation(p, lambda t: t)
        var, mu3, mu4 = (quad_expectation(p, lambda t, n=n: (t - mean) ** n) for n in (2, 3, 4))
        ms = bg_moment_set(p)
        assert ms.skewness == pytest.approx(mu3 / var**1.5, rel=1e-8)
        assert ms.kurtosis == pytest.approx(mu4 / var**2, rel=1e-8)

    def test_moments_match_quadrature(self):
        from helpers import quad_expectation

        p = BgParams(0.5, 1.2, -0.9)
        for k in (1, 2, 3, 4):
            oracle = quad_expectation(p, lambda t, kk=k: t**kk)
            assert bg_moment(p, k) == pytest.approx(oracle, rel=1e-9)


class TestMgfAndExpMoments:
    def test_gumbel_case_at_minus_one(self):
        assert bg_mgf(BgParams(0, 1, 0), -1.0) == pytest.approx(1.0, rel=1e-14)

    def test_frozen_value(self):
        # E[exp(-X/2)] for (1, 2, 1) from 40-digit quadrature.
        assert bg_mgf(BgParams(1, 2, 1), -0.5) == pytest.approx(
            0.29227446478400628, rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bg_mgf(BgParams(0, 1, 0.5), 0.0)
        with pytest.raises(ValueError):
            bg_mgf(BgParams(0, 1, 0.0), 1.0)
        # delta = 0 admits 0 <= t < 1/sigma
        assert bg_mgf(BgParams(0, 1, 0.0), 0.4) > 0

    def test_exp_moment_m0_equals_mgf(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = random_params(rng)
            t = -float(rng.uniform(0.1, 2.0))
            assert bg_exp_moment(p, 0, t) == pytest.approx(bg_mgf(p, t), rel=1e-12)

    def test_exp_moment_frozen_value(self):
        # E[X exp(-2X)] for (-2, 1, -1) from 40-digit quadrature.
        assert bg_exp_moment(BgParams(-2, 1, -1), 1, -2.0) == pytest.approx(
            -628.31899019988580, rel=1e-11
        )

    def test_gumbel_reduction_m1(self):
        # At delta = 0, E[X exp(-X)] = -Gamma'(2) = -(1 - EG).
        assert bg_exp_moment(BgParams(0, 1, 0), 1, -1.0) == pytest.approx(
            -(1 - EG), rel=1e-13
        )

    def test_mgf_derivative_matches_exp_moment(self):
        p = BgParams(0.5, 2.0, -0.7)
        t = -0.5  # boundary of the m = 1 domain for sigma = 2
        errs = []
        for h in (1e-3, 1e-4, 1e-5):
            fd = (bg_mgf(p, t + h) - bg_mgf(p, t - h)) / (2 * h)
            errs.append(abs(fd - bg_exp_moment(p, 1, t)))
        assert errs[-1] < 1e-7
        assert errs[0] > errs[-1]  # h-refinement converges

    def test_exp_moment_domain(self):
        p = BgParams(0, 1, 0.5)
        with pytest.raises(ValueError):
            bg_exp_moment(p, 1, -0.5)  # above -m/sigma
        with pytest.raises(ValueError):
            bg_exp_moment(p, 0, 0.0)
        with pytest.raises(ValueError):
            bg_exp_moment(p, 3, -10.0)
        assert math.isfinite(bg_exp_moment(p, 1, -1.0))  # boundary included

    def test_exp_moment_quadrature(self):
        from helpers import quad_expectation

        p = BgParams(0.5, 1.5, 0.8)
        val = quad_expectation(p, lambda x: x**2 * math.exp(-3.0 * x), lo_sig=40, hi_sig=40)
        assert bg_exp_moment(p, 2, -3.0) == pytest.approx(val, rel=1e-9)

