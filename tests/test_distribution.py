import math
import re

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from bgumbel import (
    CONSTANTS,
    BgParams,
    DegenerateWeightError,
    GumbelParams,
    RegimeError,
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
    gumbel_ppf,
    mixture_weights,
    normalizer,
    weighted_gumbel_cdf,
)
from bgumbel.distribution import gumbel_log_pdf
from bgumbel.inference import _log_z
from helpers import extreme_box, quad_cdf, random_params, wide_box

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

    @pytest.mark.parametrize(
        "triple", [(0.0, 1.0, 1e200), (0.0, 1e160, 1.0), (1e200, 1.0, 1e-40), (0.0, 1.0, 1e154)]
    )
    def test_overflow_names_the_triple(self, triple):
        # Z above the float range: a square that overflows (the first three)
        # or a sum that rounds to inf (the last).  The triple is refused when
        # it is built, so no function of the package meets an infinite Z.
        named = re.escape("mu={!r}, sigma={!r}, delta={!r}".format(*map(float, triple)))
        with pytest.raises(RegimeError, match=named):
            BgParams(*triple)

    def test_domain_is_where_z_overflows(self):
        # Z written with ** and OverflowError caught as inf: the domain is
        # every triple where that is a finite float, with delta^2 and
        # sigma^2 formed apart.
        def z_pow(mu, sg, dl):
            try:
                return 1.0 + dl**2 * sg**2 * PI**2 / 6.0 + (dl * mu + dl * sg * EG - 1.0) ** 2
            except OverflowError:
                return math.inf

        accepted = 0
        for t in extreme_box(np.random.default_rng(40), 3000):
            try:
                BgParams(*t)
            except RegimeError:
                assert not z_pow(*t) < math.inf, t
            else:
                assert z_pow(*t) < math.inf, t
                accepted += 1
        assert 1000 < accepted < 2000

    def test_one_formula_for_floats_and_rows(self):
        # normalizer and the likelihood's ln Z read the same Z, bit for bit,
        # and rows of triples give the bits of each triple alone.
        params = []
        for t in extreme_box(np.random.default_rng(41), 2400):
            try:
                params.append(BgParams(*t))
            except RegimeError:
                pass
        params += wide_box(np.random.default_rng(42), 1000)
        assert len(params) > 2000
        zs = [normalizer(p) for p in params]
        assert zs == [_log_z(p.mu, p.sigma, p.delta)[0] for p in params]
        rows = [np.array([getattr(p, k) for p in params]) for k in ("mu", "sigma", "delta")]
        with np.errstate(over="ignore", invalid="ignore"):  # in ln Z's derivatives
            assert _log_z(*rows)[0].tolist() == zs


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

    def test_gumbel_density_in_the_left_tail(self):
        # At x = -inf, -w - e^-w is -inf, not inf - inf (a nan and a warning);
        # at w = -800, e^-w overflows.
        gp = GumbelParams(0.5, 2.0)
        assert gumbel_pdf(gp, -math.inf) == 0.0 == bg_pdf(BgParams(0.5, 2.0, 0.0), -math.inf)
        for x in (-math.inf, 0.5 - 800.0 * 2.0):
            assert gumbel_log_pdf(gp, x) == -math.inf
        xs = np.array([-math.inf, 0.5 - 800.0 * 2.0, 0.5, math.inf])
        np.testing.assert_array_equal(gumbel_pdf(gp, xs), [0.0, 0.0, gumbel_pdf(gp, 0.5), 0.0])
        np.testing.assert_array_equal(gumbel_log_pdf(gp, xs), [-math.inf, -math.inf, math.log(0.5) - 1.0, -math.inf])


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


class TestGumbelPpf:
    GP = GumbelParams(-1.5, 2.5)

    def test_round_trip_through_cdf(self):
        qs = np.linspace(1e-3, 1 - 1e-3, 999)
        xs = gumbel_ppf(self.GP, qs)
        assert np.all(np.diff(xs) > 0)
        assert np.allclose(gumbel_cdf(self.GP, xs), qs, rtol=1e-13, atol=0.0)

    def test_median(self):
        assert gumbel_ppf(self.GP, 0.5) == pytest.approx(-1.5 - 2.5 * math.log(math.log(2.0)), rel=1e-15)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.1])
    def test_levels_outside_the_open_unit_interval_raise(self, q):
        with pytest.raises(ValueError):
            gumbel_ppf(self.GP, q)
        with pytest.raises(ValueError):
            gumbel_ppf(self.GP, np.array([0.5, q]))

    def test_float_for_a_scalar_array_for_an_array(self):
        assert type(gumbel_ppf(self.GP, 0.3)) is float
        out = gumbel_ppf(self.GP, np.array([0.3, 0.6]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)
        assert out[0] == gumbel_ppf(self.GP, 0.3)


class TestWeightedGumbelCdf:
    def test_order_zero_is_gumbel(self):
        gp = GumbelParams(-1, 2)
        for x in (-1601.0, -4.0, 0.0, 3.0):  # e^-w overflows at x = mu - 800 sigma
            assert weighted_gumbel_cdf(gp, 0, x) == pytest.approx(
                float(gumbel_cdf(gp, x)), rel=1e-13
            )
        assert gumbel_cdf(gp, -1601.0) == 0.0 == gumbel_cdf(gp, np.array([-1601.0]))[0]

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

    def test_weights_where_m_squared_overflows(self):
        # (mu + sigma gamma)^2 is above the float range and delta^2 is
        # subnormal; delta m is not.  p3 is 1 to 22 digits.
        t = (8.466728487635178e+179, 6776.4283848149635, -5.205674840736454e-159)
        got = mixture_weights(BgParams(*t))
        assert all(math.isfinite(w) for w in got)
        assert sum(got) == 1.0
        with mpmath.workdps(40):
            mu, sg, dl = map(mpmath.mpf, t)
            m = mu + sg * mpmath.euler
            z = 1 + (dl * sg * mpmath.pi) ** 2 / 6 + (dl * m - 1) ** 2
            want = [2 / z, -2 * dl * m / z, dl**2 * (sg**2 * mpmath.pi**2 / 6 + m * m) / z]
            for w, ref in zip(got, want):
                assert abs(w - ref) <= 1e-15 * abs(ref)

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

    @pytest.mark.parametrize("sigma", [1e-150, 1e-200, 1e-300])
    def test_shape_moments_where_sigma_squared_underflows(self, sigma):
        # Skewness and kurtosis do not depend on sigma: at delta = 0 they are
        # the Gumbel values 12 sqrt(6) zeta(3) / pi^3 and 27/5, with the bits
        # of sigma = 1, where the variance is below the float range too.
        ms, unit = bg_moment_set(BgParams(0, sigma, 0)), bg_moment_set(BgParams(0, 1, 0))
        assert (ms.skewness, ms.kurtosis) == (unit.skewness, unit.kurtosis)
        assert ms.skewness == pytest.approx(12 * math.sqrt(6) * CONSTANTS.zeta3 / PI**3, rel=1e-14)
        assert ms.kurtosis == pytest.approx(27.0 / 5.0, rel=1e-14)
        # The variance itself is still sigma^2 pi^2 / 6, 0.0 where that underflows.
        assert ms.variance == pytest.approx(sigma * sigma * PI**2 / 6, rel=1e-13, abs=0.0)

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

    @staticmethod
    def oracle(p, t, m=0):
        """40-digit mpmath E[X^m exp(tX)] = exp(t mu) sum_j c_j Gamma^(j)(a) / Z, a = 1 - sigma t.

        c holds the coefficients, in s = ln v, of (mu - sigma s)^m q(s), with
        q(s) the weight (1 - delta x)^2 + 1 at x = mu - sigma s.
        """
        import mpmath as mp

        with mp.workdps(40):
            mu, sg, dl, t = map(mp.mpf, (p.mu, p.sigma, p.delta, t))
            c = 1 - dl * mu
            q = [c * c + 1, 2 * c * dl * sg, (dl * sg) ** 2]
            for _ in range(m):
                q = [mu * x - sg * y for x, y in zip(q + [0], [0] + q)]
            z = 1 + (dl * sg * mp.pi) ** 2 / 6 + (dl * mu + dl * sg * mp.euler - 1) ** 2
            a = 1 - sg * t
            gamma_sum = sum(qj * mp.diff(mp.gamma, a, j) for j, qj in enumerate(q))
            return float(mp.exp(t * mu) * gamma_sum / z)

    def test_domain_errors(self):
        # t = 0 is inside the domain t < 1/sigma for every delta: E[1] = 1.
        assert bg_mgf(BgParams(0, 1, 0.5), 0.0) == pytest.approx(
            self.oracle(BgParams(0, 1, 0.5), 0.0), rel=1e-13
        )
        with pytest.raises(ValueError):
            bg_mgf(BgParams(0, 1, 0.0), 1.0)
        # 0 <= t < 1/sigma is inside the domain
        assert bg_mgf(BgParams(0, 1, 0.0), 0.4) > 0

    @pytest.mark.parametrize("delta", [0.0, 0.5, -2.0])
    def test_domain_is_t_below_one_over_sigma(self, delta):
        # One rule for both functions and every delta: a = 1 - sigma t > 0.
        p = BgParams(0.5, 2.0, delta)
        for t in (0.5, 1.0, math.nan):
            for m in (0, 1, 2):
                with pytest.raises(ValueError, match="t < 1/sigma"):
                    bg_exp_moment(p, m, t)
            with pytest.raises(ValueError, match="t < 1/sigma"):
                bg_mgf(p, t)
        with pytest.raises(ValueError):
            bg_exp_moment(p, 3, -1.0)

    @pytest.mark.parametrize("p", [
        BgParams(1, 1, 2), BgParams(0.5, 2, -0.7), BgParams(-2, 1, 1), BgParams(3, 0.3, -4),
    ])
    def test_whole_domain_matches_mpmath(self, p):
        # t from -3/sigma to 0.99/sigma, positive t with delta != 0 included.
        for k in (-3.0, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9, 0.99):
            t = k / p.sigma
            for m in (0, 1, 2):
                assert bg_exp_moment(p, m, t) == pytest.approx(self.oracle(p, t, m), rel=1e-13)
            assert bg_mgf(p, t) == bg_exp_moment(p, 0, t)

    def test_exp_moment_at_zero_is_the_moment(self):
        # At t = 0 the scale exp(0 + lgamma(1)) is exactly 1.0.
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = random_params(rng)
            for m in (1, 2):
                assert bg_exp_moment(p, m, 0.0) == bg_moment(p, m)

    def test_no_overflow_of_the_factors(self):
        # exp(t mu) and Gamma(1 - sigma t) overflow alone, not their product;
        # the oracle is 40-digit mpmath, exp(t mu) sum_j q_j Gamma^(j)(a) / Z.
        for p, t in ((BgParams(3, 1, 0.5), -200.0), (BgParams(0, 1, 0.5), -170.0)):
            assert bg_mgf(p, t) == pytest.approx(self.oracle(p, t), rel=1e-12)
        assert bg_mgf(BgParams(0, 1, 0), -200.0) == math.inf  # the true value overflows

    def test_exp_moment_m0_equals_mgf(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = random_params(rng)
            t = -float(rng.uniform(0.1, 2.0))
            assert bg_exp_moment(p, 0, t) == pytest.approx(bg_mgf(p, t), rel=1e-12)

    def test_far_below_the_domain_edge(self):
        # a = 1 - sigma t is beyond where the polygammas' powers overflow, and
        # the true values overflow: E[X exp(tX)] is dominated by large negative X.
        p = BgParams(1, 1, 0)
        assert bg_mgf(p, -1e100) == math.inf
        assert bg_exp_moment(p, 1, -1e100) == -math.inf
        assert bg_exp_moment(BgParams(1, 1, 0.5), 2, -1e100) == math.inf
        for m in (0, 1, 2):
            with pytest.raises(ValueError, match="t < 1/sigma"):
                bg_exp_moment(p, m, -math.inf)

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
        t = -0.5  # t = -m/sigma for m = 1, well inside the domain t < 1/sigma = 0.5
        errs = []
        for h in (1e-3, 1e-4, 1e-5):
            fd = (bg_mgf(p, t + h) - bg_mgf(p, t - h)) / (2 * h)
            errs.append(abs(fd - bg_exp_moment(p, 1, t)))
        assert errs[-1] < 1e-7
        assert errs[0] > errs[-1]  # h-refinement converges

    def test_exp_moment_domain(self):
        p = BgParams(0, 1, 0.5)
        # Above -m/sigma and at t = 0, inside the domain t < 1/sigma.
        assert bg_exp_moment(p, 1, -0.5) == pytest.approx(self.oracle(p, -0.5, 1), rel=1e-13)
        assert bg_exp_moment(p, 0, 0.0) == pytest.approx(self.oracle(p, 0.0, 0), rel=1e-13)
        with pytest.raises(ValueError):
            bg_exp_moment(p, 3, -10.0)
        assert math.isfinite(bg_exp_moment(p, 1, -1.0))

    def test_exp_moment_quadrature(self):
        from helpers import quad_expectation

        p = BgParams(0.5, 1.5, 0.8)
        val = quad_expectation(p, lambda x: x**2 * math.exp(-3.0 * x), lo_sig=40, hi_sig=40)
        assert bg_exp_moment(p, 2, -3.0) == pytest.approx(val, rel=1e-9)

