import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgumbel import (
    CONSTANTS,
    DivergentIntegralError,
    digamma,
    gamma_deriv,
    incomplete_log_moment,
    log_moment_constant,
    trigamma,
    upper_incomplete_gamma,
)
from bgumbel.special import _roots
from helpers import simpson_log_moment

EG = CONSTANTS.euler_gamma


class TestConstants:
    def test_fifteen_digit_accuracy(self):
        import mpmath as mp

        mp.mp.dps = 25
        assert abs(CONSTANTS.euler_gamma - float(mp.euler)) < 1e-16
        assert abs(CONSTANTS.zeta3 - float(mp.zeta(3))) < 1e-16
        assert abs(CONSTANTS.zeta5 - float(mp.zeta(5))) < 1e-16
        assert CONSTANTS.pi == math.pi


class TestUpperIncompleteGamma:
    def test_at_one_zero(self):
        assert upper_incomplete_gamma(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_exponential_integral_at_one(self):
        # E1(1), cross-checked against 40-digit arbitrary-precision evaluation.
        assert upper_incomplete_gamma(0.0, 1.0) == pytest.approx(
            0.21938393439552027, rel=1e-14
        )

    def test_quadrature_oracle(self):
        from scipy.integrate import quad

        oracle, _ = quad(lambda t: math.exp(-t) / t, 1.0, np.inf, limit=300)
        assert upper_incomplete_gamma(0.0, 1.0) == pytest.approx(oracle, rel=1e-10)

    def test_large_argument_underflows_gracefully(self):
        v = upper_incomplete_gamma(0.0, 50.0)
        assert 0.0 <= v < 1e-20
        assert math.isfinite(v)

    def test_accuracy_across_range(self):
        import mpmath as mp

        mp.mp.dps = 30
        for x in (1e-8, 1e-3, 0.5, 1.0, 10.0, 100.0, 700.0):
            ref = float(mp.expint(1, x))
            assert upper_incomplete_gamma(0.0, x) == pytest.approx(ref, rel=1e-12)

    def test_strictly_decreasing(self):
        xs = np.logspace(-6, 2, 60)
        vals = [upper_incomplete_gamma(0.0, float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            upper_incomplete_gamma(1.0, -0.5)
        with pytest.raises(DivergentIntegralError):
            upper_incomplete_gamma(0.0, 0.0)


class TestIncompleteLogMoment:
    def test_k0_full_range(self):
        assert incomplete_log_moment(0, 0.0) == 1.0

    def test_k2_full_range_constant(self):
        assert incomplete_log_moment(2, 0.0) == pytest.approx(
            EG**2 + math.pi**2 / 6, abs=1e-10
        )
        assert EG**2 + math.pi**2 / 6 == pytest.approx(1.97811199, abs=5e-9)

    def test_k2_against_simpson_oracle(self):
        oracle = simpson_log_moment(2, 0.5)
        assert incomplete_log_moment(2, 0.5) == pytest.approx(oracle, rel=1e-9)

    def test_closed_form_branch_is_exact(self):
        for a in (0.1, 0.5, 1.0, 3.0, 10.0):
            assert incomplete_log_moment(0, a) == math.exp(-a)

    def test_k1_limit_at_zero_is_euler_gamma(self):
        assert incomplete_log_moment(1, 0.0) == EG

    def test_k1_matches_simpson(self):
        for a in (0.2, 1.0, 2.5):
            assert incomplete_log_moment(1, a) == pytest.approx(
                simpson_log_moment(1, a), rel=1e-9
            )

    def test_finite_upper_limit(self):
        for (k, a, b) in [(0, 0.5, 2.0), (1, 0.1, 5.0), (3, 0.0, 4.0)]:
            assert incomplete_log_moment(k, a, b) == pytest.approx(
                simpson_log_moment(k, a, b), rel=1e-8, abs=1e-12
            )

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            incomplete_log_moment(2, -0.1)
        with pytest.raises(ValueError):
            incomplete_log_moment(2, 2.0, 1.0)
        with pytest.raises(ValueError):
            incomplete_log_moment(-1, 0.0)
        with pytest.raises(ValueError):
            incomplete_log_moment(7, 1.0)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_upper_tail_against_mpmath(self, k):
        # Oracle: (-1)^k e^-a int_0^inf ln^k(a + t) e^-t dt at 40 digits,
        # split where ln(a + t) changes sign.
        import mpmath as mp

        with mp.workdps(40):
            for a in (1e-200, 1e-3, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 600.0):
                am = mp.mpf(a)
                cuts = [c for c in (1 - am, mp.mpf(1), mp.mpf(10), mp.mpf(100)) if c > 0]
                pts = sorted({mp.mpf(0), *cuts}) + [mp.inf]
                want = (-1) ** k * mp.exp(-am) * mp.quad(lambda t: mp.log(am + t) ** k * mp.exp(-t), pts)
                assert incomplete_log_moment(k, a) == pytest.approx(float(want), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", range(7))
    def test_full_range_is_the_constant_exactly(self, k):
        assert incomplete_log_moment(k, 0.0) == log_moment_constant(k)

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=5),
        a=st.floats(min_value=0.01, max_value=2.0),
        gap1=st.floats(min_value=0.1, max_value=3.0),
        gap2=st.floats(min_value=0.1, max_value=3.0),
    )
    def test_additivity(self, k, a, gap1, gap2):
        b, c = a + gap1, a + gap1 + gap2
        lhs = incomplete_log_moment(k, a, b) + incomplete_log_moment(k, b, c)
        rhs = incomplete_log_moment(k, a, c)
        assert lhs == pytest.approx(rhs, abs=2e-12, rel=2e-10)


class TestLogMomentConstants:
    def test_k1_is_euler_gamma(self):
        assert log_moment_constant(1) == EG

    def test_k3_closed_form(self):
        expect = 2 * CONSTANTS.zeta3 + EG**3 + EG * math.pi**2 / 2
        assert log_moment_constant(3) == pytest.approx(expect, rel=1e-15)

    def test_k4_agrees_with_quadrature(self):
        assert abs(log_moment_constant(4) - incomplete_log_moment(4, 0.0)) < 1e-9

    @pytest.mark.parametrize("k", range(7))
    def test_all_orders_agree_with_quadrature(self, k):
        assert abs(log_moment_constant(k) - incomplete_log_moment(k, 0.0)) < 1e-8

    @pytest.mark.parametrize("k", range(7))
    def test_against_mpmath(self, k):
        # I(k; 0, inf) = (-1)^k Gamma^(k)(1).
        import mpmath as mp

        with mp.workdps(40):
            want = (-1) ** k * mp.diff(mp.gamma, 1, k)
        assert log_moment_constant(k) == pytest.approx(float(want), rel=1e-15, abs=0.0)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            log_moment_constant(7)


class TestGammaDerivatives:
    def test_digamma_at_one(self):
        assert digamma(1.0) == pytest.approx(-EG, rel=1e-14)

    def test_trigamma_at_one(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6, rel=1e-13)

    def test_gamma_at_one(self):
        assert gamma_deriv(0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_second_derivative_frozen(self):
        # Gamma''(1.5) from 40-digit numerical differentiation.
        assert gamma_deriv(2, 1.5) == pytest.approx(0.82962690737660234, rel=1e-12)

    def test_higher_orders_frozen(self):
        assert gamma_deriv(3, 1.5) == pytest.approx(-0.64376882738863327, rel=1e-11)
        assert gamma_deriv(4, 1.5) == pytest.approx(3.4714886170709170, rel=1e-11)

    @pytest.mark.parametrize("i", [1, 2])
    def test_matches_finite_differences(self, i):
        # i-th central difference of Gamma on a stability-swept step.
        for x in np.linspace(0.5, 10.0, 12):
            h = 1e-4 * max(1.0, x)
            if i == 1:
                fd = (gamma_deriv(0, x + h) - gamma_deriv(0, x - h)) / (2 * h)
            else:
                fd = (
                    gamma_deriv(0, x + h) - 2 * gamma_deriv(0, x) + gamma_deriv(0, x - h)
                ) / h**2
            assert gamma_deriv(i, x) == pytest.approx(fd, rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            trigamma(-1.0)
        with pytest.raises(ValueError):
            gamma_deriv(2, 0.0)
        with pytest.raises(ValueError):
            gamma_deriv(5, 1.0)


class TestRoots:
    def test_exact_zero_at_a_node_is_one_root(self):
        xs = np.linspace(-1.0, 1.0, 5)  # 0.0 is a node
        assert _roots(lambda x: x, xs) == [(0.0, False)]
        assert _roots(lambda x: -x, xs) == [(0.0, True)]
