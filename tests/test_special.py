import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgumbel import (
    CONSTANTS,
    digamma,
    gamma_deriv,
    incomplete_log_moment,
    log_moment_constant,
    trigamma,
)
from bgumbel import BgParams, critical_function_g, find_modes
from bgumbel.shape import _search_grid
from bgumbel.special import (
    _PLANS,
    _brentq,
    _chi2_sf,
    _kolmogorov_sf,
    _log_poly_gamma,
    _plan,
    _polygammas,
    _roots,
    log_weight_shares,
)
from helpers import random_params, simpson_log_moment, wide_box

EG = CONSTANTS.euler_gamma


class TestConstants:
    def test_fifteen_digit_accuracy(self):
        import mpmath as mp

        mp.mp.dps = 25
        assert abs(CONSTANTS.euler_gamma - float(mp.euler)) < 1e-16
        assert abs(CONSTANTS.zeta3 - float(mp.zeta(3))) < 1e-16
        assert abs(CONSTANTS.zeta5 - float(mp.zeta(5))) < 1e-16
        assert CONSTANTS.pi == math.pi


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


class TestLogWeightShares:
    ZS = (0.0, 5e-324, 1e-300, 1e-8, 0.5, 2.0 - 1e-12, 2.0, 2.0 + 1e-12, 50.0, 745.0, 800.0, math.inf)

    @pytest.mark.parametrize("q", [(0.0,) * k + (1.0,) for k in range(7)] + [(5.0, -4.0, 4.0)])
    def test_against_mpmath(self, q):
        # Oracle: T and the part the kernel computes directly (upper from
        # z = 2 on, lower below) by 40-digit quadrature; the other part is T
        # minus it.  The direct share holds 2e-13 relative (40-node
        # Gauss-Laguerre leaves 1.0e-13 for ln^4 v at z = 2) or one
        # subnormal ulp where the share is below the normal range.  The
        # other share is T minus the direct part, so it is off by the direct
        # share's error plus the rounding of that difference.
        import mpmath as mp

        tiny = 2.0**-1074
        with mp.workdps(40):
            def w(v):
                return sum(c * mp.log(v) ** j for j, c in enumerate(q))

            total = mp.quad(lambda v: w(v) * mp.exp(-v), [0, 1, 10, 100, mp.inf])
            for z in self.ZS:
                zm = mp.mpf(min(z, 1e4))
                if z >= 2.0:
                    part = mp.exp(-zm) * mp.quad(lambda t: w(zm + t) * mp.exp(-t), [0, 1, 10, 100, mp.inf])
                else:
                    cuts = [0, 1 / zm, 1] if zm > 1 else [0, 1]
                    part = zm * mp.quad(lambda u: w(zm * u) * mp.exp(-zm * u), cuts) if z else mp.mpf(0)
                upper, lower = (float(v) for v in log_weight_shares(q, z))
                direct, other = (upper, lower) if z >= 2.0 else (lower, upper)
                err = abs(direct - part / total)
                assert err <= 2e-13 * abs(part / total) + tiny, (z, direct)
                assert abs(other - (1 - part / total)) <= err + 4e-16, (z, other)

    def test_plan_cache_is_bounded(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            log_weight_shares(tuple(rng.uniform(0.5, 2.0, 3)), np.array([0.5, 5.0]))
        assert _plan.cache_info().currsize <= _PLANS


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

    @pytest.mark.parametrize("j", range(7))
    def test_derivatives_at_two_against_mpmath(self, j):
        # Gamma^(j)(2), the a = 2 sums of fisher_information, with no SciPy.
        import mpmath as mp

        with mp.workdps(30):
            want = mp.diff(mp.gamma, 2, j)
        got = _log_poly_gamma((0.0,) * j + (1.0,), 2.0)
        assert got == pytest.approx(float(want), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("m", range(4))
    def test_polygamma_against_mpmath(self, m):
        # Relative to max(|psi|, 1) for m = 0, whose root is included.
        import mpmath as mp

        xs = np.concatenate([np.logspace(-3.0, 3.0, 97), [1.4616321449683622, 9.999999, 10.0]])
        with mp.workdps(30):
            for x in xs.tolist():
                want = mp.polygamma(m, x)
                scale = max(abs(want), 1) if m == 0 else abs(want)
                assert float(abs(_polygammas(x)[m] - want) / scale) < 1e-14, x
        assert digamma(2.5) == _polygammas(2.5)[0] and trigamma(2.5) == _polygammas(2.5)[1]

    def test_gamma_overflow_is_inf(self):
        assert gamma_deriv(0, 200.0) == math.inf and gamma_deriv(4, 200.0) == math.inf

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

    def test_brent_port_matches_scipy_brentq(self):
        # The same floats as SciPy's brentq on the same brackets and settings
        # (the xtol _roots scales to each bracket): find_modes' grids on
        # bench-box triples and on wide-box ones.
        from scipy.optimize import brentq

        rng = np.random.default_rng(31)
        params = [random_params(rng) for _ in range(300)] + wide_box(np.random.default_rng(32), 300)
        count = 0
        for p in params:
            xs = _search_grid(p)
            pos = critical_function_g(p, xs) > 0
            want = [
                brentq(lambda t: float(critical_function_g(p, t)), xs[i], xs[i + 1],
                       xtol=4.0 * np.finfo(float).eps * max(abs(xs[i]), abs(xs[i + 1])), rtol=8.9e-16)
                for i in np.flatnonzero(pos[1:] != pos[:-1])
            ]
            assert [r for r, _ in _roots(lambda x: critical_function_g(p, x), xs)] == want
            count += len(want)
        assert count > len(params)

    def test_root_near_zero_is_relatively_accurate(self):
        # delta puts the mode at -2.06e-4 exactly (solved at 40 digits).  g's
        # two terms cancel there at about 0.37, so its floats carry about
        # 1e-16 of absolute noise and fix the root to about 2.5e-16, 1.2e-12
        # of itself; an absolute xtol of 1e-12 left 5.8e-10.
        import mpmath as mp

        mu, sg, dl = 1.177, 2.078, 0.3667493014964948
        (got,) = find_modes(BgParams(mu, sg, dl)).modes
        with mp.workdps(40):
            def g(x):
                u = 1 - mp.mpf(dl) * x
                return (mp.exp(-(x - mu) / mp.mpf(sg)) - 1) / sg - 2 * mp.mpf(dl) * u / (u * u + 1)

            want = mp.findroot(g, mp.mpf(-2.06e-4))
            assert float(abs(got - want) / abs(want)) < 1e-12
        assert got == pytest.approx(-2.06e-4, rel=1e-12)

    def test_brent_port_errors(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda t: t * t + 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            _brentq(lambda t: math.nan if t > 0.5 else t, -1.0, 1.0)
        with pytest.raises(RuntimeError):  # bisection only, from a bracket of 2e300
            _brentq(lambda t: 1.0 if t > 0.3 else -1.0, -1e300, 1e300)


class TestGofTails:
    def test_kolmogorov_against_scipy(self):
        from scipy.special import kolmogorov

        ys = np.concatenate([np.geomspace(1e-3, 27.0, 4000), [1.0, np.nextafter(1.0, 0.0), 0.82]])
        got = np.array([_kolmogorov_sf(float(y)) for y in ys])
        want = kolmogorov(ys)
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    def test_chi_square_against_scipy(self):
        from scipy.special import chdtrc

        xs = np.geomspace(1e-6, 1400.0, 600)
        for k in range(1, 31):
            got = np.array([_chi2_sf(float(x), k) for x in xs])
            want = chdtrc(k, xs)
            live = want > 1e-300
            assert np.all(np.abs(got - want)[live] <= 1e-12 * want[live]), k
            assert np.all(got[~live] < 1e-290), k

    def test_chi_square_many_degrees_of_freedom(self):
        # Terms that a sum started from exp(-x/2) would lose to underflow.
        from scipy.special import chdtrc

        for k, x in [(2000, 2000.0), (2001, 1900.0), (3000, 3300.0)]:
            assert _chi2_sf(x, k) == pytest.approx(float(chdtrc(k, x)), rel=1e-11)
        assert _chi2_sf(0.0, 3) == 1.0
