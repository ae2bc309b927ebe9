import math

import mpmath as mp
import numpy as np
import pytest

from bgumbel import (
    BgParams,
    RegimeError,
    bg_log_pdf,
    bg_pdf,
    check_condition_c,
    critical_function_g,
    d_interval,
    find_modes,
    hazard,
    tail_rate,
)
from bgumbel.shape import _g_increase_gap
from helpers import fd_log_pdf_derivative, wide_box

CANONICAL = BgParams(1.0, 1.0, 2.0)
# High-precision critical points of the canonical bimodal parameter set.
R1, R2, R3 = -0.0896138, 0.389792, 2.79117
D_LO, D_HI = 0.132178, 0.937349


def _mp_critical_points(mu, sigma, delta, lo, hi, n):
    """(root, f'/f falls there) pairs of f'/f on [lo, hi], at 40 digits.

    f'/f = d/dx [ln(1 + u^2) - w - e^-w] with u = 1 - delta x and
    w = (x - mu)/sigma.  Its signs are scanned at n even points, which must
    start positive and end negative, and each change is bisected 80 times.
    """
    with mp.workdps(40):
        mu, sigma, delta = mp.mpf(mu), mp.mpf(sigma), mp.mpf(delta)

        def positive(x):
            u = 1 - delta * x
            return -2 * delta * u / (1 + u * u) + (mp.exp(-(x - mu) / sigma) - 1) / sigma > 0

        xs = mp.linspace(mp.mpf(lo), mp.mpf(hi), n)
        pos = [positive(x) for x in xs]
        assert pos[0] and not pos[-1]
        out = []
        for i in np.flatnonzero(np.diff(pos)):
            a, b = xs[i], xs[i + 1]
            for _ in range(80):
                if positive((a + b) / 2) == pos[i]:
                    a = (a + b) / 2
                else:
                    b = (a + b) / 2
            out.append((float(a), pos[i]))
        return out


class TestCriticalFunction:
    def test_gumbel_mode_is_root(self):
        assert critical_function_g(BgParams(0.7, 1.3, 0.0), 0.7) == 0.0

    @pytest.mark.parametrize("root", [R1, R2])
    def test_reference_roots(self, root):
        assert abs(critical_function_g(CANONICAL, root)) < 1e-5

    def test_density_derivative_identity(self):
        # f' = f * g, checked against central differences of the density.
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = BgParams(rng.uniform(-2, 2), rng.uniform(0.5, 2.5), rng.uniform(-1.5, 1.5))
            for x in np.linspace(p.mu - 6 * p.sigma, p.mu + 6 * p.sigma, 41):
                fd = fd_log_pdf_derivative(p, float(x))
                analytic = float(bg_pdf(p, x)) * float(critical_function_g(p, x))
                scale = max(abs(analytic), float(bg_pdf(p, x)))
                assert abs(fd - analytic) <= 1e-5 * max(scale, 1e-12)


class TestConditionC:
    def test_canonical_holds(self):
        rep = check_condition_c(CANONICAL)
        assert rep.holds and bool(rep)
        assert all([rep.inequality1, rep.inequality2, rep.inequality3, rep.inequality4])

    def test_delta_one_fails_first_inequality(self):
        rep = check_condition_c(BgParams(1.0, 1.0, 1.0))
        assert not rep.holds
        assert not rep.inequality1  # delta must exceed e - 1 here

    def test_gumbel_case_fails(self):
        assert not check_condition_c(BgParams(0.0, 1.0, 0.0)).holds

    def test_overflowing_exponential_takes_its_limit(self):
        # mu/sigma, (1 + mu)/sigma and (mu - 2)/sigma pass 709.78, where
        # math.exp overflows; (mu - 3)/sigma does not.
        rep = check_condition_c(BgParams(13.84, 0.0165, 65.6))
        assert (rep.inequality1, rep.inequality2, rep.inequality3, rep.inequality4) == (
            False, True, True, False)
        assert not rep.holds


class TestDInterval:
    def test_canonical_interval(self):
        lo, hi = d_interval(CANONICAL)
        assert lo == pytest.approx(D_LO, abs=1e-4)
        assert hi == pytest.approx(D_HI, abs=1e-4)

    def test_endpoints_are_roots_of_the_gap(self):
        p = BgParams(1.0, 1.0, 2.5)
        lo, hi = d_interval(p)
        assert abs(float(_g_increase_gap(p, np.array([lo]))[0])) < 1e-8
        assert abs(float(_g_increase_gap(p, np.array([hi]))[0])) < 1e-8

    def test_requires_condition_c(self):
        with pytest.raises(RegimeError):
            d_interval(BgParams(0.0, 1.0, 0.0))

    def test_interior_is_negative(self):
        lo, hi = d_interval(CANONICAL)
        xs = np.linspace(lo + 1e-6, hi - 1e-6, 100)
        assert np.all(_g_increase_gap(CANONICAL, xs) < 0)


class TestFindModes:
    def test_canonical_bimodal(self):
        rep = find_modes(CANONICAL)
        assert rep.modality == "bimodal"
        assert rep.modes[0] == pytest.approx(R1, abs=1e-4)
        assert rep.modes[1] == pytest.approx(R3, abs=1e-4)
        assert rep.antimode == pytest.approx(R2, abs=1e-4)
        assert rep.condition_c_holds and rep.r2_in_d
        assert rep.d_interval[0] == pytest.approx(D_LO, abs=1e-4)

    def test_gumbel_unimodal_at_mu(self):
        rep = find_modes(BgParams(0.0, 1.0, 0.0))
        assert rep.modality == "unimodal"
        assert rep.modes[0] == pytest.approx(0.0, abs=1e-9)
        assert rep.antimode is None

    def test_roots_satisfy_g(self):
        rep = find_modes(CANONICAL)
        pts = list(rep.modes) + [rep.antimode]
        for r in pts:
            assert abs(critical_function_g(CANONICAL, r)) < 1e-9

    def test_mild_delta_against_grid_oracle(self):
        p = BgParams(1.0, 2.0, 0.2)
        xs = np.linspace(p.mu - 20, p.mu + 40, 10**6)
        dens = np.asarray(bg_pdf(p, xs))
        interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])
        n_local_max = int(interior.sum())
        rep = find_modes(p)
        assert (rep.modality == "bimodal") == (n_local_max == 2)
        assert len(rep.modes) == n_local_max

    def test_modes_are_local_maxima(self):
        rep = find_modes(CANONICAL)
        h = 1e-4
        for m in rep.modes:
            assert bg_pdf(CANONICAL, m) > bg_pdf(CANONICAL, m - h)
            assert bg_pdf(CANONICAL, m) > bg_pdf(CANONICAL, m + h)
        assert bg_pdf(CANONICAL, rep.antimode) < bg_pdf(CANONICAL, rep.antimode + h)

    def test_alternation(self):
        rep = find_modes(CANONICAL)
        assert rep.modes[0] < rep.antimode < rep.modes[1]

    @pytest.mark.parametrize("delta", [1.9, 2.2, 2.8])
    def test_condition_set_implies_bimodal(self, delta):
        p = BgParams(1.0, 1.0, delta)
        assert check_condition_c(p).holds
        rep = find_modes(p)
        if rep.r2_in_d:
            assert rep.modality == "bimodal"

    def test_random_parameters_classify_cleanly(self):
        rng = np.random.default_rng(12)
        box = [BgParams(rng.uniform(-2, 2), rng.uniform(0.3, 3), rng.uniform(-3, 3))
               for _ in range(25)]
        # g is steep at the roots of the wide box (up to |delta|^2 = 1e6 per
        # unit), so there each root is checked as a sign change of g instead.
        wide = wide_box(np.random.default_rng(2), 1000)
        for k, p in enumerate(box + wide):
            rep = find_modes(p)
            assert rep.modality in ("unimodal", "bimodal")
            if rep.modality == "bimodal":
                assert rep.modes[0] < rep.antimode < rep.modes[1]
            points = [(m, True) for m in rep.modes]
            points += [(rep.antimode, False)] if rep.antimode is not None else []
            for r, falls in points:
                if k < len(box):
                    assert abs(critical_function_g(p, r)) < 1e-9
                else:
                    h = 1e-10 * max(1.0, abs(r))
                    left, right = critical_function_g(p, r - h), critical_function_g(p, r + h)
                    assert (left > 0 > right) if falls else (left < 0 < right)

    @pytest.mark.parametrize("theta, window, expected", [
        # The right mode lies 45 sigma (first) and 16 sigma (second) right of the left.
        ((-14.0, 0.327, 4.84), (-20.0, 5.0), (-14.0147, 0.28015, 0.78707)),
        ((-3.5, 0.2635, 7.84), (-6.0, 4.0), (-3.53538, 0.16048, 0.62162)),
        # exp(mu / sigma) overflows a float in the condition-set check.
        ((13.84, 0.0165, 65.6), (-1.0, 15.0), (13.84004,)),
    ])
    def test_named_triples_against_mpmath_scan(self, theta, window, expected):
        oracle = _mp_critical_points(*theta, *window, 5001)
        assert [r for r, _ in oracle] == pytest.approx(expected, abs=1e-5)
        rep = find_modes(BgParams(*theta))
        assert rep.modality == ("bimodal" if len(oracle) == 3 else "unimodal")
        antimodes = (rep.antimode,) if rep.antimode is not None else ()
        for got, falls in ((rep.modes, True), (antimodes, False)):
            want = [r for r, f in oracle if f == falls]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestHazard:
    def test_gumbel_point_values(self):
        hp = hazard(BgParams(0.0, 1.0, 0.0), 0.0)
        surv = 1 - math.exp(-1.0)
        assert hp.survival == pytest.approx(surv, rel=1e-12)
        assert hp.hazard == pytest.approx(math.exp(-1.0) / surv, rel=1e-10)

    def test_monotonicity_pattern_canonical(self):
        # Increasing left of the first mode and between antimode and second
        # mode; decreasing on the g-increase interval left of the antimode
        # (right of the antimode that interval overlaps the increasing
        # stretch, so only the left part can decrease).
        rep = find_modes(CANONICAL)
        r1, r2, r3 = rep.modes[0], rep.antimode, rep.modes[1]
        lo, hi = rep.d_interval
        assert lo < r2 < hi

        def hz(xs):
            return np.array([hazard(CANONICAL, float(x)).hazard for x in xs])

        inc_left = hz(np.linspace(r1 - 2.0, r1 - 0.05, 25))
        assert np.all(np.diff(inc_left) > 0)
        inc_mid = hz(np.linspace(r2 + 0.02, r3 - 0.02, 25))
        assert np.all(np.diff(inc_mid) > 0)
        dec = hz(np.linspace(lo + 0.01, r2 - 0.01, 25))
        assert np.all(np.diff(dec) < 0)

    def test_gumbel_hazard_approaches_tail_rate(self):
        p = BgParams(0.0, 2.0, 0.0)
        assert hazard(p, 40.0).hazard == pytest.approx(0.5, abs=1e-3)

    def test_underflowed_survival_uses_tail_limit(self):
        p = BgParams(0.0, 1.0, 0.0)
        hp = hazard(p, 80.0)
        assert hp.hazard == 1.0

    @pytest.mark.parametrize("p", [
        BgParams(0.0, 1.0, 0.0),
        BgParams(1.0, 1.0, 2.0),
        BgParams(-1.0, 1.5, -0.8),
        BgParams(30.0, 0.5, 0.1),
    ])
    def test_array_matches_scalar_calls(self, p):
        # The grid runs past mu + 745 sigma, where the survival underflows to 0.
        xs = np.linspace(p.mu - 8.0 * p.sigma, p.mu + 800.0 * p.sigma, 1501)
        hp = hazard(p, xs)
        pts = [hazard(p, float(x)) for x in xs]
        assert np.array_equal(hp.x, xs)
        assert np.array_equal(hp.survival, [h.survival for h in pts])
        assert np.array_equal(hp.hazard, [h.hazard for h in pts])
        assert hp.survival[-1] == 0.0 and hp.hazard[-1] == tail_rate(p)
        assert all(type(v) is float for h in pts[::100] for v in (h.survival, h.hazard))

    def test_infinite_and_nan_points(self):
        # x = inf takes the tail limit without a warning; a nan point stays nan.
        p = BgParams(0.0, 2.0, 1.0)
        hp = hazard(p, np.array([np.inf, np.nan, 1e300]))
        assert hp.hazard[0] == hp.hazard[2] == 0.5 and math.isnan(hp.hazard[1])
        assert hazard(p, math.inf).hazard == 0.5 and math.isnan(hazard(p, math.nan).hazard)

    def test_nonnegative_and_survival_decreasing(self):
        p = BgParams(-1.0, 1.5, -0.8)
        xs = np.linspace(-6, 12, 60)
        pts = [hazard(p, float(x)) for x in xs]
        assert all(h.hazard >= 0 for h in pts)
        survs = [h.survival for h in pts]
        assert all(a >= b for a, b in zip(survs, survs[1:]))


class TestTailRate:
    def test_values(self):
        assert tail_rate(BgParams(0, 2, 1)) == 0.5
        assert tail_rate(BgParams(5, 1, -3)) == 1.0

    def test_against_log_density_slope_gumbel(self):
        p = BgParams(0.0, 2.0, 0.0)
        x0 = p.mu + 40 * p.sigma
        h = 1e-3
        slope = -(bg_log_pdf(p, x0 + h) - bg_log_pdf(p, x0 - h)) / (2 * h)
        assert slope == pytest.approx(tail_rate(p), abs=1e-3)

    def test_against_log_density_slope_weighted(self):
        # The quadratic weight adds an O(1/x) correction, so the slope is
        # probed farther out for nonzero delta.
        p = BgParams(1.0, 2.0, 1.0)
        x0 = 8000.0
        h = 1e-2
        slope = -(bg_log_pdf(p, x0 + h) - bg_log_pdf(p, x0 - h)) / (2 * h)
        assert slope == pytest.approx(tail_rate(p), abs=1e-3)
