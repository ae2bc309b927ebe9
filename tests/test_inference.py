import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import bgumbel
from bgumbel import (
    CONSTANTS,
    BgParams,
    BlockMaximaConfig,
    DegenerateDataError,
    InsufficientDataError,
    bg_log_pdf,
    block_maxima,
    fisher_information,
    fit_gumbel_mle,
    fit_mle,
    hessian,
    log_likelihood,
    score,
)
from bgumbel.inference import (
    _MAX_ITER,
    _POLISH_STEPS,
    _TOL,
    _delta_grid,
    _gumbel_moment_init,
    _log_z,
    _newton,
)
from helpers import fd_gradient, inverse_sampler, random_params

EG = CONSTANTS.euler_gamma
PI = math.pi
# A triple where an adaptive quad of E[F4] (epsabs 1e-12, epsrel 1e-10) was
# 1.35e-8 off, 1400 times its own error estimate.
QUAD_MISS = (2.2372156235807275, 1.0517426362630748, 0.08047396923798478)
# Far from the origin, delta up to 500, sigma from 1e-3 to 1e3, and delta
# small enough that u^2 - 1 cancels when formed as written.
F4_TRIPLES = [
    QUAD_MISS,
    (1e4, 3.0, 1e-4),
    (-1e4, 3.0, -3.4e-4),
    (0.0, 1.0, 200.0),
    (0.0, 1.0, -500.0),
    (3.0, 1e-3, 1.0),
    (0.0, 1e3, 1e-3),
    (0.5, 1.2, 1e-9),
    (-1.0, 2.0, -1.0),
    (1.0, 1.0, 2.0),
]
BOX = ((-3.0, 3.0), (0.3, 3.0), (-1.5, 1.5))  # mu, sigma, delta of the benchmark


def _box_triples(seed, n):
    rng = np.random.default_rng(seed)
    return [tuple(float(rng.uniform(lo, hi)) for lo, hi in BOX) for _ in range(n)]


def _mp_log_z_dd(mu, sg, dl):
    """d2 ln Z / d delta2, in mpmath."""
    m = mu + sg * mpmath.euler
    c = mpmath.pi**2 / 3
    z = 1 + c * (dl * sg) ** 2 / 2 + (dl * m - 1) ** 2
    z1 = dl * sg * sg * c + 2 * m * (dl * m - 1)
    return (sg * sg * c + 2 * m * m) / z - (z1 / z) ** 2


def _mp_f4(mu, sg, dl):
    """Z E[F4] by 40-digit quadrature in s = ln V over the whole line."""
    def f(s):
        x = mu - sg * s
        u = 1 - dl * x
        return x * x * (u * u - 1) / (u * u + 1) * mpmath.exp(s - mpmath.exp(s))

    pts = [-mpmath.inf, -60, -40, -25, -12, -5, -2, 0, 1, 2, 3, 4, 5, 9]
    if dl != 0:  # the poles (mu - (1 -+ i) / delta) / sigma
        s0, h = (mu - 1 / dl) / sg, abs(1 / (dl * sg))
        pts += [s0 + k * h for k in (-8, -2, -1, -0.5, 0, 0.5, 1, 2, 8) if -60 < s0 + k * h < 9]
    return mpmath.quad(f, sorted(set(pts)), maxdegree=10)


def _random_instance(rng, n=60):
    p = random_params(rng)
    # data of roughly matching scale, but not from the model itself
    x = rng.normal(p.mu + p.sigma, 1.5 * p.sigma, size=n)
    return p, x


def _test_data(request, series1774, name):
    if name == "blocks60":
        x = block_maxima(series1774, BlockMaximaConfig(60))
        return x - x.mean()
    if name.startswith("gumbel"):
        n = int(name[len("gumbel"):])
        return np.random.default_rng(n).gumbel(1.0, 2.0, n)
    return request.getfixturevalue(name)


def _oracle_profile(x, mu, sg, dl):
    """max over (mu, sigma) of l at fixed delta, from (mu, sigma).

    A damped Newton on the (mu, sigma) block of the public score and
    hessian, solved by np.linalg.solve; a step that descends (an indefinite
    block) is reversed, and each step is halved until l rises.  Stops when
    no halving raises l or the Newton model promises less than rounding.
    """
    p, ll = BgParams(mu, sg, dl), log_likelihood(BgParams(mu, sg, dl), x)
    for _ in range(500):
        g = score(p, x)[:2]
        y = np.linalg.solve(-hessian(p, x)[:2, :2], g)
        gain = float(g @ y)
        if gain < 0.0:
            y, gain = -y, -gain
        if gain <= 1e-15 * abs(ll):
            return ll
        lam = 1.0
        for _ in range(60):
            sg_c = p.sigma + lam * y[1]
            if sg_c > 0.0:
                q = BgParams(p.mu + lam * y[0], sg_c, dl)
                l_q = log_likelihood(q, x)
                if l_q > ll:
                    break
            lam *= 0.5
        else:
            return ll
        p, ll = q, l_q
    raise AssertionError(f"oracle Newton did not converge at delta = {dl}")


class TestLogLikelihood:
    def test_single_point_gumbel_cancellation(self):
        # One observation at mu with delta = 0: everything cancels except
        # -ln(sigma) - 1.
        assert log_likelihood(BgParams(5.0, 2.0, 0.0), [5.0]) == pytest.approx(
            -math.log(2.0) - 1.0, rel=1e-14
        )

    def test_matches_log_density_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p, x = _random_instance(rng)
            assert log_likelihood(p, x) == pytest.approx(
                float(np.sum(bg_log_pdf(p, x))), rel=1e-12, abs=1e-10
            )

    def test_empty_data(self):
        with pytest.raises(InsufficientDataError):
            log_likelihood(BgParams(0, 1, 0), [])

    @pytest.mark.parametrize("offset", [1e4, 1e6, -1e6])
    def test_far_from_origin_matches_mpmath(self, offset):
        # Summing w = (x - mu)/sigma as (sum x - n mu)/sigma cancels here:
        # at offset 1e6 it is off by about 3e-12 relative.
        x = offset + np.random.default_rng(23).gumbel(0.0, 2.0, 200)
        p = BgParams(offset + 0.3, 2.1, 0.7 / offset)
        with mpmath.workdps(40):
            mu, sg, dl = (mpmath.mpf(v) for v in (p.mu, p.sigma, p.delta))
            log_norm = mpmath.log(sg * (
                1 + (dl * sg * mpmath.pi) ** 2 / 6 + (dl * (mu + sg * mpmath.euler) - 1) ** 2
            ))
            ref = 0
            for xi in map(mpmath.mpf, x.tolist()):
                w = (xi - mu) / sg
                ref += mpmath.log(1 + (1 - dl * xi) ** 2) - log_norm - w - mpmath.exp(-w)
            ref = float(ref)
        assert abs(log_likelihood(p, x) - ref) <= 1e-13 * abs(ref)


class TestScore:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p, x = _random_instance(rng)
            theta = np.array([p.mu, p.sigma, p.delta])
            fd = fd_gradient(
                lambda t: log_likelihood(BgParams(t[0], t[1], t[2]), x), theta
            )
            sc = score(p, x)
            for a, b in zip(sc, fd):
                assert abs(a - b) <= 1e-6 * max(1.0, abs(b))

    def test_z_derivative_vanishes_at_delta_zero(self):
        _, (g_mu, g_t, _), _ = _log_z(1.3, 0.7, 0.0)
        assert g_mu == 0.0 and g_t == 0.0

    def test_small_at_optimum(self):
        rng = np.random.default_rng(2)
        sampler = inverse_sampler(BgParams(-2, 1, -1))
        x = sampler(rng, 4000)
        fit = fit_mle(x)
        assert np.linalg.norm(score(fit.params, x)) < 1e-5 * max(
            1.0, abs(fit.log_likelihood)
        )


class TestHessian:
    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        p, x = _random_instance(rng)
        h = hessian(p, x)
        assert np.array_equal(h, h.T)

    def test_matches_fd_of_score(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p, x = _random_instance(rng)
            theta = np.array([p.mu, p.sigma, p.delta])
            h = hessian(p, x)
            for i in range(3):
                step = 1e-6 * max(1.0, abs(theta[i]))
                up, dn = theta.copy(), theta.copy()
                up[i] += step
                dn[i] -= step
                col = (
                    score(BgParams(*up), x) - score(BgParams(*dn), x)
                ) / (2 * step)
                for a, b in zip(h[:, i], col):
                    assert abs(a - b) <= 1e-5 * max(1.0, abs(b))

    def test_location_curvature_negative_for_gumbel_sample(self):
        rng = np.random.default_rng(5)
        x = rng.gumbel(0.0, 1.0, 2000)
        h = hessian(BgParams(0.0, 1.0, 0.0), x)
        assert h[0, 0] < 0


class TestFisherInformation:
    def test_symmetric(self):
        info = fisher_information(BgParams(-1, 2, -1))
        assert np.array_equal(info, info.T)

    @pytest.mark.parametrize("mu,sg", [(0.4, 1.7), (800.0, 1.0), (-800.0, 1.0)])
    def test_gumbel_closed_form_block(self, mu, sg):
        # At delta = 0 every entry reduces to a known closed form.
        info = fisher_information(BgParams(mu, sg, 0.0))
        m = mu + sg * EG
        expect = np.array(
            [
                [1 / sg**2, (EG - 1) / sg**2, -1.0],
                [(EG - 1) / sg**2, (PI**2 / 6 + (1 - EG) ** 2) / sg**2, -EG],
                [-1.0, -EG, sg**2 * PI**2 / 6],
            ]
        )
        np.testing.assert_allclose(info, expect, rtol=1e-9, atol=1e-12)

    def test_positive_definite_at_fitted_params(self):
        rng = np.random.default_rng(6)
        sampler = inverse_sampler(BgParams(-1, 2, -1))
        fit = fit_mle(sampler(rng, 3000))
        eigs = np.linalg.eigvalsh(fisher_information(fit.params))
        assert np.all(eigs > 0)

    def test_matches_monte_carlo_negative_hessian(self):
        p = BgParams(-1, 2, -1)
        info = fisher_information(p)
        rng = np.random.default_rng(7)
        sampler = inverse_sampler(p)
        acc = np.zeros((3, 3))
        reps, n = 60, 2000
        for _ in range(reps):
            acc += hessian(p, sampler(rng, n)) / n
        mc = -acc / reps
        assert np.linalg.norm(info - mc) / np.linalg.norm(info) < 0.05

    @pytest.mark.parametrize("triple", F4_TRIPLES, ids=lambda t: ",".join(f"{v:g}" for v in t))
    def test_f4_rule_matches_mpmath(self, triple):
        from bgumbel.inference import _f4_integral

        with mpmath.workdps(40):
            ref = float(_mp_f4(*map(mpmath.mpf, triple)))
        assert abs(_f4_integral(*triple) - ref) <= 1e-13 * abs(ref)

    def test_delta_entry_at_quad_miss_matches_mpmath(self):
        with mpmath.workdps(40):
            mu, sg, dl = map(mpmath.mpf, QUAD_MISS)
            z = 1 + (dl * sg * mpmath.pi) ** 2 / 6 + (dl * (mu + sg * mpmath.euler) - 1) ** 2
            ref = float(_mp_log_z_dd(mu, sg, dl) + 2 * _mp_f4(mu, sg, dl) / z)
        got = fisher_information(BgParams(*QUAD_MISS))[2, 2]
        assert abs(got - ref) <= 1e-13 * abs(ref)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_delta_entry_matches_tight_quad(self):
        # E[F4] by adaptive quadrature in x at epsabs 1e-14, epsrel 1e-13,
        # on triples of the benchmark's box.  On some triples quad warns
        # that rounding keeps it from its own tolerance; the entry must
        # still agree to 1e-12.
        for mu, sg, dl in _box_triples(29, 50):
            m = mu + sg * EG
            z = 1 + (dl * sg * PI) ** 2 / 6 + (dl * m - 1) ** 2

            def f4(x):
                w = (x - mu) / sg
                uu = (1 - dl * x) ** 2
                return x * x * (uu - 1) / (uu + 1) * math.exp(-w - math.exp(-w)) / (sg * z)

            lo, hi = mu - 40 * sg, mu + 250 * sg
            pts = [mu - 2 * sg, mu, mu + 4 * sg] + ([1 / dl] if lo < 1 / dl < hi else [])
            ef4 = quad(f4, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=500, points=pts)[0]
            z1 = dl * sg * sg * PI**2 / 3 + 2 * m * (dl * m - 1)
            ref = (sg * sg * PI**2 / 3 + 2 * m * m) / z - (z1 / z) ** 2 + 2 * ef4
            got = fisher_information(BgParams(mu, sg, dl))[2, 2]
            assert abs(got - ref) <= 1e-12 * abs(ref), (mu, sg, dl)


class TestFitMle:
    def test_recovers_negative_delta_model(self):
        p = BgParams(-2, 1, -1)
        sampler = inverse_sampler(p)
        rng = np.random.default_rng(8)
        for _ in range(3):
            fit = fit_mle(sampler(rng, 5000))
            assert fit.converged
            se = fit.std_errors
            assert se is not None
            assert abs(fit.params.mu - p.mu) <= 3 * se[0]
            assert abs(fit.params.sigma - p.sigma) <= 3 * se[1]
            assert abs(fit.params.delta - p.delta) <= 3 * se[2]

    def test_recovers_bimodal_model(self):
        p = BgParams(1, 1, 2)
        sampler = inverse_sampler(p)
        rng = np.random.default_rng(9)
        fit = fit_mle(sampler(rng, 5000))
        assert fit.converged
        assert abs(fit.params.delta - 2.0) <= 4 * fit.std_errors[2]

    def test_gumbel_data_gives_delta_near_zero(self):
        # The finite-sample law of delta-hat is multimodal (the profile
        # likelihood can hold a shallow off-zero optimum on null data), so
        # the 3-SE check is seed-pinned and complemented by a likelihood
        # ratio bound across seeds.
        rng = np.random.default_rng(16)
        x = rng.gumbel(0.0, 1.0, 5000)
        fit = fit_mle(x)
        assert abs(fit.params.delta) <= 3 * fit.std_errors[2]

    def test_gumbel_data_likelihood_ratio_small(self):
        for seed in (16, 17, 18, 19, 20):
            x = np.random.default_rng(seed).gumbel(0.0, 1.0, 5000)
            lrt = 2.0 * (fit_mle(x).log_likelihood - fit_gumbel_mle(x).log_likelihood)
            assert 0.0 <= lrt + 1e-9
            assert lrt < 6.63  # chi-square(1) 1% critical value

    def test_convergence_invariant(self):
        rng = np.random.default_rng(11)
        x = rng.gumbel(1.0, 2.0, 500)
        fit = fit_mle(x)
        if fit.converged:
            assert fit.grad_norm_at_solution < 1e-6 * max(1.0, abs(fit.log_likelihood))

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            fit_mle([2.0, 2.0, 2.0, 2.0, 2.0])

    def test_too_few_observations(self):
        with pytest.raises(InsufficientDataError):
            fit_mle([1.0, 2.0, 3.0])

    def test_explicit_init_is_honored(self):
        rng = np.random.default_rng(12)
        sampler = inverse_sampler(BgParams(1, 1, 2))
        x = sampler(rng, 2000)
        fit = fit_mle(x)  # from the profile alone, with no start at the truth
        assert fit.converged


    @pytest.mark.parametrize(
        "fixture,maxima,weak",
        [
            ("bimodal500", [(997.99, 1.89), (1013.02, 0.06), (1013.50, -2.27)], False),
            ("maxima29", [(88.12, -0.303), (89.42, 0.017)], True),
        ],
        ids=["bimodal500", "maxima29"],
    )
    def test_fixture_local_maxima(self, request, fixture, maxima, weak):
        fit = fit_mle(request.getfixturevalue(fixture))
        diag = fit.diagnostics
        found = [(-m.log_likelihood, m.params.delta) for m in diag.maxima]
        assert len(found) == len(maxima)
        for (nll, dl), (nll_ref, dl_ref) in zip(found, maxima):
            assert nll == pytest.approx(nll_ref, abs=0.005)
            assert dl == pytest.approx(dl_ref, abs=0.005)
        assert fit.params == diag.maxima[0].params
        assert fit.log_likelihood == diag.maxima[0].log_likelihood
        assert not any(m.at_grid_edge for m in diag.maxima)
        assert diag.weakly_identified is weak

    def test_profile_grid_and_gumbel_centre(self, maxima29):
        diag = fit_mle(maxima29).diagnostics
        grid = np.array(diag.delta_grid)
        assert grid.size == 81 and grid[40] == 0.0
        assert np.all(np.diff(grid) > 0)
        np.testing.assert_array_equal(grid, -grid[::-1])
        assert diag.profile_loglik[40] == pytest.approx(
            fit_gumbel_mle(maxima29).log_likelihood, rel=1e-12
        )
        assert diag.inner_steps > 0
        # The delta = 0 row is the Gumbel fit, bit for bit.
        assert diag.gumbel == fit_gumbel_mle(maxima29)

    @pytest.mark.parametrize("blocks", [None, 60])
    def test_grid_edge_maximum_stays_finite(self, series1774, blocks):
        # The profile flattens for |delta| >> 1 / |x|, so polishing from an
        # end of the grid drifts far out in delta; it must stop finite and
        # lose to the interior maximum.
        x = series1774
        if blocks:
            x = block_maxima(x, BlockMaximaConfig(blocks))
            x = x - x.mean()
        fit = fit_mle(x)
        maxima = fit.diagnostics.maxima
        edge = [m for m in maxima if m.at_grid_edge]
        assert edge
        for m in maxima:
            assert all(math.isfinite(v) for v in (m.params.mu, m.params.sigma, m.params.delta))
            assert math.isfinite(m.log_likelihood)
        assert not maxima[0].at_grid_edge
        assert fit.log_likelihood > max(m.log_likelihood for m in edge)

    def test_data_far_from_origin(self):
        # The maximum sits at delta ~ -3.4 / |median|, far inside the 1 / s
        # scale of the grid's reach; the grid must resolve it.
        x = np.random.default_rng(22).gumbel(-1e4, 3.0, 300)
        fit = fit_mle(x)
        assert fit.converged
        assert fit.params.delta == pytest.approx(-3.42e-4, rel=0.01)

    def test_polished_maxima_are_stationary(self):
        # Started in a convex stretch of the profile (delta = -2.4e-3), a
        # polish must still reach a stationary point, not stall where every
        # Newton step points downhill.
        x = np.random.default_rng(22).gumbel(-1e4, 3.0, 300)
        g = fit_gumbel_mle(x).params
        (mu, t, dl), = _newton(x, [(g.mu, math.log(g.sigma), -2.4e-3)], 3, _POLISH_STEPS, 0.0)[0]
        points = [BgParams(mu, math.exp(t), dl)]
        points += [m.params for m in fit_mle(x).diagnostics.maxima if not m.at_grid_edge]
        rms = math.sqrt(np.mean(x * x))
        for p in points:
            units = np.array([p.sigma, p.sigma, 1.0 / rms])
            assert np.max(np.abs(score(p, x) * units)) <= 1e-7

    def test_mostly_tied_data(self):
        # The median absolute deviation is 0, so the grid's reach comes
        # from the standard deviation.
        x = np.array([1.0, 1.0, 1.0, 1.0, 2.0])
        fit = fit_mle(x)
        assert fit.converged
        assert fit.diagnostics.delta_grid[-1] == pytest.approx(10.0 / x.std(), rel=1e-12)

    def test_not_below_generating_parameters(self):
        # A dataset on which the earlier 13-start BFGS lattice in delta
        # stopped 12.9 log-likelihood units below the generating parameters.
        p = BgParams(2.89, 2.41, 0.417)
        x = inverse_sampler(p)(np.random.default_rng(55), 624)
        truth = log_likelihood(p, x)
        assert fit_mle(x).log_likelihood >= truth - 1e-9 * abs(truth)

    @pytest.mark.parametrize("data", ["maxima29", "bimodal500", "blocks60", "gumbel100", "gumbel2000"])
    def test_profile_matches_scalar_newton(self, request, series1774, data):
        # The oracle is a scalar fixed-delta Newton written here, on the
        # public log_likelihood, score and hessian, started at every grid
        # delta from the Gumbel fit; none of the lockstep profile runs in it.
        x = _test_data(request, series1774, data)
        diag = fit_mle(x).diagnostics
        g = fit_gumbel_mle(x).params
        for dl, got in zip(diag.delta_grid, diag.profile_loglik):
            ref = _oracle_profile(x, g.mu, g.sigma, dl)
            assert abs(got - ref) <= 1e-12 * abs(ref), dl
            # Not lower, beyond the rounding of sums over the data.
            assert got >= ref - 1e-14 * abs(ref), dl

    @pytest.mark.parametrize("data", ["bimodal500", "blocks60"])
    def test_newton_rows_do_not_interact(self, request, series1774, data):
        # Rows stop at different steps (on blocks60 a grid-edge peak runs to
        # the step cap), so lockstep must leave each row's polish as it
        # would be alone, bit for bit.
        x = _test_data(request, series1774, data)
        mu0, sg0 = _gumbel_moment_init(x)
        pts, prof, _ = _newton(x, [(mu0, math.log(sg0), d) for d in _delta_grid(x)], 2, _MAX_ITER, _TOL)
        last = len(prof) - 1
        peaks = [
            k for k in range(len(prof))
            if (k == 0 or prof[k] > prof[k - 1]) and (k == last or prof[k] >= prof[k + 1])
        ]
        assert len(peaks) >= 2
        together = _newton(x, [pts[k] for k in peaks], 3, _POLISH_STEPS, 0.0)
        assert len(set(together[2])) > 1
        if data == "blocks60":
            assert max(together[2]) == _POLISH_STEPS
        for j, k in enumerate(peaks):
            alone = _newton(x, [pts[k]], 3, _POLISH_STEPS, 0.0)
            assert [out[j] for out in together] == [out[0] for out in alone]

    def test_fit_memory_does_not_grow_with_grid(self):
        # The profile's row kernel works in blocks: 81 x 2000 temporaries at
        # once would take above 5 MB.
        x = np.random.default_rng(3).gumbel(0.0, 1.0, 2000)
        fit_mle(x)
        tracemalloc.start()
        try:
            fit_mle(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts glibc's minor page faults")
    def test_repeated_fits_do_not_page_fault(self):
        # At glibc's default trim threshold the heap top freed after each
        # fit is given back, and the next fit faults its pages in again:
        # about 1000 minor faults a fit here.  The block that
        # bgumbel.inference frees at import raises the threshold.
        src = str(Path(bgumbel.__file__).resolve().parents[1])
        code = f"""
import resource, sys
sys.path.insert(0, {src!r})
import numpy as np
from bgumbel import compare_models
x = np.random.default_rng(5).gumbel(0.0, 1.0, 2000)
compare_models(x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    compare_models(x)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert int(out.stdout) < 20 * 50

    def test_gumbel_fit_has_no_diagnostics(self, maxima29):
        assert fit_gumbel_mle(maxima29).diagnostics is None


class TestFitGumbel:
    def test_recovery(self):
        rng = np.random.default_rng(13)
        x = rng.gumbel(3.0, 2.0, 5000)
        fit = fit_gumbel_mle(x)
        assert fit.converged
        assert fit.params.delta == 0.0
        se = fit.std_errors
        assert abs(fit.params.mu - 3.0) <= 3 * se[0]
        assert abs(fit.params.sigma - 2.0) <= 3 * se[1]
        assert se[2] == 0.0

    def test_nesting(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            x = rng.gumbel(rng.uniform(-2, 2), rng.uniform(0.5, 2), 300)
            assert fit_mle(x).log_likelihood >= fit_gumbel_mle(x).log_likelihood - 1e-9

    def test_translation_equivariance(self):
        rng = np.random.default_rng(15)
        x = rng.gumbel(0.0, 1.5, 1000)
        base = fit_gumbel_mle(x)
        shifted = fit_gumbel_mle(x + 10.0)
        assert shifted.params.mu == pytest.approx(base.params.mu + 10.0, abs=1e-6)
        assert shifted.params.sigma == pytest.approx(base.params.sigma, abs=1e-6)

    def test_positive_standard_errors(self, maxima29):
        fit = fit_gumbel_mle(maxima29)
        assert fit.std_errors is not None
        assert fit.std_errors[0] > 0 and fit.std_errors[1] > 0
