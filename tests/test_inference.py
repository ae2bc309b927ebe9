import math

import mpmath
import numpy as np
import pytest

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
from bgumbel.inference import _z_first_derivs
from helpers import fd_gradient, inverse_sampler, random_params

EG = CONSTANTS.euler_gamma
PI = math.pi


def _random_instance(rng, n=60):
    p = random_params(rng)
    # data of roughly matching scale, but not from the model itself
    x = rng.normal(p.mu + p.sigma, 1.5 * p.sigma, size=n)
    return p, x


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
        z_mu, z_sg, _ = _z_first_derivs(BgParams(1.3, 0.7, 0.0))
        assert z_mu == 0.0 and z_sg == 0.0

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
        fit = fit_mle(x, init=BgParams(1.0, 1.0, 2.0))
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
        fit = fit_mle(x, init=BgParams(g.mu, g.sigma, -2.4e-3))
        rms = math.sqrt(np.mean(x * x))
        for m in fit.diagnostics.maxima:
            if not m.at_grid_edge:
                units = np.array([m.params.sigma, m.params.sigma, 1.0 / rms])
                assert np.max(np.abs(score(m.params, x) * units)) <= 1e-7

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
