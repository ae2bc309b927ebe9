import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from bgumbel import (
    BgParams,
    Chain,
    McmcConfig,
    bg_cdf,
    bg_moment_set,
    bg_sf,
    chain_summary,
    fit_mle,
    mh_sample,
    mixture_weights,
    representation_sample,
    save_draws_csv,
)
from bgumbel.sampling import _csv_text, _draws_csv_text, _inverse_cdf
from helpers import cdf_interpolator, ks_distance_to_cdf

ROW1 = BgParams(-2, 1, -1)
REGIME = BgParams(-2, 1, 1)  # delta * (mu + sigma * gamma) < 0


class TestMcmcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McmcConfig(n_iterations=0)
        with pytest.raises(ValueError):
            McmcConfig(n_iterations=10, burn_in=10)
        # A nan scale would give a chain stuck at mu, an inf one nan steps.
        for scale in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="proposal_scale"):
                McmcConfig(n_iterations=10, proposal_scale=scale)


class TestMhSample:
    def test_determinism(self):
        cfg = McmcConfig(n_iterations=5000, seed=123)
        a = mh_sample(ROW1, cfg)
        b = mh_sample(ROW1, cfg)
        assert np.array_equal(a.draws, b.draws)
        assert a.acceptance_rate == b.acceptance_rate

    def test_chain_pinned_across_versions(self):
        chain = mh_sample(ROW1, McmcConfig(n_iterations=20000, seed=3))
        digest = hashlib.sha256(chain.draws.tobytes()).hexdigest()
        assert digest == "776fd6278da34c37ad490a8f6b5b76cc7468ab843f0916ff60c0c03144a3ae0f"
        assert chain.acceptance_rate == 0.3315

    def test_draw_count_and_rate(self):
        chain = mh_sample(ROW1, McmcConfig(n_iterations=2000, burn_in=500, seed=1))
        assert len(chain.draws) == 1500
        assert 0.0 <= chain.acceptance_rate <= 1.0

    def test_moment_recovery(self):
        chain = mh_sample(ROW1, McmcConfig(n_iterations=111112, burn_in=11112, seed=42))
        s = chain_summary(chain)
        assert s.mean == pytest.approx(-1.0640, abs=0.06)
        assert s.variance == pytest.approx(5.0126, abs=0.35)

    def test_empirical_cdf_distance(self):
        p = BgParams(-1, 2, -2)
        chain = mh_sample(p, McmcConfig(n_iterations=111112, burn_in=11112, seed=11))
        cdf = cdf_interpolator(p)
        srt = np.sort(chain.draws)
        assert ks_distance_to_cdf(srt, np.asarray(cdf(srt))) < 0.01

    def test_acceptance_flag(self):
        healthy = mh_sample(ROW1, McmcConfig(n_iterations=5000, seed=4))
        assert healthy.acceptance_flag is None
        sticky = mh_sample(ROW1, McmcConfig(n_iterations=5000, seed=4, proposal_scale=200.0))
        assert sticky.acceptance_flag is not None

    def test_convergence_in_n(self):
        # Empirical sup distance to the distribution function shrinks with
        # chain length.
        cdf = cdf_interpolator(REGIME)
        dists = []
        for n_draws in (1000, 10000, 100000):
            cfg = McmcConfig(
                n_iterations=n_draws + n_draws // 10, burn_in=n_draws // 10, seed=1
            )
            srt = np.sort(mh_sample(REGIME, cfg).draws)
            dists.append(ks_distance_to_cdf(srt, np.asarray(cdf(srt))))
        assert dists[0] > dists[1] > dists[2]

    def test_prefix_biases_shrink_across_parameter_sets(self):
        # Seed-median absolute moment bias over chain prefixes of 1e3 vs 1e5
        # draws shrinks for at least three of the four built-in sets.
        from bgumbel.cli import SIMULATION_PARAMETER_SETS

        improved = 0
        for p in SIMULATION_PARAMETER_SETS:
            mean_target = bg_moment_set(p).mean
            short, full = [], []
            for seed in range(5):
                chain = mh_sample(
                    p, McmcConfig(n_iterations=111112, burn_in=11112, seed=seed)
                )
                short.append(abs(chain.draws[:1000].mean() - mean_target))
                full.append(abs(chain.draws.mean() - mean_target))
            if float(np.median(full)) < float(np.median(short)):
                improved += 1
        assert improved >= 3


class TestRepresentationSample:
    def test_determinism(self):
        a = representation_sample(REGIME, 1000, seed=9)
        b = representation_sample(REGIME, 1000, seed=9)
        assert np.array_equal(a, b)

    def test_weights_sum(self):
        w = mixture_weights(REGIME)
        assert sum(w) == pytest.approx(1.0, abs=1e-15)
        assert all(0 <= v <= 1 for v in w)

    def test_large_sample_matches_cdf(self):
        draws = representation_sample(REGIME, 10**6, seed=5)
        cdf = cdf_interpolator(REGIME)
        srt = np.sort(draws)
        assert ks_distance_to_cdf(srt, np.asarray(cdf(srt))) < 0.002

    def test_large_sample_matches_cdf_outside_regime(self):
        # delta * (mu + sigma * gamma) > 0: the mixture's probabilities are
        # not all nonnegative, but the table inverts F itself.
        p = BgParams(1, 1, 2)
        draws = representation_sample(p, 10**6, seed=6)
        cdf = cdf_interpolator(p)
        srt = np.sort(draws)
        assert ks_distance_to_cdf(srt, np.asarray(cdf(srt))) < 0.002

    def test_agrees_with_mh(self):
        # Thinned Metropolis draws against exact mixture draws; 1% critical
        # value for two n = 20000 samples.
        chain = mh_sample(REGIME, McmcConfig(n_iterations=411112, burn_in=11112, seed=3))
        thin = chain.draws[::20]
        rep = representation_sample(REGIME, len(thin), seed=4)
        crit = 1.6276 * math.sqrt(2.0 / len(thin))
        assert ks_2samp(thin, rep).statistic < crit

    def test_moments_recovered(self):
        draws = representation_sample(REGIME, 200000, seed=21)
        ms = bg_moment_set(REGIME)
        assert draws.mean() == pytest.approx(ms.mean, abs=0.02)
        assert draws.var(ddof=1) == pytest.approx(ms.variance, abs=0.05)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            representation_sample(REGIME, 0, seed=1)

    def test_inverse_accuracy(self, bimodal500):
        # |F(x) - u| / min(u, 1 - u) over the 1e5 seed-1 uniforms, through
        # S = 1 - F above 1/2; outside the regime through the table itself.
        u = np.random.default_rng(1).uniform(size=100000)

        def worst(p, x):
            return np.max(np.where(u > 0.5, np.abs(bg_sf(p, x) - (1.0 - u)) / (1.0 - u),
                                   np.abs(bg_cdf(p, x) - u) / u))

        for p in (REGIME, BgParams(-1, 2, -2), BgParams(-1, 2, -1)):
            assert worst(p, representation_sample(p, u.size, seed=1)) <= 1e-7, p
        for p in (BgParams(1, 1, 2), fit_mle(bimodal500).params):
            assert worst(p, _inverse_cdf(p, u)) <= 1e-7, p


class TestChainSummary:
    def test_constant_chain(self):
        c = Chain(draws=np.full(10, 3.25), acceptance_rate=1.0, seed=0)
        s = chain_summary(c)
        assert s.variance == 0.0 and s.mean == 3.25

    def test_bias_vs_target(self):
        p = BgParams(-1, 2, -1)
        chain = mh_sample(p, McmcConfig(n_iterations=111112, burn_in=11112, seed=7))
        bias_mean, bias_var = chain_summary(chain).bias_vs(p)
        assert abs(bias_mean) <= 0.15
        assert abs(bias_var) <= 1.8

    def test_gumbel_draws_obey_lln(self):
        # Bias of the sample mean stays inside a 4-sigma band that shrinks
        # like 1/sqrt(n).
        p = BgParams(0, 1, 0)
        rng = np.random.default_rng(9)
        sd = math.pi / math.sqrt(6.0)
        for n in (10**3, 10**4, 10**5):
            draws = rng.gumbel(0.0, 1.0, n)
            bias_mean, _ = chain_summary(draws).bias_vs(p)
            assert abs(bias_mean) <= 4.0 * sd / math.sqrt(n)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chain_summary(np.array([]))


class TestCsvExport:
    def test_header_and_roundtrip(self, tmp_path):
        draws = representation_sample(REGIME, 100, seed=2)
        path = tmp_path / "draws.csv"
        save_draws_csv(draws, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "draw"
        back = np.array([float(v) for v in lines[1:]])
        np.testing.assert_array_equal(back, draws)

    def test_text_matches_per_value_format(self):
        rng = np.random.default_rng(18)
        tens = 10.0 ** np.arange(-30, 30)
        values = np.concatenate([
            [0.1, -0.0, 0.0, 5e-324, 1e300, 1.2345e17, -2.5, 1.0 / 3.0, 1e-7,
             2.2250738585072014e-308, 1.7976931348623157e308, np.inf, -np.inf, np.nan],
            rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64),  # every exponent
            tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),  # k one off from log10
            np.arange(2000) + 0.5, (np.arange(2000) + 0.5) / 1024.0,  # exact ties
            rng.gumbel(size=5000), rng.standard_cauchy(5000),
        ])
        expected = "draw\n" + "".join(f"{v:.17g}\n" for v in values.tolist())
        assert _draws_csv_text(values) == expected
        assert _draws_csv_text(np.array([])) == "draw\n"

    def test_table_text_matches_per_value_format(self):
        rng = np.random.default_rng(12)
        carries = 10.0 ** np.arange(-10, 12) * (1.0 - 1e-13)  # 12 nines round up to a power of ten
        table = np.column_stack([np.linspace(-5.0, 800.0, 7022), rng.exponential(size=7022),
                                 np.concatenate([np.exp(-rng.uniform(0.0, 700.0, 7000)), carries])])
        expected = "x,survival,hazard\n" + "".join(
            "%.12g,%.12g,%.12g\n" % tuple(row) for row in table.tolist())
        assert _csv_text(["x", "survival", "hazard"], table, 12) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
    def test_text_property_matches_per_value_format(self, values):
        for digits in (12, 17):
            expected = "v\n" + "".join("%.*g\n" % (digits, v) for v in values)
            assert _csv_text(["v"], np.array(values, dtype=float), digits) == expected
