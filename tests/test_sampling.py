import hashlib
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from bgumbel import (
    BgParams,
    Chain,
    McmcConfig,
    RegimeError,
    bg_moment_set,
    chain_summary,
    mh_sample,
    mixture_weights,
    representation_sample,
    save_draws_csv,
)
from bgumbel.sampling import _draws_csv_text
from helpers import cdf_interpolator, ks_distance_to_cdf

ROW1 = BgParams(-2, 1, -1)
REGIME = BgParams(-2, 1, 1)  # delta * (mu + sigma * gamma) < 0


class TestMcmcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McmcConfig(n_iterations=0)
        with pytest.raises(ValueError):
            McmcConfig(n_iterations=10, burn_in=10)
        with pytest.raises(ValueError):
            McmcConfig(n_iterations=10, proposal_scale=0.0)


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
    def test_regime_error(self):
        with pytest.raises(RegimeError):
            representation_sample(BgParams(1, 1, 1), 100, seed=0)

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
        values = np.array([0.1, -0.0, 5e-324, 1e300, 1.2345e17, -2.5, 1.0 / 3.0])
        expected = "draw\n" + "".join(f"{v:.17g}\n" for v in values.tolist())
        assert _draws_csv_text(values) == expected
        assert _draws_csv_text(np.array([])) == "draw\n"
