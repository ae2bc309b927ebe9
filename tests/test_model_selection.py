import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

import bgumbel
from bgumbel import (
    BgParams,
    BlockMaximaConfig,
    InsufficientDataError,
    bg_cdf,
    block_maxima,
    compare_models,
    descriptive_stats,
    fit_gumbel_mle,
    fit_mle,
    information_criteria,
    ks_test,
    ljung_box,
    read_series_csv,
)


class TestBlockMaxima:
    def test_simple(self):
        out = block_maxima(np.arange(1.0, 11.0), BlockMaximaConfig(5))
        np.testing.assert_array_equal(out, [5.0, 10.0])

    def test_partial_block_conventions(self):
        series = np.arange(1774.0)
        ceil_out = block_maxima(series, BlockMaximaConfig(60, True))
        floor_out = block_maxima(series, BlockMaximaConfig(60, False))
        assert len(ceil_out) == 30  # ceil(1774 / 60)
        assert len(floor_out) == 29  # floor(1774 / 60)
        assert ceil_out[-1] == 1773.0

    def test_constant_series(self):
        out = block_maxima(np.full(12, 7.5), BlockMaximaConfig(4))
        np.testing.assert_array_equal(out, [7.5, 7.5, 7.5])

    def test_order_preserved(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=100)
        out = block_maxima(series, BlockMaximaConfig(10))
        expect = [series[i * 10 : (i + 1) * 10].max() for i in range(10)]
        np.testing.assert_array_equal(out, expect)

    def test_empty(self):
        with pytest.raises(InsufficientDataError):
            block_maxima([], BlockMaximaConfig(5))

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            BlockMaximaConfig(0)


class TestLjungBox:
    def test_iid_normal_not_flagged(self):
        rng = np.random.default_rng(123)
        stat, p = ljung_box(rng.normal(size=500), lags=10)
        assert stat >= 0
        assert p > 0.017

    def test_periodic_series_rejected(self):
        series = np.tile([1.0, -1.0], 250)
        _, p = ljung_box(series, lags=10)
        assert p < 1e-10

    def test_ar1_rejected(self):
        rng = np.random.default_rng(7)
        eps = rng.normal(size=500)
        x = np.zeros(500)
        for i in range(1, 500):
            x[i] = 0.9 * x[i - 1] + eps[i]
        _, p = ljung_box(x, lags=10)
        assert p < 0.01

    def test_null_pvalues_roughly_uniform(self):
        rng = np.random.default_rng(99)
        pvals = np.array(
            [ljung_box(rng.normal(size=300), lags=10)[1] for _ in range(200)]
        )
        # crude uniformity screen: sup distance of empirical law from U(0,1)
        srt = np.sort(pvals)
        grid = np.arange(1, 201) / 200
        assert np.max(np.abs(srt - grid)) < 0.12

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            ljung_box([1.0, 2.0, 3.0], lags=5)

    def test_pvalue_is_chi_square_survival(self):
        from scipy.stats import chi2

        rng = np.random.default_rng(8)
        stat, p = ljung_box(rng.normal(size=200), lags=6)
        assert p == pytest.approx(chi2.sf(stat, 6), rel=1e-12)

    def test_package_import_leaves_scipy_stats_unloaded(self, fixtures_dir, tmp_path):
        # numpy is the only runtime dependency: the package, every fit, the
        # moments, the sampler and the gamma functions load no SciPy.
        src = str(Path(bgumbel.__file__).resolve().parents[1])
        code = f"""
import sys
sys.path.insert(0, {src!r})
def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
import bgumbel
from bgumbel import cli
loaded = [scipy_loaded()]
cli.main(["fit", {str(fixtures_dir / "maxima29.csv")!r}, "--model", "both", "-o", {str(tmp_path / "fit.json")!r}])
loaded.append(scipy_loaded())
p = bgumbel.BgParams(1.0, 1.0, 2.0)
bgumbel.hazard(p, 0.3), bgumbel.find_modes(p), bgumbel.bg_moment_set(p), bgumbel.fisher_information(p)
loaded.append(scipy_loaded())
bgumbel.representation_sample(bgumbel.BgParams(-2.0, 1.0, 1.0), 10, 1)
bgumbel.bg_mgf(p, -0.3), bgumbel.gamma_deriv(3, 1.5), bgumbel.digamma(2.5), bgumbel.trigamma(2.5)
loaded.append(scipy_loaded())
print(loaded)
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[False, False, False, False]"


class TestKsTest:
    def test_null_calibration(self):
        rng = np.random.default_rng(42)
        pvals = []
        for _ in range(100)[:100]:
            data = rng.normal(size=200)
            _, p = ks_test(data, lambda v: float(ndtr(v)))
            pvals.append(p)
        pvals = np.sort(pvals)
        grid = np.arange(1, 101) / 101
        assert np.max(np.abs(pvals - grid)) < 0.17
        assert 0.2 < np.mean(pvals) < 0.8

    def test_gross_mismatch(self):
        rng = np.random.default_rng(1)
        data = rng.gumbel(0.0, 1.0, 500)
        _, p = ks_test(data, lambda v: math.exp(-math.exp(-(v - 5.0))))
        assert p < 1e-12

    def test_statistic_in_unit_interval(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=50)
        stat, p = ks_test(data, lambda v: float(ndtr(v)))
        assert 0.0 <= stat <= 1.0 and 0.0 <= p <= 1.0

    def test_both_sides_of_step_function(self):
        # A point mass strictly inside a flat stretch of F is detected by
        # the left limit; one-sided variants would miss it.
        data = [0.5] * 10
        stat, _ = ks_test(data, lambda v: 0.0 if v < 0 else (1.0 if v > 1 else v))
        assert stat == pytest.approx(0.5, abs=1e-12)

    def test_golden_fixture_statistic(self, maxima29):
        fit = fit_mle(maxima29)
        stat, p = ks_test(maxima29, lambda v: bg_cdf(fit.params, v))
        assert stat == pytest.approx(0.08421394127901993, rel=1e-6)
        assert p == pytest.approx(0.9862790295808813, rel=1e-6)


class TestInformationCriteria:
    def test_reported_arithmetic(self):
        aic, bic28 = information_criteria(-81.9114, 3, 28)
        assert aic == pytest.approx(169.8228, abs=5e-5)
        assert bic28 == pytest.approx(173.8194, abs=5e-5)
        _, bic29 = information_criteria(-81.9114, 3, 29)
        assert bic29 == pytest.approx(173.9247, abs=5e-5)

    def test_trivial_values(self):
        aic, bic = information_criteria(0.0, 2, 1)
        assert aic == 4.0 and bic == 0.0

    def test_nesting_bound(self, maxima29):
        # AIC_bg - AIC_gumbel = 2 + 2 (l_g - l_bg) <= 2 because l_bg >= l_g.
        bg_fit = fit_mle(maxima29)
        g_fit = fit_gumbel_mle(maxima29)
        aic_bg, _ = information_criteria(bg_fit.log_likelihood, 3, len(maxima29))
        aic_g, _ = information_criteria(g_fit.log_likelihood, 2, len(maxima29))
        assert aic_bg - aic_g <= 2.0 + 1e-9

    def test_invalid(self):
        with pytest.raises(ValueError):
            information_criteria(0.0, 0, 10)


class TestDescriptiveStats:
    def test_tiny_example(self):
        ds = descriptive_stats([1.0, 2.0, 3.0])
        assert ds.mean == 2.0 and ds.median == 2.0
        assert ds.maximum == 3.0 and ds.minimum == 1.0
        assert ds.std_dev == 1.0

    def test_centering_preserves_spread(self):
        rng = np.random.default_rng(3)
        data = rng.gumbel(1000.0, 5.0, 200)
        ds = descriptive_stats(data - data.mean())
        assert abs(ds.mean) < 1e-9
        assert ds.std_dev == pytest.approx(descriptive_stats(data).std_dev, rel=1e-12)

    def test_golden_fixture(self, maxima29):
        ds = descriptive_stats(maxima29)
        assert abs(ds.mean) < 1e-9
        assert ds.median == pytest.approx(-0.830203188127, abs=1e-9)
        assert ds.maximum == pytest.approx(10.2316540115, abs=1e-9)
        assert ds.minimum == pytest.approx(-8.17824630572, abs=1e-9)
        assert ds.std_dev == pytest.approx(5.41707209247, abs=1e-9)


class TestCompareModels:
    def test_bimodal_fixture_prefers_bg(self, bimodal500):
        cmp_res = compare_models(bimodal500)
        assert cmp_res.preferred == "bg"
        assert cmp_res.gumbel.aic - cmp_res.bg.aic > 10.0

    def test_golden_fixture_values(self, bimodal500):
        cmp_res = compare_models(bimodal500)
        assert cmp_res.bg.aic == pytest.approx(2001.9815849878582, rel=1e-6)
        assert cmp_res.bg.bic == pytest.approx(2014.6254092831248, rel=1e-6)
        assert cmp_res.gumbel.aic == pytest.approx(2032.706097396633, rel=1e-6)
        assert cmp_res.bg.ks_statistic == pytest.approx(0.02358968375450743, rel=1e-5)

    def test_json_dict_schema(self, bimodal500):
        d = compare_models(bimodal500).bg.to_json_dict()
        assert sorted(d) == ["aic", "bic", "ks_p", "ks_stat", "model", "n"]
        assert d["model"] == "bg" and d["n"] == 500

    def test_gumbel_data_usually_prefers_gumbel(self):
        wins = 0
        for seed in range(10):
            x = np.random.default_rng(seed).gumbel(0.0, 1.0, 100)
            if compare_models(x).preferred == "gumbel":
                wins += 1
        assert wins >= 6

    def test_deterministic(self, bimodal500):
        a = compare_models(bimodal500)
        b = compare_models(bimodal500)
        assert a.bg == b.bg and a.gumbel == b.gumbel and a.preferred == b.preferred

    def test_too_small(self):
        with pytest.raises(InsufficientDataError):
            compare_models([1.0, 2.0, 3.0])

    def test_four_points_fit_as_the_fitters_do(self):
        # The fitters' own minimum of 4 observations is the only one.
        x = [0.3, 1.1, 1.9, 4.2]
        cmp_res = compare_models(x)
        assert cmp_res.errors is None
        assert cmp_res.bg_fit == fit_mle(x) and cmp_res.gumbel_fit == fit_gumbel_mle(x)
        assert cmp_res.bg.n_obs == cmp_res.gumbel.n_obs == 4

    @pytest.mark.parametrize("fixture", ["maxima29", "bimodal500"])
    def test_gumbel_fit_is_the_profile_centre(self, request, fixture):
        x = request.getfixturevalue(fixture)
        assert compare_models(x).gumbel_fit == fit_gumbel_mle(x)

    def test_bg_failure_leaves_gumbel_fit(self, monkeypatch, maxima29):
        def fail(x):
            raise RuntimeError("no BG fit")

        monkeypatch.setattr(bgumbel.model_selection, "fit_mle", fail)
        cmp_res = compare_models(maxima29)
        assert cmp_res.bg is None and cmp_res.bg_fit is None
        assert cmp_res.errors["bg"] == "RuntimeError: no BG fit"
        assert cmp_res.preferred == "gumbel"
        assert cmp_res.gumbel_fit == fit_gumbel_mle(maxima29)


class TestReadSeriesCsv:
    def test_header_optional(self, tmp_path):
        f1 = tmp_path / "with_header.csv"
        f1.write_text("value\n1.5\n2.5\n")
        f2 = tmp_path / "without_header.csv"
        f2.write_text("1.5\n2.5\n")
        np.testing.assert_array_equal(read_series_csv(f1), [1.5, 2.5])
        np.testing.assert_array_equal(read_series_csv(f2), [1.5, 2.5])

    def test_byte_order_mark(self, tmp_path):
        # A UTF-8 BOM must not turn the first value into a header.
        f1 = tmp_path / "bom.csv"
        f1.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n")
        f2 = tmp_path / "bom_header.csv"
        f2.write_bytes(b"\xef\xbb\xbfvalue\n2.5\n3.5\n")
        np.testing.assert_array_equal(read_series_csv(f1), [1.5, 2.5, 3.5])
        np.testing.assert_array_equal(read_series_csv(f2), [2.5, 3.5])

    def test_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "blank.csv"
        f.write_text("value\n1.5\n\n   \n2.5\n\n")
        np.testing.assert_array_equal(read_series_csv(f), [1.5, 2.5])

    def test_bad_value_reported_with_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("x\n1.0\noops\n")
        with pytest.raises(ValueError, match="line 3"):
            read_series_csv(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("header_only\n")
        with pytest.raises(InsufficientDataError):
            read_series_csv(f)

    def test_fixture_lengths(self, series1774, maxima29, bimodal500):
        assert len(series1774) == 1774
        assert len(maxima29) == 29
        assert len(bimodal500) == 500
