import json
import math

import numpy as np
import pytest

from bgumbel import BgParams, bg_cdf, bg_moment_set, bg_pdf, find_modes, hazard
from bgumbel.cli import (
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    _parser,
    build_parser,
    main,
)


def run(argv):
    return main(argv)


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("cmd", ["eval", "sample", "simulate", "fit"])
    def test_subcommand_help(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([cmd, "--help"])
        assert exc.value.code == 0

    def test_unknown_flag_fails_loudly(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["eval", "--mu", "1", "--nonsense", "2"])
        assert exc.value.code == 2

    def test_missing_required(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["eval", "--mu", "1"])
        assert exc.value.code == 2

    def test_parser_reuse_matches_fresh_parser(self, tmp_path, capsys):
        # main builds its parser once per process: a usage error, a good run
        # and a numeric error in a row must print and return what each does
        # with a parser of its own.
        const = tmp_path / "const.csv"
        const.write_text("1.0\n" * 7)
        calls = [
            ["eval", "--mu", "1"],
            ["eval", "--mu", "3", "--sigma", "2", "--delta", "0", "--what", "pdf", "--at", "3"],
            ["fit", str(const)],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            return code, out.out, out.err

        in_row = [outcome(argv) for argv in calls]
        alone = []
        for argv in calls:
            _parser.cache_clear()
            alone.append(outcome(argv))
        assert [code for code, _, _ in in_row] == [EXIT_USAGE, EXIT_OK, EXIT_NUMERIC]
        assert in_row == alone


class TestEval:
    def test_shape_json(self, capsys):
        assert run(["eval", "--mu", "1", "--sigma", "1", "--delta", "2",
                    "--what", "shape"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["modality"] == "bimodal"
        assert "manifest" in payload

    def test_shape_where_a_brent_step_divides_by_zero(self, capsys):
        assert run(["eval", "--mu", "9.82887835501372e+50", "--sigma", "4.10915192551165e+115",
                    "--delta", "-4651429533822.346", "--what", "shape"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["modality"] == "bimodal"

    def test_moments_reference_mean(self, capsys):
        assert run(["eval", "--mu", "-2", "--sigma", "1", "--delta", "-1",
                    "--what", "moments"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean"] == pytest.approx(-1.0640, abs=5e-4)

    def test_pdf_at_gumbel_mode(self, capsys):
        assert run(["eval", "--mu", "3", "--sigma", "2", "--delta", "0",
                    "--what", "pdf", "--at", "3"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "x,pdf"
        assert float(out[1].split(",")[1]) == pytest.approx(1 / (2 * math.e), rel=1e-10)

    def test_grid_row_count(self, capsys):
        assert run(["eval", "--mu", "0", "--sigma", "1", "--delta", "0.5",
                    "--what", "cdf", "--grid=-3:5:17"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 18  # header + 17 points

    def test_pdf_grid_matches_per_point(self, capsys):
        # One array call to bg_pdf prints exactly what a per-point loop would.
        p = BgParams(1.0, 1.0, 2.0)
        assert run(["eval", "--mu", "1", "--sigma", "1", "--delta", "2",
                    "--what", "pdf", "--grid=-8:60:1001"]) == EXIT_OK
        rows = [f"{x:.12g},{float(bg_pdf(p, float(x))):.12g}" for x in np.linspace(-8, 60, 1001)]
        assert capsys.readouterr().out == "\n".join(["x,pdf", *rows]) + "\n"

    def test_hazard_grid_matches_per_point(self, capsys):
        # One array call to hazard prints exactly what a per-point loop
        # would, out past the point where the survival underflows.
        p = BgParams(1.0, 1.0, 2.0)
        assert run(["eval", "--mu", "1", "--sigma", "1", "--delta", "2",
                    "--what", "hazard", "--grid=-8:800:2001"]) == EXIT_OK
        pts = [hazard(p, float(x)) for x in np.linspace(-8, 800, 2001)]
        rows = [f"{h.x:.12g},{h.survival:.12g},{h.hazard:.12g}" for h in pts]
        assert pts[-1].survival == 0.0
        assert capsys.readouterr().out == "\n".join(["x,survival,hazard", *rows]) + "\n"

    def test_hazard_table_columns(self, capsys):
        assert run(["eval", "--mu", "0", "--sigma", "1", "--delta", "0",
                    "--what", "hazard", "--at", "0"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "x,survival,hazard"

    @pytest.mark.parametrize("what", ["pdf", "cdf", "hazard"])
    def test_table_json(self, what, capsys):
        p = BgParams(1.0, 1.0, 2.0)
        assert run(["eval", "--mu", "1", "--sigma", "1", "--delta", "2", "--what", what,
                    "--grid=-2:4:7", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        xs = np.linspace(-2, 4, 7)
        if what == "hazard":
            hp = hazard(p, xs)
            want = [{"x": x, "survival": s, "hazard": h}
                    for x, s, h in zip(xs.tolist(), hp.survival.tolist(), hp.hazard.tolist())]
        else:
            func = bg_pdf if what == "pdf" else bg_cdf
            want = [{"x": x, what: v} for x, v in zip(xs.tolist(), func(p, xs).tolist())]
        assert payload["table"] == want
        assert payload["manifest"]["args"]["what"] == what

    def test_moments_csv(self, capsys):
        p = BgParams(-2.0, 1.0, -1.0)
        assert run(["eval", "--mu", "-2", "--sigma", "1", "--delta", "-1",
                    "--what", "moments", "--format", "csv"]) == EXIT_OK
        header, values = capsys.readouterr().out.splitlines()
        keys = ["mean", "second_raw", "third_raw", "variance", "skewness", "kurtosis"]
        assert header.split(",") == keys
        ms = bg_moment_set(p)
        assert values.split(",") == [str(getattr(ms, k)) for k in keys]

    def test_shape_csv(self, capsys):
        rep = find_modes(BgParams(1.0, 1.0, 2.0))
        assert run(["eval", "--mu", "1", "--sigma", "1", "--delta", "2",
                    "--what", "shape", "--format", "csv"]) == EXIT_OK
        header, values = capsys.readouterr().out.splitlines()
        assert header == "modality,modes,antimode,condition_c_holds,r2_in_d,d_interval"
        assert values.split(",") == [
            "bimodal", ";".join(map(str, rep.modes)), str(rep.antimode), "True", "True",
            ";".join(map(str, rep.d_interval)),
        ]

    def test_invalid_sigma_is_usage_error(self, capsys):
        assert run(["eval", "--mu", "0", "--sigma", "-1", "--delta", "0",
                    "--what", "moments"]) == EXIT_USAGE

    @pytest.mark.parametrize("grid", ["0:inf:3", "-inf:0:3", "-inf:inf:3"])
    def test_non_finite_grid_end_is_usage_error(self, grid, capsys):
        assert run(["eval", "--mu", "0", "--sigma", "1", "--delta", "0",
                    "--what", "cdf", f"--grid={grid}"]) == EXIT_USAGE
        assert "grid requires finite lo < hi" in capsys.readouterr().err

    def test_moments_where_variance_underflows(self, capsys):
        # sigma^2 is below the float range; skewness and kurtosis do not
        # depend on sigma and are the Gumbel values.
        assert run(["eval", "--mu", "0", "--sigma", "1e-200", "--delta", "0",
                    "--what", "moments"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["variance"] == 0.0
        assert payload["skewness"] == pytest.approx(1.1395470994046487, rel=1e-14)
        assert payload["kurtosis"] == pytest.approx(5.4, rel=1e-14)

    @pytest.mark.parametrize("what", ["moments", "pdf", "cdf", "shape"])
    def test_normalizer_overflow_names_the_triple(self, what, capsys):
        # Z is above the float range: a numeric error naming mu, sigma and delta.
        assert run(["eval", "--mu", "0", "--sigma", "1", "--delta", "1e200",
                    "--what", what, "--at", "0"]) == EXIT_NUMERIC
        assert "mu=0.0, sigma=1.0, delta=1e+200" in capsys.readouterr().err

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        # The output's parent is a file: exit 2 with an error line, not a traceback.
        parent = tmp_path / "c.csv"
        parent.write_text("1.0\n")
        assert run(["eval", "--mu", "0", "--sigma", "1", "--delta", "0", "--what", "cdf",
                    "--at", "0", "-o", str(parent / "sub" / "out.csv")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


class TestSample:
    def test_deterministic_output_files(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--mu", "-2", "--sigma", "1", "--delta", "1",
                "--n", "500", "--seed", "11", "--method", "representation"]
        assert run(args + ["-o", str(f1)]) == EXIT_OK
        assert run(args + ["-o", str(f2)]) == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()
        assert f1.read_text().splitlines()[0] == "draw"

    @pytest.mark.parametrize("method", ["mh", "representation"])
    def test_normalizer_overflow_names_the_triple(self, method, capsys):
        assert run(["sample", "--mu", "0", "--sigma", "1", "--delta", "1e200",
                    "--n", "3", "--method", method]) == EXIT_NUMERIC
        assert "mu=0.0, sigma=1.0, delta=1e+200" in capsys.readouterr().err

    def test_manifest_sidecar(self, tmp_path):
        out = tmp_path / "draws.csv"
        assert run(["sample", "--mu", "0", "--sigma", "1", "--delta", "0",
                    "--n", "100", "--seed", "3", "-o", str(out)]) == EXIT_OK
        manifest = json.loads((tmp_path / "draws.csv.manifest.json").read_text())
        assert manifest["command"] == "sample"
        assert manifest["seed"] == 3
        assert "acceptance_rate" in manifest

    def test_representation_outside_mixture_regime(self, tmp_path):
        # delta * (mu + sigma * gamma) > 0, outside the mixture's regime: still n draws.
        out = tmp_path / "x.csv"
        assert run(["sample", "--mu", "1", "--sigma", "1", "--delta", "1",
                    "--n", "10", "--seed", "0", "--method", "representation",
                    "-o", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 11

    def test_mh_draw_count(self, tmp_path):
        out = tmp_path / "mh.csv"
        assert run(["sample", "--mu", "0", "--sigma", "1", "--delta", "0.5",
                    "--n", "250", "--seed", "5", "-o", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 251

    def test_mh_draws_recover_reference_mean(self, tmp_path):
        out = tmp_path / "big.csv"
        assert run(["sample", "--mu", "-2", "--sigma", "1", "--delta", "-1",
                    "--n", "100000", "--seed", "42", "-o", str(out)]) == EXIT_OK
        draws = np.array([float(v) for v in out.read_text().splitlines()[1:]])
        assert draws.mean() == pytest.approx(-1.0640, abs=0.06)
        assert draws.var(ddof=1) == pytest.approx(5.0126, abs=0.35)

    def test_output_matches_save_draws_csv(self, tmp_path):
        from bgumbel import BgParams, representation_sample, save_draws_csv

        out, ref = tmp_path / "cli.csv", tmp_path / "ref.csv"
        assert run(["sample", "--mu", "-2", "--sigma", "1", "--delta", "1",
                    "--n", "300", "--seed", "9", "--method", "representation",
                    "-o", str(out)]) == EXIT_OK
        save_draws_csv(representation_sample(BgParams(-2, 1, 1), 300, 9), ref)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("method", ["mh", "representation"])
    def test_output_is_per_value_17g_text(self, tmp_path, method):
        from bgumbel import McmcConfig, mh_sample, representation_sample

        p, out = BgParams(-2, 1, 1), tmp_path / "draws.csv"
        assert run(["sample", "--mu", "-2", "--sigma", "1", "--delta", "1", "--n", "20000",
                    "--seed", "31", "--method", method, "-o", str(out)]) == EXIT_OK
        if method == "mh":  # the CLI burns in 10% of n
            draws = mh_sample(p, McmcConfig(n_iterations=22000, burn_in=2000, seed=31)).draws
        else:
            draws = representation_sample(p, 20000, 31)
        assert out.read_text() == "draw\n" + "".join("%.17g\n" % v for v in draws.tolist())

    @pytest.mark.parametrize("argv", [
        ["sample", "--mu", "0", "--sigma", "1", "--delta", "0", "--n", "0"],
        ["sample", "--mu", "0", "--sigma", "1", "--delta", "0", "--n", "-3"],
        ["sample", "--mu", "-2", "--sigma", "1", "--delta", "1", "--n", "0",
         "--method", "representation"],
        ["simulate", "--n", "0"],
    ])
    def test_n_below_one_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == EXIT_USAGE
        assert "argument --n: must be at least 1" in capsys.readouterr().err

    def test_mh_default_scale_where_variance_underflows(self, tmp_path):
        # The default proposal scale falls back to sigma where the variance is 0.
        out = tmp_path / "tiny.csv"
        assert run(["sample", "--mu", "0", "--sigma", "1e-200", "--delta", "0",
                    "--n", "3", "--seed", "1", "-o", str(out)]) == EXIT_OK
        draws = [float(v) for v in out.read_text().splitlines()[1:]]
        assert len(draws) == 3 and all(abs(v) < 1e-190 for v in draws)

    def test_non_finite_scale_is_usage_error(self, capsys):
        assert run(["sample", "--mu", "0", "--sigma", "1", "--delta", "0",
                    "--n", "3", "--scale", "nan"]) == EXIT_USAGE
        assert "proposal_scale" in capsys.readouterr().err

    def test_seed_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BGUMBEL_SEED", "77")
        out = tmp_path / "env.csv"
        assert run(["sample", "--mu", "-2", "--sigma", "1", "--delta", "1",
                    "--n", "50", "--method", "representation", "-o", str(out)]) == EXIT_OK
        manifest = json.loads((tmp_path / "env.csv.manifest.json").read_text())
        assert manifest["seed"] == 77


class TestSimulate:
    def test_small_run_table_and_prefixes(self, tmp_path, capsys):
        outdir = tmp_path / "chains"
        assert run(["simulate", "--n", "2000", "--seed", "1",
                    "--format", "csv", "--out-dir", str(outdir)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("mu,sigma,delta,sample_mean,pop_mean")
        assert len(out) == 5  # header + four parameter sets
        row1 = out[1].split(",")
        assert float(row1[4]) == pytest.approx(-1.0640, abs=5e-4)
        assert float(row1[7]) == pytest.approx(5.0126, abs=5e-3)
        # only the 1000-prefix fits in a 2000-draw chain
        files = sorted(f.name for f in outdir.glob("*.csv"))
        assert files == [f"chain_set{i}_n1000.csv" for i in range(1, 5)]

    def test_population_columns_printed_precision(self, capsys):
        assert run(["simulate", "--n", "1000", "--seed", "2", "--format", "csv"]) == EXIT_OK
        rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
        pop_means = [round(float(r[4]), 4) for r in rows]
        pop_vars = [round(float(r[7]), 4) for r in rows]
        assert pop_means == [-1.0640, 4.0170, 3.9909, 1.9512]
        assert pop_vars == [5.0126, 18.0164, 21.5752, 24.5918]

    def test_markdown_format(self, capsys):
        assert run(["simulate", "--n", "500", "--seed", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("| mu")
        assert out.count("\n") >= 5

    def test_deterministic_given_seed(self, capsys):
        assert run(["simulate", "--n", "500", "--seed", "9", "--format", "csv"]) == EXIT_OK
        first = capsys.readouterr().out
        assert run(["simulate", "--n", "500", "--seed", "9", "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out == first


class TestFit:
    def test_report_schema_and_roundtrip(self, tmp_path, fixtures_dir):
        report_path = tmp_path / "report.json"
        code = run(["fit", str(fixtures_dir / "bimodal500.csv"),
                    "--model", "both", "-o", str(report_path)])
        assert code == EXIT_OK
        text = report_path.read_text()
        report = json.loads(text)
        assert report["preferred"] == "bg"
        gof = report["models"]["bg"]["gof"]
        assert sorted(gof) == ["aic", "bic", "ks_p", "ks_stat", "model", "n"]
        assert report["models"]["bg"]["converged"] is True
        # byte-identical round trip
        assert json.dumps(report, indent=2, sort_keys=True) + "\n" == text

    def test_gumbel_data_aic_bound(self, tmp_path, capsys):
        data = np.random.default_rng(5).gumbel(0.0, 1.0, 200)
        csv = tmp_path / "g.csv"
        csv.write_text("x\n" + "\n".join(f"{v:.10g}" for v in data) + "\n")
        assert run(["fit", str(csv), "--model", "both"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        d_aic = report["models"]["bg"]["gof"]["aic"] - report["models"]["gumbel"]["gof"]["aic"]
        assert d_aic <= 2.0 + 1e-9

    def test_data_in_large_units_converge(self, tmp_path, capsys):
        # Gumbel draws times 1e7: both fits converge and keep their standard
        # errors, as they do at 1e0 (a raw-units rule flagged the BG fit, exit 4).
        data = np.random.default_rng(4).gumbel(0.0, 1.0, 300) * 1e7
        csv = tmp_path / "g.csv"
        csv.write_text("x\n" + "\n".join(map(repr, data.tolist())) + "\n")
        assert run(["fit", str(csv)]) == EXIT_OK
        models = json.loads(capsys.readouterr().out)["models"]
        for name in ("bg", "gumbel"):
            assert models[name]["converged"] is True
            assert models[name]["se"] is not None

    def test_blocks_and_centering(self, tmp_path, fixtures_dir, capsys):
        assert run(["fit", str(fixtures_dir / "series1774.csv"),
                    "--blocks", "60", "--center", "--model", "gumbel"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["blocks"]["n_blocks"] == 30
        assert report["blocks"]["convention"] == "ceil"
        assert report["centered"] is True
        assert abs(report["center_value"]) > 100  # raw scale before centering

    def test_floor_convention(self, tmp_path, fixtures_dir, capsys):
        assert run(["fit", str(fixtures_dir / "series1774.csv"),
                    "--blocks", "60", "--no-partial-block", "--model", "gumbel"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["blocks"]["n_blocks"] == 29
        assert report["blocks"]["convention"] == "floor"

    def test_ljung_box_recorded(self, fixtures_dir, capsys):
        assert run(["fit", str(fixtures_dir / "maxima29.csv"),
                    "--model", "gumbel", "--ljung-box-lags", "5"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ljung_box"]["lags"] == 5
        assert 0.0 <= report["ljung_box"]["p_value"] <= 1.0

    def test_ljung_box_screen_warns_on_random_walk(self, tmp_path, capsys):
        walk = np.cumsum(np.random.default_rng(8).normal(size=200))
        csv = tmp_path / "walk.csv"
        csv.write_text("".join(f"{v!r}\n" for v in walk.tolist()))
        assert run(["fit", str(csv), "--model", "gumbel"]) == EXIT_OK
        out = capsys.readouterr()
        report = json.loads(out.out)
        assert report["ljung_box"]["flagged"] is True
        assert report["ljung_box"]["p_value"] < 0.017
        assert "warning: Ljung-Box p-value" in out.err

    def test_report_deterministic_up_to_timestamp(self, tmp_path, fixtures_dir):
        reports = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            assert run(["fit", str(fixtures_dir / "maxima29.csv"),
                        "--model", "both", "-o", str(path)]) == EXIT_OK
            payload = json.loads(path.read_text())
            payload["manifest"].pop("timestamp")
            reports.append(payload)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("option, value, message", [
        ("--blocks", "0", "block_length must be >= 1"),
        ("--blocks", "-3", "block_length must be >= 1"),
        ("--ljung-box-lags", "0", "lags must be >= 1"),
        ("--ljung-box-lags", "-1", "lags must be >= 1"),
    ])
    def test_non_positive_option_is_usage_error(self, fixtures_dir, capsys, option, value, message):
        assert run(["fit", str(fixtures_dir / "maxima29.csv"), "--model", "gumbel",
                    option, value]) == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_four_values_fit_both_models(self, tmp_path, capsys):
        # Both fitters take 4 observations, and so does --model both.
        csv = tmp_path / "four.csv"
        csv.write_text("0.3\n1.1\n1.9\n4.2\n")
        assert run(["fit", str(csv)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["models"]["bg"]["gof"]["n"] == report["models"]["gumbel"]["gof"]["n"] == 4

    def test_missing_file_is_usage_error(self, capsys):
        assert run(["fit", "/nonexistent/file.csv"]) == EXIT_USAGE

    def test_constant_data_is_numeric_error(self, tmp_path, capsys):
        csv = tmp_path / "c.csv"
        csv.write_text("1.0\n" * 7)
        assert run(["fit", str(csv)]) == EXIT_NUMERIC
        assert "identical" in capsys.readouterr().err

    def test_non_finite_value_is_usage_error(self, tmp_path, capsys):
        csv = tmp_path / "nan.csv"
        csv.write_text("x\n1.0\n2.5\nnan\n0.7\n3.1\n1.9\n")
        assert run(["fit", str(csv), "--model", "both"]) == EXIT_USAGE
        assert "non-finite value 'nan' on line 4" in capsys.readouterr().err

    def test_manifest_records_no_seed(self, fixtures_dir, capsys):
        assert run(["fit", str(fixtures_dir / "maxima29.csv"), "--model", "gumbel"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["manifest"]["seed"] is None

    def test_exit_codes_are_distinct(self):
        assert {EXIT_OK, EXIT_USAGE, EXIT_NUMERIC, EXIT_NO_CONVERGENCE} == {0, 2, 3, 4}
