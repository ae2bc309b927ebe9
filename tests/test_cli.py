import json
import math

import numpy as np
import pytest

from bgumbel import BgParams, bg_pdf, hazard
from bgumbel.cli import (
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
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


class TestEval:
    def test_shape_json(self, capsys):
        assert run(["eval", "--mu", "1", "--sigma", "1", "--delta", "2",
                    "--what", "shape"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["modality"] == "bimodal"
        assert "manifest" in payload

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

    def test_invalid_sigma_is_usage_error(self, capsys):
        assert run(["eval", "--mu", "0", "--sigma", "-1", "--delta", "0",
                    "--what", "moments"]) == EXIT_USAGE


class TestSample:
    def test_deterministic_output_files(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--mu", "-2", "--sigma", "1", "--delta", "1",
                "--n", "500", "--seed", "11", "--method", "representation"]
        assert run(args + ["-o", str(f1)]) == EXIT_OK
        assert run(args + ["-o", str(f2)]) == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()
        assert f1.read_text().splitlines()[0] == "draw"

    def test_manifest_sidecar(self, tmp_path):
        out = tmp_path / "draws.csv"
        assert run(["sample", "--mu", "0", "--sigma", "1", "--delta", "0",
                    "--n", "100", "--seed", "3", "-o", str(out)]) == EXIT_OK
        manifest = json.loads((tmp_path / "draws.csv.manifest.json").read_text())
        assert manifest["command"] == "sample"
        assert manifest["seed"] == 3
        assert "acceptance_rate" in manifest

    def test_regime_error_exit_code(self, tmp_path):
        code = run(["sample", "--mu", "1", "--sigma", "1", "--delta", "1",
                    "--n", "10", "--seed", "0", "--method", "representation",
                    "-o", str(tmp_path / "x.csv")])
        assert code == EXIT_NUMERIC

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
