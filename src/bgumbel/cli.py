"""Command-line interface.

Subcommands
-----------
eval      Evaluate pdf / cdf / hazard tables, moment summaries or the mode
          structure for a parameter triple.
sample    Draw random variates (Metropolis or mixture-representation) to CSV.
simulate  Moment-recovery study over the four built-in parameter sets:
          sample vs population mean/variance with biases, plus chain
          prefixes for convergence plotting.
fit       Fit BG and/or Gumbel models to a CSV series, optionally reducing
          to block maxima and centering, with a Ljung-Box serial-dependence
          screen and a KS/AIC/BIC report.

Exit codes: 0 success, 2 usage or input errors, 3 numeric failure,
4 fit non-convergence (a partial report is still written).

Every output file is accompanied (CSV) or embedded (JSON) with a run
manifest: command, resolved arguments, seed, tool version and timestamp.
Outputs are deterministic given flags and seed.  Only sample and simulate
draw random numbers and take --seed; the environment variable BGUMBEL_SEED
overrides their default seed when --seed is not passed.  eval and fit
record "seed": null.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .distribution import BgParams, bg_cdf, bg_moment_set, bg_pdf
from .errors import BGumbelError
from .inference import FitResult
from .model_selection import (
    _MODELS,
    BlockMaximaConfig,
    _gof_for_fit,
    block_maxima,
    compare_models,
    ljung_box,
    read_series_csv,
)
from .sampling import (
    Chain, McmcConfig, _csv_text, _draws_csv_text, chain_summary, mh_sample, representation_sample,
)
from .shape import find_modes, hazard

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_NO_CONVERGENCE = 4

LJUNG_BOX_SCREEN_LEVEL = 0.017

# Built-in parameter sets for the moment-recovery simulation study.
SIMULATION_PARAMETER_SETS = (
    BgParams(-2.0, 1.0, -1.0),
    BgParams(-1.0, 2.0, -1.0),
    BgParams(-1.0, 2.0, -2.0),
    BgParams(-2.0, 2.0, -1.0),
)
_PREFIX_SIZES = (1000, 10000, 100000)


def _default_seed() -> int:
    env = os.environ.get("BGUMBEL_SEED")
    return int(env) if env else 0


def _manifest(command: str, args: dict, seed: int | None) -> dict:
    return {
        "command": command,
        "args": {k: v for k, v in sorted(args.items())},
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None, manifest: dict | None = None) -> None:
    """Write ``text`` to ``out`` or stdout, and a given manifest to the ``out`` sidecar."""
    if not out:
        sys.stdout.write(text)
        return
    _atomic_write(Path(out), text)
    if manifest is not None:
        _atomic_write(Path(out + ".manifest.json"), _stable_json(manifest) + "\n")


def _stable_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _params_from_args(args) -> BgParams:
    return BgParams(args.mu, args.sigma, args.delta)


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be lo:hi:n")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 2 or not hi > lo:
        raise argparse.ArgumentTypeError("grid requires hi > lo and n >= 2")
    return np.linspace(lo, hi, n)


def _chain(p: BgParams, n: int, seed: int, burn_in: int | None = None,
           scale: float | None = None) -> Chain:
    """Metropolis chain of ``n`` kept draws after ``burn_in`` (default 10% of n, at least 1)."""
    burn = burn_in if burn_in is not None else max(n // 10, 1)
    return mh_sample(p, McmcConfig(n_iterations=n + burn, burn_in=burn,
                                   proposal_scale=scale, seed=seed))


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

def _cmd_eval(args) -> int:
    p = _params_from_args(args)
    manifest = _manifest("eval", {
        "mu": args.mu, "sigma": args.sigma, "delta": args.delta,
        "what": args.what, "grid": args.grid_spec, "at": args.at,
    }, seed=None)

    if args.what in ("pdf", "cdf", "hazard"):
        if args.grid_spec is None and args.at is None:
            raise UsageError("--what pdf/cdf/hazard requires --grid or --at")
        xs = _parse_grid(args.grid_spec) if args.grid_spec else np.array([args.at])
        if args.what == "hazard":
            hp = hazard(p, xs)
            header, columns = ["x", "survival", "hazard"], [xs, hp.survival, hp.hazard]
        else:
            func = bg_pdf if args.what == "pdf" else bg_cdf
            header, columns = ["x", args.what], [xs, func(p, xs)]
        table = np.column_stack(columns)
        if args.format == "json":
            rows = [dict(zip(header, row)) for row in table.tolist()]
            _emit(_stable_json({"table": rows, "manifest": manifest}) + "\n", args.output)
        else:
            _emit(_csv_text(header, table, "%.12g"), args.output, manifest)
        return EXIT_OK

    if args.what == "moments":
        ms = bg_moment_set(p)
        body = {
            "mean": ms.mean, "second_raw": ms.second_raw, "third_raw": ms.third_raw,
            "variance": ms.variance, "skewness": ms.skewness, "kurtosis": ms.kurtosis,
        }
    else:  # shape
        report = find_modes(p)
        body = {
            "modality": report.modality,
            "modes": list(report.modes),
            "antimode": report.antimode,
            "condition_c_holds": report.condition_c_holds,
            "r2_in_d": report.r2_in_d,
            "d_interval": list(report.d_interval) if report.d_interval else None,
        }
    if args.format == "csv":
        keys = list(body)
        scalar = {k: (v if not isinstance(v, list) else ";".join(map(str, v))) for k, v in body.items()}
        text = ",".join(keys) + "\n" + ",".join(str(scalar[k]) for k in keys) + "\n"
        _emit(text, args.output, manifest)
    else:
        _emit(_stable_json({**body, "manifest": manifest}) + "\n", args.output)
    return EXIT_OK


# ----------------------------------------------------------------------
# sample
# ----------------------------------------------------------------------

def _cmd_sample(args) -> int:
    p = _params_from_args(args)
    seed = args.seed if args.seed is not None else _default_seed()
    manifest = _manifest("sample", {
        "mu": args.mu, "sigma": args.sigma, "delta": args.delta,
        "n": args.n, "method": args.method,
        "burn_in": args.burn_in, "scale": args.scale,
    }, seed=seed)

    if args.method == "mh":
        chain = _chain(p, args.n, seed, args.burn_in, args.scale)
        draws = chain.draws
        manifest["acceptance_rate"] = chain.acceptance_rate
        if chain.acceptance_flag:
            print(f"warning: {chain.acceptance_flag}", file=sys.stderr)
    else:
        draws = representation_sample(p, args.n, seed)

    _emit(_draws_csv_text(draws), args.output, manifest)
    return EXIT_OK


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    manifest = _manifest("simulate", {"n": args.n, "format": args.format,
                                      "out_dir": args.out_dir}, seed=seed)
    rows = []
    prefix_files = []
    for idx, p in enumerate(SIMULATION_PARAMETER_SETS):
        chain = _chain(p, args.n, seed + idx)
        summ = chain_summary(chain)
        ms = bg_moment_set(p)
        rows.append([
            p.mu, p.sigma, p.delta,
            summ.mean, ms.mean, summ.mean - ms.mean,
            summ.variance, ms.variance, summ.variance - ms.variance,
        ])
        if args.out_dir:
            out_dir = Path(args.out_dir)
            for size in _PREFIX_SIZES:
                if size > summ.n:
                    continue
                path = out_dir / f"chain_set{idx + 1}_n{size}.csv"
                _atomic_write(path, _draws_csv_text(chain.draws[:size]))
                prefix_files.append(str(path))
    manifest["chain_prefix_files"] = prefix_files
    if args.out_dir:
        _atomic_write(
            Path(args.out_dir) / "simulate.manifest.json", _stable_json(manifest) + "\n"
        )

    header = ["mu", "sigma", "delta", "sample_mean", "pop_mean", "bias_mean",
              "sample_var", "pop_var", "bias_var"]
    if args.format == "csv":
        text = _csv_text(header, rows, "%.12g")
    else:
        widths = [max(len(h), 12) for h in header]
        lines = [
            "| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |",
            "|" + "|".join("-" * (w + 2) for w in widths) + "|",
        ]
        for row in rows:
            cells = [f"{v:.4f}".ljust(w) for v, w in zip(row, widths)]
            lines.append("| " + " | ".join(cells) + " |")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output, manifest)
    return EXIT_OK


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------

def _fit_payload(fit: FitResult, gof) -> dict:
    p = fit.params
    se = fit.std_errors
    return {
        "params": {"mu": p.mu, "sigma": p.sigma, "delta": p.delta},
        "se": None if se is None else {"mu": se[0], "sigma": se[1], "delta": se[2]},
        "loglik": fit.log_likelihood,
        "converged": fit.converged,
        "n": fit.n_obs,
        "gof": gof.to_json_dict() if gof is not None else None,
    }


def _cmd_fit(args) -> int:
    try:
        series = read_series_csv(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    manifest = _manifest("fit", {
        "input": str(args.input), "model": args.model, "blocks": args.blocks,
        "center": args.center, "partial_block": not args.no_partial_block,
        "ljung_box_lags": args.ljung_box_lags,
    }, seed=None)

    report: dict = {"input": str(args.input), "n_raw": int(series.size)}
    data = series
    if args.blocks:
        cfg = BlockMaximaConfig(args.blocks, allow_partial_last_block=not args.no_partial_block)
        data = block_maxima(series, cfg)
        report["blocks"] = {
            "block_length": args.blocks,
            "convention": "floor" if args.no_partial_block else "ceil",
            "n_blocks": int(data.size),
        }

    center = args.center if args.center is not None else bool(args.blocks)
    center_value = float(data.mean()) if center else 0.0
    if center:
        data = data - center_value
    report["centered"] = center
    report["center_value"] = center_value
    report["n"] = int(data.size)

    lags = args.ljung_box_lags or max(min(10, data.size // 5), 1)
    try:
        lb_stat, lb_p = ljung_box(data, lags)
        flagged = lb_p < LJUNG_BOX_SCREEN_LEVEL
        report["ljung_box"] = {"lags": lags, "statistic": lb_stat, "p_value": lb_p,
                               "flagged": flagged}
        if flagged:
            print(
                f"warning: Ljung-Box p-value {lb_p:.4g} below screen level "
                f"{LJUNG_BOX_SCREEN_LEVEL}; maxima may be serially dependent",
                file=sys.stderr,
            )
    except BGumbelError as exc:
        report["ljung_box"] = {"lags": lags, "error": str(exc)}

    exit_code = EXIT_OK
    models: dict = {}
    if args.model == "both":
        comparison = compare_models(data)
        if comparison.bg_fit is not None:
            models["bg"] = _fit_payload(comparison.bg_fit, comparison.bg)
        if comparison.gumbel_fit is not None:
            models["gumbel"] = _fit_payload(comparison.gumbel_fit, comparison.gumbel)
        if comparison.errors:
            models["errors"] = comparison.errors
        report["preferred"] = comparison.preferred
        fits = [f for f in (comparison.bg_fit, comparison.gumbel_fit) if f is not None]
        if any(not f.converged for f in fits):
            exit_code = EXIT_NO_CONVERGENCE
    else:
        fit = _MODELS[args.model][0](data)
        models[args.model] = _fit_payload(fit, _gof_for_fit(fit, data, args.model))
        if not fit.converged:
            exit_code = EXIT_NO_CONVERGENCE
    report["models"] = models
    report["manifest"] = manifest

    _emit(_stable_json(report) + "\n", args.output)
    if exit_code == EXIT_NO_CONVERGENCE:
        print("warning: at least one fit did not converge (exit 4)", file=sys.stderr)
    return exit_code


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------

class UsageError(Exception):
    pass


def _add_params(sp) -> None:
    sp.add_argument("--mu", type=float, required=True, help="location parameter")
    sp.add_argument("--sigma", type=float, required=True, help="scale parameter (> 0)")
    sp.add_argument("--delta", type=float, required=True, help="bimodality parameter")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bgumbel",
        description="Bimodal Gumbel distribution toolkit: evaluation, sampling, fitting, model comparison.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate pdf/cdf/hazard tables, moments or mode structure")
    _add_params(ev)
    ev.add_argument("--what", required=True, choices=["pdf", "cdf", "hazard", "moments", "shape"])
    ev.add_argument("--grid", dest="grid_spec", default=None, metavar="LO:HI:N",
                    help="evaluation grid for pdf/cdf/hazard")
    ev.add_argument("--at", type=float, default=None, help="single evaluation point")
    ev.add_argument("--format", choices=["csv", "json"], default=None)
    ev.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    ev.set_defaults(func=_cmd_eval)

    sa = sub.add_parser("sample", help="draw random variates to CSV")
    _add_params(sa)
    sa.add_argument("--n", type=int, required=True, help="number of draws")
    sa.add_argument("--seed", type=int, default=None)
    sa.add_argument("--method", choices=["mh", "representation"], default="mh")
    sa.add_argument("--burn-in", dest="burn_in", type=int, default=None,
                    help="extra Metropolis iterations discarded before the n draws")
    sa.add_argument("--scale", type=float, default=None, help="Metropolis proposal scale")
    sa.add_argument("-o", "--output", default=None, help="output CSV (default stdout)")
    sa.set_defaults(func=_cmd_sample)

    si = sub.add_parser("simulate", help="moment-recovery study over the built-in parameter sets")
    si.add_argument("--n", type=int, default=100000, help="chain length after burn-in")
    si.add_argument("--seed", type=int, default=None)
    si.add_argument("--format", choices=["md", "csv"], default="md")
    si.add_argument("--out-dir", default=None,
                    help="directory for chain-prefix CSVs ({1e3,1e4,1e5} draws per set)")
    si.add_argument("-o", "--output", default=None)
    si.set_defaults(func=_cmd_simulate)

    ft = sub.add_parser("fit", help="fit models to a CSV series and report goodness of fit")
    ft.add_argument("input", help="CSV file with one numeric column (header optional)")
    ft.add_argument("--model", choices=["bg", "gumbel", "both"], default="both")
    center = ft.add_mutually_exclusive_group()
    center.add_argument("--center", dest="center", action="store_true", default=None,
                        help="center the (block-reduced) data by its mean before fitting")
    center.add_argument("--no-center", dest="center", action="store_false")
    ft.add_argument("--blocks", type=int, default=None, metavar="N",
                    help="reduce the series to maxima of non-overlapping blocks of length N")
    ft.add_argument("--no-partial-block", action="store_true",
                    help="drop a trailing partial block instead of keeping it")
    ft.add_argument("--ljung-box-lags", type=int, default=None)
    ft.add_argument("-o", "--output", default=None, help="report JSON (default stdout)")
    ft.set_defaults(func=_cmd_fit)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    # Numeric errors first: most package errors and LinAlgError are also ValueErrors.
    except (BGumbelError, np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UsageError, argparse.ArgumentTypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
