"""Benchmark of bgumbel: one workload per run, timed from outside the library.

    python3 bench/run.py --workload {gof,eval,sample} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package need not be installed.  The
run generates its inputs and reference values from the seed, then starts
fresh interpreters (bench/worker.py) that import bgumbel from ``src``: a
few that only set up, for the median set-up time, and one that also runs
the timed jobs.  It checks every output against the benchmark's own
oracles and prints a summary on stderr and, as the last line of stdout,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics from the
spans of a traced run (--trace 1).  Details go to bench/out/.  The exit
code is non-zero only when a workload process crashes.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("BGUMBEL_SEED", None)

import numpy as np  # noqa: E402  (after the thread limits)

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETUPS = 3  # set-ups per run, the timed worker's included
WORKER_TIMEOUT_S = 170


def start_worker(spec_path: Path, result_path: Path, log_path: Path, *extra) -> dict:
    with open(log_path, "a") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path), *extra],
            stdin=subprocess.DEVNULL, stdout=log, stderr=log, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        tail = log_path.read_text().splitlines()[-5:]
        raise RuntimeError(f"workload process exited with {proc.returncode}: " + "\n".join(tail))
    return json.loads(result_path.read_text())


def end_to_end(name: str, setups: list, res: dict, metas: list) -> dict:
    times = np.array([t for t, tr in zip(res["job_s"], res["traced"]) if not tr])
    units = sum(workloads.WORKLOADS[name][2](m) for m in metas) * (times.size // len(metas))
    return {
        "setup_s": statistics.median(setups),
        "job_p50_ms": 1e3 * float(np.median(times)),
        "job_tail_ms": 1e3 * float(np.quantile(times, workloads.TAIL_QUANTILE[name])),
        "work_per_s": units / float(times.sum()),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(trace_path: Path, setups: list, res: dict, jobs: list) -> dict:
    out = spans.layer_metrics(trace_path)
    job_s, traced = np.array(res["job_s"]), np.array(res["traced"])
    n = len(jobs)
    plain = job_s[~traced][:n].sum()
    with_spans = job_s[traced].reshape(-1, n).mean(axis=0).sum()
    out["trace.overhead_pct"] = 100.0 * (with_spans / plain - 1.0)
    out["import.bgumbel_s"] = statistics.median(s["import_s"] for s in setups)
    out["rss_after_import_mb"] = statistics.median(s["rss_after_import_mb"] for s in setups)
    sizes = [os.path.getsize(j["output"]) for j in jobs if "output" in j]
    out["cli.output_bytes"] = float(np.mean(sizes)) if sizes else 0.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    make, check, _ = workloads.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        warmup, jobs, metas = make(args.seed, work)
        spec = {"kind": args.workload, "seconds": args.seconds, "trace": bool(args.trace),
                "trace_path": str(OUT / f"spans-{args.workload}.npz"),
                "warmup": warmup, "jobs": jobs}
        spec_path = work / "jobs.json"
        spec_path.write_text(json.dumps(spec))
        log = OUT / f"{tag}.log"
        log.write_text("")
        setups = [start_worker(spec_path, work / f"setup{k}.json", log, "--setup-only")
                  for k in range(SETUPS - 1)]
        res = start_worker(spec_path, work / "result.json", log)
        setups.append(res)

        rounds = res["rounds"]
        notes: dict = {}
        attempted = failed = 0
        unexpected = []
        for i, (job, meta, rec) in enumerate(zip(jobs, metas, res["outputs"])):
            for label, ok, reasons in check(job, meta, rec, notes):
                ok = ok and i not in res["mismatched"]
                attempted += rounds
                if not ok:
                    failed += rounds
                    if label not in workloads.KNOWN_FAILURES:
                        unexpected.append({"job": i, "op": label, "why": reasons or ["differs between rounds"]})
        if args.trace:
            values = per_layer(Path(spec["trace_path"]), setups, res, jobs)
        else:
            values = end_to_end(args.workload, [s["setup_s"] for s in setups], res, metas)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in DECLARED["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {k: (values[k], units[k]) for k in units}

    summary = {"correct": not unexpected, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = {**summary, "jobs_per_round": len(jobs), "rounds": rounds,
              "tail_quantile": workloads.TAIL_QUANTILE[args.workload],
              "unexpected_failures": unexpected, "notes": notes,
              "setup_s": [s["setup_s"] for s in setups], "job_s": res["job_s"],
              "job_wall_s": res["job_wall_s"]}
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs x {rounds} rounds, "
          f"{failed}/{attempted} operations failed, "
          f"{len(unexpected)} unexpectedly", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"  {k:45s} {v:14.6g} {u}", file=sys.stderr)
    for key, items in notes.items():
        print(f"  {key}: {len(items)}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
