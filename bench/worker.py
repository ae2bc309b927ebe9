"""One workload process: import bgumbel, warm up, then time the jobs.

    python3 bench/worker.py JOBS.json RESULT.json [--setup-only]

run.py starts this in a fresh interpreter with BLAS/OpenMP limited to one
thread.  Set-up is timed from just before ``import bgumbel`` until one
untimed warm-up job of each kind has run.  The timed jobs then run in whole
rounds of the same list, ending at the round boundary nearest to the
requested seconds.  With tracing on, the first round runs untraced and the
later ones traced, so that the same jobs give the tracing overhead.
Outputs are recorded after each job's clock stops; run.py checks them.

Times are CPU seconds of this process and its children (user + system).
On a shared virtual machine the wall clock also counts time the host gives
to other guests, which here slowed a fixed loop up to threefold for seconds
at a time; CPU time does not count it.  The wall time of each job is kept
too, in the run's detail file.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    result_path = Path(argv[2])
    sys.path.insert(0, str(HERE.parent / "src"))

    t0 = cpu_s()
    import bgumbel
    import_s = cpu_s() - t0
    rss_import = peak_rss_mb()
    from bgumbel import cli
    import numpy as np

    def eval_job(job):
        p = bgumbel.BgParams(*job["params"])
        xs = np.linspace(*job["grid"])
        cdf = bgumbel.bg_cdf(p, xs)
        haz = [bgumbel.hazard(p, float(x)) for x in xs[::job["hazard_stride"]]]
        shape = bgumbel.find_modes(p)
        moments = bgumbel.bg_moment_set(p)
        info = bgumbel.fisher_information(p)
        left = bgumbel.bg_cdf(bgumbel.BgParams(*job["left"]["params"]), job["left"]["x"])
        right = bgumbel.hazard(bgumbel.BgParams(*job["right"]["params"]), job["right"]["x"])
        return cdf, haz, shape, moments, info, left, right

    def eval_record(out):
        cdf, haz, shape, moments, info, left, right = out
        return {
            "cdf": cdf.tolist(),
            "survival": [h.survival for h in haz], "hazard": [h.hazard for h in haz],
            "modes": list(shape.modes), "antimode": shape.antimode,
            "moments": {k: getattr(moments, k) for k in ("mean", "variance", "skewness", "kurtosis")},
            "fisher": info.tolist(), "left_cdf": left,
            "right": {"survival": right.survival, "hazard": right.hazard},
        }

    def cli_job(job):
        return cli.main(job["argv"])

    run, record = ((eval_job, eval_record) if spec["kind"] == "eval"
                   else (cli_job, lambda code: {"exit": code}))

    for job in spec["warmup"]:
        run(job)
    setup_s = cpu_s() - t0
    result = {"import_s": import_s, "rss_after_import_mb": rss_import, "setup_s": setup_s}
    if "--setup-only" in argv:
        result_path.write_text(json.dumps(result))
        return 0

    jobs = spec["jobs"]
    tracer = None
    times, walls, traced, outputs, mismatched = [], [], [], [], []
    start = time.perf_counter()
    while True:
        for i, job in enumerate(jobs):
            t, c = time.perf_counter(), cpu_s()
            out = run(job)
            c, t = cpu_s() - c, time.perf_counter() - t
            times.append(c)
            walls.append(t)
            traced.append(tracer is not None)
            rec = record(out)
            if len(outputs) < len(jobs):
                outputs.append(rec)
            elif rec != outputs[i]:
                mismatched.append(i)
        elapsed = time.perf_counter() - start
        per_round = elapsed * len(jobs) / len(times)
        if spec["trace"] and tracer is None:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
            run = tracer.span(spans.JOB, run)
        elif elapsed + per_round / 2 >= spec["seconds"]:
            break
    if tracer is not None:
        tracer.save(spec["trace_path"])

    result.update({
        "job_s": times, "job_wall_s": walls, "traced": traced, "rounds": len(times) // len(jobs),
        "outputs": outputs, "mismatched": mismatched, "peak_rss_mb": peak_rss_mb(),
    })
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
