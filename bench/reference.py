"""Print the single-call reference figures quoted in bench/README.md.

    python3 bench/reference.py

Each figure is the fastest of five CPU-time measurements in this process,
after one untimed call.  ``import bgumbel`` is timed in a fresh interpreter.
"""
from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import run  # noqa: F401  (limits BLAS and OpenMP to one thread before numpy loads)

import numpy as np  # noqa: E402

import oracle  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
FIXTURES = HERE.parent / "tests" / "fixtures"


def best(fn, repeats: int = 5) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t = time.process_time()
        fn()
        times.append(time.process_time() - t)
    return min(times)


def main() -> None:
    code = ("import time; t = time.process_time(); import bgumbel; "
            "print(time.process_time() - t)")
    imports = [float(subprocess.run([sys.executable, "-c", code], cwd=HERE.parent / "src",
                                    capture_output=True, text=True, check=True).stdout)
               for _ in range(5)]
    import bgumbel as bg

    p = bg.BgParams(1.0, 1.0, 2.0)
    grid = np.linspace(-2.0, 21.0, 200)
    rng = np.random.default_rng(0)
    n5000 = oracle.Law(1.0, 1.0, 2.0).inverse_sample(5000, rng)
    n500 = np.loadtxt(FIXTURES / "bimodal500.csv", skiprows=1)
    raw = np.loadtxt(FIXTURES / "series1774.csv", skiprows=1)
    chain = bg.McmcConfig(n_iterations=100_000, seed=1)
    rows = [
        ("import bgumbel", min(imports), "s"),
        ("bg_cdf, 200-point grid, per point", best(lambda: bg.bg_cdf(p, grid)) / 200 * 1e6, "us"),
        ("mh_sample, per iteration", best(lambda: bg.mh_sample(p, chain)) / 1e5 * 1e6, "us"),
        ("fit_mle, bimodal500 (n = 500)", best(lambda: bg.fit_mle(n500)) * 1e3, "ms"),
        ("fit_mle, BG(1, 1, 2) draws (n = 5000)", best(lambda: bg.fit_mle(n5000)) * 1e3, "ms"),
        ("compare_models, bimodal500", best(lambda: bg.compare_models(n500)) * 1e3, "ms"),
        ("compare_models, raw series1774", best(lambda: bg.compare_models(raw)) * 1e3, "ms"),
    ]
    for name, value, unit in rows:
        print(f"{name:40s} {value:10.3g} {unit}")


if __name__ == "__main__":
    main()
