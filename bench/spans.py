"""Spans around the public functions of bgumbel, recorded from outside.

``install`` wraps every public function of the traced modules and rebinds
the wrapper at every name inside the package that refers to the original,
so that ``bg_cdf`` as imported into ``model_selection`` and
``incomplete_log_moment`` as imported into ``distribution`` are traced as
well as the module attributes themselves.  Spans are kept in flat arrays in
memory (name, parent, start, end, units of work) and written once, when the
run ends.  ``layer_metrics`` turns them into the per-layer numbers.  Span
times are CPU time of the traced thread, as the job times are.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

MODULES = ("special", "distribution", "shape", "sampling", "inference",
           "model_selection", "cli")
JOB = "bench.job"


def _size(x) -> int:
    return len(x) if hasattr(x, "__len__") else 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Units of work per call, where one call does more than one unit.
_UNITS = {
    "distribution.bg_cdf": lambda a, k: _size(_arg(a, k, 1, "x")),
    "sampling.mh_sample": lambda a, k: _arg(a, k, 1, "cfg").n_iterations,
    "sampling.representation_sample": lambda a, k: _arg(a, k, 1, "n"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.units = array("q")
        self._stack = [-1]

    def span(self, name: str, fn, units=None):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = len(self.names)
        self.names.append(name)
        clock = time.thread_time_ns  # CPU time, like the job times
        stack, names_, parent, start, end, units_ = (
            self._stack, self.name, self.parent, self.start, self.end, self.units)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names_.append(nid)
            parent.append(stack[-1])
            units_.append(units(args, kwargs) if units else 1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def save(self, path) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, "i4"),
                 parent=np.frombuffer(self.parent, "i4"),
                 start=np.frombuffer(self.start, "i8"), end=np.frombuffer(self.end, "i8"),
                 units=np.frombuffer(self.units, "i8"))


def install(tracer: Tracer) -> None:
    """Rebind every public function of MODULES, wherever bgumbel binds it."""
    mods = [importlib.import_module(f"bgumbel.{m}") for m in MODULES]
    wrapped = {}
    for short, mod in zip(MODULES, mods):
        public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for attr in public:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                wrapped[fn] = tracer.span(name, fn, _UNITS.get(name))
    for mod in [importlib.import_module("bgumbel"), *mods]:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(mod, attr, wrapped[val])


def layer_metrics(path) -> dict[str, float]:
    """Per-layer metrics from a saved span file, per traced job unless noted."""
    import numpy as np

    d = np.load(path)
    names = list(d["names"])
    name, parent = d["name"], d["parent"]
    dur = (d["end"] - d["start"]) / 1e9
    units = d["units"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child

    def mask(short):
        return name == names.index(short) if short in names else np.zeros(name.size, bool)

    jobs = max(int(mask(JOB).sum()), 1)

    def per_job(values, short):
        return float(values[mask(short)].sum()) / jobs

    def ratio(num, den):
        return num / den if den else 0.0

    def under(ancestor, targets):
        """Spans named in ``targets`` with an ``ancestor`` span above them."""
        top = mask(ancestor)
        inside = np.zeros(name.size, bool)
        anc = parent.copy()
        while (up := anc >= 0).any():  # one level of ancestors per pass
            inside[up] |= top[anc[up]]
            anc[up] = parent[anc[up]]
        return int(sum((inside & mask(t)).sum() for t in targets))

    fits = int(mask("inference.fit_mle").sum())
    gfits = int(mask("inference.fit_gumbel_mle").sum())
    cdf = mask("distribution.bg_cdf")
    mh, rep = mask("sampling.mh_sample"), mask("sampling.representation_sample")
    ks = mask("model_selection.ks_test")
    ks_children = (has_parent & np.isin(parent, np.flatnonzero(ks))
                   & (cdf | mask("distribution.gumbel_cdf")))
    return {
        "special.incomplete_log_moment.calls": per_job(np.ones_like(dur), "special.incomplete_log_moment"),
        "special.incomplete_log_moment.self_ms": 1e3 * per_job(self_s, "special.incomplete_log_moment"),
        "distribution.bg_cdf.points": per_job(units, "distribution.bg_cdf"),
        "distribution.bg_cdf.us_per_point": 1e6 * ratio(float(dur[cdf].sum()), float(units[cdf].sum())),
        "distribution.bg_pdf.self_ms": 1e3 * per_job(self_s, "distribution.bg_pdf"),
        "distribution.bg_moment_set.self_ms": 1e3 * per_job(self_s, "distribution.bg_moment_set"),
        "shape.hazard.calls": per_job(np.ones_like(dur), "shape.hazard"),
        "shape.hazard.self_ms": 1e3 * per_job(self_s, "shape.hazard"),
        "shape.find_modes.self_ms": 1e3 * per_job(self_s, "shape.find_modes"),
        "inference.fit_mle.self_ms": 1e3 * ratio(float(self_s[mask("inference.fit_mle")].sum()), fits),
        "inference.fit_mle.objective_calls": ratio(under("inference.fit_mle", (
            "inference.log_likelihood", "inference.score", "inference.hessian")), fits),
        "inference.fit_gumbel_mle.self_ms": 1e3 * ratio(float(self_s[mask("inference.fit_gumbel_mle")].sum()), gfits),
        "inference.fisher_information.self_ms": 1e3 * per_job(self_s, "inference.fisher_information"),
        "model_selection.ks_test.self_ms": 1e3 * per_job(self_s, "model_selection.ks_test"),
        "model_selection.ks_test.cdf_calls": float(ks_children.sum()) / jobs,
        "model_selection.compare_models.self_ms": 1e3 * per_job(self_s, "model_selection.compare_models"),
        "model_selection.prep_ms": 1e3 * sum(per_job(dur, n) for n in (
            "model_selection.read_series_csv", "model_selection.block_maxima",
            "model_selection.ljung_box")),
        "sampling.mh_sample.iters_per_s": ratio(float(units[mh].sum()), float(dur[mh].sum())),
        "sampling.representation_sample.self_ms": 1e3 * per_job(self_s, "sampling.representation_sample"),
        "sampling.representation_sample.draws_per_s": ratio(float(units[rep].sum()), float(dur[rep].sum())),
        "cli.main.self_ms": 1e3 * per_job(self_s, "cli.main"),
    }
