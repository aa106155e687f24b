"""Span and counter recording around calls into stochthresh's modules.

The program is measured from outside: :func:`install` replaces public
names where the calling module binds them (``stochthresh.experiments.
optimize_threshold``, ``KnnModel.fit``/``predict``, ...) with wrappers that
record a span per call.  Spans (name, start, end, parent) and counters are
kept in memory and written out when the job ends.  Nothing under ``src/``
is changed.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import os
import time

import numpy as np


class Tracer:
    """In-memory span stack plus named counters for one job."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: collections.Counter = collections.Counter()
        self.seen: dict[str, set] = collections.defaultdict(set)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def count(self, name: str, value=1) -> None:
        self.counters[name] += value

    def distinct(self, name: str, key) -> None:
        self.seen[name].add(key)

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)


def self_times(spans) -> dict[str, float]:
    """Per-name sum of span duration minus the time its direct children cover.

    Children of one span never overlap (the program is single-threaded), so
    the covered time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = collections.defaultdict(float)
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(memoryview(np.ascontiguousarray(a)).cast("B"))
    return h.hexdigest()


def _patch(tracer: Tracer, owner, attr: str, span: str, before=None, after=None):
    """Replace ``owner.attr`` with a wrapper that records span ``span``.

    ``before(args, kwargs)`` runs ahead of the span and ``after(result, args,
    kwargs)`` after it, so counter work stays outside the measured call.
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        result = tracer.call(span, fn, *args, **kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result

    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every measured layer boundary; call once per process."""
    from stochthresh import cli, experiments, io, knn, metrics, threshold_opt

    def sorts(scores):
        tracer.count("threshold_opt.sort_calls")
        tracer.distinct("threshold_opt.inputs", _digest(scores))

    def sweep_input(args, kwargs):
        scores = np.asarray(args[0][0])
        tracer.count("threshold_opt.rows", scores.size)
        sorts(scores)

    for owner in (experiments, threshold_opt):
        _patch(tracer, owner, "optimize_threshold", "threshold_opt.sweep", sweep_input)
        _patch(tracer, owner, "optimize_threshold_deterministic", "threshold_opt.det",
               sweep_input)
    _patch(tracer, experiments, "optimize_population_threshold", "threshold_opt.population",
           lambda a, k: tracer.count("threshold_opt.population_calls"))
    _patch(tracer, threshold_opt, "population_confusion_parts", "classify.population_parts",
           lambda a, k: tracer.count("classify.population_parts_calls"))
    _patch(tracer, experiments, "empirical_confusion", "classify.confusion",
           lambda a, k: tracer.count("classify.confusion_calls"))
    _patch(tracer, experiments, "evaluate_cmm", "metrics.evaluate",
           lambda a, k: tracer.count("metrics.evaluate_calls"))
    _patch(tracer, metrics, "roc_and_auroc", "metrics.roc",
           lambda a, k: sorts(np.asarray(a[0])))

    fit = knn.KnnModel.fit
    predict = knn.KnnModel.predict

    def traced_fit(cls, covariates, labels, k):
        tracer.count("knn.fit_calls")
        tracer.distinct("knn.fits", _digest(covariates, labels))
        return tracer.call("knn.fit", fit, covariates, labels, k)

    def traced_predict(self, queries):
        rows = int(np.asarray(queries).size // self.d) or 1
        if self.d == 1:
            tracer.count("knn.predict_1d_rows", rows)
            return tracer.call("knn.predict_1d", predict, self, queries)
        tracer.count("knn.predict_nd_rows", rows)
        tracer.count("knn.nd_pairs", rows * self.n)
        return tracer.call("knn.predict_nd", predict, self, queries)

    knn.KnnModel.fit = classmethod(functools.wraps(fit.__func__)(traced_fit))
    knn.KnnModel.predict = functools.wraps(predict)(traced_predict)
    for name in ("uniform_error", "average_error"):
        _patch(tracer, experiments, name, "knn.error_norm")

    _patch(tracer, experiments, "generate", "synth.generate",
           lambda a, k: tracer.count("synth.rows", int(a[1])))

    def load_size(args, kwargs):
        tracer.count("io.load_bytes", os.path.getsize(args[0]))

    def written_size(result, args, kwargs):
        tracer.count("io.results_bytes", os.path.getsize(args[0]))

    for owner in (experiments, io):
        _patch(tracer, owner, "load_csv", "io.load", load_size)
    _patch(tracer, experiments, "zscore", "io.zscore")
    _patch(tracer, experiments, "split", "io.split")
    _patch(tracer, experiments, "write_results_csv", "io.results_write", after=written_size)

    for name in ("run_experiment1", "run_experiment2", "run_fraud_pipeline"):
        _patch(tracer, cli, name, "experiments")


#: Every per-layer metric with its unit, in report order.
LAYER_UNITS = {
    "threshold_opt.sweep_s": "s",
    "threshold_opt.det_s": "s",
    "threshold_opt.rows": "count",
    "threshold_opt.distinct_input_frac": "ratio",
    "threshold_opt.population_s": "s",
    "threshold_opt.population_calls": "count",
    "classify.confusion_s": "s",
    "classify.confusion_calls": "count",
    "classify.population_parts_s": "s",
    "classify.population_parts_calls": "count",
    "metrics.roc_s": "s",
    "metrics.evaluate_s": "s",
    "metrics.evaluate_calls": "count",
    "knn.fit_s": "s",
    "knn.fit_calls": "count",
    "knn.distinct_fit_frac": "ratio",
    "knn.predict_1d_s": "s",
    "knn.predict_1d_rows": "count",
    "knn.predict_nd_s": "s",
    "knn.predict_nd_rows": "count",
    "knn.nd_pairs": "count",
    "knn.error_norm_s": "s",
    "synth.generate_s": "s",
    "synth.rows": "count",
    "io.load_s": "s",
    "io.load_mb": "MiB",
    "io.zscore_s": "s",
    "io.split_s": "s",
    "io.results_write_s": "s",
    "io.results_kb": "KiB",
    "experiments.self_s": "s",
    "cli.self_s": "s",
    "trace.job_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

#: Span name behind each self-time metric.
SELF_TIME_SPANS = {
    name: name[: -len("_s")].replace(".self", "")
    for name, unit in LAYER_UNITS.items()
    if unit == "s" and not name.startswith("trace.")
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced job, keyed by their benchmark names.

    Times are self times; a layer the job never called reads 0.  The
    tracing overhead needs an untraced job and is filled in by the caller.
    """
    st = self_times(tracer.spans)
    c = tracer.counters

    def ratio(seen: str, calls: str) -> float:
        return len(tracer.seen[seen]) / c[calls] if c[calls] else 0.0

    out = {name: st.get(span, 0.0) for name, span in SELF_TIME_SPANS.items()}
    out.update({
        "threshold_opt.rows": c["threshold_opt.rows"],
        "threshold_opt.distinct_input_frac": ratio("threshold_opt.inputs",
                                                   "threshold_opt.sort_calls"),
        "threshold_opt.population_calls": c["threshold_opt.population_calls"],
        "classify.confusion_calls": c["classify.confusion_calls"],
        "classify.population_parts_calls": c["classify.population_parts_calls"],
        "metrics.evaluate_calls": c["metrics.evaluate_calls"],
        "knn.fit_calls": c["knn.fit_calls"],
        "knn.distinct_fit_frac": ratio("knn.fits", "knn.fit_calls"),
        "knn.predict_1d_rows": c["knn.predict_1d_rows"],
        "knn.predict_nd_rows": c["knn.predict_nd_rows"],
        "knn.nd_pairs": c["knn.nd_pairs"],
        "synth.rows": c["synth.rows"],
        "io.load_mb": c["io.load_bytes"] / 2**20,
        "io.results_kb": c["io.results_bytes"] / 2**10,
        "trace.job_s": sum(end - start for _n, start, end, parent in tracer.spans
                           if parent < 0),
        "trace.unattributed_s": st.get("job", 0.0),
        "trace.overhead_s": 0.0,
    })
    return {name: out[name] for name in LAYER_UNITS}
