"""Output checks that any correct version of the program passes.

The expected columns are the documented result-file layouts, written out
here rather than imported, so a change to the program's columns fails the
check instead of moving it.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
import math

RESULT_COLUMNS = {
    "exp1": ("n", "trial", "seed", "k", "r", "metric", "method", "value", "regret"),
    "exp2": ("n", "trial", "seed", "k", "r", "metric", "eta",
             "linf", "l1", "f1_regret", "f1_regret_stochastic"),
    "fraud-nd": ("trial", "seed", "k", "imbalance_ratio", "method", "f1"),
}
SUMMARY_COLUMNS = {
    "exp1": ("n", "method", "trials", "mean_value", "mean_regret", "ci95_half"),
    "exp2": ("n", "eta", "trials", "k", "r", "mean_linf", "ci95_linf", "mean_l1", "ci95_l1",
             "mean_f1_regret", "ci95_f1_regret",
             "mean_f1_regret_stochastic", "ci95_f1_regret_stochastic"),
    "fraud-nd": ("k", "method", "trials", "mean_f1", "se_f1"),
}
#: Columns whose cells must parse as finite floats.
FLOAT_COLUMNS = {
    "exp1": ("value", "regret"),
    "exp2": ("linf", "l1", "f1_regret", "f1_regret_stochastic"),
    "fraud-nd": ("f1",),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _table(text: str):
    body = [line for line in text.splitlines(keepends=True) if not line.startswith("#")]
    rows = list(csv.reader(_io.StringIO("".join(body))))
    return tuple(rows[0]) if rows else (), rows[1:]


def check_result_files(workload: str, results: bytes, summary: bytes,
                       rows: int, summary_rows: int) -> list[str]:
    """Problems with one job's results CSV and its summary; empty when correct."""
    problems = []
    for what, data, columns, expect in (
        ("results", results, RESULT_COLUMNS[workload], rows),
        ("summary", summary, SUMMARY_COLUMNS[workload], summary_rows),
    ):
        header, body = _table(data.decode("utf-8"))
        if header != columns:
            problems.append(f"{what}: header {header} != {columns}")
            continue
        if len(body) != expect:
            problems.append(f"{what}: {len(body)} rows, expected {expect}")
        if any(len(r) != len(columns) for r in body):
            problems.append(f"{what}: ragged rows")
            continue
        if what == "results":
            for col in FLOAT_COLUMNS[workload]:
                j = columns.index(col)
                try:
                    finite = all(math.isfinite(float(r[j])) for r in body)
                except ValueError:
                    finite = False
                if not finite:
                    problems.append(f"{what}: column {col} holds a non-finite or non-number cell")
    return problems


def canonical(results: dict) -> bytes:
    """Stable byte form of a tune-large result record."""
    return json.dumps(results, sort_keys=True, separators=(",", ":")).encode("utf-8")


def check_tune_results(results: dict, scores, labels, draws) -> list[str]:
    """Re-apply each returned threshold and compare with its reported value.

    Also requires the stochastic value to be at least the deterministic
    one for every measure.
    """
    from stochthresh.classify import StochasticThreshold, empirical_confusion
    from stochthresh.metrics import CmmSpec, evaluate_cmm

    problems = []
    for label, by_method in results["measures"].items():
        spec = CmmSpec.parse(label)
        for method, (t, p, value, _prefix) in by_method.items():
            sample = (scores, labels, draws if method == "stochastic" else None)
            got = evaluate_cmm(spec, empirical_confusion(StochasticThreshold(t, p), sample))
            if got != value:
                problems.append(f"{label} {method}: threshold ({t!r}, {p!r}) gives "
                                f"{got!r}, reported {value!r}")
        if by_method["stochastic"][2] < by_method["deterministic"][2]:
            problems.append(f"{label}: stochastic value below deterministic value")
    if not 0.0 <= results["auroc"] <= 1.0:
        problems.append(f"auroc {results['auroc']!r} outside [0, 1]")
    return problems


def _bits(result) -> tuple:
    th = result.threshold
    return (float(th.t).hex(), float(th.p).hex(), float(result.metric_value).hex(),
            result.classification_prefix_index)


def check_sweep_oracle(measures, scores, labels, draws) -> list[str]:
    """``optimize_threshold`` equals ``brute_force_threshold`` bit for bit."""
    from stochthresh.metrics import CmmSpec
    from stochthresh.threshold_opt import brute_force_threshold, optimize_threshold

    problems = []
    sample = (scores, labels, draws)
    for label in measures:
        spec = CmmSpec.parse(label)
        fast = _bits(optimize_threshold(sample, spec))
        slow = _bits(brute_force_threshold(sample, spec))
        if fast != slow:
            problems.append(f"{label}: sweep {fast} != brute force {slow}")
    return problems
