"""Run one benchmark job in a fresh interpreter and write its record as JSON.

Usage (from the root of a checkout, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/job.py RECORD.json WORKLOAD TRACE ARG...

For the CLI workloads ARG... is the ``stochthresh`` command line; for
``tune-large`` it is the scored CSV path.  The record holds the job's wall
time, the process's peak RSS, the job's results where the output check
needs them and, when TRACE is 1, the per-layer metrics and the spans.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback

import spans

MEASURES = ("f_beta:1", "tp_tn_product", "mcc", "accuracy")


def tune_large(path: str) -> dict:
    """The in-process library sequence: load, ROC, then both sweeps per measure."""
    from stochthresh import io, metrics, threshold_opt
    from stochthresh.metrics import CmmSpec

    ds = io.load_csv(path, label_column="label", draw_column="draw")
    scores, labels, draws = ds.covariates[:, 0], ds.labels, ds.draws
    roc = metrics.roc_and_auroc(scores, labels)
    out = {"auroc": roc.auroc, "knots": len(roc.knots), "measures": {}}
    for label in MEASURES:
        spec = CmmSpec.parse(label)
        sto = threshold_opt.optimize_threshold((scores, labels, draws), spec)
        det = threshold_opt.optimize_threshold_deterministic((scores, labels), spec)
        out["measures"][label] = {
            method: [r.threshold.t, r.threshold.p, r.metric_value, r.classification_prefix_index]
            for method, r in (("stochastic", sto), ("deterministic", det))
        }
    return out


def main(argv: list[str]) -> int:
    record_path, workload, trace, args = argv[0], argv[1], argv[2] == "1", argv[3:]
    from stochthresh import cli

    tracer = spans.Tracer()
    if trace:
        spans.install(tracer)
    record: dict = {"workload": workload, "ok": False}
    root = tracer.open("job")
    try:
        if workload == "tune-large":
            record["results"] = tune_large(args[0])
        else:
            tracer.call("cli", cli.main, args, prog_name="stochthresh", standalone_mode=False)
        record["ok"] = True
    except Exception:  # the job's failure is reported, not raised
        record["error"] = traceback.format_exc()
    tracer.close(root)
    _name, start, end, _parent = tracer.spans[root]
    record["job_s"] = end - start
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        record["layers"] = spans.layer_metrics(tracer)
        record["spans"] = tracer.spans
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
