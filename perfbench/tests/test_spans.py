"""Self times, traced jobs and the metric list in BENCHMARK.json agree."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spans

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ["job", 0.0, 10.0, -1],
        ["cli", 0.5, 9.5, 0],
        ["knn.error_norm", 1.0, 5.0, 1],
        ["knn.predict_1d", 2.0, 4.0, 2],
        ["knn.predict_1d", 6.0, 7.0, 1],
    ]
    st = spans.self_times(recorded)
    assert st == {"job": 1.0, "cli": 4.0, "knn.error_norm": 2.0, "knn.predict_1d": 3.0}
    assert sum(st.values()) == 10.0


def test_tracer_nests_spans_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    root = tracer.open("job")
    tracer.call("cli", lambda: tracer.call("experiments", lambda: None))
    tracer.count("knn.fit_calls", 2)
    tracer.distinct("knn.fits", "a")
    tracer.close(root)
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    layers = spans.layer_metrics(tracer)
    assert list(layers) == list(spans.LAYER_UNITS)
    assert layers["knn.distinct_fit_frac"] == 0.5
    assert layers["trace.job_s"] == 5.0


def _traced_job(tmp_path, workload, args):
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "job.py"), str(record), workload, "1", *args],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(record.read_text())


def _accounted(layers):
    return sum(layers[name] for name in spans.SELF_TIME_SPANS) + layers["trace.unattributed_s"]


def test_traced_cli_job_accounts_for_its_time(tmp_path):
    out = tmp_path / "r.csv"
    rec = _traced_job(tmp_path, "exp1", ["experiment", "exp1", "--n-grid", "100,200",
                                         "--trials", "3", "--out", str(out)])
    layers = rec["layers"]
    assert layers["knn.fit_calls"] == 6
    assert layers["classify.confusion_calls"] == 12
    assert layers["threshold_opt.distinct_input_frac"] == 0.5
    assert layers["threshold_opt.rows"] == 2 * 3 * (100 + 200)
    assert layers["synth.rows"] == 3 * (100 + 200) + 6 * 1000
    assert layers["io.results_kb"] == pytest.approx(
        (out.stat().st_size + (tmp_path / "r_summary.csv").stat().st_size) / 1024)
    assert _accounted(layers) == pytest.approx(layers["trace.job_s"], rel=1e-9)
    assert layers["trace.job_s"] == rec["job_s"]


def test_traced_library_job_counts_one_distinct_sort_input(tmp_path):
    import gen

    table = tmp_path / "tune.csv"
    gen.write_tune_csv(table, *gen.tune_table(1, n=2_000))
    rec = _traced_job(tmp_path, "tune-large", [str(table)])
    layers = rec["layers"]
    assert layers["threshold_opt.distinct_input_frac"] == pytest.approx(1 / 9)
    assert layers["threshold_opt.rows"] == 8 * 2_000
    assert layers["io.load_mb"] == pytest.approx(table.stat().st_size / 2**20)
    assert _accounted(layers) == pytest.approx(layers["trace.job_s"], rel=1e-9)


def test_benchmark_json_lists_every_reported_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == ["exp1", "exp2", "fraud-nd", "tune-large"]
    assert [m["name"] for m in doc["end_to_end"]] == ["job_s", "setup_s", "peak_rss_mb", "ok_frac"]
