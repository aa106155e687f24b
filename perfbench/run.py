"""stochthresh benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout that holds ``src/stochthresh``::

    python3 perfbench/run.py --workload exp1 --seed 1 --seconds 20 --trace 0

Workloads (single process, ``--workers 1``):

* ``exp1``       ``stochthresh experiment exp1`` at its defaults: many small,
                 tie-heavy sweeps; per-call overhead of the sweep shows here.
* ``exp2``       ``stochthresh experiment exp2`` at its defaults: k-NN error
                 norms dominate; a sweep-kernel change should barely move it.
* ``fraud-nd``   ``stochthresh fraud --trials 1`` at its default k-list on a
                 generated d = 10 logistic table: n-d k-NN predict dominates.
* ``tune-large`` in-process library sequence on a generated 1e6-row scored
                 CSV: load, ROC, both sweeps for four measures.

Each job runs in a fresh interpreter (``job.py``).  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced jobs and reports the per-layer metrics plus the
tracing overhead.  Outputs are checked after the timed jobs.  Human-readable
lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from job import MEASURES  # noqa: E402

#: Rows in a results file and its summary, per workload, at the defaults used.
EXPECTED_ROWS = {"exp1": (2000, 20), "exp2": (2000, 20), "fraud-nd": (14, 14)}
FRAUD_K_LIST = (2, 4, 8, 16, 32, 64, 128)
ORACLE_ROWS = 2_000
SETUP_REPEATS = 9
#: Even exp2 (about 11 s a job) reports a median of three jobs.
MIN_JOBS = 3
#: A run must exit within 180 s; no job starts after this many seconds.
HARD_LIMIT_S = 150.0
JOB_TIMEOUT_S = 160.0

#: Rows of the hand-measured baseline table that this benchmark covers:
#: (path, size, seconds, workload, how the benchmark measures the same path).
BASELINE = (
    ("optimize_threshold", "n = 1e6", 0.574, "tune-large", "threshold_opt.sweep_s per call"),
    ("optimize_threshold_deterministic", "n = 1e6", 0.494, "tune-large",
     "threshold_opt.det_s per call"),
    ("CLI experiment exp1", "defaults", 4.2, "exp1", "setup_s + job_s"),
    ("CLI experiment exp2", "defaults", 13.4, "exp2", "setup_s + job_s"),
)


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile_report(values) -> str:
    """Highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it."""
    ordered = sorted(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(ordered) * (1.0 - q / 100.0) >= 10:
            idx = min(len(ordered) - 1, int(len(ordered) * q / 100.0))
            return f"p{q:g} = {ordered[idx]:.4f} s"
    return "no percentile has ten samples beyond it"


def environment(args, tables) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": tables,
    }


def prepare(workload: str, seed: int, work: Path):
    """Write the workload's inputs; return (job argv function, table info, check data)."""
    if workload in ("exp1", "exp2"):
        def argv(out: Path):
            return ["experiment", workload, "--seed", str(seed), "--workers", "1",
                    "--out", str(out)]
        return argv, {"n_grid": "10 sizes, 1e2..1e4", "trials": 100}, None
    if workload == "fraud-nd":
        x, y = gen.fraud_table(seed)
        table = work / "fraud.csv"
        gen.write_fraud_csv(table, x, y)

        def argv(out: Path):
            return ["fraud", "--data", str(table), "--seed", str(seed), "--trials", "1",
                    "--workers", "1", "--k-list", ",".join(map(str, FRAUD_K_LIST)),
                    "--out", str(out)]
        return argv, gen.describe(y, x.shape[1]), None
    score_i, y, draw_i = gen.tune_table(seed)
    table = work / "tune.csv"
    gen.write_tune_csv(table, score_i, y, draw_i)
    arrays = gen.tune_arrays(score_i, y, draw_i)
    return (lambda out: [str(table)]), gen.describe(y, 1, arrays[0]), arrays


def measure_setup(env) -> list[float]:
    """Wall time of a fresh interpreter importing ``stochthresh.cli``."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import stochthresh.cli"], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def run_job(workload, argv, trace: bool, job_dir: Path, env, timeout: float) -> dict:
    job_dir.mkdir()
    record_path = job_dir / "record.json"
    cmd = [sys.executable, str(HERE / "job.py"), str(record_path), workload,
           "1" if trace else "0", *argv]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s", "traced": trace}
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {"ok": False}
    if proc.returncode != 0:
        record["ok"] = False
        record.setdefault("error", proc.stderr.decode("utf-8", "replace")[-2000:])
    record["traced"] = trace
    return record


def check_job(workload, record, job_dir: Path, arrays, verdicts: dict) -> tuple[list, str]:
    """Problems with one job's outputs, and the sha256 of its results."""
    if not record.get("ok"):
        return [f"job failed: {record.get('error', 'no record')}"], ""
    if workload == "tune-large":
        blob = check.canonical(record["results"])
        digest = check.sha256(blob)
        if digest not in verdicts:
            verdicts[digest] = check.check_tune_results(record["results"], *arrays)
        return verdicts[digest], digest
    results = job_dir / "results.csv"
    summary = job_dir / "results_summary.csv"
    try:
        data, sdata = results.read_bytes(), summary.read_bytes()
    except OSError as exc:
        return [f"missing result file: {exc}"], ""
    digest = check.sha256(data + b"\0" + sdata)
    if digest not in verdicts:
        verdicts[digest] = check.check_result_files(workload, data, sdata,
                                                    *EXPECTED_ROWS[workload])
    return verdicts[digest], digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("exp1", "exp2", "fraud-nd", "tune-large"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "stochthresh" / "__init__.py").is_file():
        print(f"error: {src / 'stochthresh'} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=str(src))
    out_dir = root / ".perfbench_out"
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        return _run(args, env, work, out_dir, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _run(args, env, work: Path, out_dir: Path, start: float) -> int:
    job_argv, table, arrays = prepare(args.workload, args.seed, work)
    info = environment(args, table)
    setup = measure_setup(env) if not args.trace else []

    # Jobs run back to back; one starts only if a typical job still fits in
    # --seconds, so a run never overshoots by a whole long job.
    records, walls, jobs_start = [], [], time.perf_counter()
    while True:
        now = time.perf_counter()
        typical = _median(walls)
        if len(records) >= MIN_JOBS and now - jobs_start + typical > args.seconds:
            break
        if records and now - start + 1.5 * typical > HARD_LIMIT_S:
            break
        i = len(records)
        job_dir = work / f"job{i}"
        traced = bool(args.trace) and i % 2 == 1
        records.append(run_job(args.workload, job_argv(job_dir / "results.csv"), traced,
                               job_dir, env, JOB_TIMEOUT_S - (now - start)))
        records[-1]["dir"] = job_dir
        walls.append(time.perf_counter() - now)

    # Output check, outside every timed region.
    verdicts: dict = {}
    problems: list[str] = []
    digests = []
    failed = 0
    for i, rec in enumerate(records):
        job_problems, digest = check_job(args.workload, rec, rec["dir"], arrays, verdicts)
        if digest and digests and digest != digests[0]:
            job_problems.append(f"results differ from an earlier job ({digest} != {digests[0]})")
        if digest:
            digests.append(digest)
        if job_problems:
            failed += 1
            problems.extend(f"job {i}: {p}" for p in job_problems)
    if arrays is not None:
        oracle = tuple(a[:ORACLE_ROWS] for a in arrays)
        problems.extend(f"oracle: {p}" for p in check.check_sweep_oracle(MEASURES, *oracle))

    attempted = len(records)
    plain = [r for r in records if not r["traced"] and r.get("ok")]
    traced = [r for r in records if r["traced"] and r.get("ok")]
    job_s = [r["job_s"] for r in plain]
    lines = [f"env {json.dumps(info, sort_keys=True)}"]
    if args.trace:
        metrics = _layer_metrics(traced, job_s)
        units = spans.LAYER_UNITS
        for i, rec in enumerate(records):
            if rec["traced"] and rec.get("ok"):
                layers = rec["layers"]
                attributed = sum(layers[name] for name in spans.SELF_TIME_SPANS)
                lines.append(f"job {i}: layer self times sum to {attributed:.4f} s of traced "
                             f"job_s {layers['trace.job_s']:.4f} s")
    else:
        metrics = {
            "job_s": _median(job_s),
            "setup_s": _median(setup),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "ratio"}
        lines.append(f"job_s samples = {len(job_s)} {[round(t, 4) for t in job_s]}, "
                     f"{_percentile_report(job_s)}")
        lines.append(f"setup_s samples = {len(setup)} {[round(t, 4) for t in setup]}")
    lines.append(f"fail_frac = {failed / attempted:.4f} ratio ({failed} of {attempted} jobs, "
                 f"{len(traced)} traced)")
    for name, value in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {units[name]}")
    for path, size, seconds, workload, how in BASELINE:
        if workload != args.workload:
            continue
        if how.startswith("setup_s") and not args.trace:
            measured = f"{metrics['setup_s'] + metrics['job_s']:.3f} s"
        elif how.startswith("threshold_opt") and args.trace:
            key = how.split()[0]
            measured = f"{metrics[key] / len(MEASURES):.3f} s"
        else:
            continue
        lines.append(f"baseline {path} ({size}): table {seconds:.3f} s, measured {measured} "
                     f"as {how}")
    lines.append(f"sha256 results {sorted(set(digests))}")
    lines.extend(f"check FAILED {p}" for p in problems)
    print("\n".join(lines))

    if args.trace:
        _write_spans(out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl", records)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_metrics(traced: list, plain_job_s: list) -> dict[str, float]:
    """Median of each per-layer metric over the traced jobs."""
    out = {name: _median([r["layers"][name] for r in traced]) for name in spans.LAYER_UNITS}
    out["trace.overhead_s"] = out["trace.job_s"] - _median(plain_job_s)
    return out


def _write_spans(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for i, rec in enumerate(records):
            for name, t0, t1, parent in rec.get("spans", ()):
                fh.write(json.dumps({"job": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
