"""The benchmark's tracer wraps package names from outside; they must exist.

``perfbench/spans.py`` replaces functions by the names their calling
modules bind.  A rename inside the package makes ``install`` raise, so it
is run here in a fresh interpreter, keeping its patches out of this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import write_csv

ROOT = Path(__file__).resolve().parents[1]


def _env() -> dict:
    """This environment with the package source first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_benchmark_tracer_installs_against_the_package():
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import spans; "
        "spans.install(spans.Tracer())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench")],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _d3_csv(path):
    gen = np.random.default_rng(7)
    x = gen.standard_normal((200, 3))
    labels = (gen.random(200) < 1.0 / (1.0 + np.exp(-x @ [1.5, -1.0, 0.8]))).astype(int)
    write_csv(path, ["f0", "f1", "f2", "label"],
              [[*map(repr, row), int(y)] for row, y in zip(x.tolist(), labels)])
    return str(path)


def _tune_csv(path):
    """A small scored table in the shape of the tune-large input."""
    gen = np.random.default_rng(8)
    scores = (gen.integers(0, 101, 300) / 100.0).tolist()
    labels = (gen.random(300) < scores).astype(int).tolist()
    draws = gen.random(300).tolist()
    write_csv(path, ["score", "label", "draw"],
              [[repr(s), y, repr(z)] for s, y, z in zip(scores, labels, draws)])
    return str(path)


@pytest.mark.parametrize("workload, args", [
    ("exp1", ["experiment", "exp1", "--n-grid", "20,40", "--trials", "2"]),
    ("exp2", ["experiment", "exp2", "--n-grid", "20,40", "--trials", "2"]),
    ("fraud-nd", ["fraud", "--trials", "1", "--k-list", "2,4", "--data"]),
    ("tune-large", []),
])
def test_traced_benchmark_job_runs(tmp_path, workload, args):
    # The wrappers read their arguments (``args[0][0]`` of a sweep, ``a[1]`` of
    # generate), so a call shape they cannot read fails the job, not install.
    if workload == "fraud-nd":
        args = [*args, _d3_csv(tmp_path / "d3.csv")]
    if workload == "tune-large":
        args = [_tune_csv(tmp_path / "tune.csv")]
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "job.py"), str(record), workload, "1",
         *args],
        env=_env(), cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    result = json.loads(record.read_text(encoding="utf-8"))
    assert proc.returncode == 0 and result["ok"] is True, result.get("error", proc.stderr)
    if workload == "exp2":
        # The norms keep their own span; their time is not experiments' self time.
        assert result["layers"]["knn.error_norm_s"] > 0
    if workload == "tune-large":
        for layer in ("io.load_s", "metrics.roc_s", "threshold_opt.sweep_s",
                      "threshold_opt.det_s"):
            assert result["layers"][layer] > 0, layer
