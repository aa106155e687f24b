"""The benchmark's tracer wraps package names from outside; they must exist.

``perfbench/spans.py`` replaces functions by the names their calling
modules bind.  A rename inside the package makes ``install`` raise, so it
is run here in a fresh interpreter, keeping its patches out of this one.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs_against_the_package():
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import spans; "
        "spans.install(spans.Tracer())"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
