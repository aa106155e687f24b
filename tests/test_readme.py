"""The README's library quick tour runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_quick_tour_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )}
    done = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
