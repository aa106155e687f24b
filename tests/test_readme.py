"""The README's library quick tour runs as written, and its code references resolve."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import stochthresh

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


def test_code_references_resolve():
    """Every backticked ``module.Name`` of a stochthresh module names a real object."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    modules = {info.name for info in pkgutil.iter_modules(stochthresh.__path__)}
    refs = [
        (module, chain[1:].split("."))
        for span in re.findall(r"`([^`\n]+)`", text)
        for module, chain in re.findall(r"(?<![\w.])(\w+)((?:\.\w+)+)", span)
        if module in modules
    ]
    assert refs
    missing = []
    for module, names in refs:
        obj = importlib.import_module(f"stochthresh.{module}")
        for name in names:
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(".".join((module, *names)))
    assert not missing
