"""Every name a module exports resolves, so ``import *`` cannot break."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import stochthresh

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    modules = [stochthresh] + [
        importlib.import_module(f"stochthresh.{info.name}")
        for info in pkgutil.iter_modules(stochthresh.__path__)
    ]
    for module in modules:
        exported = getattr(module, "__all__", ())
        assert len(set(exported)) == len(exported), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    # The package exports its modules' lists and nothing else, each name once.
    listed = [name for module in modules[1:] if module.__name__ != "stochthresh.cli"
              for name in module.__all__]
    assert len(set(listed)) == len(listed)
    assert stochthresh.__all__[0] == "__version__"
    assert sorted(stochthresh.__all__[1:]) == sorted(listed)


def test_importing_the_package_loads_no_command_line_code():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )}
    script = (
        "import sys, stochthresh; "
        "print(sorted({'click', 'stochthresh.cli'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
