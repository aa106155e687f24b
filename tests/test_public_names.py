"""Every name a module exports resolves, so ``import *`` cannot break."""

import importlib
import pkgutil

import stochthresh


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
