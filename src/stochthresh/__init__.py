"""Stochastic threshold classifiers for confusion-matrix measures.

Core pieces: a registry of monotone confusion-matrix measures, exact
threshold sweeps (stochastic and deterministic) with a brute-force oracle
twin, closed-form population optima, k-NN regression scores with canonical
tie handling, finite-sample error/regret bounds, and deterministic
experiment pipelines with CSV output.

Every name in a module's ``__all__`` is importable from here; that list is
the one place to add a public name.  ``cli`` is not imported, so importing
the package loads no click.
"""

__version__ = "0.1.0"

from .errors import *
from .metrics import *
from .classify import *
from .threshold_opt import *
from .knn import *
from .synth import *
from .bounds import *
from .io import *
from .experiments import *
from . import errors, metrics, classify, threshold_opt, knn, synth, bounds, io, experiments

__all__ = ["__version__"] + [
    name
    for module in (errors, metrics, classify, threshold_opt, knn, synth, bounds, io, experiments)
    for name in module.__all__
]
