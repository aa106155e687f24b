"""Synthetic one-dimensional classification problems with stored tie draws.

A problem is its regression function eta: each ``*_problem`` builder checks
its parameters and returns the :class:`RegressionFunctionSpec` itself.
Covariates are uniform on [0, 1] (or pinned at 0 for the single-point
problem), labels are Bernoulli draws of eta, and each row carries an
independent uniform draw for stochastic-threshold tie breaking.  The label
stream and the draw stream come from separately spawned Philox generators,
so the same (eta, n, seed) triple always reproduces the identical dataset
bit-for-bit, draws included.

Regression values at plateaus are exactly representable floats (0, 0.5, 1,
user constants), which is what makes exact score ties — and therefore the
stochastic tie machinery — actually occur in generated data.
"""

from __future__ import annotations

import numpy as np

from .classify import Piece, RegressionFunctionSpec
from .errors import ParameterDomainError
from .io import LabeledDataset

__all__ = [
    "exp1_problem",
    "exp2_uci_problem",
    "exp2_nonuci_problem",
    "singleton_problem",
    "constant_problem",
    "generate",
]


def exp1_problem() -> RegressionFunctionSpec:
    """Three flat plateaus at 0, 1/2, 1 — balanced, with a mass-1/3 tie atom."""
    third = 1.0 / 3.0
    return RegressionFunctionSpec(
        pieces=(
            Piece(0.0, third, 0.0, 0.0),
            Piece(third, 2 * third, 0.5, 0.5),
            Piece(2 * third, 1.0, 1.0, 1.0),
        )
    )


def exp2_uci_problem(r: float) -> RegressionFunctionSpec:
    """Linear ramp r*(1 - x): everywhere below r, imbalance degree r."""
    if not (np.isfinite(r) and 0.0 < r <= 1.0):
        raise ParameterDomainError(f"imbalance r={r!r} outside (0, 1]")
    return RegressionFunctionSpec(pieces=(Piece(0.0, 1.0, r, 0.0),))


def exp2_nonuci_problem(r: float) -> RegressionFunctionSpec:
    """Spike max(0, 1 - x/r): same positive mass scale, but peak value 1.

    The overall positive fraction shrinks with r while the sup stays 1, so
    no nontrivial imbalance decomposition exists.
    """
    if not (np.isfinite(r) and 0.0 < r <= 1.0):
        raise ParameterDomainError(f"shape r={r!r} outside (0, 1]")
    if r == 1.0:
        pieces = (Piece(0.0, 1.0, 1.0, 0.0),)
    else:
        pieces = (Piece(0.0, r, 1.0, 0.0), Piece(r, 1.0, 0.0, 0.0))
    return RegressionFunctionSpec(pieces=pieces)


def singleton_problem(eta0: float) -> RegressionFunctionSpec:
    """All covariate mass at a single point with regression value eta0."""
    if not (np.isfinite(eta0) and 0.0 < eta0 <= 1.0):
        raise ParameterDomainError(f"eta0={eta0!r} outside (0, 1]")
    return RegressionFunctionSpec(atom=float(eta0))


def constant_problem(c: float) -> RegressionFunctionSpec:
    """Constant regression function c on [0, 1]; c = 0 and c = 1 are allowed."""
    if not (np.isfinite(c) and 0.0 <= c <= 1.0):
        raise ParameterDomainError(f"constant c={c!r} outside [0, 1]")
    return RegressionFunctionSpec(pieces=(Piece(0.0, 1.0, float(c), float(c)),))


def generate(eta: RegressionFunctionSpec, n: int, seed) -> LabeledDataset:
    """Draw n rows (covariate, Bernoulli label, independent uniform draw).

    ``seed`` is an integer or a ``numpy.random.SeedSequence``; two child
    sequences are spawned, one for covariates + labels and one for the tie
    draws, each feeding a Philox generator.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterDomainError(f"sample size n={n!r} must be a positive int")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    data_ss, draw_ss = ss.spawn(2)
    rng_data = np.random.Generator(np.random.Philox(data_ss))
    rng_draw = np.random.Generator(np.random.Philox(draw_ss))
    if eta.atom is not None:
        x = np.zeros((n, 1))
    else:
        x = rng_data.random((n, 1))
    eta_vals = eta.evaluate(x[:, 0])
    labels = (rng_data.random(n) < eta_vals).astype(np.int64)
    draws = rng_draw.random(n)
    return LabeledDataset(
        covariates=x, labels=labels, draws=draws, feature_names=("x0",)
    )
