"""Finite-sample guarantees: shattering counts, error and regret bounds.

These are evaluations of closed-form expressions — no data touches this
module.  The uniform-error bound additionally reports the probability mass
under which its "good event" can fail (cover-point misses plus the
deviation budget delta), since the guarantee is conditional on that event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, RegimeError, UnsupportedSpecError
from .metrics import CmmSpec

__all__ = [
    "BoundInputs",
    "UniformErrorBound",
    "shattering_bound",
    "uniform_error_bound",
    "estimation_error_bound",
    "regret_bound",
    "cmm_lipschitz_constant",
]


@dataclass(frozen=True)
class BoundInputs:
    """Problem constants shared by the bounds.

    ``eps_star`` (the margin radius in which the regime condition
    k/n <= p_star * eps_star^d / 2 must hold) has no principled default and
    is treated as user input: when omitted, the regime condition is not
    checked and the caller vouches for it.  ``k`` and ``r`` default to 1,
    which is enough for the bounds that do not read them.
    """

    n: int
    k: int = 1
    r: float = 1.0
    alpha: float = 1.0
    L: float = 1.0
    d: int = 1
    p_star: float = 1.0
    delta: float = 0.05
    eps_star: float | None = None
    C_margin: float = 1.0
    beta_margin: float = 1.0
    L_M: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ParameterDomainError(f"n={self.n!r} must be a positive int")
        if not isinstance(self.k, (int, np.integer)) or not 1 <= self.k <= self.n:
            raise ParameterDomainError(f"k={self.k!r} outside [1, n={self.n}]")
        if not isinstance(self.d, (int, np.integer)) or self.d < 1:
            raise ParameterDomainError(f"d={self.d!r} must be a positive int")
        for name, v, lo, hi in (
            ("r", self.r, 0.0, 1.0),
            ("alpha", self.alpha, 0.0, 1.0),
            ("p_star", self.p_star, 0.0, 1.0),
        ):
            if not (np.isfinite(v) and lo < v <= hi):
                raise ParameterDomainError(f"{name}={v!r} outside ({lo}, {hi}]")
        if not (np.isfinite(self.delta) and 0.0 < self.delta < 1.0):
            raise ParameterDomainError(f"delta={self.delta!r} outside (0, 1)")
        if not (np.isfinite(self.L) and self.L > 0.0):
            raise ParameterDomainError(f"L={self.L!r} must be positive")
        if self.eps_star is not None and not (
            np.isfinite(self.eps_star) and self.eps_star > 0.0
        ):
            raise ParameterDomainError(f"eps_star={self.eps_star!r} must be positive")
        if not (np.isfinite(self.C_margin) and self.C_margin >= 0.0):
            raise ParameterDomainError(f"C_margin={self.C_margin!r} must be >= 0")
        if not (np.isfinite(self.beta_margin) and self.beta_margin > 0.0):
            raise ParameterDomainError(
                f"beta_margin={self.beta_margin!r} must be positive"
            )
        if not (np.isfinite(self.L_M) and self.L_M > 0.0):
            raise ParameterDomainError(f"L_M={self.L_M!r} must be positive")


def shattering_bound(n: int, d: int) -> int:
    """Max number of labelings threshold rules induce on n scored points: 2 n^(d+1) + 2."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterDomainError(f"n={n!r} must be a positive int")
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ParameterDomainError(f"d={d!r} must be a positive int")
    return 2 * int(n) ** (int(d) + 1) + 2


@dataclass(frozen=True)
class UniformErrorBound:
    """High-probability sup-norm bound on the k-NN regression error.

    ``value = bias_term + deviation_term + variance_term`` holds outside an
    event of probability at most ``side_failure_probability``.
    """

    value: float
    bias_term: float
    deviation_term: float
    variance_term: float
    side_failure_probability: float


def uniform_error_bound(inputs: BoundInputs) -> UniformErrorBound:
    """Sup-norm k-NN error bound under the imbalance decomposition.

    bias = 2^alpha L r (2k / (p_star n))^(alpha/d), plus a Bernstein-style
    deviation pair (2 / (3k)) log(2 S(n) / delta) and
    sqrt((2 r / k) log(2 S(n) / delta)) with S the shattering bound.  When
    ``eps_star`` is supplied, the regime condition
    k/n <= p_star eps_star^d / 2 is enforced.
    """
    n, k, d = inputs.n, inputs.k, inputs.d
    if inputs.eps_star is not None:
        cap = inputs.p_star * inputs.eps_star**d / 2.0
        if k / n > cap:
            raise RegimeError(
                f"k/n = {k / n:.6g} exceeds p_star*eps_star^d/2 = {cap:.6g}; "
                "the small-neighborhood regime does not hold"
            )
    s_n = shattering_bound(n, d)
    log_term = math.log(2.0 * s_n / inputs.delta)
    eps_k = (2.0 * k / (inputs.p_star * n)) ** (1.0 / d)
    bias = 2.0**inputs.alpha * inputs.L * inputs.r * eps_k**inputs.alpha
    deviation = (2.0 / (3.0 * k)) * log_term
    variance = math.sqrt((2.0 * inputs.r / k) * log_term)
    cover = (2.0 / eps_k) ** d
    side = cover * math.exp(-k / 4.0) + inputs.delta
    return UniformErrorBound(
        value=bias + deviation + variance,
        bias_term=bias,
        deviation_term=deviation,
        variance_term=variance,
        side_failure_probability=side,
    )


def estimation_error_bound(n: int, delta: float) -> float:
    """Uniform deviation of empirical vs population confusion cells.

    sqrt((8 / n) log(32 (2 n + 1) / delta)) — simultaneously over every
    stochastic threshold and all four cells, with probability 1 - delta.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterDomainError(f"n={n!r} must be a positive int")
    if not (np.isfinite(delta) and 0.0 < delta < 1.0):
        raise ParameterDomainError(f"delta={delta!r} outside (0, 1)")
    return math.sqrt((8.0 / n) * math.log(32.0 * (2.0 * n + 1.0) / delta))


def regret_bound(inputs: BoundInputs, sup_err: float) -> float:
    """Measure regret bound L_M (C sup_err^beta + 2 est_err).

    ``sup_err`` is a sup-norm regression error (e.g. the value of
    :func:`uniform_error_bound`); ``est_err`` is
    :func:`estimation_error_bound` at the inputs' n and delta.
    """
    if not (np.isfinite(sup_err) and sup_err >= 0.0):
        raise ParameterDomainError(f"sup_err={sup_err!r} must be >= 0")
    return inputs.L_M * (
        inputs.C_margin * sup_err**inputs.beta_margin
        + 2.0 * estimation_error_bound(inputs.n, inputs.delta)
    )


def cmm_lipschitz_constant(spec: CmmSpec, positive_rate: float | None = None) -> float:
    """Sup-norm Lipschitz constant of a measure on the confusion simplex.

    Supported kinds: weighted_accuracy -> max(w, 1 - w); recall -> 2 / P;
    f_beta -> (2 (1 + beta^2) / P) max(beta^-2, beta^-4), where P is the
    population positive rate (tp + fn, required, in (0, 1]).  Other kinds
    raise: no usable closed-form constant is part of this package's
    contract (the correlation measure in particular is not Lipschitz near
    the simplex boundary).
    """
    if spec.kind == "weighted_accuracy":
        w = spec.param
        return max(w, 1.0 - w)
    if spec.kind in ("recall", "f_beta"):
        if positive_rate is None or not (
            np.isfinite(positive_rate) and 0.0 < positive_rate <= 1.0
        ):
            raise ParameterDomainError(
                f"{spec.kind} needs the positive rate P in (0, 1], "
                f"got {positive_rate!r}"
            )
        if spec.kind == "recall":
            return 2.0 / positive_rate
        b2 = spec.param * spec.param
        return (2.0 * (1.0 + b2) / positive_rate) * max(1.0 / b2, 1.0 / (b2 * b2))
    raise UnsupportedSpecError(
        f"no Lipschitz constant is provided for measure kind {spec.kind!r}"
    )
