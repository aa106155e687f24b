"""Tests for the closed-form finite-sample bounds.

Frozen reference numbers were computed independently with bare
``math``-module arithmetic (no package imports) before these tests were
written; they pin the implementation, not the other way round.
"""

import math

import pytest

from stochthresh.bounds import (
    BoundInputs,
    cmm_lipschitz_constant,
    estimation_error_bound,
    regret_bound,
    shattering_bound,
    uniform_error_bound,
)
from stochthresh.errors import (
    ParameterDomainError,
    RegimeError,
    UnsupportedSpecError,
)
from stochthresh.metrics import CmmSpec


# ---------------------------------------------------------------------------
# Shattering count.
# ---------------------------------------------------------------------------


def test_shattering_bound_values():
    assert shattering_bound(1, 1) == 4
    assert shattering_bound(10, 1) == 202
    assert shattering_bound(10, 2) == 2002
    assert shattering_bound(800, 1) == 1_280_002
    assert isinstance(shattering_bound(10, 1), int)


def test_shattering_bound_validation():
    for n, d in ((0, 1), (-2, 1), (5, 0), (2.5, 1), (5, 1.5)):
        with pytest.raises(ParameterDomainError):
            shattering_bound(n, d)


# ---------------------------------------------------------------------------
# Uniform sup-norm error bound.
# ---------------------------------------------------------------------------


def test_uniform_error_bound_frozen_reference():
    b = uniform_error_bound(BoundInputs(n=100, k=100, r=1.0))
    assert b.bias_term == 4.0
    assert b.value == pytest.approx(4.61200818043743, rel=1e-12)
    assert b.value == pytest.approx(
        b.bias_term + b.deviation_term + b.variance_term, rel=1e-15
    )
    # All neighbors used: the cover has a single point, so the side
    # failure probability is exp(-k/4) + delta.
    assert b.side_failure_probability == pytest.approx(
        math.exp(-25.0) + 0.05, rel=1e-12
    )


def test_uniform_error_bound_large_sample_reference():
    b = uniform_error_bound(BoundInputs(n=10_000, k=2154, r=0.01))
    assert b.value == pytest.approx(0.030224225963408582, rel=1e-12)


def test_uniform_error_bound_shrinks_with_imbalance():
    big = uniform_error_bound(BoundInputs(n=1000, k=100, r=1.0))
    small = uniform_error_bound(BoundInputs(n=1000, k=100, r=1e-4))
    assert small.value < big.value
    assert small.bias_term < big.bias_term
    assert small.variance_term < big.variance_term
    # The Bernstein range term does not depend on the imbalance degree.
    assert small.deviation_term == big.deviation_term


def test_uniform_error_bound_regime_condition():
    with pytest.raises(RegimeError):
        uniform_error_bound(BoundInputs(n=100, k=50, r=1.0, eps_star=0.1))
    # Boundary case k/n == p_star * eps_star^d / 2 is allowed.
    uniform_error_bound(BoundInputs(n=100, k=50, r=1.0, eps_star=1.0))


# ---------------------------------------------------------------------------
# Estimation (uniform deviation) bound.
# ---------------------------------------------------------------------------


def test_estimation_error_bound_frozen_references():
    assert estimation_error_bound(800, 0.05) == pytest.approx(
        0.37201951412997725, rel=1e-14
    )
    assert estimation_error_bound(500, 0.05) == pytest.approx(
        0.46251872101646113, rel=1e-14
    )


def test_estimation_error_bound_monotonicity():
    assert estimation_error_bound(1600, 0.05) < estimation_error_bound(800, 0.05)
    assert estimation_error_bound(800, 0.1) < estimation_error_bound(800, 0.05)


def test_estimation_error_bound_validation():
    for n in (0, -1, 2.5):
        with pytest.raises(ParameterDomainError):
            estimation_error_bound(n, 0.05)
    for delta in (0.0, 1.0, -0.1, float("nan")):
        with pytest.raises(ParameterDomainError):
            estimation_error_bound(100, delta)


# ---------------------------------------------------------------------------
# Regret bound.
# ---------------------------------------------------------------------------


def test_regret_bound_frozen_reference():
    inputs = BoundInputs(n=800, k=1, r=1.0)
    assert regret_bound(inputs, 0.1) == pytest.approx(
        0.8440390282599545, rel=1e-14
    )


def test_regret_bound_explicit_estimation_error():
    inputs = BoundInputs(
        n=800, k=1, r=1.0, L_M=2.0, C_margin=0.5, beta_margin=2.0
    )
    # The estimation term is always the bound at the inputs' n and delta.
    est = estimation_error_bound(800, 0.05)
    assert regret_bound(inputs, 0.3) == 2.0 * (0.5 * 0.3**2.0 + 2.0 * est)


def test_regret_bound_margin_exponent_scales_regression_term():
    inputs1 = BoundInputs(n=800, k=1, r=1.0)
    inputs2 = BoundInputs(n=800, k=1, r=1.0, beta_margin=2.0)
    est = estimation_error_bound(800, 0.05)
    assert abs((regret_bound(inputs2, 0.1) - 2.0 * est) - 0.01) < 1e-15
    assert abs((regret_bound(inputs1, 0.1) - 2.0 * est) - 0.1) < 1e-15


def test_regret_bound_vanishes_with_perfect_regression_and_large_n():
    inputs = BoundInputs(n=10**12, k=1, r=1.0)
    assert regret_bound(inputs, 0.0) < 1e-4


def test_regret_bound_validation():
    inputs = BoundInputs(n=100, k=5, r=1.0)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ParameterDomainError):
            regret_bound(inputs, bad)


# ---------------------------------------------------------------------------
# Measure Lipschitz constants.
# ---------------------------------------------------------------------------


def test_lipschitz_constants_exact_values():
    assert cmm_lipschitz_constant(CmmSpec("weighted_accuracy", 0.7)) == 0.7
    assert cmm_lipschitz_constant(CmmSpec("weighted_accuracy", 0.3)) == 0.7
    assert cmm_lipschitz_constant(CmmSpec("recall"), positive_rate=0.25) == 8.0
    assert cmm_lipschitz_constant(CmmSpec("f_beta", 1.0), positive_rate=0.5) == 8.0
    assert cmm_lipschitz_constant(CmmSpec("f_beta", 0.5), positive_rate=0.5) == 80.0
    assert cmm_lipschitz_constant(CmmSpec("f_beta", 2.0), positive_rate=0.25) == 10.0


def test_lipschitz_constant_requires_valid_positive_rate():
    for bad in (None, 0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ParameterDomainError):
            cmm_lipschitz_constant(CmmSpec("recall"), positive_rate=bad)
        with pytest.raises(ParameterDomainError):
            cmm_lipschitz_constant(CmmSpec("f_beta", 1.0), positive_rate=bad)


def test_lipschitz_constant_unsupported_kinds():
    for spec in (
        CmmSpec("accuracy"),
        CmmSpec("precision"),
        CmmSpec("mcc"),
        CmmSpec("tp_tn_product"),
        CmmSpec("tp_pow_theta_tn", 2.0),
    ):
        with pytest.raises(UnsupportedSpecError):
            cmm_lipschitz_constant(spec, positive_rate=0.5)


# ---------------------------------------------------------------------------
# Input validation.
# ---------------------------------------------------------------------------


def test_bound_inputs_validation():
    bad_cases = [
        dict(n=0, k=1, r=1.0),
        dict(n=10, k=0, r=1.0),
        dict(n=10, k=11, r=1.0),
        dict(n=10, k=2.5, r=1.0),
        dict(n=10, k=5, r=0.0),
        dict(n=10, k=5, r=1.5),
        dict(n=10, k=5, r=1.0, alpha=0.0),
        dict(n=10, k=5, r=1.0, alpha=1.1),
        dict(n=10, k=5, r=1.0, d=0),
        dict(n=10, k=5, r=1.0, p_star=0.0),
        dict(n=10, k=5, r=1.0, delta=0.0),
        dict(n=10, k=5, r=1.0, delta=1.0),
        dict(n=10, k=5, r=1.0, L=0.0),
        dict(n=10, k=5, r=1.0, eps_star=-1.0),
        dict(n=10, k=5, r=1.0, C_margin=-0.1),
        dict(n=10, k=5, r=1.0, beta_margin=0.0),
        dict(n=10, k=5, r=1.0, L_M=0.0),
    ]
    for kwargs in bad_cases:
        with pytest.raises(ParameterDomainError):
            BoundInputs(**kwargs)
    # Boundary values that are allowed.
    BoundInputs(n=10, k=10, r=1.0, alpha=1.0, p_star=1.0, C_margin=0.0)
