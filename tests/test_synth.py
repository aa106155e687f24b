"""Tests for the synthetic problem generators."""

import numpy as np
import pytest

from stochthresh.errors import ParameterDomainError
from stochthresh.synth import (
    constant_problem,
    exp1_problem,
    exp2_nonuci_problem,
    exp2_uci_problem,
    generate,
    singleton_problem,
)
from stochthresh.classify import Piece, RegressionFunctionSpec


# ---------------------------------------------------------------------------
# Problem definitions: imbalance degree and pointwise regression values.
# ---------------------------------------------------------------------------


def test_imbalance_degree_is_sup_of_regression_function():
    assert exp1_problem().r == 1.0
    assert exp2_uci_problem(0.2).r == 0.2
    assert exp2_nonuci_problem(0.2).r == 1.0
    assert singleton_problem(0.7).r == 0.7
    assert constant_problem(0.25).r == 0.25


def test_three_plateau_problem_values():
    p = exp1_problem()
    assert p.evaluate(0.0) == 0.0
    assert p.evaluate(0.5) == 0.5
    assert p.evaluate(1.0) == 1.0
    assert p.evaluate(0.2) == 0.0
    assert p.evaluate(0.9) == 1.0


def test_linear_ramp_problem_values():
    p = exp2_uci_problem(0.2)
    assert p.evaluate(0.0) == 0.2
    assert p.evaluate(1.0) == 0.0
    assert p.evaluate(0.5) == pytest.approx(0.1, abs=1e-15)


def test_spike_problem_values():
    p = exp2_nonuci_problem(0.2)
    assert p.evaluate(0.0) == 1.0
    assert p.evaluate(0.1) == 0.5  # halfway down the spike
    assert p.evaluate(0.2) == 0.0
    assert p.evaluate(0.7) == 0.0
    # Full-width spike is a single ramp over the whole domain.
    wide = exp2_nonuci_problem(1.0)
    assert wide.r == 1.0
    assert wide.evaluate(0.5) == 0.5


def test_singleton_and_constant_values():
    assert singleton_problem(0.7).evaluate(0.0) == 0.7
    assert constant_problem(0.25).evaluate(0.83) == 0.25


def test_generate_draws_from_a_custom_eta():
    step = RegressionFunctionSpec(
        pieces=(Piece(0.0, 0.5, 0.0, 0.0), Piece(0.5, 1.0, 1.0, 1.0))
    )
    assert step.r == 1.0
    ds = generate(step, 200, seed=4)
    assert np.array_equal(ds.labels, (ds.covariates[:, 0] > 0.5).astype(np.int64))
    # A hand-built flat eta draws exactly what constant_problem's does.
    flat = RegressionFunctionSpec(pieces=(Piece(0.0, 1.0, 0.4, 0.4),))
    a, b = generate(flat, 50, seed=1), generate(constant_problem(0.4), 50, seed=1)
    for got, want in zip((a.covariates, a.labels, a.draws), (b.covariates, b.labels, b.draws)):
        assert np.array_equal(got, want)


def test_problem_parameter_validation():
    for bad_r in (0.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ParameterDomainError):
            exp2_uci_problem(bad_r)
        with pytest.raises(ParameterDomainError):
            exp2_nonuci_problem(bad_r)
    for bad_eta0 in (0.0, -0.2, 1.0001, float("inf")):
        with pytest.raises(ParameterDomainError):
            singleton_problem(bad_eta0)
    for bad_c in (-0.1, 1.1, float("nan")):
        with pytest.raises(ParameterDomainError):
            constant_problem(bad_c)
    # Boundary constants are allowed.
    constant_problem(0.0)
    constant_problem(1.0)


# ---------------------------------------------------------------------------
# Data generation: shape, determinism, and statistical sanity.
# ---------------------------------------------------------------------------


def test_generate_shapes_and_schema():
    ds = generate(exp1_problem(), 25, seed=3)
    assert ds.covariates.shape == (25, 1)
    assert ds.labels.shape == (25,)
    assert ds.draws is not None and ds.draws.shape == (25,)
    assert ds.feature_names == ("x0",)
    assert np.all((ds.covariates >= 0.0) & (ds.covariates < 1.0))
    assert set(np.unique(ds.labels)) <= {0, 1}
    assert np.all((ds.draws >= 0.0) & (ds.draws < 1.0))


def test_generate_is_deterministic_per_seed():
    p = exp2_uci_problem(0.5)
    a = generate(p, 40, seed=7)
    b = generate(p, 40, seed=7)
    assert np.array_equal(a.covariates, b.covariates)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.draws, b.draws)


def test_generate_accepts_seed_sequence_equivalently():
    p = exp1_problem()
    a = generate(p, 30, seed=11)
    b = generate(p, 30, seed=np.random.SeedSequence(11))
    assert np.array_equal(a.covariates, b.covariates)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.draws, b.draws)


def test_generate_different_seeds_differ():
    p = exp1_problem()
    a = generate(p, 200, seed=0)
    b = generate(p, 200, seed=1)
    assert not np.array_equal(a.draws, b.draws)
    assert not np.array_equal(a.covariates, b.covariates)


def test_three_plateau_positive_fraction_is_balanced():
    # The plateau values average to 1/2 over the unit interval, so the
    # positive fraction concentrates at 1/2 (tolerance is four sigma).
    ds = generate(exp1_problem(), 1_000_000, seed=42)
    assert ds.labels.mean() == pytest.approx(0.5, abs=0.002)


def test_linear_ramp_positive_fraction_matches_half_r():
    ds = generate(exp2_uci_problem(0.1), 1_000_000, seed=42)
    assert ds.labels.mean() == pytest.approx(0.05, abs=0.001)


def test_generated_plateau_scores_are_exact_ties():
    ds = generate(exp1_problem(), 500, seed=9)
    vals = exp1_problem().evaluate(ds.covariates[:, 0])
    assert set(np.unique(vals)) <= {0.0, 0.5, 1.0}
    # All three plateaus get hit at this sample size.
    assert set(np.unique(vals)) == {0.0, 0.5, 1.0}


def test_constant_extremes_pin_labels():
    assert not generate(constant_problem(0.0), 300, seed=5).labels.any()
    assert generate(constant_problem(1.0), 300, seed=5).labels.all()


def test_singleton_pins_covariates_at_zero():
    ds = generate(singleton_problem(0.6), 50, seed=2)
    assert not ds.covariates.any()
    assert 0 < ds.labels.sum() < 50  # both labels occur at eta0 = 0.6


def test_generate_sample_size_validation():
    p = exp1_problem()
    for bad_n in (0, -4, 2.5):
        with pytest.raises(ParameterDomainError):
            generate(p, bad_n, seed=0)
