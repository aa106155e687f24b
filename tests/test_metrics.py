"""Confusion-matrix measures: values, monotonicity, parsing, ROC."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochthresh import (
    CmmSpec,
    ConfusionMatrix,
    REGISTERED_KINDS,
    evaluate_cmm,
    roc_and_auroc,
)
from stochthresh.errors import DegenerateInputError, ParameterDomainError

from helpers import check_cmm_monotonicity, representative_specs, tie_heavy_sample


def cm(tn, fp, fn, tp) -> ConfusionMatrix:
    return ConfusionMatrix(tn=tn, fp=fp, fn=fn, tp=tp)


# ---------------------------------------------------------------------------
# evaluate_cmm


def test_accuracy_perfect_classifier():
    assert evaluate_cmm(CmmSpec("accuracy"), cm(0.5, 0.0, 0.0, 0.5)) == 1.0


def test_tp_tn_product_balanced_stochastic_optimum():
    v = evaluate_cmm(CmmSpec("tp_tn_product"), cm(5 / 12, 1 / 12, 1 / 12, 5 / 12))
    assert v == pytest.approx(25 / 144, abs=1e-12)


def test_f1_hand_computed_value():
    # 2*0.04 / (2*0.04 + 0.04 + 0.02) = 4/7
    v = evaluate_cmm(CmmSpec("f_beta", 1.0), cm(0.90, 0.04, 0.02, 0.04))
    assert v == pytest.approx(4 / 7, abs=1e-12)


def test_weighted_accuracy_matches_direct_formula():
    c = cm(0.4, 0.1, 0.2, 0.3)
    for w in (0.25, 0.5, 0.9):
        v = evaluate_cmm(CmmSpec("weighted_accuracy", w), c)
        assert v == pytest.approx((1 - w) * 0.3 + w * 0.4, abs=1e-15)


def test_precision_recall_mcc_hand_values():
    c = cm(0.5, 0.1, 0.1, 0.3)
    assert evaluate_cmm(CmmSpec("precision"), c) == pytest.approx(0.3 / 0.4, abs=1e-15)
    assert evaluate_cmm(CmmSpec("recall"), c) == pytest.approx(0.3 / 0.4, abs=1e-15)
    mcc = (0.3 * 0.5 - 0.1 * 0.1) / np.sqrt(0.4 * 0.4 * 0.6 * 0.6)
    assert evaluate_cmm(CmmSpec("mcc"), c) == pytest.approx(mcc, abs=1e-15)


def test_tp_pow_theta_tn_fractional_power():
    c = cm(0.5, 0.0, 0.25, 0.25)
    assert evaluate_cmm(CmmSpec("tp_pow_theta_tn", 0.5), c) == pytest.approx(
        0.25**0.5 * 0.5, abs=1e-15
    )


def test_zero_denominator_convention_yields_zero():
    # No positive prediction at all: precision, f_beta; no true positive: recall.
    all_neg = cm(0.6, 0.0, 0.4, 0.0)
    assert evaluate_cmm(CmmSpec("precision"), all_neg) == 0.0
    assert evaluate_cmm(CmmSpec("recall"), all_neg) == 0.0
    assert evaluate_cmm(CmmSpec("f_beta", 1.0), all_neg) == 0.0
    # A vanishing marginal factor zeroes the correlation measure.
    assert evaluate_cmm(CmmSpec("mcc"), all_neg) == 0.0
    no_negatives = cm(0.0, 0.0, 0.5, 0.5)
    assert evaluate_cmm(CmmSpec("mcc"), no_negatives) == 0.0
    # Degenerate f_beta: every cell that feeds the denominator is zero.
    assert evaluate_cmm(CmmSpec("f_beta", 2.0), cm(1.0, 0.0, 0.0, 0.0)) == 0.0


# ---------------------------------------------------------------------------
# monotonicity under error-correcting shifts


def test_recall_full_correction_is_monotone():
    c = cm(0.3, 0.25, 0.15, 0.3)
    assert check_cmm_monotonicity(CmmSpec("recall"), c, eps1=c.fp, eps2=c.fn)


def test_tp_pow_shift_hand_comparison():
    c = cm(0.3, 0.2, 0.2, 0.3)
    assert check_cmm_monotonicity(CmmSpec("tp_pow_theta_tn", 1.0), c, 0.1, 0.1)
    # Direct comparison backing the same shift: 0.3*0.3 <= 0.4*0.4.
    assert 0.3 * 0.3 <= 0.4 * 0.4


def test_mcc_random_shift_sweep():
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    spec = CmmSpec("mcc")
    for _ in range(200):
        cells = gen.dirichlet((1.0, 1.0, 1.0, 1.0))
        c = cm(*cells)
        eps1 = float(gen.random() * c.fp)
        eps2 = float(gen.random() * c.fn)
        assert check_cmm_monotonicity(spec, c, eps1, eps2)


@settings(max_examples=150, deadline=None)
@given(
    raw=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    f1=st.floats(0.0, 1.0),
    f2=st.floats(0.0, 1.0),
    spec_i=st.integers(min_value=0, max_value=13),
)
def test_every_registered_measure_is_monotone(raw, f1, f2, spec_i):
    total = sum(raw)
    if total <= 0.0:
        raw = [1.0, 1.0, 1.0, 1.0]
        total = 4.0
    cells = [v / total for v in raw]
    c = cm(*cells)
    spec = representative_specs()[spec_i]
    assert check_cmm_monotonicity(spec, c, f1 * c.fp, f2 * c.fn)


def test_monotonicity_rejects_out_of_range_shifts():
    c = cm(0.4, 0.1, 0.1, 0.4)
    with pytest.raises(ParameterDomainError):
        check_cmm_monotonicity(CmmSpec("accuracy"), c, eps1=0.2, eps2=0.0)
    with pytest.raises(ParameterDomainError):
        check_cmm_monotonicity(CmmSpec("accuracy"), c, eps1=0.0, eps2=-0.01)


# ---------------------------------------------------------------------------
# ConfusionMatrix and CmmSpec validation


def test_confusion_matrix_validation():
    with pytest.raises(ParameterDomainError):
        cm(-0.1, 0.5, 0.3, 0.3)
    with pytest.raises(ParameterDomainError):
        cm(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ParameterDomainError):
        cm(float("nan"), 0.5, 0.25, 0.25)


def test_spec_validation_and_parse_roundtrip():
    with pytest.raises(ParameterDomainError):
        CmmSpec("nonsense")
    with pytest.raises(ParameterDomainError):
        CmmSpec("accuracy", 0.5)
    with pytest.raises(ParameterDomainError):
        CmmSpec("f_beta")
    with pytest.raises(ParameterDomainError):
        CmmSpec("weighted_accuracy", 1.0)
    with pytest.raises(ParameterDomainError):
        CmmSpec("tp_pow_theta_tn", -1.0)
    with pytest.raises(ParameterDomainError):
        CmmSpec("f_beta", 1e200)  # beta^2 overflows, and the measure would be NaN
    with pytest.raises(ParameterDomainError):
        CmmSpec.parse("f_beta:nope")
    for text in ("accuracy", "f_beta:0.5", "weighted_accuracy:0.25"):
        spec = CmmSpec.parse(text)
        assert spec.label() == text
        assert CmmSpec.parse(spec.label()) == spec


def test_representative_specs_cover_all_kinds():
    specs = representative_specs()
    assert len(specs) == 14
    assert {s.kind for s in specs} == set(REGISTERED_KINDS)


# ---------------------------------------------------------------------------
# ROC


def test_roc_perfect_separation():
    assert roc_and_auroc([0.9, 0.1], [1, 0]).auroc == 1.0


def test_roc_perfect_anti_separation():
    assert roc_and_auroc([0.1, 0.9], [1, 0]).auroc == 0.0


def test_roc_tied_scores_collapse_to_group_knots():
    curve = roc_and_auroc([0.8, 0.8, 0.2, 0.2], [1, 0, 1, 0])
    assert curve.knots == ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0))
    assert curve.auroc == 0.5


def test_roc_rejects_degenerate_labels():
    with pytest.raises(DegenerateInputError):
        roc_and_auroc([0.1, 0.9], [1, 1])
    with pytest.raises(DegenerateInputError):
        roc_and_auroc([], [])
    with pytest.raises(ParameterDomainError):
        roc_and_auroc([0.1, 0.9], [1, 2])
    with pytest.raises(ParameterDomainError):
        roc_and_auroc([0.1, 0.9, 0.4], [1, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_roc_rejects_non_finite_scores(bad):
    # A NaN would otherwise sort last and be ranked as the least positive.
    with pytest.raises(ParameterDomainError, match="finite"):
        roc_and_auroc([0.2, bad, 0.7, 0.1], [0, 1, 1, 0])


@pytest.mark.parametrize("n", [40, 3_000, 50_000])
def test_roc_is_invariant_to_row_order(n):
    # The score sort is unstable, so rows must not move a knot or the area.
    gen = np.random.default_rng(n)
    scores, labels = tie_heavy_sample(gen, n)
    want = roc_and_auroc(scores, labels)
    for _ in range(50):
        perm = gen.permutation(n)
        got = roc_and_auroc(scores[perm], labels[perm])
        assert np.array(got.knots).tobytes() == np.array(want.knots).tobytes()
        assert np.float64(got.auroc).tobytes() == np.float64(want.auroc).tobytes()


def test_roc_matches_rank_statistic(rng):
    # AUROC equals the tie-adjusted probability that a positive outranks a negative.
    scores = rng.integers(0, 6, size=60) / 5.0
    labels = rng.integers(0, 2, size=60)
    if labels.sum() in (0, 60):
        labels[0], labels[1] = 0, 1
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).mean()
    ties = (pos[:, None] == neg[None, :]).mean()
    assert roc_and_auroc(scores, labels).auroc == pytest.approx(
        wins + 0.5 * ties, abs=1e-12
    )


def argsort_roc(scores, labels):
    """The ROC by a descending argsort and a cumsum read at each group's end."""
    order = np.argsort(-scores)
    s_desc, y_desc = scores[order], labels[order]
    group_last = np.nonzero(np.append(s_desc[1:] != s_desc[:-1], True))[0]
    tp_at = np.cumsum(y_desc)[group_last]
    fp_at = (group_last + 1) - tp_at
    npos = int(labels.sum())
    fpr = np.concatenate(([0.0], fp_at / (labels.size - npos)))
    tpr = np.concatenate(([0.0], tp_at / npos))
    return tuple(zip(map(float, fpr), map(float, tpr))), float(np.trapezoid(tpr, fpr))


@pytest.mark.parametrize("kind", ["tie-heavy", "continuous", "outside [0, 1]"])
def test_roc_from_score_cuts_equals_the_argsort_roc(kind):
    gen = np.random.default_rng(100_000)
    scores, labels = tie_heavy_sample(gen, 100_000)
    if kind == "continuous":
        scores = gen.random(scores.size)
    elif kind == "outside [0, 1]":  # ties kept, and a signed-zero group
        scores = (scores - 0.5) * 1e6
        scores[:100] = 0.0
        scores[:100:2] = -0.0
    knots, auroc = argsort_roc(scores, labels)
    got = roc_and_auroc(scores, labels)
    assert np.array(got.knots).tobytes() == np.array(knots).tobytes()
    assert np.float64(got.auroc).tobytes() == np.float64(auroc).tobytes()
