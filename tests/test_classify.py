"""Stochastic thresholds, empirical confusion, closed-form population cells."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochthresh import (
    CmmSpec,
    Piece,
    RegressionFunctionSpec,
    StochasticThreshold,
    empirical_confusion,
    optimize_threshold,
    population_confusion_parts,
)
from stochthresh.classify import as_sample_arrays
from stochthresh.errors import (
    DegenerateInputError,
    DomainError,
    ParameterDomainError,
)
from stochthresh.synth import exp1_problem, exp2_nonuci_problem, exp2_uci_problem


# ---------------------------------------------------------------------------
# The threshold rule, read through empirical_confusion


def rule(th: StochasticThreshold, score: float, draw: float) -> int:
    """The threshold rule for one sample, written out."""
    return int(score > th.t or (score == th.t and draw < th.p))


def label_of(th: StochasticThreshold, score: float, draw: float) -> int:
    """The label the threshold gives one positive row: its tp fraction."""
    c = empirical_confusion(th, (np.array([score]), np.array([1]), np.array([draw])))
    return int(c.tp)


def test_score_above_cut_is_positive():
    assert label_of(StochasticThreshold(0.5, 0.0), 0.6, 0.99) == 1


def test_zero_tie_probability_rejects_ties():
    assert label_of(StochasticThreshold(0.5, 0.0), 0.5, 0.0) == 0


def test_tie_accepted_when_draw_below_p():
    th = StochasticThreshold(0.3, 0.75)
    assert label_of(th, 0.3, 0.5) == 1
    # The draw comparison is strict, so draw == p rejects.
    assert label_of(th, 0.3, 0.75) == 0


def test_batch_agrees_with_scalar_rule(rng):
    th = StochasticThreshold(0.4, 0.3)
    scores = rng.integers(0, 5, size=200) / 4.0
    labels = rng.integers(0, 2, size=200)
    draws = rng.random(200)
    counts = np.zeros((2, 2), dtype=int)  # [label, predicted label]
    for s, y, z in zip(scores, labels, draws):
        want = rule(th, float(s), float(z))
        assert label_of(th, float(s), float(z)) == want
        counts[y, want] += 1
    c = empirical_confusion(th, (scores, labels, draws))
    assert (c.tn, c.fp, c.fn, c.tp) == tuple(counts.ravel() / 200)


def test_batch_missing_draws_means_zero_draw():
    th = StochasticThreshold(0.5, 1.0)
    # The tie at 0.5 takes label 1, since draw 0 < p.
    for score, want in zip((0.5, 0.4, 0.6), (1, 0, 1)):
        assert empirical_confusion(th, (np.array([score]), np.array([1]))).tp == want
    c = empirical_confusion(th, ([0.5, 0.4, 0.6], [1, 1, 0]))
    assert (c.tn, c.fp, c.fn, c.tp) == (0.0, 1 / 3, 1 / 3, 1 / 3)
    with pytest.raises(ParameterDomainError):
        empirical_confusion(th, ([0.5, 0.4], [1, 1], [0.1]))


def test_threshold_and_sample_validation():
    with pytest.raises(ParameterDomainError):
        StochasticThreshold(1.5, 0.0)
    with pytest.raises(ParameterDomainError):
        StochasticThreshold(0.5, -0.1)
    with pytest.raises(ParameterDomainError):
        as_sample_arrays((np.array([1.2]), np.array([1])))
    with pytest.raises(ParameterDomainError):
        as_sample_arrays((np.array([0.5]), np.array([2])))
    with pytest.raises(ParameterDomainError):
        as_sample_arrays((np.array([0.5]), np.array([1]), np.array([-0.5])))


# ---------------------------------------------------------------------------
# as_sample_arrays


def test_sample_arrays_accepts_three_input_shapes():
    scores, labels, draws = [0.2, 0.8], [0, 1], [0.5, 0.25]
    forms = (
        ((np.array(scores), np.array(labels), np.array(draws)), draws),
        ((scores, labels, None), None),
        ((scores, labels), None),
    )
    for form, want_draws in forms:
        got_scores, got_labels, got_draws = as_sample_arrays(form)
        assert got_scores.tolist() == scores
        assert got_labels.tolist() == labels
        assert (got_draws if got_draws is None else got_draws.tolist()) == want_draws


def test_sample_arrays_validation():
    with pytest.raises(DegenerateInputError):
        as_sample_arrays((np.empty(0), np.empty(0)))
    with pytest.raises(ParameterDomainError):
        as_sample_arrays((np.array([0.1, 0.2]), np.array([0])))
    with pytest.raises(ParameterDomainError):
        as_sample_arrays((np.array([0.1]), np.array([5])))
    with pytest.raises(ParameterDomainError):
        as_sample_arrays((np.array([0.1]), np.array([0]), np.array([0.2]), np.array([0.9])))
    with pytest.raises(DegenerateInputError):
        as_sample_arrays((np.array([0.1]), np.array([0])), require_draws=True)


def test_sample_arrays_reject_non_finite_and_out_of_range_values():
    labels = np.array([0, 1, 1])
    draws = np.array([0.1, 0.5, 0.9])
    for bad in ([0.2, np.nan, 0.7], [0.2, 1.7, -3.0], [0.2, np.inf, 0.7]):
        with pytest.raises(ParameterDomainError, match="score"):
            as_sample_arrays((np.array(bad), labels, draws))
        with pytest.raises(ParameterDomainError, match="draw"):
            as_sample_arrays((draws, labels, np.array(bad)))
    with pytest.raises(ParameterDomainError, match="row 1"):
        as_sample_arrays((np.array([0.2, np.nan]), np.array([0, 1])))
    with pytest.raises(ParameterDomainError, match="row 1"):
        as_sample_arrays((np.array([0.2, 0.4]), np.array([0, 1]), np.array([0.5, -0.5])))


ROW_LISTS = (
    [(0.2, 0, 0.5), (0.8, 1, 0.25)],
    [(0.2, 0), (0.8, 1)],
    # Read by columns, the middle row would be a valid 0/1 label vector.
    [(0.2, 0.6, 0.9), (0, 1, 1), (0.5, 0.5, 0.5)],
)


@pytest.mark.parametrize("rows", ROW_LISTS)
def test_row_tuple_lists_are_rejected_not_misread(rows):
    th = StochasticThreshold(0.5, 0.5)
    with pytest.raises(ParameterDomainError, match="tuple"):
        as_sample_arrays(rows)
    with pytest.raises(ParameterDomainError, match="tuple"):
        empirical_confusion(th, rows)
    with pytest.raises(ParameterDomainError, match="tuple"):
        optimize_threshold(rows, CmmSpec("accuracy"))


_ANY_FLOAT = st.one_of(
    st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT), min_size=1, max_size=12))
def test_sample_arrays_accept_exactly_finite_unit_interval_values(pairs):
    def accepted(score, draw):
        return all(np.isfinite(v) and 0.0 <= v <= 1.0 for v in (score, draw))

    scores = np.array([s for s, _ in pairs])
    draws = np.array([z for _, z in pairs])
    samples = (scores, np.zeros(len(pairs), dtype=np.int64), draws)
    if all(accepted(s, z) for s, z in pairs):
        got_scores, _, got_draws = as_sample_arrays(samples)
        assert np.array_equal(got_scores, scores)
        assert np.array_equal(got_draws, draws)
    else:
        with pytest.raises(ParameterDomainError):
            as_sample_arrays(samples)


# ---------------------------------------------------------------------------
# empirical_confusion


def test_confusion_of_separating_threshold():
    sample = (np.array([0.9, 0.1]), np.array([1, 0]), np.zeros(2))
    c = empirical_confusion(StochasticThreshold(0.5, 0.0), sample)
    assert (c.tn, c.fp, c.fn, c.tp) == (0.5, 0.0, 0.0, 0.5)


def test_confusion_of_classify_all_negative(rng):
    scores = rng.random(40)
    labels = rng.integers(0, 2, size=40)
    pos = labels.mean()
    c = empirical_confusion(StochasticThreshold(1.0, 0.0), (scores, labels, None))
    assert (c.tn, c.fn) == (1.0 - pos, pos)
    assert (c.fp, c.tp) == (0.0, 0.0)


def test_confusion_with_certain_tie_acceptance():
    sample = (np.array([0.5, 0.5]), np.array([1, 0]), np.array([0.3, 0.7]))
    c = empirical_confusion(StochasticThreshold(0.5, 1.0), sample)
    assert (c.tp, c.fp) == (0.5, 0.5)
    assert (c.tn, c.fn) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# RegressionFunctionSpec


def test_piece_and_spec_validation():
    with pytest.raises(ParameterDomainError):
        Piece(0.5, 0.5, 0.1, 0.2)
    with pytest.raises(ParameterDomainError):
        Piece(0.0, 1.0, -0.1, 0.5)
    with pytest.raises(ParameterDomainError):
        RegressionFunctionSpec()  # neither pieces nor atom
    with pytest.raises(ParameterDomainError):
        RegressionFunctionSpec(pieces=(Piece(0.0, 1.0, 0.5, 0.5),), atom=0.5)
    with pytest.raises(ParameterDomainError):
        RegressionFunctionSpec(pieces=(Piece(0.1, 1.0, 0.5, 0.5),))
    with pytest.raises(ParameterDomainError):
        RegressionFunctionSpec(
            pieces=(Piece(0.0, 0.4, 0.5, 0.5), Piece(0.5, 1.0, 0.5, 0.5))
        )
    with pytest.raises(ParameterDomainError):
        RegressionFunctionSpec(atom=1.5)


def test_evaluate_piecewise_and_atom():
    eta = exp1_problem()
    assert eta.evaluate(0.5) == 0.5
    assert eta.evaluate(0.1) == 0.0
    assert eta.evaluate(0.9) == 1.0
    assert eta.evaluate(1.0) == 1.0
    with pytest.raises(DomainError):
        eta.evaluate(1.5)

    atom = RegressionFunctionSpec(atom=0.7)
    assert atom.evaluate(0.0) == 0.7
    assert atom.knots() == (0.0,)
    with pytest.raises(DomainError):
        atom.evaluate(0.5)


def test_on_piece_reads_one_sided_limits_at_a_jump():
    eta = RegressionFunctionSpec(
        pieces=(Piece(0.0, 0.5, 0.25, 0.5), Piece(0.5, 1.0, 0.875, 0.625))
    )
    # A knot belongs to the piece on its right, as in evaluate.
    assert eta.on_piece(0.5) == eta.evaluate(0.5) == 0.875
    # The piece holding `at` is read at x: its line's value at its own end.
    assert eta.on_piece(0.5, at=0.25) == 0.5
    ends = eta.on_piece(np.array([[0.0, 0.5], [0.5, 1.0]]), at=np.array([0.0, 0.5]))
    assert ends.tolist() == [[0.25, 0.875], [0.5, 0.625]]


def test_sup_is_the_imbalance_degree():
    assert exp2_uci_problem(0.2).r == 0.2
    assert RegressionFunctionSpec(atom=0.7).r == 0.7
    zero = RegressionFunctionSpec(pieces=(Piece(0.0, 1.0, 0.0, 0.0),))
    assert zero.r == 0.0


def test_plateau_values_are_exactly_preserved():
    eta = exp1_problem()
    xs = np.linspace(0.0, 1.0, 1001)
    vals = eta.evaluate(xs)
    assert set(np.unique(vals)) == {0.0, 0.5, 1.0}


# ---------------------------------------------------------------------------
# population confusion


def population_cells(eta, t, p):
    """Cells (tn, fp, fn, tp) at (t, p): ``base + p * tie`` from the parts."""
    base, tie = population_confusion_parts(eta, t)
    return tuple(b + p * s for b, s in zip(base, tie))


def test_population_cells_of_three_plateau_function():
    eta = exp1_problem()
    for p in (0.0, 0.25, 0.5, 1.0):
        tn, fp, fn, tp = population_cells(eta, 0.5, p)
        assert tp == pytest.approx(1 / 3 + p / 6, abs=1e-12)
        assert tn == pytest.approx(1 / 3 + (1 - p) / 6, abs=1e-12)
        assert fp == pytest.approx(p / 6, abs=1e-12)
        assert fn == pytest.approx((1 - p) / 6, abs=1e-12)
    tn, _, _, tp = population_cells(eta, 0.5, 0.5)
    assert tp * tn == pytest.approx(25 / 144, abs=1e-12)


def test_population_cells_constant_function_all_negative():
    eta = RegressionFunctionSpec(pieces=(Piece(0.0, 1.0, 0.3, 0.3),))
    tn, _, fn, _ = population_cells(eta, 1.0, 0.0)
    assert tn == pytest.approx(0.7, abs=1e-12)
    assert fn == pytest.approx(0.3, abs=1e-12)


def test_population_cells_linear_ramp_crossing():
    # eta(x) = r(1-x) cut at r/2: the positive region is x < 1/2 and holds
    # mass 3r/8 (hand integration of the ramp).
    r = 0.5
    eta = exp2_uci_problem(r)
    tp = population_cells(eta, r / 2, 0.0)[3]
    assert tp == pytest.approx(3 * r / 8, abs=1e-12)
    # Quadrature cross-check on a grid that contains the crossing point.
    xs = np.linspace(0.0, 1.0, 10001)
    vals = r * (1.0 - xs)
    tp_quad = np.trapezoid(np.where(vals > r / 2, vals, 0.0), xs)
    assert tp == pytest.approx(tp_quad, abs=1e-4)


def test_population_cells_atom_cases():
    eta = RegressionFunctionSpec(atom=0.5)
    _, fp, _, tp = population_cells(eta, 0.25, 0.0)
    assert (tp, fp) == (0.5, 0.5)
    tn, _, fn, _ = population_cells(eta, 0.75, 1.0)
    assert (fn, tn) == (0.5, 0.5)
    base, tie = population_confusion_parts(eta, 0.5)
    assert base == (0.5, 0.0, 0.5, 0.0)
    assert tie == (-0.5, 0.5, -0.5, 0.5)


def test_population_parts_reject_bad_threshold():
    eta = exp1_problem()
    with pytest.raises(ParameterDomainError):
        population_confusion_parts(eta, 1.5)
    for bad in (np.nan, np.inf, -np.inf, 1.5, -0.25):
        t = np.full((3, 4), 0.5)
        t[2, 1] = bad
        with pytest.raises(ParameterDomainError):
            population_confusion_parts(eta, t)


def test_population_parts_of_an_array_are_shaped_like_it():
    eta = exp2_nonuci_problem(0.1)
    t = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    base, tie = population_confusion_parts(eta, t)
    assert len(base) == len(tie) == 4
    for cells in (base, tie):
        assert all(np.shape(c) == (3, 4) for c in cells)
    # Each entry holds the bits of the call at that one t.
    for idx in np.ndindex(t.shape):
        one = population_confusion_parts(eta, float(t[idx]))
        for got, want in zip((*base, *tie), (*one[0], *one[1])):
            assert np.array_equal(np.float64(got[idx]).view(np.uint64),
                                  np.float64(want).view(np.uint64))


#: (tn, fp, fn, tp) base and tie parts at each breakpoint (0, 1 and every
#: piece value) of exp1's eta and two exp2 etas, as the scalar per-t
#: implementation computed them.
BREAKPOINT_PARTS = {
    "exp1": (exp1_problem(), {
        0.0: ((0.3333333333333333, 0.16666666666666666, 0.0, 0.5),
              (-0.3333333333333333, 0.3333333333333333, -0.0, 0.0)),
        0.5: ((0.5, 0.0, 0.16666666666666666, 0.33333333333333337),
              (-0.16666666666666666, 0.16666666666666666,
               -0.16666666666666666, 0.16666666666666666)),
        1.0: ((0.5, 0.0, 0.5, 0.0), (-0.0, 0.0, -0.33333333333333337, 0.33333333333333337)),
    }),
    "exp2_uci": (exp2_uci_problem(0.1), {
        0.0: ((0.0, 0.95, 0.0, 0.05), (-0.0, 0.0, -0.0, 0.0)),
        0.1: ((0.95, 0.0, 0.05, 0.0), (-0.0, 0.0, -0.0, 0.0)),
        1.0: ((0.95, 0.0, 0.05, 0.0), (-0.0, 0.0, -0.0, 0.0)),
    }),
    "exp2_nonuci": (exp2_nonuci_problem(0.1), {
        0.0: ((0.9, 0.05, 0.0, 0.05), (-0.9, 0.9, -0.0, 0.0)),
        1.0: ((0.9500000000000001, 0.0, 0.05, 0.0), (-0.0, 0.0, -0.0, 0.0)),
    }),
}


@pytest.mark.parametrize("name", sorted(BREAKPOINT_PARTS))
def test_population_parts_at_breakpoints_keep_their_bits(name):
    eta, pinned = BREAKPOINT_PARTS[name]
    ts = np.array(sorted(pinned))
    values = [v for pc in eta.pieces for v in (pc.v_lo, pc.v_hi)]
    assert ts.tolist() == np.unique(np.concatenate(([0.0, 1.0], values))).tolist()
    base, tie = population_confusion_parts(eta, ts)
    got = np.stack((*base, *tie), axis=1)
    want = np.array([(*pinned[t][0], *pinned[t][1]) for t in ts.tolist()])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
