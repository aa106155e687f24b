"""Exact threshold search: sweep vs brute-force oracle, population search."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochthresh import (
    CmmSpec,
    ConfusionMatrix,
    ThresholdSearchResult,
    brute_force_threshold,
    empirical_confusion,
    evaluate_cmm,
    optimize_population_threshold,
    optimize_threshold,
    optimize_threshold_deterministic,
    population_confusion_parts,
)
from stochthresh.classify import Piece, RegressionFunctionSpec, StochasticThreshold
from stochthresh.errors import ParameterDomainError
from stochthresh.knn import KnnModel
from stochthresh.metrics import _cmm_values, _score_cuts
from stochthresh import threshold_opt
from stochthresh.threshold_opt import _sweep_order
from stochthresh.synth import (
    exp1_problem,
    exp2_nonuci_problem,
    exp2_uci_problem,
    generate,
    singleton_problem,
)

from helpers import (
    full_sweep_reference,
    lexsort_sweep_reference,
    representative_specs,
    tie_heavy_sample,
)

ACC = CmmSpec("accuracy")
PRODUCT = CmmSpec("tp_tn_product")


def random_tied_instance(gen: np.random.Generator, n: int):
    """Scores and draws on small lattices so exact ties are frequent."""
    scores = gen.integers(0, 5, size=n) / 4.0
    draws = gen.integers(0, 4, size=n) / 4.0
    labels = gen.integers(0, 2, size=n)
    return scores, labels, draws


def result_bits(res) -> tuple:
    th = res.threshold
    return (th.t.hex(), th.p.hex(), res.metric_value.hex(), res.classification_prefix_index)


# ---------------------------------------------------------------------------
# empirical sweep


def test_separable_instance_reaches_perfect_accuracy():
    res = optimize_threshold(
        (np.array([0.9, 0.8, 0.3]), np.array([1, 1, 0]), np.zeros(3)), ACC
    )
    assert res.metric_value == 1.0
    assert res.classification_prefix_index == 1
    assert res.threshold.t == 0.3


def test_all_negative_labels_reach_the_all_negative_value(rng):
    scores = rng.integers(0, 5, size=20) / 4.0
    labels = np.zeros(20, dtype=np.int64)
    draws = rng.random(20)
    all_neg = ConfusionMatrix(tn=1.0, fp=0.0, fn=0.0, tp=0.0)
    for spec in representative_specs():
        res = optimize_threshold((scores, labels, draws), spec)
        assert res.metric_value == evaluate_cmm(spec, all_neg)


def test_small_generated_instance_matches_oracle():
    train = generate(exp1_problem(), 12, 3)
    scores = exp1_problem().evaluate(train.covariates[:, 0])
    samples = (scores, train.labels, train.draws)
    fast = optimize_threshold(samples, PRODUCT)
    slow = brute_force_threshold(samples, PRODUCT)
    assert fast.metric_value == slow.metric_value
    assert fast.classification_prefix_index == slow.classification_prefix_index


def test_single_sample_prefers_classify_all_one():
    res = optimize_threshold(([0.7], [1], [0.4]), ACC)
    assert res.metric_value == 1.0
    assert res.classification_prefix_index == 0
    assert (res.threshold.t, res.threshold.p) == (0.0, 1.0)


def test_all_one_is_skipped_when_a_zero_score_has_draw_one():
    # No (t, p) labels the first row 1: s > t needs t < 0, z < p needs p > 1.
    sample = (np.array([0.0, 0.5]), np.array([1, 1]), np.array([1.0, 0.3]))
    fast = optimize_threshold(sample, ACC)
    assert result_bits(fast) == result_bits(brute_force_threshold(sample, ACC))
    assert (fast.metric_value, fast.classification_prefix_index) == (0.5, 1)
    assert evaluate_cmm(ACC, empirical_confusion(fast.threshold, sample)) == 0.5


def test_sweep_equals_brute_force_when_draws_reach_one():
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(20261019)))
    specs = representative_specs()
    for _ in range(300):
        n = int(gen.integers(1, 8))
        sample = (gen.integers(0, 3, size=n) / 2.0, gen.integers(0, 2, size=n),
                  gen.integers(0, 3, size=n) / 2.0)
        spec = specs[int(gen.integers(0, len(specs)))]
        fast = optimize_threshold(sample, spec)
        assert result_bits(fast) == result_bits(brute_force_threshold(sample, spec))
        if fast.classification_prefix_index == 0:
            assert not np.any((sample[0] == 0.0) & (sample[2] == 1.0))


def test_tied_scores_split_by_draw_ordering():
    res = optimize_threshold(
        (np.array([0.5, 0.5]), np.array([1, 0]), np.array([0.2, 0.8])), PRODUCT
    )
    # The draw-0.8 sample sorts first and is excluded; the draw-0.2 sample
    # stays classified 1.  Threshold (0.5, 0.8) reproduces that split.
    assert res.metric_value == 0.25
    assert res.classification_prefix_index == 1
    assert (res.threshold.t, res.threshold.p) == (0.5, 0.8)


def test_a_repeated_score_draw_pair_is_never_split():
    # Any (t, p) labels both rows alike, so prefix 1, accuracy 1.0 at
    # (0.5, 0.3), is not a classification; it used to be reported.
    sample = (np.array([0.5, 0.5]), np.array([0, 1]), np.array([0.3, 0.3]))
    fast = optimize_threshold(sample, ACC)
    assert result_bits(fast) == result_bits(brute_force_threshold(sample, ACC))
    assert (fast.metric_value, fast.classification_prefix_index) == (0.5, 0)
    assert evaluate_cmm(ACC, empirical_confusion(fast.threshold, sample)) == 0.5


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=39),
    signed_zeros=st.booleans(),
)
def test_every_reported_threshold_gives_its_value_on_lattices(seed, n, signed_zeros):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    scores = gen.integers(0, 5, size=n) / 4.0
    draws = gen.integers(0, 5, size=n) / 4.0
    if signed_zeros:
        scores[(scores == 0.0) & (gen.random(n) < 0.5)] = -0.0
        draws[(draws == 0.0) & (gen.random(n) < 0.5)] = -0.0
    sample = (scores, gen.integers(0, 2, size=n), draws)
    for spec in representative_specs():
        fast = optimize_threshold(sample, spec)
        assert result_bits(fast) == result_bits(brute_force_threshold(sample, spec))
        assert not np.signbit([fast.threshold.t, fast.threshold.p]).any()
        again = evaluate_cmm(spec, empirical_confusion(fast.threshold, sample))
        assert again == fast.metric_value


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=50),
    spec_i=st.integers(min_value=0, max_value=13),
)
def test_sweep_equals_brute_force_on_tied_instances(seed, n, spec_i):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    scores, labels, draws = random_tied_instance(gen, n)
    spec = representative_specs()[spec_i]
    fast = optimize_threshold((scores, labels, draws), spec)
    slow = brute_force_threshold((scores, labels, draws), spec)
    assert fast.metric_value == slow.metric_value
    assert fast.classification_prefix_index == slow.classification_prefix_index


# ---------------------------------------------------------------------------
# pruned sweep: only the tie groups whose corner reaches the best cut are sorted


def score_step_sample(gen: np.random.Generator, n: int):
    """The benchmark's tune layout: scores on 1/100 steps, about 30 % positives
    scored higher, and distinct draws on a 1e-9 grid."""
    labels = (gen.random(n) < 0.3).astype(np.int64)
    scores = gen.binomial(100, np.where(labels == 1, 0.55, 0.45)) / 100.0
    return scores, labels, gen.choice(10**9 + 1, n, replace=False) / 1e9


@pytest.mark.parametrize("layout", [
    "score steps", "continuous", "tied draws",
    "all positive", "all positive, score 0 with draw 1", "all negative",
])
def test_pruned_sweep_equals_full_sweep_at_size(layout):
    # 5e4 rows is past the brute-force oracle's reach, so a sweep over every
    # prefix of one lexsort is the reference here.
    gen = np.random.default_rng(50_000)
    scores, labels, draws = score_step_sample(gen, 50_000)
    n = scores.size
    if layout == "continuous":
        scores = gen.random(scores.size)
    elif layout == "tied draws":  # repeated pairs, the lexsort fallback, skips
        draws = gen.integers(0, 1_001, scores.size) / 1_000.0
        scores[:300] = 0.0
        scores[:300:2] = -0.0
        draws[:3] = 1.0
    elif layout == "all negative":
        labels[:] = 0
    elif layout.startswith("all positive"):
        labels[:] = 1
        if layout.endswith("draw 1"):  # no threshold reaches prefix 0
            scores[0], draws[0] = 0.0, 1.0
    for spec in representative_specs():
        res = optimize_threshold((scores, labels, draws), spec)
        want = full_sweep_reference(scores, labels, draws, spec)
        assert result_bits(res) == result_bits(want), spec
        # The two ends of the sorted run: its first prefix, the one after
        # it, and prefix n.
        winner = {
            "all positive": 0,
            "all positive, score 0 with draw 1": 1,
            "all negative": n if spec.kind in ("accuracy", "weighted_accuracy") else 0,
        }.get(layout)
        if winner is not None:
            assert res.classification_prefix_index == winner, spec
            applied = empirical_confusion(res.threshold, (scores, labels, draws))
            assert evaluate_cmm(spec, applied) == res.metric_value, spec


@pytest.fixture
def sorted_rows(monkeypatch) -> list[int]:
    """The row count of every ``_sweep_order`` call the sweep makes."""
    rows = []

    def counted(g, draws):
        rows.append(g.size)
        return _sweep_order(g, draws)

    monkeypatch.setattr(threshold_opt, "_sweep_order", counted)
    return rows


def test_pruned_sweep_sorts_under_a_third_of_a_tie_heavy_sample(sorted_rows):
    scores, labels, draws = score_step_sample(np.random.default_rng(31), 50_000)
    for spec in representative_specs():
        sorted_rows.clear()
        optimize_threshold((scores, labels, draws), spec)
        assert 0 < sum(sorted_rows) < scores.size / 3, spec


def test_pruned_sweep_sorts_part_of_a_small_tie_heavy_sample(sorted_rows):
    # The k = 21 k-NN scores of an exp1 tuning sample lie on a 1/21 grid.
    for seed in (1, 2, 3):
        train = generate(exp1_problem(), 500, seed)
        model = KnnModel.fit(train.covariates, train.labels, 21)
        sample = (model.predict(train.covariates[:, 0]), train.labels, train.draws)
        for spec in representative_specs():
            sorted_rows.clear()
            res = optimize_threshold(sample, spec)
            assert 0 < sum(sorted_rows) < 500, (seed, spec)
            want = brute_force_threshold(sample, spec)
            assert result_bits(res) == result_bits(want), (seed, spec)


def exact_key(spec: CmmSpec, tn, fp, fn, tp) -> Fraction:
    """A rational that orders Fraction cells as the measure's exact values do.

    It is the value itself, or for mcc value * |value| and for
    ``tp^theta * tn`` value^q with theta = p / q.  The representative
    parameters are dyadic, so the float code's coefficients are exact too.
    """
    q = Fraction(spec.param) if spec.param is not None else None
    if spec.kind == "accuracy":
        return tp + tn
    if spec.kind == "weighted_accuracy":
        return (1 - q) * tp + q * tn
    if spec.kind == "tp_tn_product":
        return tp * tn
    if spec.kind == "tp_pow_theta_tn":
        return tp**q.numerator * tn**q.denominator
    if spec.kind == "mcc":
        num = tp * tn - fp * fn
        den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        return num * abs(num) / den if den else Fraction(0)
    if spec.kind == "precision":
        num, den = tp, tp + fp
    elif spec.kind == "recall":
        num, den = tp, tp + fn
    else:
        num, den = (1 + q * q) * tp, (1 + q * q) * tp + fp + q * q * fn
    return num / den if den else Fraction(0)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=40),
    signed_zeros=st.booleans(),
)
def test_corners_bound_their_groups_and_closed_groups_miss_the_optimum(
    seed, n, signed_zeros
):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    scores = gen.integers(0, 5, size=n) / 4.0
    draws = gen.integers(0, 5, size=n) / 4.0
    if signed_zeros:
        scores[(scores == 0.0) & (gen.random(n) < 0.5)] = -0.0
    labels = gen.integers(0, 2, size=n)
    order = lexsort_sweep_reference(scores, draws)
    s, z = scores[order], draws[order]
    cum_pos = np.concatenate(([0], np.cumsum(labels[order]))).tolist()
    npos = cum_pos[-1]
    reachable = [j for j in range(n + 1) if (
        j == n or (j == 0 and not np.any((scores == 0.0) & (draws == 1.0)))
        or (0 < j < n and not (s[j] == s[j - 1] and z[j] == z[j - 1]))
    )]

    def cells(j, pos):
        neg = j - pos
        return (Fraction(neg, n), Fraction(n - npos - neg, n), Fraction(pos, n),
                Fraction(npos - pos, n))

    for spec in representative_specs():
        exact = [exact_key(spec, *cells(j, cum_pos[j])) for j in range(n + 1)]
        best = max(exact[j] for j in reachable)
        _, rows, pos = _score_cuts(scores, labels)
        open_groups = threshold_opt._open_groups(spec, rows, pos, 0 in reachable)
        rows, pos = rows.tolist(), pos.tolist()
        for g in range(len(rows) - 1):
            a, b = rows[g], rows[g + 1]
            corner = exact_key(spec, *cells(b - (pos[g + 1] - pos[g]), pos[g]))
            assert max(exact[a:b + 1]) <= corner, (spec, g)
            if g not in open_groups:  # no prefix ending in the group may win
                assert max(exact[a + 1:b + 1]) < best, (spec, g)


def test_brute_force_rejects_large_instances():
    n = 10_001
    with pytest.raises(ParameterDomainError):
        brute_force_threshold((np.full(n, 0.5), np.zeros(n), np.zeros(n)), ACC)


def test_sweep_rejects_nan_and_out_of_range_scores():
    # Both inputs used to be accepted: the NaN row sorted to the end of the
    # sweep and was counted as positive, reporting accuracy 1.0 for a
    # threshold (t=0.2, p=0.1) that classifies it negative.
    labels = np.array([0, 1, 1])
    draws = np.array([0.1, 0.5, 0.9])
    for scores in ([0.2, np.nan, 0.7], [0.2, 1.7, -3.0]):
        samples = (np.array(scores), labels, draws)
        with pytest.raises(ParameterDomainError):
            optimize_threshold(samples, ACC)
        with pytest.raises(ParameterDomainError):
            optimize_threshold_deterministic(samples, ACC)


def test_result_validation():
    with pytest.raises(ParameterDomainError):
        ThresholdSearchResult(
            threshold=optimize_threshold(([0.5], [1], [0.1]), ACC).threshold,
            metric_value=1.0,
            classification_prefix_index=-1,
        )
    with pytest.raises(ParameterDomainError):
        ThresholdSearchResult(StochasticThreshold(0.0, 0.0), 0.5, classification_prefix_index=1.5)


# ---------------------------------------------------------------------------
# sorted-prefix kernel


# Lattices with signed zeros and an ulp neighbour: ties everywhere, and two
# draws that a packed (score, draw) float key would merge.
TIE_SCORES = st.sampled_from([-0.0, 0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 1.0])
TIE_DRAWS = st.sampled_from([0.0, 0.5, np.nextafter(0.5, 0.0), 1.0])


def group_numbers(scores) -> np.ndarray:
    """Each score's index among the distinct scores (``0.0 == -0.0``)."""
    return np.searchsorted(np.unique(scores), scores)


def assert_sweep_order(scores, draws):
    """``_sweep_order`` equals the lexsort order and marks exactly its repeated pairs."""
    want = lexsort_sweep_reference(scores, draws)
    order, repeat = _sweep_order(group_numbers(scores), draws)
    # The permutation, since 0.0 == -0.0 hides a swapped pair from the values.
    assert np.array_equal(order, want)
    s, z = scores[want], draws[want]
    pairs = (s[1:] == s[:-1]) & (z[1:] == z[:-1])
    assert not pairs.any() if repeat is None else np.array_equal(repeat, pairs)


def assert_score_cuts(scores, labels):
    """``_score_cuts`` equals a stable-argsort cumsum read at the cuts."""
    u, rows, pos = _score_cuts(scores, labels)
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    cum_pos = np.concatenate(([0], np.cumsum(labels[order])))
    cuts = [j for j in range(1, s.size + 1) if j == s.size or s[j] != s[j - 1]]
    assert rows.dtype == pos.dtype == np.int64
    assert rows.tolist() == [0] + cuts
    assert pos.tolist() == cum_pos[[0] + cuts].tolist()
    assert np.array_equal(u, s[np.array(cuts) - 1])  # 0.0 == -0.0: either sign
    assert np.all(u[1:] > u[:-1])


@settings(max_examples=80, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(TIE_SCORES, TIE_DRAWS, st.integers(0, 1)), min_size=1, max_size=30
    )
)
def test_kernel_order_equals_lexsort(pairs):
    scores = np.array([p[0] for p in pairs])
    draws = np.array([p[1] for p in pairs])
    labels = np.array([p[2] for p in pairs])
    assert_sweep_order(scores, draws)
    # Without draws the searches read counts only at the cuts between
    # distinct scores, which no order inside a tie group changes.
    assert_score_cuts(scores, labels)


@settings(max_examples=120, deadline=None)
@given(
    pairs=st.lists(st.tuples(TIE_SCORES, st.integers(0, 1)), min_size=1, max_size=40),
    labeling=st.sampled_from(["drawn", "all positive", "all negative"]),
)
@example(pairs=[(0.5, 1)], labeling="drawn")
@example(pairs=[(-0.0, 0)], labeling="all positive")
@example(pairs=[(0.0, 1), (-0.0, 0), (0.0, 1)], labeling="drawn")
def test_score_cuts_equal_a_stable_argsort_cumsum(pairs, labeling):
    scores = np.array([p[0] for p in pairs])
    labels = np.array([p[1] for p in pairs], dtype=np.int64)
    if labeling != "drawn":
        labels[:] = labeling == "all positive"
    assert_score_cuts(scores, labels)


@pytest.mark.parametrize("first, last", [(10, 15_000), (100, 19_000), (0, 19_999)])
@pytest.mark.parametrize("pair", [(0.5, 0.5), (0.0, -0.0)])
def test_kernel_order_with_one_equal_draw_pair_at_size(first, last, pair):
    # Distinct draws but for one equal pair far apart, at a shared score, so
    # only the pair's order tells an unstable draw sort from the stable one.
    n = 20_000
    gen = np.random.default_rng(11)
    draws = (gen.permutation(n) + 1.0) / (n + 1.0)
    draws[[first, last]] = pair
    scores = gen.integers(0, 50, n) / 49.0
    scores[last] = scores[first]
    assert_sweep_order(scores, draws)


AT_SIZE = 200_000


def test_key_order_on_score_steps_with_distinct_grid_draws():
    gen = np.random.default_rng(21)
    scores = gen.binomial(100, 0.5, AT_SIZE) / 100.0
    draws = gen.choice(10**9 + 1, AT_SIZE, replace=False) / 1e9
    assert_sweep_order(scores, draws)


def test_key_order_on_score_steps_with_uniform_draws():
    gen = np.random.default_rng(22)
    scores = gen.binomial(100, 0.5, AT_SIZE) / 100.0
    assert_sweep_order(scores, gen.random(AT_SIZE))


def test_key_order_on_continuous_scores():
    gen = np.random.default_rng(23)
    scores = gen.random(AT_SIZE)
    assert np.unique(scores).size == AT_SIZE
    assert_sweep_order(scores, gen.random(AT_SIZE))


@pytest.mark.parametrize("leader", [0, 1])
def test_key_collision_one_ulp_apart_in_a_high_group_falls_back(leader):
    # Both orientations give the same key array, so a key sort alone would
    # put the pair in the same positions for both and get one of them wrong.
    gen = np.random.default_rng(24)
    scores = gen.integers(0, 2_000, AT_SIZE) / 1_999.0
    draws = gen.random(AT_SIZE)
    level = np.unique(scores)[1_500]
    pair = [1_000, 150_000]
    first, last = pair[leader], pair[1 - leader]
    # ``first`` has the larger draw, so it leads in the sweep order.
    scores[pair] = level
    draws[[first, last]] = 0.5, np.nextafter(0.5, 0.0)
    group = float(np.searchsorted(np.unique(scores), level))
    assert group >= 1_024
    assert 2 * group - draws[first] == 2 * group - draws[last]  # 2g - draw merges the pair
    assert_sweep_order(scores, draws)


def test_key_order_separates_draw_0_from_the_next_groups_draw_1():
    # 2g - draw keeps a whole step between groups, so these keys differ.
    scores, draws = np.array([0.2, 0.4]), np.array([0.0, 1.0])
    order, repeat = _sweep_order(group_numbers(scores), draws)
    assert order.tolist() == lexsort_sweep_reference(scores, draws).tolist()
    assert repeat is None


def test_key_order_with_signed_zero_scores_in_one_group():
    gen = np.random.default_rng(25)
    scores = gen.integers(0, 20, AT_SIZE) / 19.0
    scores[(scores == 0.0) & (gen.random(AT_SIZE) < 0.5)] = -0.0
    assert np.signbit(scores).any() and (scores == 0.0).sum() > np.signbit(scores).sum()
    assert_sweep_order(scores, gen.random(AT_SIZE))


@pytest.mark.parametrize("n", [40, 3_000, 50_000])
def test_deterministic_search_is_invariant_to_row_order(n):
    # The draw-less sort is unstable, so rows must not move the result.
    gen = np.random.default_rng(n)
    scores, labels = tie_heavy_sample(gen, n)
    for spec in (ACC, PRODUCT, CmmSpec("f_beta", 1.0), CmmSpec("mcc")):
        want = optimize_threshold_deterministic((scores, labels), spec)
        for _ in range(50):
            perm = gen.permutation(n)
            got = optimize_threshold_deterministic((scores[perm], labels[perm]), spec)
            assert got.classification_prefix_index == want.classification_prefix_index
            bits = np.array([got.threshold.t, got.threshold.p, got.metric_value])
            ref = np.array([want.threshold.t, want.threshold.p, want.metric_value])
            assert bits.tobytes() == ref.tobytes()


def test_deterministic_threshold_at_a_signed_zero_group_is_positive_zero():
    # Everything in the zero group labeled 0, the rest 1: the cut after it wins.
    scores = np.array([-0.0, 0.0, -0.0, 0.5, 0.75])
    labels = np.array([0, 0, 0, 1, 1])
    for perm in ([0, 1, 2, 3, 4], [1, 0, 2, 3, 4], [3, 4, 2, 1, 0]):
        res = optimize_threshold_deterministic((scores[perm], labels[perm]), ACC)
        assert res.classification_prefix_index == 3
        assert res.metric_value == 1.0
        assert not np.signbit(res.threshold.t)


def generator_candidates(s: np.ndarray) -> list[int]:
    """Deterministic candidates as a loop over the sorted scores."""
    cand = [0] if s[0] > 0.0 else []
    cand.extend(j for j in range(1, s.size) if s[j] != s[j - 1])
    cand.append(s.size)
    return cand


def test_deterministic_candidates_equal_the_loop(rng):
    # The cuts of _score_cuts, with prefix 0 when every score is positive,
    # are the loop's candidates, and the search reports one of them.
    cases = [np.array([0.0]), np.array([0.3]), np.array([0.0, 0.0, 0.5]),
             np.array([0.2, 0.2]), np.array([0.0, 0.25, 0.25, 1.0])]
    cases += [rng.integers(0, 5, size=int(n)) / 4.0 for n in rng.integers(1, 40, 30)]
    for scores in cases:
        labels = rng.integers(0, 2, scores.size)
        u, rows, _ = _score_cuts(scores, labels)
        got = ([0] if u[0] > 0.0 else []) + rows[1:].tolist()
        assert got == generator_candidates(np.sort(scores))
        res = optimize_threshold_deterministic((scores, labels), ACC)
        assert res.classification_prefix_index in got


def argsort_deterministic(scores, labels, spec):
    """(t, p, value, prefix) of the deterministic search by an argsort and a
    cumsum read at the candidate prefixes."""
    order = np.argsort(scores)
    s = scores[order]
    cum_pos = np.concatenate(([0], np.cumsum(labels[order])))
    cand = np.flatnonzero(np.concatenate(([s[0] > 0.0], s[1:] != s[:-1], [True])))
    n, npos = s.size, int(cum_pos[-1])
    pos = cum_pos[cand]
    neg = cand - pos
    vals = np.asarray(_cmm_values(spec, neg / n, (n - npos - neg) / n, pos / n, (npos - pos) / n))
    i = int(np.argmax(vals))
    best = int(cand[i])
    t = float(s[best - 1]) + 0.0 if best else 0.0
    return t, 0.0, float(vals[i]), best


@pytest.mark.parametrize("kind", ["tie-heavy", "continuous"])
def test_deterministic_search_equals_the_argsort_search(kind):
    gen = np.random.default_rng(100_000)
    scores, labels = tie_heavy_sample(gen, 100_000)
    if kind == "continuous":
        scores = gen.random(scores.size)
    for spec in representative_specs():
        t, p, value, prefix = argsort_deterministic(scores, labels, spec)
        got = optimize_threshold_deterministic((scores, labels), spec)
        assert got.classification_prefix_index == prefix
        bits = np.array([got.threshold.t, got.threshold.p, got.metric_value])
        assert bits.tobytes() == np.array([t, p, value]).tobytes()


def test_deterministic_search_ignores_draws(rng):
    for _ in range(40):
        scores, labels, draws = random_tied_instance(rng, int(rng.integers(1, 40)))
        spec = representative_specs()[int(rng.integers(0, 14))]
        with_draws = optimize_threshold_deterministic((scores, labels, draws), spec)
        assert with_draws == optimize_threshold_deterministic((scores, labels), spec)


# ---------------------------------------------------------------------------
# deterministic restriction


def test_deterministic_equals_stochastic_on_distinct_positive_scores(rng):
    for _ in range(20):
        n = int(rng.integers(2, 40))
        scores = rng.permutation(np.linspace(0.05, 0.95, n))
        labels = rng.integers(0, 2, size=n)
        draws = rng.random(n)
        spec = representative_specs()[int(rng.integers(0, 14))]
        sto = optimize_threshold((scores, labels, draws), spec)
        det = optimize_threshold_deterministic((scores, labels), spec)
        assert det.metric_value == sto.metric_value
        assert det.classification_prefix_index == sto.classification_prefix_index
        assert det.threshold.p == 0.0


def test_deterministic_cannot_split_a_pure_tie():
    samples = (np.array([0.5, 0.5]), np.array([1, 0]))
    det = optimize_threshold_deterministic(samples, PRODUCT)
    assert det.metric_value == 0.0
    sto = optimize_threshold(
        (np.array([0.5, 0.5]), np.array([1, 0]), np.array([0.2, 0.8])), PRODUCT
    )
    assert sto.metric_value == 0.25


def test_deterministic_offers_all_one_only_for_positive_scores():
    # A zero score cannot be re-admitted by any deterministic threshold.
    res = optimize_threshold_deterministic(([0.0, 0.6], [1, 1]), CmmSpec("recall"))
    assert res.metric_value == 0.5
    res2 = optimize_threshold_deterministic(([0.4, 0.6], [1, 1]), CmmSpec("recall"))
    assert res2.metric_value == 1.0
    assert res2.classification_prefix_index == 0
    assert (res2.threshold.t, res2.threshold.p) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# population search

LINEAR_FRACTIONAL = ("accuracy", "weighted_accuracy", "precision", "recall", "f_beta")


def random_plateau_eta(gen: np.random.Generator) -> RegressionFunctionSpec:
    """Four pieces: plateaus on the quarter lattice, slopes ending on it or not.

    Slopes that end on a plateau's value make breakpoints shared by a tie
    set and a sloped piece.
    """
    knots = np.sort(gen.choice(np.arange(1, 16), size=3, replace=False)) / 16.0
    edges = np.concatenate(([0.0], knots, [1.0]))
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if gen.random() < 0.5:
            v = gen.integers(0, 5) / 4.0
            pieces.append(Piece(lo, hi, v, v))
        elif gen.random() < 0.5:
            v0, v1 = gen.integers(0, 5, size=2) / 4.0
            pieces.append(Piece(lo, hi, v0, v1))
        else:
            v0, v1 = gen.random(2)
            pieces.append(Piece(lo, hi, v0, v1))
    return RegressionFunctionSpec(pieces=tuple(pieces))


def grid_cells(eta: RegressionFunctionSpec, n_t: int = 40_001) -> np.ndarray:
    """Cells (tn, fp, fn, tp) on an n_t-point t grid plus eta's values, with a
    101-point p grid wherever t carries tie mass; shape (4, m)."""
    values = [v for pc in eta.pieces for v in (pc.v_lo, pc.v_hi)]
    ps = np.linspace(0.0, 1.0, 101)
    ts = np.unique(np.concatenate((np.linspace(0.0, 1.0, n_t), values)))
    base, tie = map(np.array, population_confusion_parts(eta, ts))
    tied = tie.any(axis=0)
    cols = base[:, ~tied]
    if tied.any():
        on_ties = base[:, tied, None] + ps * tie[:, tied, None]
        cols = np.concatenate((cols, on_ties.reshape(4, -1)), axis=1)
    return cols


def test_population_search_beats_a_fine_grid():
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(20261018)))
    etas = [random_plateau_eta(gen) for _ in range(8)]
    etas += [exp1_problem(), exp2_uci_problem(0.01), exp2_nonuci_problem(0.1)]
    for eta in etas:
        cells = grid_cells(eta)
        for spec in representative_specs():
            res = optimize_population_threshold(eta, spec)
            grid_best = float(np.max(_cmm_values(spec, *cells)))
            assert res.metric_value >= grid_best - 1e-12, (eta, spec)
            # The reported (t, p) attains the reported value.
            base, tie = population_confusion_parts(eta, res.threshold.t)
            c = ConfusionMatrix(*(b + res.threshold.p * s for b, s in zip(base, tie)))
            assert evaluate_cmm(spec, c) == res.metric_value
            # A linear-fractional measure is monotone in p on a tie set.
            if spec.kind in LINEAR_FRACTIONAL:
                assert res.threshold.p in (0.0, 1.0), (eta, spec)


def test_population_search_reads_the_cells_in_three_calls(monkeypatch):
    calls = []

    def counted(eta, t):
        calls.append(t)
        return population_confusion_parts(eta, t)

    monkeypatch.setattr(threshold_opt, "population_confusion_parts", counted)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(20261019)))
    etas = [random_plateau_eta(gen) for _ in range(3)]
    etas += [exp1_problem(), exp2_nonuci_problem(0.1), singleton_problem(0.5)]
    for eta in etas:
        for spec in representative_specs():
            calls.clear()
            optimize_population_threshold(eta, spec)
            # Breakpoints, interval quarter-points, candidates: one array each.
            assert len(calls) == 3, (eta, spec)
            assert all(np.ndim(t) >= 1 for t in calls)


def test_singleton_optimum_matches_closed_form():
    eta = singleton_problem(0.5)
    for theta in (0.5, 1.0, 2.0, 3.7):
        res = optimize_population_threshold(eta, CmmSpec("tp_pow_theta_tn", theta))
        assert res.threshold.t == 0.5
        assert abs(res.threshold.p - theta / (theta + 1)) <= 1e-9
        assert res.classification_prefix_index is None
    # (p * 0.5)^theta * (1 - p) * 0.5 at p = 1/2 for theta = 1.
    assert optimize_population_threshold(
        eta, CmmSpec("tp_pow_theta_tn", 1.0)
    ).metric_value == pytest.approx(0.0625, abs=1e-15)


def test_three_plateau_population_optimum_is_stochastic():
    res = optimize_population_threshold(exp1_problem(), PRODUCT)
    assert (res.threshold.t, res.threshold.p) == (0.5, 0.5)
    assert res.metric_value == pytest.approx(25 / 144, abs=1e-16)


def test_spike_population_f1_matches_closed_form():
    # For the spike shape the best cut c solves (1-c/r) with u = 1 - t:
    # u^2 + u - 1 = 0, giving F1* = 3 - sqrt(5) independent of r.
    for r in (0.01, 0.1, 0.5):
        res = optimize_population_threshold(
            exp2_nonuci_problem(r), CmmSpec("f_beta", 1.0)
        )
        assert abs(res.metric_value - (3.0 - np.sqrt(5.0))) <= 1e-12
