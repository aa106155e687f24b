"""k-NN regression: exact predictions, tie policy, k rules, error norms."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from stochthresh import (
    BoundInputs,
    KnnModel,
    Piece,
    RegressionFunctionSpec,
    average_error,
    select_k,
    uniform_error,
    uniform_error_bound,
)
from stochthresh import knn
from stochthresh.errors import (
    DegenerateInputError,
    ParameterDomainError,
    ShapeError,
    UnsupportedSpecError,
)
from stochthresh.synth import (
    constant_problem,
    exp2_nonuci_problem,
    exp2_uci_problem,
    generate,
)

from helpers import argsort_knn_reference


# ---------------------------------------------------------------------------
# predictions


def test_full_neighborhood_returns_label_mean(rng):
    x = rng.random(30)
    y = rng.integers(0, 2, size=30)
    model = KnnModel.fit(x, y, 30)
    queries = rng.random(9)
    assert np.all(model.predict(queries) == y.mean())


def test_nearest_single_neighbor():
    model = KnnModel.fit([0.0, 0.5, 1.0], [0, 1, 1], 1)
    assert model.predict(0.4) == 1.0
    assert model.predict(0.1) == 0.0


def test_three_point_full_mean():
    model = KnnModel.fit([0.0, 0.5, 1.0], [0, 1, 1], 3)
    for q in (0.0, 0.3, 0.97):
        assert model.predict(q) == pytest.approx(2 / 3)


def test_distance_tie_prefers_canonically_earlier_point():
    model = KnnModel.fit([0.0, 1.0], [0, 1], 1)
    assert model.predict(0.5) == 0.0
    model2d = KnnModel.fit([[0.0, 0.0], [1.0, 1.0]], [0, 1], 1)
    assert model2d.predict([0.5, 0.5]) == 0.0


def test_predictions_invariant_under_training_permutation(rng):
    # Distinct covariate values: row order cannot matter.
    x = rng.permutation(50) / 49.0
    y = rng.integers(0, 2, size=50)
    queries = rng.random(40)
    base = KnnModel.fit(x, y, 5).predict(queries)
    for _ in range(3):
        perm = rng.permutation(50)
        shuffled = KnnModel.fit(x[perm], y[perm], 5).predict(queries)
        assert np.array_equal(base, shuffled)


def test_permutation_invariance_with_label_consistent_duplicates(rng):
    # Duplicated covariate values whose copies agree on the label: any
    # resolution of the index tie gives the same neighborhood mean.  (With
    # conflicting labels on duplicates the prediction is defined by the
    # canonical input order instead, and is only reproducible, not
    # permutation invariant.)
    x = rng.integers(0, 8, size=50) / 7.0
    y = ((x * 7).astype(int) % 2).astype(np.int64)
    queries = rng.random(40)
    base = KnnModel.fit(x, y, 5).predict(queries)
    for _ in range(3):
        perm = rng.permutation(50)
        shuffled = KnnModel.fit(x[perm], y[perm], 5).predict(queries)
        assert np.array_equal(base, shuffled)


def test_fast_path_agrees_with_generic_distance_search(rng):
    # Dyadic training values, some repeated, with half-step queries: every
    # distance comparison is exact, so equidistant rows are true ties and
    # both paths must pick the canonically earliest of them.
    distinct = rng.permutation(65)[:40] / 64.0
    x = np.concatenate((distinct, rng.choice(distinct[:12], size=20)))
    y = rng.integers(0, 2, size=x.size)
    queries = np.concatenate((rng.integers(0, 129, size=60) / 128.0, x[:10]))
    ks = (1, 3, 7, 25, x.size)
    padded = KnnModel.fit(np.c_[x, np.zeros(x.size)], y, 1)
    generic = padded.predict_path(np.c_[queries, np.zeros(queries.size)], ks)
    assert np.array_equal(KnnModel.fit(x, y, 1).predict_path(queries, ks), generic)
    for k, row in zip(ks, generic):
        assert np.array_equal(KnnModel.fit(x, y, k).predict(queries), row)


@pytest.mark.parametrize(
    "x, y, k, query, want",
    [
        # 0.0 and 1.0 are equidistant from 0.5: the first copy of 0.0 wins.
        ([0.0, 0.0, 1.0], [0, 1, 0], 1, 0.5, 0.0),
        # 1.0 is nearest, then the first copy of 0.0.
        ([0.0, 0.0, 0.0, 1.0], [1, 0, 0, 0], 2, 0.6, 0.5),
    ],
)
def test_repeated_values_keep_their_earliest_copies(x, y, k, query, want):
    assert KnnModel.fit(x, y, k).predict(query) == want
    assert KnnModel.fit(x, y, len(x)).predict_path([query], (k,))[0, 0] == want
    padded = KnnModel.fit(np.c_[x, np.zeros(len(x))], y, k)
    assert padded.predict([query, 0.0]) == want


def test_window_boundary_tie_keeps_left_window():
    # Query 1.5 is equidistant from 1.0 and 2.0; the earlier point wins.
    model = KnnModel.fit([0.0, 1.0, 2.0, 3.0], [0, 1, 0, 0], 1)
    assert model.predict(1.5) == 1.0


def test_chunked_multidimensional_prediction_matches_naive(rng):
    n, d, m = 5000, 2, 37
    x = rng.random((n, d))
    y = rng.integers(0, 2, size=n)
    k = 11
    model = KnnModel.fit(x, y, k)
    queries = rng.random((m, d))
    got = model.predict(queries)
    xs = model.x  # canonical order used by the model
    ys = model.y
    for i in range(m):
        d2 = ((queries[i] - xs) ** 2).sum(axis=1)
        nearest = np.argsort(d2, kind="stable")[:k]
        assert got[i] == ys[nearest].mean()


def _assert_path_matches_reference(model, queries, ks):
    path = model.predict_path(queries, ks)
    assert path.shape == (len(ks), len(queries))
    for row, k in zip(path, ks):
        assert np.array_equal(row, argsort_knn_reference(model, queries, k))


@pytest.fixture
def tiny_blocks(monkeypatch):
    # A few query rows per distance block, so block edges are exercised.
    monkeypatch.setattr(knn, "_BLOCK_ELEMENTS", 1000)


def test_predict_path_matches_argsort_reference_random(rng, tiny_blocks):
    n, d = 120, 3
    model = KnnModel.fit(rng.random((n, d)), rng.integers(0, 2, n), 5)
    queries = rng.random((23, d))
    _assert_path_matches_reference(model, queries, (1, 2, 5, 17, 64, n))


def test_predict_path_matches_argsort_reference_on_ties(rng, tiny_blocks):
    # Integer grid covariates with many duplicate rows and integer queries:
    # every squared distance is exact, so the k-th distance is almost
    # always shared and the canonical index order decides the boundary.
    n = 150
    x = rng.integers(0, 4, size=(n, 2)).astype(np.float64)
    y = rng.integers(0, 2, n)
    queries = np.vstack((rng.integers(-1, 5, size=(30, 2)), x[:5])).astype(np.float64)
    model = KnnModel.fit(x, y, 3)
    # k_max decides which boundary ties are kept, so vary it.
    for ks in ((1, 3, 9, 10, 38), (75, 2), (n - 1,), (1, n)):
        _assert_path_matches_reference(model, queries, ks)


def test_predict_path_one_dimension(rng):
    # Dyadic values: the window search and the distance sort agree
    # exactly (see test_fast_path_agrees_with_generic_distance_search).
    x = rng.permutation(65)[:40] / 64.0
    model = KnnModel.fit(x, rng.integers(0, 2, x.size), 7)
    queries = np.concatenate((rng.integers(0, 129, size=50) / 128.0, x[:10]))
    _assert_path_matches_reference(model, queries, (1, 7, 3, 40))
    # With duplicated values the 1-d rule is the per-k window search.
    x = rng.integers(0, 6, size=60) / 5.0
    y = rng.integers(0, 2, 60)
    ks = (60, 1, 4, 13, 4)
    path = KnnModel.fit(x, y, 13).predict_path(queries[:, None], ks)
    for row, k in zip(path, ks):
        assert np.array_equal(row, KnnModel.fit(x, y, k).predict(queries))


def test_predict_path_under_training_permutations(rng, tiny_blocks):
    x = rng.integers(0, 3, size=(60, 3)).astype(np.float64)
    y = (x.sum(axis=1) % 2).astype(np.int64)  # duplicates agree on labels
    queries = rng.integers(0, 3, size=(25, 3)).astype(np.float64) + 0.5
    ks = (1, 4, 11, 37)
    base = KnnModel.fit(x, y, 4).predict_path(queries, ks)
    for _ in range(3):
        perm = rng.permutation(60)
        model = KnnModel.fit(x[perm], y[perm], 4)
        _assert_path_matches_reference(model, queries, ks)
        assert np.array_equal(model.predict_path(queries, ks), base)


def test_single_k_predict_is_the_path_row(rng):
    model = KnnModel.fit(rng.random((80, 4)), rng.integers(0, 2, 80), 9)
    queries = rng.random((11, 4))
    assert np.array_equal(
        model.predict(queries), model.predict_path(queries, (2, 9, 30))[1]
    )
    assert model.predict(queries[0]) == model.predict_path(queries[0], (9,))[0, 0]


def test_distance_block_size_counts_dimension(monkeypatch):
    # Query rows per block = max(1, budget // (n * d)).  Each block is
    # partitioned twice: all n filter distances, then its exact candidates.
    shapes = []
    real_partition = np.partition

    def recording_partition(a, kth, axis):
        shapes.append(a.shape)
        return real_partition(a, kth, axis=axis)

    monkeypatch.setattr(knn.np, "partition", recording_partition)
    monkeypatch.setattr(knn, "_BLOCK_ELEMENTS", 600)
    rng = np.random.default_rng(0)
    model = KnnModel.fit(rng.random((20, 10)), rng.integers(0, 2, 20), 2)
    model.predict(rng.random((7, 10)))
    assert [s[0] for s in shapes] == [3, 3, 3, 3, 1, 1]
    assert shapes[::2] == [(3, 20), (3, 20), (1, 20)]
    shapes.clear()
    model = KnnModel.fit(rng.random((100, 10)), rng.integers(0, 2, 100), 2)
    model.predict(rng.random((2, 10)))  # one row already exceeds the budget
    assert [s[0] for s in shapes] == [1, 1, 1, 1]
    assert shapes[::2] == [(1, 100), (1, 100)]


# The n-d path filters pairs by the BLAS expansion |q|^2 - 2 q.x + |x|^2 and
# rechecks the survivors exactly; these cases stress the filter's slack.


@pytest.mark.parametrize("d", [2, 3, 10])
def test_predict_path_integer_lattice_with_duplicates(rng, tiny_blocks, d):
    x = rng.integers(0, 3, size=(90, d)).astype(np.float64)
    x = np.vstack((x, x[:30]))  # exact duplicate rows
    y = rng.integers(0, 2, x.shape[0])
    queries = np.vstack((rng.integers(-1, 4, size=(25, d)), x[:5])).astype(np.float64)
    model = KnnModel.fit(x, y, 3)
    for ks in ((1, 3, 8, 40), (119,), (2, 60)):
        _assert_path_matches_reference(model, queries, ks)


def test_predict_path_thirty_dimensions(rng, tiny_blocks):
    model = KnnModel.fit(rng.standard_normal((300, 30)), rng.integers(0, 2, 300), 5)
    queries = rng.standard_normal((40, 30))
    _assert_path_matches_reference(model, queries, (1, 2, 5, 16, 64, 300))


def test_predict_path_large_offsets(rng, tiny_blocks):
    # |q|^2 and |x|^2 near 3e16 cancel to distances below 3: the expansion
    # keeps almost no correct digit, so the slack admits every column.
    x = 1e8 + rng.random((150, 3))
    model = KnnModel.fit(x, rng.integers(0, 2, 150), 4)
    queries = 1e8 + rng.random((30, 3))
    _assert_path_matches_reference(model, queries, (1, 4, 9, 30))
    # The same on a quarter-step lattice, where exact distances tie.
    x = 1e8 + rng.integers(0, 5, size=(150, 3)) * 0.25
    model = KnnModel.fit(x, rng.integers(0, 2, 150), 4)
    queries = 1e8 + rng.integers(0, 9, size=(30, 3)) * 0.125
    _assert_path_matches_reference(model, queries, (1, 4, 9, 30, 150))


def test_predict_path_overflowing_squares(rng, tiny_blocks):
    # Squares of coordinates near 1e155 overflow to inf in both the filter
    # and the exact distances; every row of the filter then admits all columns.
    x = rng.standard_normal((80, 4)) * 1e155
    model = KnnModel.fit(x, rng.integers(0, 2, 80), 3)
    queries = np.vstack((rng.standard_normal((20, 4)) * 1e155, x[:3]))
    with np.errstate(over="ignore"):
        _assert_path_matches_reference(model, queries, (1, 3, 10, 80))


def test_predict_path_validation(rng):
    model = KnnModel.fit(rng.random((10, 2)), rng.integers(0, 2, 10), 2)
    q = rng.random((3, 2))
    for ks in ((), (0,), (11,), (2, 2.0)):
        with pytest.raises(ParameterDomainError):
            model.predict_path(q, ks)
    with pytest.raises(ShapeError):
        model.predict_path(rng.random((3, 3)), (1,))
    with pytest.raises(ParameterDomainError):
        model.predict(np.array([[0.1, np.nan]]))
    with pytest.raises(ParameterDomainError):
        KnnModel.fit([[0.1, np.inf], [0.2, 0.3]], [0, 1], 1)


def test_fit_and_predict_validation(rng):
    with pytest.raises(DegenerateInputError):
        KnnModel.fit(np.empty((0, 1)), np.empty(0), 1)
    with pytest.raises(ShapeError):
        KnnModel.fit([[0.1], [0.2]], [0], 1)
    with pytest.raises(ParameterDomainError):
        KnnModel.fit([0.1, 0.2], [0, 2], 1)
    with pytest.raises(ParameterDomainError):
        KnnModel.fit([0.1, 0.2], [0, 1], 0)
    with pytest.raises(ParameterDomainError):
        KnnModel.fit([0.1, 0.2], [0, 1], 3)
    model = KnnModel.fit(rng.random((10, 2)), rng.integers(0, 2, 10), 2)
    with pytest.raises(ShapeError):
        model.predict([0.1, 0.2, 0.3])
    with pytest.raises(ShapeError):
        KnnModel.fit([0.1, 0.2], [0, 1], 1).predict([[0.1, 0.2]])


# ---------------------------------------------------------------------------
# neighborhood-size rules


def test_imbalance_scaled_rule_values():
    assert select_k("exp2", 10_000, 0.01) == 2154
    # r = n^{-1/2} turns the rule into floor(n^{5/6}) up to float rounding.
    assert select_k("exp2", 1000, 1000 ** -0.5) == 316
    assert select_k("exp2", 500, 500 ** -0.5) == 177


def test_balanced_rule_values():
    assert select_k("exp1", 100) == 21
    assert select_k("exp1", 10_000) == 464


#: (rule, n, r, alpha, d) -> k, pinned as literals: every rule, the clamps to
#: 1 and to n, values a rule never reads, and theorem's rounding.
K_TABLE = [
    ("exp1", 1, 1.0, 1.0, 1, 1),
    ("exp1", 2, 1.0, 1.0, 1, 1),
    ("exp1", 100, 1.0, 1.0, 1, 21),
    ("exp1", 10_000, 1.0, 1.0, 1, 464),
    ("exp1", 10_000, 2.0, 1.0, 1, 464),  # exp1 never reads r
    ("exp1", 10_000, 0.1, 1.0, 1, 464),
    ("exp1", 300, 0.1, 0.5, 2, 6),
    ("exp1", 12_345, 1.0, 0.3, 10, 1),
    ("exp2", 1, 1.0, 1.0, 1, 1),
    ("exp2", 10, 1e-6, 1.0, 1, 10),  # clamped to n
    ("exp2", 500, 500 ** -0.5, 1.0, 1, 177),
    ("exp2", 1000, 1000 ** -0.5, 1.0, 1, 316),
    ("exp2", 10_000, 0.01, 1.0, 1, 2154),
    ("exp2", 10_000, 1.0, 1.0, 1, 464),
    ("exp2", 300, 0.1, 0.5, 2, 31),
    ("exp2", 12_345, 0.05, 0.3, 10, 28),
    ("theorem", 1, 1.0, 1.0, 1, 1),  # log 1 = 0, clamped to 1
    ("theorem", 2, 1.0, 1.0, 30, 1),  # rounds 0.74 up to 1
    ("theorem", 10, 1e-6, 1.0, 1, 10),  # 612.9, clamped to n
    ("theorem", 100, 1.0, 1.0, 1, 36),  # rounds 35.84 up
    ("theorem", 10_000, 0.1, 1.0, 1, 2096),  # rounds 2096.16 down
    ("theorem", 300, 0.1, 0.5, 2, 99),
    ("theorem", 12_345, 0.05, 0.3, 10, 239),  # rounds 238.75 up
    ("theorem", 1_000_000, 0.5, 1.0, 3, 1840),
    ("extreme", 1, 1.0, 1.0, 1, 1),
    ("extreme", 17, 1.0, 1.0, 1, 17),
    ("extreme", 4096, 0.1, 0.5, 2, 4096),
    ("extreme", 300, 2.0, 0.0, 0, 300),  # extreme never reads alpha, d or r
]


@pytest.mark.parametrize("rule, n, r, alpha, d, k", K_TABLE)
def test_pinned_k_table(rule, n, r, alpha, d, k):
    assert select_k(rule, n, r=r, alpha=alpha, d=d) == k


def test_named_rule_table():
    assert knn.K_RULES == ("exp1", "exp2", "theorem", "extreme")
    # extreme ignores alpha, d and r, so values its rule never reads pass.
    assert select_k("extreme", 300, r=2.0, alpha=0.0, d=0) == 300
    # exp1 ignores r the same way.
    assert select_k("exp1", 300, r=2.0) == select_k("exp1", 300)
    with pytest.raises(ParameterDomainError):
        select_k("exp2", 300, r=2.0)
    with pytest.raises(ParameterDomainError, match="exp1/exp2/theorem/extreme"):
        select_k("balanced", 300)


def test_extreme_rule_uses_everything():
    for n in (1, 17, 4096):
        assert select_k("extreme", n) == n


def test_log_corrected_rule_dominates_floored_rule():
    for n in (10, 100, 10_000):
        k_plain = select_k("exp2", n, r=0.1)
        k_logged = select_k("theorem", n, r=0.1)
        assert 1 <= k_plain <= k_logged <= n


def test_rule_clamps_to_sample_size():
    assert select_k("exp2", 10, r=1e-6) == 10
    assert select_k("exp1", 1) == 1


def test_rule_validation():
    for rule in ("exp1", "exp2", "theorem"):
        with pytest.raises(ParameterDomainError):
            select_k(rule, 100, alpha=0.0)
        with pytest.raises(ParameterDomainError):
            select_k(rule, 100, alpha=1.5)
        with pytest.raises(ParameterDomainError):
            select_k(rule, 100, d=0)
    for rule in ("exp2", "theorem"):
        with pytest.raises(ParameterDomainError):
            select_k(rule, 100, r=0.0)
    for rule in knn.K_RULES:
        with pytest.raises(ParameterDomainError):
            select_k(rule, 0)
    with pytest.raises(ParameterDomainError):
        select_k("other", 100)
    # The first bad value in the order alpha, d, r, n names the error.
    with pytest.raises(ParameterDomainError, match="alpha"):
        select_k("theorem", 0, r=0.0, alpha=0.0, d=0)
    with pytest.raises(ParameterDomainError, match="dimension"):
        select_k("theorem", 0, r=0.0, d=0)
    with pytest.raises(ParameterDomainError, match="imbalance"):
        select_k("theorem", 0, r=0.0)


# ---------------------------------------------------------------------------
# canonical fit order


def _lexsort_rows(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Canonical rows by one stable lexsort: covariate tuple ascending, then index."""
    x = np.asarray(x, dtype=np.float64)
    x = x[:, None] if x.ndim == 1 else x
    order = np.lexsort(x.T[::-1])
    return x[order], np.asarray(y)[order].astype(np.float64)


def _fit_order_case(case: str, gen):
    """Covariates, 0/1 labels and queries of one fit-order case."""
    if case == "continuous-1d":
        x, queries = gen.random(500), gen.random(60)
    elif case == "continuous-10d":
        x, queries = gen.random((300, 10)), gen.random((25, 10))
    elif case == "lattice-2d":
        # First coordinates tie everywhere: the second one decides.
        x = gen.integers(0, 5, (200, 2)).astype(np.float64)
        queries = gen.integers(-1, 6, (25, 2)).astype(np.float64)
    elif case in ("duplicates-1d", "duplicates-3d"):
        # Exact duplicate rows, each copy with its own label: the row index
        # decides their order.
        d = 1 if case == "duplicates-1d" else 3
        rows = gen.integers(0, 3, (40, d)).astype(np.float64)
        x = np.vstack((rows, rows[:25], rows[:10]))[gen.permutation(75)]
        x = x[:, 0] if d == 1 else x
        queries = gen.integers(-1, 4, (25, d)).astype(np.float64) + 0.5
    else:
        # 0.0 and -0.0 compare equal, so the index (1-d) or the next
        # column (2-d) decides between them, and their bits must follow.
        first = gen.choice([0.0, -0.0, 0.5, -0.5], 80)
        if case == "signed-zeros-1d":
            x, queries = first, gen.integers(-2, 3, 20) / 4.0
        else:
            x = np.c_[first, gen.integers(0, 3, 80)]
            queries = np.c_[gen.integers(-2, 3, 20) / 4.0, gen.integers(0, 3, 20)]
    y = gen.integers(0, 2, x.shape[0])
    return x, y, queries


@pytest.mark.parametrize(
    "case",
    [
        "continuous-1d", "continuous-10d", "lattice-2d",
        "duplicates-1d", "duplicates-3d", "signed-zeros-1d", "signed-zeros-2d",
    ],
)
def test_fit_order_is_the_lexsort_order(case):
    gen = np.random.default_rng(len(case))
    x, y, queries = _fit_order_case(case, gen)
    xs, ys = _lexsort_rows(x, y)
    for k in (1, 4, x.shape[0]):
        model = KnnModel.fit(x, y, k)
        assert model.x.tobytes() == xs.tobytes()
        assert model.y.tobytes() == ys.tobytes()
        assert x[model.order].tobytes() == xs.tobytes()
        if model.d == 1:
            # The lexsort rows are already canonical: refitting them keeps
            # them, so the reference model predicts from exactly those rows.
            ref = KnnModel.fit(xs, ys, k)
            assert ref.x.tobytes() == xs.tobytes()
            want = ref.predict(queries)
        else:
            want = argsort_knn_reference(SimpleNamespace(x=xs, y=ys, d=model.d), queries, k)
        assert np.array_equal(model.predict(queries), want)


# ---------------------------------------------------------------------------
# error norms


def test_uniform_error_zero_for_matching_zero_function():
    model = KnnModel.fit(np.linspace(0, 1, 50), np.zeros(50, dtype=np.int64), 5)
    assert uniform_error(model, constant_problem(0.0).eta) == 0.0
    assert average_error(model, constant_problem(0.0).eta) == 0.0


def test_uniform_error_spike_against_flat_model():
    model = KnnModel.fit(np.linspace(0, 1, 50), np.zeros(50, dtype=np.int64), 5)
    # The spike attains 1 at x = 0, so the sup of the gap is exactly 1.
    assert uniform_error(model, exp2_nonuci_problem(0.01).eta) == 1.0


def test_average_error_constant_gap():
    model = KnnModel.fit(np.linspace(0, 1, 50), np.zeros(50, dtype=np.int64), 5)
    assert average_error(model, constant_problem(0.25).eta) == pytest.approx(
        0.25, abs=1e-12
    )


def test_average_error_spike_triangle_mass():
    model = KnnModel.fit(np.linspace(0, 1, 400), np.zeros(400, dtype=np.int64), 20)
    r = 0.01
    assert average_error(model, exp2_nonuci_problem(r).eta) == pytest.approx(
        r / 2, abs=1e-9
    )


def _random_eta(gen, pieces: int = 6):
    """Piecewise-linear eta with knots on multiples of 1/32 and a jump at each
    knot where two independently drawn piece values differ."""
    knots = np.unique(np.concatenate(([0.0, 1.0], gen.integers(1, 32, pieces) / 32)))
    values = gen.random((knots.size - 1, 2))
    values[0, 1] = values[0, 0]  # one constant piece
    return RegressionFunctionSpec(
        pieces=tuple(Piece(a, b, *v) for a, b, v in zip(knots, knots[1:], values))
    )


def _midpoint_grid_norms(model, eta, m: int = 1 << 21) -> tuple[float, float]:
    """Sup and mean of |prediction - eta| on the m midpoints (i + 1/2) / m."""
    sup, total = 0.0, 0.0
    for start in range(0, m, 1 << 18):
        pts = (np.arange(start, min(m, start + (1 << 18))) + 0.5) / m
        err = np.abs(model.predict(pts) - eta.evaluate(pts))
        sup, total = max(sup, float(err.max())), total + float(err.sum())
    return sup, total / m


@pytest.mark.parametrize("covariates", ["lattice", "pool"])
@pytest.mark.parametrize("k", [1, 5, 60])
def test_error_norms_match_a_dense_midpoint_grid(covariates, k):
    gen = np.random.default_rng(8 * k + len(covariates))
    eta = _random_eta(gen)
    n = 60
    # Both kinds repeat covariate values.  On the lattice, window-boundary
    # midpoints land on eta's knots.
    if covariates == "lattice":
        x = gen.integers(0, 65, n) / 64
    else:
        x = gen.choice(gen.random(25), n)
    model = KnnModel.fit(x, gen.integers(0, 2, n), k)
    xs = np.sort(x)
    knots = np.asarray(eta.knots())
    breaks = np.union1d(knots, np.clip((xs[: n - k] + xs[k:]) / 2, 0.0, 1.0))
    if covariates == "lattice" and k < n:
        assert np.intersect1d(breaks, knots[1:-1]).size
    m = 1 << 21
    h = 1.0 / m
    # Every interval between breakpoints holds grid points near both ends.
    assert np.diff(breaks).min() > 4 * h
    grid_sup, grid_l1 = _midpoint_grid_norms(model, eta, m)
    sup, l1 = uniform_error(model, eta), average_error(model, eta)

    # The sup is an end limit of an interval, which the grid sees within h/2
    # times eta's slope, or a value at a breakpoint.
    slopes = [abs(pc.v_hi - pc.v_lo) / (pc.hi - pc.lo) for pc in eta.pieces]
    at_breaks = np.abs(model.predict(breaks) - eta.evaluate(breaks)).max()
    ref_sup = max(grid_sup, float(at_breaks))
    assert ref_sup - 1e-12 <= sup <= ref_sup + h * max(slopes) + 1e-12

    # The midpoint rule errs by at most h times the oscillation of the error
    # on each cell: jumps of the prediction (at most (n - k) / k in all) and of
    # eta, plus h times the slope on cells where the error changes sign.
    tv_eta = sum(abs(pc.v_hi - pc.v_lo) for pc in eta.pieces) + sum(
        abs(a.v_hi - b.v_lo) for a, b in zip(eta.pieces, eta.pieces[1:])
    )
    assert l1 == pytest.approx(grid_l1, rel=0, abs=h * ((n - k) / k + tv_eta + 1))
    assert l1 <= sup


def test_error_norms_closed_forms():
    # k = n predicts the label mean c everywhere: both norms are |c - v|.
    model = KnnModel.fit([0.1, 0.2, 0.6, 0.9], [0, 1, 1, 1], 4)
    eta = constant_problem(0.5).eta
    assert uniform_error(model, eta) == average_error(model, eta) == 0.25
    # 1-NN on two points predicts 0 up to 1/2 and 1 after it.
    model = KnnModel.fit([0.25, 0.75], [0, 1], 1)
    eta = constant_problem(0.25).eta
    assert uniform_error(model, eta) == 0.75
    assert average_error(model, eta) == 0.5
    # Against eta(x) = x the constant 1/2 changes sign mid-interval: the
    # integral is two triangles of area 1/8.
    model = KnnModel.fit([0.0, 1.0], [0, 1], 2)
    ramp = RegressionFunctionSpec(pieces=(Piece(0.0, 1.0, 0.0, 1.0),))
    assert uniform_error(model, ramp) == 0.5
    assert average_error(model, ramp) == 0.25
    # Both jump at 1/2, where the tie keeps the left neighbour's label 1 and
    # eta takes its right piece's 0: the error is 1 there and 0 elsewhere.
    model = KnnModel.fit([0.25, 0.75], [1, 0], 1)
    step = RegressionFunctionSpec(
        pieces=(Piece(0.0, 0.5, 1.0, 1.0), Piece(0.5, 1.0, 0.0, 0.0))
    )
    assert uniform_error(model, step) == 1.0
    assert average_error(model, step) == 0.0


def test_error_norms_ignore_training_row_order():
    gen = np.random.default_rng(11)
    eta = _random_eta(gen)
    # Distinct covariates: equal ones are ordered by their row index.
    x = gen.choice(400, 300, replace=False) / 399
    y = gen.integers(0, 2, 300)
    perm = gen.permutation(300)
    for k in (1, 7, 300):
        a, b = KnnModel.fit(x, y, k), KnnModel.fit(x[perm], y[perm], k)
        assert uniform_error(a, eta) == uniform_error(b, eta)
        assert average_error(a, eta) == average_error(b, eta)


def test_observed_uniform_error_stays_below_closed_form_bound():
    r = 0.01
    problem = exp2_uci_problem(r)
    n = 10_000
    k = select_k("exp2", n, r)
    train = generate(problem, n, 12345)
    model = KnnModel.fit(train.covariates, train.labels, k)
    observed = uniform_error(model, problem.eta)
    bound = uniform_error_bound(
        BoundInputs(n=n, k=k, r=r, alpha=1.0, L=1.0, d=1, p_star=1.0, delta=0.05)
    ).value
    assert observed < bound


def test_error_norms_reject_unsupported_inputs(rng):
    model2d = KnnModel.fit(rng.random((20, 2)), rng.integers(0, 2, 20), 3)
    with pytest.raises(UnsupportedSpecError):
        uniform_error(model2d, constant_problem(0.5).eta)
    model = KnnModel.fit(rng.random(20), rng.integers(0, 2, 20), 3)
    with pytest.raises(UnsupportedSpecError):
        uniform_error(model, RegressionFunctionSpec(atom=0.5))


def _midpoint_reading_norms(model, eta) -> tuple[float, float]:
    """Error norms read as before the breakpoint-only pass: one ``predict`` at
    each interval's midpoint and one at each breakpoint."""
    b = np.unique(np.clip(np.concatenate((eta.knots(), 0.5 * model._h)), 0.0, 1.0))
    left, right = b[:-1], b[1:]
    table = np.array([(pc.lo, pc.hi, pc.v_lo, pc.v_hi) for pc in eta.pieces])
    lo, hi, v_lo, v_hi = table[np.searchsorted(table[:, 0], left, side="right") - 1].T
    e0 = v_lo + (v_hi - v_lo) * ((left - lo) / (hi - lo))
    e1 = v_lo + (v_hi - v_lo) * ((right - lo) / (hi - lo))
    mid = 0.5 * (left + right)
    inside = (left < mid) & (mid < right)
    pred = model.predict(np.concatenate((mid[inside], b)))
    c, at_b = pred[: -b.size], pred[-b.size :]
    g0, g1 = c - e0[inside], c - e1[inside]
    a0, a1 = np.abs(g0), np.abs(g1)
    sup = max(a0.max(), a1.max(), np.abs(at_b - np.append(e0, e1[-1])).max())
    total = a0 + a1
    cross = np.sign(g0) * np.sign(g1) < 0
    mean_abs = np.divide(g0 * g0 + g1 * g1, 2.0 * total, out=0.5 * total, where=cross)
    return float(sup), float(np.sum((right - left)[inside] * mean_abs))


@pytest.mark.parametrize("covariates", ["uniform", "lattice", "pool", "normal"])
def test_breakpoint_reading_equals_midpoint_reading(covariates):
    # Reading each interval's constant prediction at its right breakpoint
    # gives the bits of reading it at the interval's midpoint.
    gen = np.random.default_rng(len(covariates))
    for _ in range(250):
        n = int(gen.integers(1, 80))
        if covariates == "uniform":
            x = gen.random(n)
        elif covariates == "lattice":
            x = gen.integers(0, 17, n) / 16
        elif covariates == "pool":
            x = gen.choice(gen.random(7), n)
        else:
            x = gen.normal(0.5, 0.6, n)  # reaches outside [0, 1]
        model = KnnModel.fit(x, gen.integers(0, 2, n), int(gen.integers(1, n + 1)))
        eta = _random_eta(gen, pieces=int(gen.integers(1, 9)))
        want = _midpoint_reading_norms(model, eta)
        assert (uniform_error(model, eta), average_error(model, eta)) == want


def test_error_norms_are_computed_once_per_model_and_eta(monkeypatch):
    calls = []
    real_path = KnnModel._path

    def counting_path(self, q, ks):
        calls.append(q.size)
        return real_path(self, q, ks)

    monkeypatch.setattr(KnnModel, "_path", counting_path)
    gen = np.random.default_rng(5)
    model = KnnModel.fit(gen.random(50), gen.integers(0, 2, 50), 7)
    eta, other = _random_eta(gen), exp2_uci_problem(0.1).eta
    sup = uniform_error(model, eta)
    assert len(calls) == 1
    l1 = average_error(model, eta)
    assert len(calls) == 1  # read from the memo
    assert (uniform_error(model, eta), average_error(model, eta)) == (sup, l1)
    assert len(calls) == 1
    average_error(model, other)  # a different eta is computed anew
    assert len(calls) == 2
    uniform_error(model, exp2_uci_problem(0.1).eta)  # an equal eta is not
    assert len(calls) == 2
    assert set(model._norms) == {eta, other}
    fresh = dataclasses.replace(model)
    assert fresh._norms == {}
    assert uniform_error(fresh, eta) == sup
    assert len(calls) == 3
    # Pieces given as a list still make a hashable spec.
    listed = RegressionFunctionSpec(pieces=list(eta.pieces))
    assert average_error(model, listed) == l1
    assert len(calls) == 3
