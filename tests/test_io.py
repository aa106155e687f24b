"""Tests for dataset I/O, standardization, and splitting."""

import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import stochthresh.io
from stochthresh.errors import (
    DegenerateFeatureError,
    DegenerateInputError,
    ParameterDomainError,
    ParseError,
    SchemaError,
    ShapeError,
    SizeError,
)
from stochthresh.io import (
    LabeledDataset,
    load_csv,
    save_csv,
    split,
    varying_features,
    write_results_csv,
    zscore,
)

from helpers import write_csv


# ---------------------------------------------------------------------------
# Dataset container.
# ---------------------------------------------------------------------------


def test_dataset_normalizes_shapes_and_types():
    ds = LabeledDataset(covariates=[1.0, 2.0, 3.0], labels=[0, 1, 1])
    assert ds.covariates.shape == (3, 1)
    assert ds.covariates.dtype == np.float64
    assert ds.labels.dtype == np.int64
    assert ds.feature_names == ("x0",)
    assert ds.n == 3 and ds.d == 1
    assert ds.positive_count == 2
    assert ds.draws is None


def test_dataset_validation():
    with pytest.raises(DegenerateInputError):
        LabeledDataset(covariates=np.empty((0, 2)), labels=[])
    with pytest.raises(ShapeError):
        LabeledDataset(covariates=[[1.0], [2.0]], labels=[0])
    with pytest.raises(ShapeError):
        LabeledDataset(covariates=np.zeros((2, 2, 2)), labels=[0, 1])
    with pytest.raises(SchemaError):
        LabeledDataset(covariates=[1.0, 2.0], labels=[0, 2])
    with pytest.raises(ShapeError):
        LabeledDataset(covariates=[1.0, 2.0], labels=[0, 1], draws=[0.5])
    with pytest.raises(SchemaError):
        LabeledDataset(covariates=[1.0, 2.0], labels=[0, 1], draws=[0.5, 1.5])
    with pytest.raises(SchemaError):
        LabeledDataset(covariates=[[1.0, 2.0]], labels=[1], feature_names=("a",))
    # A NaN draw would save to a CSV that load_csv then rejects.
    for draws in ([np.nan, 0.5], [0.5, np.nan]):
        with pytest.raises(SchemaError, match=r"draw nan at row \d outside \[0, 1\]"):
            LabeledDataset(covariates=[[0.1], [0.2]], labels=[1, 0], draws=draws)


def test_dataset_subset_keeps_order_and_draws():
    ds = LabeledDataset(
        covariates=[[0.0], [1.0], [2.0]],
        labels=[0, 1, 0],
        draws=[0.1, 0.2, 0.3],
        feature_names=("v",),
    )
    sub = ds.subset([2, 0])
    assert sub.covariates[:, 0].tolist() == [2.0, 0.0]
    assert sub.labels.tolist() == [0, 0]
    assert sub.draws.tolist() == [0.3, 0.1]
    assert sub.feature_names == ("v",)
    # A mask or float positions would be read as other rows.
    for bad in ([True, False, True], [0.9, 2.7]):
        with pytest.raises(ParameterDomainError, match="row indices must be integers"):
            ds.subset(bad)
    with pytest.raises(DegenerateInputError):
        ds.subset([])


# ---------------------------------------------------------------------------
# CSV loading.
# ---------------------------------------------------------------------------


def test_load_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["x", "y", "label"], [[0.5, 1.0, 0], [0.25, -2.0, 1], [0.75, 3.5, 1]])
    ds = load_csv(p)
    assert ds.n == 3 and ds.d == 2
    assert ds.feature_names == ("x", "y")
    assert ds.labels.tolist() == [0, 1, 1]
    assert ds.covariates[1].tolist() == [0.25, -2.0]
    assert ds.draws is None


def test_load_csv_draw_column_is_opt_in(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["x", "label", "draw"], [[0.5, 0, 0.25], [0.1, 1, 0.75]])
    with_draws = load_csv(p, draw_column="draw")
    assert with_draws.d == 1
    assert with_draws.feature_names == ("x",)
    assert with_draws.draws.tolist() == [0.25, 0.75]
    # Without naming it, the draw column is treated as a feature.
    without = load_csv(p)
    assert without.d == 2
    assert without.feature_names == ("x", "draw")
    assert without.draws is None


def test_load_csv_reports_offending_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y,label\n1.0,2.0,0\n3.0,,1\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"line 3.*'y'"):
        load_csv(p)
    p.write_text("x,y,label\n1.0,abc,0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"line 2.*'abc'"):
        load_csv(p)
    p.write_text("x,y,label\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"line 2.*expected 3 fields, got 2"):
        load_csv(p)
    p.write_text("x,y,label\n1.0,2.0,0\n1.0,2.0,2\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"line 3.*label"):
        load_csv(p)
    p.write_text("x,label,draw\n1.0,0,1.5\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"line 2.*draw"):
        load_csv(p, draw_column="draw")
    # A quoted header cell spans physical lines 1 and 2; the bad label is on 4.
    p.write_text('"x\ny",label\n1.0,0\n2.0,5\n', encoding="utf-8")
    with pytest.raises(SchemaError, match=r"line 4: label must be 0 or 1, got '5'"):
        load_csv(p)


def test_load_csv_schema_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(SchemaError, match="empty file"):
        load_csv(p)
    p.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="'label'"):
        load_csv(p)
    p.write_text("x,label\n1,0\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="'draw'"):
        load_csv(p, draw_column="draw")
    p.write_text("label\n0\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="no feature columns"):
        load_csv(p)
    p.write_text("x,label\n", encoding="utf-8")
    with pytest.raises(DegenerateInputError, match="no data rows"):
        load_csv(p)


def test_load_csv_gives_each_header_column_one_role(tmp_path):
    p = tmp_path / "roles.csv"
    # A second label column would otherwise become a feature.
    p.write_text("x,label,label\n0.5,1,1\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="'label' repeats"):
        load_csv(p)
    p.write_text("x,x,label\n0.5,0.25,1\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="'x' repeats"):
        load_csv(p)
    p.write_text("x,label\n0.5,1\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="'label' cannot be both"):
        load_csv(p, draw_column="label")


@pytest.mark.parametrize("rows_before", [1, 5_000])
def test_load_csv_rejects_a_file_that_is_not_utf8(tmp_path, rows_before):
    # A bad byte in the first decoded chunk fails the header read; a later one
    # fails the read of the data rows.
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"x,label\n" + b"0.5,1\n" * rows_before + b"0.25\xff,0\n")
    with pytest.raises(ParseError, match=r"latin1\.csv: not UTF-8 text: byte 0xff"):
        load_csv(p)


@pytest.mark.parametrize("first", ["x0", '"x0"'])
def test_load_csv_drops_a_byte_order_mark(tmp_path, first):
    p = tmp_path / "bom.csv"
    p.write_bytes(f"\ufeff{first},label\n0.5,1\n0.25,0\n".encode("utf-8"))
    for load in (load_csv, stochthresh.io._load_rows):
        ds = load(p, "label", None)
        assert ds.feature_names == ("x0",)
        assert ds.covariates.tolist() == [[0.5], [0.25]]


def _outcome(load, path, draw_column):
    """A loader's dataset, or the type and text of what it raised."""
    try:
        return load(path, "label", draw_column)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


def _same_arrays(a, b) -> bool:
    return (
        a.dtype == b.dtype
        and np.array_equal(a, b, equal_nan=True)
        and a.tobytes() == b.tobytes()
    )


# (file text, draw column): each case the vectorized load has to get right or
# hand to the row parse.
LOAD_CASES = {
    "blank line mid-file": ("x,label\n0.5,1\n\n0.25,0\n", None),
    "blank lines only": ("x,label\n\n\n", None),
    "whitespace-only line": ("x,label\n0.5,1\n  \n", None),
    "crlf": ("x,label,draw\r\n0.5,1,0.25\r\n0.1,0,0.75\r\n", "draw"),
    "bare cr": ("x,label\r0.5,1\r0.25,0\r", None),
    "no final newline": ("x,label\n0.5,1\n0.25,0", None),
    "quoted cell": ('x,label\n"0.5",1\n0.25,0\n', None),
    "quoted header": ('"x","label"\n0.5,1\n0.25,0\n', None),
    "byte-order mark": ('\ufeff"x",label\n0.5,1\n0.25,0\n', None),
    "underscore digits": ("x,label\n1_0,1\n0.25,0\n", None),
    "non-ascii digit": ("x,label\n٣,1\n0.25,0\n", None),
    "extra field": ("x,label\n0.5,1\n0.25,0,7\n", None),
    "trailing comma": ("x,label\n0.5,1,\n", None),
    "decimal comma": ("x,label\n0,5,1\n", None),
    "space-padded cells": ("x,y,label\n 0.5 , -2 , 1 \n\t0.25,3e-1\t,0\n", None),
    "nan label": ("x,label\n0.5,1\n0.25,nan\n", None),
    "label 2": ("x,label\n0.5,1\n0.25,2\n", None),
    "negative zero label": ("x,label\n0.5,-0\n0.25,1.0\n", None),
    "draw -0.0 and subnormals": (
        "x,label,draw\n0.5,1,-0.0\n0.25,0,5e-324\n0.1,1,2.2250738585072009e-308\n"
        "0.2,0,4.9406564584124654e-324\n",
        "draw",
    ),
    "draw above 1": ("x,label,draw\n0.5,1,0.5\n0.25,0,1.0000000000000002\n", "draw"),
    "nan draw": ("x,label,draw\n0.5,1,0.5\n0.25,0,nan\n", "draw"),
    "inf and nan features": (
        "x,y,label\ninf,nan,1\n-inf,-nan,0\n-Infinity,+nan,1\n", None
    ),
    "empty cell": ("x,y,label\n1.0,,1\n", None),
    "header only": ("x,label\n", None),
    # loadtxt skips physical lines, the header reader counts them.
    "header cell over two lines": ('"x\ny",label\n0.5,1\n0.25,0\n', None),
    # Over csv.field_size_limit() (131072 by default): the rows raise csv.Error.
    "over-long cell": ("x,label\n0.5,1\n" + " " * 200_000 + "0.25,0\n", None),
}


@pytest.mark.parametrize("name", sorted(LOAD_CASES))
def test_load_csv_equals_the_row_parse(tmp_path, name):
    text, draw_column = LOAD_CASES[name]
    path = tmp_path / "case.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning fails the case too
        got = _outcome(load_csv, path, draw_column)
    want = _outcome(stochthresh.io._load_rows, path, draw_column)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, LabeledDataset)
    assert got.feature_names == want.feature_names
    assert _same_arrays(got.covariates, want.covariates)
    assert _same_arrays(got.labels, want.labels)
    if draw_column is None:
        assert got.draws is None and want.draws is None
    else:
        assert _same_arrays(got.draws, want.draws)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(
        st.tuples(st.integers(0, 45), st.sampled_from(["\n", "\r", "\r\n", ""])),
        max_size=6,
    ),
    limit=st.integers(1, 20),
)
@example(lines=[(1, "\n"), (4, "\n")], limit=3)  # no aligned block of limit + 1 holds it
def test_long_line_check_catches_every_line_over_the_limit(lines, limit):
    text = "".join("a" * n + end for n, end in lines)
    longest = max(map(len, re.split("\r\n|\r|\n", text)))
    if longest > limit:
        assert stochthresh.io._has_long_line(text, limit)
    elif longest < (limit + 2) // 2:
        assert not stochthresh.io._has_long_line(text, limit)


def test_load_csv_reads_a_plain_file_named_like_an_archive(tmp_path):
    # loadtxt would decompress a path ending in .gz; the row parse reads it.
    path = tmp_path / "scores.csv.gz"
    path.write_bytes(b"x,label\n0.5,1\n0.25,0\n")
    ds = load_csv(path)
    assert ds.covariates[:, 0].tolist() == [0.5, 0.25]
    assert ds.labels.tolist() == [1, 0]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_csv_reads_a_pipe():
    # A pipe is read once; the vectorized pass needs a second read.
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, b"x,label\n0.5,1\n0.25,0\n")
        os.close(write_fd)
        ds = load_csv(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)
    assert ds.covariates[:, 0].tolist() == [0.5, 0.25]
    assert ds.labels.tolist() == [1, 0]


def test_load_csv_takes_the_vectorized_path_on_numeric_tables(tmp_path, monkeypatch):
    def no_row_parse(*args):
        raise AssertionError("the row parse ran")

    monkeypatch.setattr(stochthresh.io, "_load_rows", no_row_parse)
    gen = np.random.default_rng(3)
    # Scored, as a tuned sample is written: two-decimal scores, 9-digit draws.
    score_txt = [repr(i / 100.0) for i in gen.integers(0, 101, 300).tolist()]
    labels = gen.integers(0, 2, 300)
    draw_txt = [f"0.{i:09d}" for i in gen.integers(0, 10**9, 300).tolist()]
    lines = [f"{s},{y},{z}" for s, y, z in zip(score_txt, labels, draw_txt)]
    # A quoted header cell over two lines: loadtxt skips both.
    for newline, score in (("\n", "score"), ("\r\n", "score"), ("\n", '"sc\nore"')):
        path = tmp_path / "tune.csv"
        path.write_bytes(newline.join([f"{score},label,draw", *lines, ""]).encode())
        ds = load_csv(path, draw_column="draw")
        assert ds.covariates[:, 0].tolist() == [float(s) for s in score_txt]
        assert ds.labels.tolist() == labels.tolist()
        assert ds.draws.tolist() == [float(z) for z in draw_txt]
    # Features in repr form, d = 3, as the fraud pipeline reads them.
    x = gen.standard_normal((200, 3)) * [1.0, 1e-3, 1e5]
    y = gen.integers(0, 2, 200)
    path = write_csv(tmp_path / "fraud.csv", ["f0", "f1", "f2", "label"],
                     [[*map(repr, row), int(lab)] for row, lab in zip(x.tolist(), y)])
    ds = load_csv(path)
    assert ds.covariates.tobytes() == x.tobytes()
    assert ds.covariates.flags.c_contiguous
    assert ds.labels.tolist() == y.tolist()


@settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_save_load_round_trip_is_exact(tmp_path, data):
    n = data.draw(st.integers(1, 6), label="n")
    d = data.draw(st.integers(1, 3), label="d")
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    x = data.draw(hnp.arrays(np.float64, (n, d), elements=finite), label="x")
    labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    with_draws = data.draw(st.booleans(), label="with_draws")
    draws = (
        data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
        if with_draws
        else None
    )
    ds = LabeledDataset(covariates=x, labels=labels, draws=draws)
    path = tmp_path / "round.csv"
    save_csv(ds, path)
    loaded = load_csv(path, draw_column="draw" if with_draws else None)
    assert np.array_equal(loaded.covariates, ds.covariates)
    assert np.array_equal(loaded.labels, ds.labels)
    assert loaded.feature_names == ds.feature_names
    if with_draws:
        assert np.array_equal(loaded.draws, ds.draws)
    else:
        assert loaded.draws is None


def test_save_csv_exact_text(tmp_path):
    ds = LabeledDataset(
        covariates=[[0.1, -2.0], [1e-300, 3.0]],
        labels=[1, 0],
        draws=[0.5, 1.0 / 3.0],
        feature_names=("a", "b"),
    )
    path = tmp_path / "two.csv"
    save_csv(ds, path)
    assert path.read_bytes() == (
        b"a,b,label,draw\r\n0.1,-2.0,1,0.5\r\n1e-300,3.0,0,0.3333333333333333\r\n"
    )
    save_csv(ds, path, include_draws=False)
    assert path.read_bytes() == b"a,b,label\r\n0.1,-2.0,1\r\n1e-300,3.0,0\r\n"


def test_save_csv_can_exclude_draws(tmp_path):
    ds = LabeledDataset(covariates=[1.0], labels=[1], draws=[0.5])
    path = tmp_path / "nodraw.csv"
    save_csv(ds, path, include_draws=False)
    assert path.read_text(encoding="utf-8").splitlines()[0] == "x0,label"


# ---------------------------------------------------------------------------
# Standardization.
# ---------------------------------------------------------------------------


def test_zscore_exact_two_point_case():
    ds = LabeledDataset(covariates=[1.0, 3.0], labels=[0, 1])
    unseen = LabeledDataset(covariates=[4.0], labels=[0])
    out, applied = zscore(ds, unseen)
    assert out.covariates[:, 0].tolist() == [-1.0, 1.0]
    # The other datasets are standardized by train's mean 2 and sd 1.
    assert applied.covariates[0, 0] == 2.0


def test_zscore_standardizes_each_feature(rng):
    x = rng.normal(loc=[5.0, -3.0], scale=[2.0, 0.5], size=(200, 2))
    ds = LabeledDataset(covariates=x, labels=rng.integers(0, 2, 200))
    (out,) = zscore(ds)
    assert np.allclose(out.covariates.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(out.covariates.std(axis=0), 1.0, atol=1e-10)
    # Labels and draws pass through untouched.
    assert np.array_equal(out.labels, ds.labels)


def test_zscore_rejects_constant_feature():
    ds = LabeledDataset(
        covariates=[[1.0, 7.0], [2.0, 7.0]],
        labels=[0, 1],
        feature_names=("ok", "flat"),
    )
    with pytest.raises(DegenerateFeatureError, match="'flat'"):
        zscore(ds)


def test_zscore_rejects_constant_feature_whose_mean_rounds():
    # 240 copies of 0.1 have mean 0.10000000000000002 and a tiny nonzero sd.
    x = np.column_stack((np.arange(240.0), np.full(240, 0.1)))
    assert x[:, 1].std() != 0.0
    ds = LabeledDataset(covariates=x, labels=[0, 1] * 120, feature_names=("ok", "flat"))
    assert varying_features(ds.covariates).tolist() == [True, False]
    with pytest.raises(DegenerateFeatureError, match="'flat'"):
        zscore(ds)


def test_zscore_rejects_a_dataset_of_another_width():
    train = LabeledDataset(covariates=[[1.0, 2.0], [3.0, 5.0]], labels=[0, 1])
    with pytest.raises(ShapeError):
        zscore(train, LabeledDataset(covariates=[1.0], labels=[0]))


# ---------------------------------------------------------------------------
# Splitting.
# ---------------------------------------------------------------------------


def _index_dataset(n, labels):
    return LabeledDataset(
        covariates=np.arange(n, dtype=np.float64),
        labels=labels,
        draws=np.linspace(0.0, 1.0, n),
    )


def test_split_sizes_and_partition():
    ds = _index_dataset(10, [0, 1] * 5)
    train, val, test = split(ds, 3)
    assert (train.n, val.n, test.n) == (6, 2, 2)
    ids = np.concatenate(
        [p.covariates[:, 0] for p in (train, val, test)]
    )
    assert sorted(ids.tolist()) == list(range(10))
    # Rows inside each part keep ascending original order.
    for part in (train, val, test):
        col = part.covariates[:, 0]
        assert np.all(np.diff(col) > 0)
        # Draws travel with their rows.
        assert np.array_equal(part.draws, ds.draws[col.astype(int)])


def test_split_is_seed_deterministic():
    ds = _index_dataset(40, ([0] * 30 + [1] * 10))
    a1, _, _ = split(ds, 5)
    a2, _, _ = split(ds, 5)
    b1, _, _ = split(ds, 6)
    assert np.array_equal(a1.covariates, a2.covariates)
    assert not np.array_equal(a1.covariates, b1.covariates)


def test_split_stratified_allocates_positives_by_largest_remainder():
    # Two positives among ten rows: the positive class is allocated
    # (1, 1, 0) and the negative class (5, 2, 1) under (0.6, 0.2, 0.2).
    labels = [1, 1] + [0] * 8
    ds = _index_dataset(10, labels)
    train, val, test = split(ds, 0, stratified=True)
    assert (train.positive_count, val.positive_count, test.positive_count) == (1, 1, 0)
    assert (train.n, val.n, test.n) == (6, 3, 1)


def test_split_downsamples_negatives_before_splitting():
    labels = [1, 1] + [0] * 8
    ds = _index_dataset(10, labels)
    train, val, test = split(ds, 1, downsample_negative_ratio=0.5)
    total = train.n + val.n + test.n
    assert total == 6  # 2 positives + round(0.5 * 8) negatives
    assert train.positive_count + val.positive_count + test.positive_count == 2
    assert (train.n, val.n, test.n) == (4, 1, 1)


def test_split_rejects_empty_parts():
    ds = _index_dataset(2, [0, 1])
    with pytest.raises(SizeError):
        split(ds, 0)


def test_split_spec_validation():
    ds = _index_dataset(10, [1, 1] + [0] * 8)
    for bad in (0.0, 1.5, float("nan")):
        with pytest.raises(ParameterDomainError, match="downsample ratio"):
            split(ds, 0, downsample_negative_ratio=bad)
    # The ratio is checked before anything else: these parts would be empty.
    with pytest.raises(ParameterDomainError, match="downsample ratio"):
        split(_index_dataset(2, [0, 1]), 0, downsample_negative_ratio=0.0)
    split(ds, 0, downsample_negative_ratio=1.0)  # boundary allowed


# ---------------------------------------------------------------------------
# Results CSV writer.
# ---------------------------------------------------------------------------


def test_write_results_csv_sorted_preamble_and_repr_cells(tmp_path):
    path = tmp_path / "out.csv"
    write_results_csv(
        path,
        header=("name", "value"),
        rows=[("a", 0.1), ("b", 2)],
        metadata={"zeta": 3, "alpha": "x"},
    )
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# alpha=x"
    assert lines[1] == "# zeta=3"
    assert lines[2] == "name,value"
    assert lines[3] == "a,0.1"
    assert lines[4] == "b,2"
