"""Dataset container, CSV round-tripping, standardization and splitting.

CSV files are UTF-8 with a header row.  Floats are written with ``repr`` so
a save/load round trip reproduces every value bit-for-bit.  Loading parses
the data rows with one ``np.loadtxt`` pass and keeps its arrays only when
they provably equal the row-by-row ``csv`` parse; otherwise that parse
reruns and decides the result or the error.  Datasets may
carry a stored uniform draw per row (used by stochastic thresholds to make
tie-breaking reproducible); the draw column is opt-in by name on load so it
is never confused with a feature.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateFeatureError,
    DegenerateInputError,
    ParameterDomainError,
    ParseError,
    SchemaError,
    ShapeError,
    SizeError,
    check_labels,
    check_matrix,
    check_real,
    check_unit_interval,
)

__all__ = [
    "LabeledDataset",
    "load_csv",
    "save_csv",
    "zscore",
    "split",
    "write_results_csv",
]


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix (n, d), binary labels (n,), optional stored draws (n,)."""

    covariates: np.ndarray
    labels: np.ndarray
    draws: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        x = check_matrix("covariates", self.covariates)
        y = np.asarray(self.labels).ravel()
        if y.shape[0] != x.shape[0]:
            raise ShapeError(
                f"{x.shape[0]} covariate rows but {y.shape[0]} labels"
            )
        if x.shape[0] == 0:
            raise DegenerateInputError("empty dataset")
        y = check_labels(y, SchemaError)
        z = self.draws
        if z is not None:
            z = np.asarray(z, dtype=np.float64).ravel()
            if z.shape[0] != x.shape[0]:
                raise ShapeError(
                    f"{x.shape[0]} rows but {z.shape[0]} draws"
                )
            check_unit_interval("draw", z, SchemaError)
        names = self.feature_names
        if names is None:
            names = tuple(f"x{j}" for j in range(x.shape[1]))
        else:
            names = tuple(names)
            if len(names) != x.shape[1]:
                raise SchemaError(
                    f"{len(names)} feature names for {x.shape[1]} columns"
                )
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "draws", z)
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.shape[1]

    @property
    def positive_count(self) -> int:
        return int(self.labels.sum())

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise ParameterDomainError(f"row indices must be integers, not {idx.dtype}")
        idx = idx.astype(np.int64, copy=False)
        return LabeledDataset(
            covariates=self.covariates[idx],
            labels=self.labels[idx],
            draws=None if self.draws is None else self.draws[idx],
            feature_names=self.feature_names,
        )


def load_csv(
    path, label_column: str = "label", draw_column: str | None = None
) -> LabeledDataset:
    """Read a headered UTF-8 CSV into a dataset.

    A leading UTF-8 byte-order mark, as spreadsheet programs write it, is
    not part of the first header name.

    All columns except the label (and the optional draw column) are features,
    kept in header order; a header name that repeats, or one column named
    as both label and draw, raises.  Labels must be exactly 0 or 1; missing
    cells and unparsable numbers raise with the offending line number, and
    a file that is not UTF-8 raises :class:`ParseError`.

    The row-by-row ``csv`` parse decides every result and every error.  One
    ``np.loadtxt`` pass over the data rows stands in for it only when it
    provably gives the same arrays (see :func:`_load_vectorized`); in any
    other case the row parse reruns on the file.  loadtxt has no
    ``csv.field_size_limit()``, so a data line longer than that limit (and
    some over half of it) sends the file to the row parse, which raises
    ``csv.Error`` on a cell over the limit.
    """
    path = Path(path)
    try:
        ds = _load_vectorized(path, label_column, draw_column)
        return ds if ds is not None else _load_rows(path, label_column, draw_column)
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x}: {exc.reason}"
        ) from None


def _read_header(
    reader, path: Path, label_column: str, draw_column: str | None
) -> tuple[list[str], int, int | None, list[int]]:
    """(header, label index, draw index or None, feature indices) of a CSV."""
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file, expected a header row") from None
    header = [h.strip() for h in header]
    if len(set(header)) < len(header):
        name = next(h for i, h in enumerate(header) if h in header[:i])
        raise SchemaError(f"{path}: column {name!r} repeats in header {header}")
    if draw_column == label_column:
        raise SchemaError(
            f"{path}: column {label_column!r} cannot be both the label and the draws"
        )
    if label_column not in header:
        raise SchemaError(
            f"{path}: no {label_column!r} column in header {header}"
        )
    if draw_column is not None and draw_column not in header:
        raise SchemaError(
            f"{path}: no {draw_column!r} column in header {header}"
        )
    label_i = header.index(label_column)
    draw_i = header.index(draw_column) if draw_column is not None else None
    feature_is = [
        i for i in range(len(header)) if i != label_i and i != draw_i
    ]
    if not feature_is:
        raise SchemaError(f"{path}: no feature columns besides {label_column!r}")
    return header, label_i, draw_i, feature_is


#: Suffixes of the files ``np.loadtxt`` decompresses when given their path.
_DECOMPRESSED_SUFFIXES = frozenset({".gz", ".bz2", ".xz", ".lzma"})


def _line_count(text: str) -> int:
    r"""Lines of non-empty text as a ``newline=""`` file splits it: at \n, \r, \r\n."""
    n = text.count("\n")
    if "\r" in text:
        n += text.count("\r") - text.count("\r\n")
    if not text.endswith(("\n", "\r")):
        n += 1  # an unterminated last line
    return n


def _has_long_line(text: str, limit: int) -> bool:
    r"""Might a line of ``text`` (ended at \n or \r) hold more than ``limit`` characters?

    A run of ``limit + 1`` characters with no line end covers a whole block
    ``text[i:i + step]`` for some multiple i of ``step = (limit + 2) // 2``,
    so it is enough to look for a line end in each block; a block without
    one (a line of at least ``step`` characters) answers True.
    """
    step = (limit + 2) // 2
    return not all(
        text.find("\n", i, i + step) >= 0 or text.find("\r", i, i + step) >= 0
        for i in range(0, len(text) - step + 1, step)
    )


def _load_vectorized(
    path: Path, label_column: str, draw_column: str | None
) -> LabeledDataset | None:
    """The dataset by one ``np.loadtxt`` pass, or None to leave it to the rows.

    Both parsers split unquoted lines at commas and convert each stripped
    cell with the same correctly rounded string-to-double routine; loadtxt
    only accepts less (no ``1_0``, no non-ASCII digits).  So its arrays are
    the row parse's, bit for bit, once these hold: the file can be read
    twice; no data cell holds a quote; no data line is long enough to hold
    a cell over ``csv.field_size_limit()``; every line is a row of
    ``len(header)`` cells (loadtxt skips blank lines, which the rows
    reject); :class:`LabeledDataset` accepts the labels and draws, so the
    row parse is left to name the line of a bad one.

    loadtxt reads the path itself, in chunks, which is faster than the
    lines of a Python handle; a file name that numpy decompresses by its
    suffix goes to the row parse.
    """
    if path.suffix in _DECOMPRESSED_SUFFIXES:
        return None
    with path.open(newline="", encoding="utf-8-sig") as fh:
        if not fh.seekable():
            return None
        reader = csv.reader(fh)
        header, label_i, draw_i, feature_is = _read_header(
            reader, path, label_column, draw_column
        )
        try:
            text = fh.read()
        except UnicodeDecodeError:
            return None
        # No data, or a blank first data line (loadtxt would skip it, or warn
        # when every line is blank): the row parse raises on either.
        if text[:1] in ("", "\n", "\r") or '"' in text:
            return None
        if _has_long_line(text, csv.field_size_limit()):
            return None
        lines = _line_count(text)
        del text  # freed before loadtxt allocates the arrays
        skip = reader.line_num
    try:
        values = np.loadtxt(
            path, delimiter=",", comments=None, dtype=np.float64,
            ndmin=2, skiprows=skip, encoding="utf-8",
        )
    except ValueError:
        return None
    if values.shape != (lines, len(header)):
        return None
    try:
        # The labels stay floats here, so 0.5 fails the 0/1 check.
        return LabeledDataset(
            covariates=np.ascontiguousarray(values[:, feature_is]),
            labels=values[:, label_i],
            draws=None if draw_i is None else values[:, draw_i],
            feature_names=tuple(header[i] for i in feature_is),
        )
    except SchemaError:
        return None


def _load_rows(
    path: Path, label_column: str, draw_column: str | None
) -> LabeledDataset:
    """The row-by-row ``csv`` parse that decides :func:`load_csv`."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header, label_i, draw_i, feature_is = _read_header(
            reader, path, label_column, draw_column
        )
        rows: list[list[float]] = []
        labels: list[int] = []
        draws: list[float] = []
        for row in reader:
            # The physical line the row ends on; a quoted field may span lines.
            line_no = reader.line_num
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: line {line_no}: expected {len(header)} fields, "
                    f"got {len(row)}"
                )
            vals: list[float] = []
            for i, cell in enumerate(row):
                cell = cell.strip()
                if not cell:
                    raise ParseError(
                        f"{path}: line {line_no}: missing value in column "
                        f"{header[i]!r}"
                    )
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: line {line_no}: cannot parse {cell!r} in "
                        f"column {header[i]!r}"
                    ) from None
            lab = vals[label_i]
            if lab not in (0.0, 1.0):
                raise SchemaError(
                    f"{path}: line {line_no}: label must be 0 or 1, got {row[label_i]!r}"
                )
            labels.append(int(lab))
            if draw_i is not None:
                zv = vals[draw_i]
                if not 0.0 <= zv <= 1.0:
                    raise SchemaError(
                        f"{path}: line {line_no}: draw must lie in [0, 1], "
                        f"got {row[draw_i]!r}"
                    )
                draws.append(zv)
            rows.append([vals[i] for i in feature_is])

    if not rows:
        raise DegenerateInputError(f"{path}: no data rows")
    return LabeledDataset(
        covariates=np.asarray(rows, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64),
        draws=np.asarray(draws, dtype=np.float64) if draw_i is not None else None,
        feature_names=tuple(header[i] for i in feature_is),
    )


def save_csv(ds: LabeledDataset, path, include_draws: bool = True) -> None:
    """Write the dataset back out; floats use repr for exact round trips."""
    header = [*ds.feature_names, "label"]
    columns = [*ds.covariates.T.tolist(), ds.labels.tolist()]
    if include_draws and ds.draws is not None:
        header.append("draw")
        columns.append(ds.draws.tolist())
    write_results_csv(path, header, zip(*columns), {})


def varying_features(covariates: np.ndarray) -> np.ndarray:
    """Per column of an (n, d) matrix: does any value differ from row 0's?"""
    return np.any(covariates != covariates[0], axis=0)


def zscore(train: LabeledDataset, *others: LabeledDataset) -> tuple[LabeledDataset, ...]:
    """``train`` and then each of ``others``, standardized by train's statistics.

    Every feature has train's mean subtracted and is divided by train's
    population standard deviation (ddof = 0), so train's features get mean
    0 and sd 1 and nothing of the other datasets leaks in.  Labels and
    draws pass through.
    """
    means = train.covariates.mean(axis=0)
    sds = train.covariates.std(axis=0)
    # A constant column's mean can round, leaving a tiny nonzero sd behind.
    flat = np.flatnonzero(~varying_features(train.covariates) | (sds == 0.0))
    if flat.size:
        name = train.feature_names[int(flat[0])]
        raise DegenerateFeatureError(
            f"feature {name!r} has zero variance and cannot be standardized"
        )
    for ds in others:
        if ds.d != train.d:
            raise ShapeError(f"train has {train.d} features, a dataset has {ds.d}")
    return tuple(
        LabeledDataset(
            covariates=(ds.covariates - means) / sds,
            labels=ds.labels,
            draws=ds.draws,
            feature_names=ds.feature_names,
        )
        for ds in (train, *others)
    )


#: Train, validation and test shares of every :func:`split`.
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)


def _largest_remainder(fractions, m: int) -> list[int]:
    """Integer sizes summing to m, proportional to fractions within one row."""
    base = [int(np.floor(f * m)) for f in fractions]
    rem = m - sum(base)
    # Distribute leftovers by descending fractional part, earlier part wins ties.
    frac_parts = [f * m - b for f, b in zip(fractions, base)]
    for i in sorted(range(len(base)), key=lambda i: (-frac_parts[i], i))[:rem]:
        base[i] += 1
    return base


def split(
    ds: LabeledDataset,
    seed: int,
    stratified: bool = False,
    downsample_negative_ratio: float | None = None,
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Deterministic train/validation/test split (:data:`SPLIT_FRACTIONS`) under ``seed``.

    ``downsample_negative_ratio`` keeps that fraction of negative rows
    (chosen uniformly without replacement) before any splitting.
    ``stratified`` allocates each class to the three parts separately so
    every part holds its proportional positive count to within one row.

    Negative downsampling happens first, then allocation by largest
    remainder, then a seeded permutation assigns rows.  Row order inside
    each part is ascending original index.  Raises when any part would be
    empty.
    """
    ratio = downsample_negative_ratio
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    labels = ds.labels
    if ratio is not None:
        check_real("downsample ratio", ratio, "(0, 1]")
        neg = np.flatnonzero(labels == 0)
        keep_n = int(round(ratio * neg.size))
        kept_neg = np.sort(rng.choice(neg, size=keep_n, replace=False))
        keep = np.sort(np.concatenate((np.flatnonzero(labels == 1), kept_neg)))
    else:
        keep = np.arange(ds.n)

    def allocate(idx: np.ndarray) -> list[np.ndarray]:
        sizes = _largest_remainder(SPLIT_FRACTIONS, idx.size)
        perm = rng.permutation(idx)
        out = []
        start = 0
        for size in sizes:
            out.append(perm[start : start + size])
            start += size
        return out

    if stratified:
        pos_parts = allocate(keep[labels[keep] == 1])
        neg_parts = allocate(keep[labels[keep] == 0])
        parts = [
            np.sort(np.concatenate((p, q))) for p, q in zip(pos_parts, neg_parts)
        ]
    else:
        parts = [np.sort(p) for p in allocate(keep)]

    for name, part in zip(("train", "validation", "test"), parts):
        if part.size == 0:
            raise SizeError(
                f"{name} split would be empty for {keep.size} rows with "
                f"fractions {SPLIT_FRACTIONS!r}"
            )
    return tuple(ds.subset(p) for p in parts)


def _fmt_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_results_csv(path, header, rows, metadata: dict) -> None:
    """Write results with a '#' key=value preamble (sorted keys, no timestamps)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        for key in sorted(metadata):
            fh.write(f"# {key}={metadata[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])
