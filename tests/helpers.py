"""Helpers the test modules import: ``from helpers import ...``."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from stochthresh.classify import StochasticThreshold
from stochthresh.errors import ParameterDomainError
from stochthresh.metrics import (
    _PARAM_FREE,
    CELL_TOL,
    REGISTERED_KINDS,
    CmmSpec,
    ConfusionMatrix,
    _cmm_values,
    evaluate_cmm,
)
from stochthresh.threshold_opt import ThresholdSearchResult


def write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    """Write a small CSV file and return its path."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return Path(path)


def argsort_knn_reference(model, queries, k: int) -> np.ndarray:
    """k-NN means by a full stable argsort over a fitted model's canonical rows."""
    q = np.asarray(queries, dtype=np.float64).reshape(-1, model.d)
    out = np.empty(q.shape[0])
    for i, row in enumerate(q):
        d2 = ((row - model.x) ** 2).sum(axis=1)
        out[i] = model.y[np.argsort(d2, kind="stable")[:k]].mean()
    return out


def lexsort_sweep_reference(scores, draws) -> np.ndarray:
    """Sweep order by one lexsort: score ascending, draw descending, index."""
    return np.lexsort((-np.asarray(draws), np.asarray(scores)))


def full_sweep_reference(scores, labels, draws, spec: CmmSpec) -> ThresholdSearchResult:
    """The stochastic sweep over every prefix of one lexsort.

    Cells are the cumulative positive counts / n, evaluated by
    ``metrics._cmm_values`` as the sweep does; a prefix between two rows
    with one (score, draw) pair, and prefix 0 when a row has score 0 and
    draw 1, are skipped; the first maximum wins.
    """
    order = lexsort_sweep_reference(scores, draws)
    s, z = scores[order], draws[order]
    n = s.size
    cum_pos = np.concatenate(([0], np.cumsum(labels[order])))
    npos = int(cum_pos[-1])
    neg = np.arange(n + 1) - cum_pos
    cells = neg / n, (n - npos - neg) / n, cum_pos / n, (npos - cum_pos) / n
    vals = np.asarray(_cmm_values(spec, *cells))
    vals[1:-1][(s[1:] == s[:-1]) & (z[1:] == z[:-1])] = -np.inf
    if np.any((scores == 0.0) & (draws == 1.0)):
        vals[0] = -np.inf
    k = int(np.argmax(vals))
    t, p = (float(s[k - 1]) + 0.0, float(z[k - 1]) + 0.0) if k else (0.0, 1.0)
    return ThresholdSearchResult(StochasticThreshold(t, p), float(vals[k]), k)


def representative_specs() -> tuple[CmmSpec, ...]:
    """One spec per parameter-free kind, three per parametric kind.

    The enumeration the invariance and acceptance tests share, so that
    "all registered measures" means the same thing in each of them.
    """
    specs: list[CmmSpec] = []
    for kind in REGISTERED_KINDS:
        if kind in _PARAM_FREE:
            specs.append(CmmSpec(kind))
        elif kind == "weighted_accuracy":
            specs.extend(CmmSpec(kind, w) for w in (0.25, 0.5, 0.75))
        else:
            specs.extend(CmmSpec(kind, p) for p in (0.5, 1.0, 2.0))
    return tuple(specs)


def check_cmm_monotonicity(
    spec: CmmSpec, c: ConfusionMatrix, eps1: float, eps2: float
) -> bool:
    """True iff correcting errors by (eps1, eps2) does not decrease the value.

    ``eps1`` moves false-positive mass to true-negative; ``eps2`` moves
    false-negative mass to true-positive.  Both must fit inside the matrix's
    error cells.  The comparison allows slack ``CELL_TOL`` for float noise.
    """
    if not 0.0 <= eps1 <= c.fp + CELL_TOL:
        raise ParameterDomainError(
            f"eps1={eps1!r} outside [0, fp={c.fp!r}]"
        )
    if not 0.0 <= eps2 <= c.fn + CELL_TOL:
        raise ParameterDomainError(
            f"eps2={eps2!r} outside [0, fn={c.fn!r}]"
        )
    shifted = ConfusionMatrix(
        tn=c.tn + eps1,
        fp=max(c.fp - eps1, 0.0),
        fn=max(c.fn - eps2, 0.0),
        tp=c.tp + eps2,
    )
    return evaluate_cmm(spec, c) <= evaluate_cmm(spec, shifted) + CELL_TOL


def tie_heavy_sample(gen: np.random.Generator, n: int):
    """Scores on a 1/8 lattice, zeros split between 0.0 and -0.0, and 0/1 labels."""
    scores = gen.integers(0, 9, size=n) / 8.0
    scores[(scores == 0.0) & (gen.random(n) < 0.5)] = -0.0
    labels = gen.integers(0, 2, size=n)
    labels[:2] = (0, 1)
    return scores, labels
