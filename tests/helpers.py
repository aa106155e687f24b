"""Helpers the test modules import: ``from helpers import ...``."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np


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


def tie_heavy_sample(gen: np.random.Generator, n: int):
    """Scores on a 1/8 lattice, zeros split between 0.0 and -0.0, and 0/1 labels."""
    scores = gen.integers(0, 9, size=n) / 8.0
    scores[(scores == 0.0) & (gen.random(n) < 0.5)] = -0.0
    labels = gen.integers(0, 2, size=n)
    labels[:2] = (0, 1)
    return scores, labels
