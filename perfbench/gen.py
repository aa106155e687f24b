"""Seeded input tables for the ``fraud-nd`` and ``tune-large`` workloads.

Both tables are written by this module's own code, not by
``stochthresh.io.save_csv``, so no program time is spent outside the
measured jobs.  Every value is written in a form that parses back to the
exact float the generator returned, so the output check can compare the
program's results against the arrays held here.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

FRAUD_ROWS = 4_000
FRAUD_D = 10
#: Logistic intercept that gives about 7 % positives with the weights below.
FRAUD_INTERCEPT = -3.4

TUNE_ROWS = 1_000_000
#: Scores are multiples of 1 / TUNE_SCORE_STEPS, which makes heavy ties.
TUNE_SCORE_STEPS = 100
#: Draws are multiples of 1e-9 and pairwise distinct, so no two rows share a
#: (score, draw) pair and every returned threshold reproduces its prefix.
TUNE_DRAW_DIGITS = 9


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(tag,))))


def fraud_table(seed: int, n: int = FRAUD_ROWS, d: int = FRAUD_D):
    """Logistic problem: (covariates (n, d), labels (n,)) with ~7 % positives."""
    rng = _rng(seed, 1)
    x = rng.standard_normal((n, d))
    w = rng.uniform(0.5, 1.0, d) * rng.choice((-1.0, 1.0), d) / np.sqrt(d) * 2.0
    p = 1.0 / (1.0 + np.exp(-(FRAUD_INTERCEPT + x @ w)))
    y = (rng.random(n) < p).astype(np.int64)
    return x, y


def write_fraud_csv(path, x: np.ndarray, y: np.ndarray) -> None:
    """Columns x0..x{d-1},label; floats in repr form; no draw column."""
    header = ",".join([f"x{j}" for j in range(x.shape[1])] + ["label"])
    lines = [header]
    lines.extend(
        ",".join([*map(repr, row), str(lab)]) for row, lab in zip(x.tolist(), y.tolist())
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def tune_table(seed: int, n: int = TUNE_ROWS):
    """Scored sample: integer score steps, labels, integer draw units.

    Returned as integers so the text form is exact; :func:`tune_arrays`
    gives the floats the program reads back.
    """
    if n > 10**6:
        raise ValueError(f"n={n} exceeds the 1e6 distinct draws this layout allows")
    rng = _rng(seed, 2)
    y = (rng.random(n) < 0.3).astype(np.int64)
    score_i = rng.binomial(TUNE_SCORE_STEPS, np.where(y == 1, 0.55, 0.45))
    per = 10 ** (TUNE_DRAW_DIGITS - 6)
    draw_i = rng.permutation(10**6)[:n] * per + rng.integers(0, per, n)
    return score_i, y, draw_i


def tune_arrays(score_i, y, draw_i):
    """(scores, labels, draws) as float64, bit-identical to parsing the CSV."""
    return (
        score_i / float(TUNE_SCORE_STEPS),
        np.asarray(y, dtype=np.int64),
        draw_i / float(10**TUNE_DRAW_DIGITS),
    )


def write_tune_csv(path, score_i, y, draw_i) -> None:
    """Columns score,label,draw.  Each cell parses to its ``tune_arrays`` value."""
    score_txt = [repr(i / float(TUNE_SCORE_STEPS)) for i in range(TUNE_SCORE_STEPS + 1)]
    fmt = f"{{}},{{}},0.{{:0{TUNE_DRAW_DIGITS}d}}".format
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("score,label,draw\n")
        fh.write(
            "\n".join(
                fmt(score_txt[s], lab, z)
                for s, lab, z in zip(score_i.tolist(), y.tolist(), draw_i.tolist())
            )
        )
        fh.write("\n")


def describe(y: np.ndarray, d: int, scores=None) -> dict:
    """Row count, d, positive rate and distinct-score count of a table."""
    out = {"rows": int(y.size), "d": int(d), "positive_rate": float(np.mean(y))}
    if scores is not None:
        out["distinct_scores"] = int(np.unique(scores).size)
    return out
