"""The input generators are seeded, exact on disk and shaped as documented."""

import numpy as np

import gen
from stochthresh.io import load_csv


def test_fraud_table_is_seeded_and_about_seven_percent_positive(tmp_path):
    x, y = gen.fraud_table(3)
    x2, y2 = gen.fraud_table(3)
    assert x.shape == (gen.FRAUD_ROWS, gen.FRAUD_D)
    assert np.array_equal(x, x2) and np.array_equal(y, y2)
    assert not np.array_equal(gen.fraud_table(4)[1], y)
    rates = [gen.fraud_table(s)[1].mean() for s in range(10)]
    assert 0.05 < np.mean(rates) < 0.09


def test_fraud_csv_round_trips_bit_for_bit(tmp_path):
    x, y = gen.fraud_table(0, n=50)
    path = tmp_path / "fraud.csv"
    gen.write_fraud_csv(path, x, y)
    ds = load_csv(path)
    assert ds.draws is None
    assert ds.feature_names == tuple(f"x{j}" for j in range(gen.FRAUD_D))
    assert np.array_equal(ds.covariates, x) and np.array_equal(ds.labels, y)


def test_tune_table_has_tied_scores_and_distinct_draws():
    score_i, y, draw_i = gen.tune_table(5, n=20_000)
    scores, labels, draws = gen.tune_arrays(score_i, y, draw_i)
    again = gen.tune_arrays(*gen.tune_table(5, n=20_000))
    assert all(np.array_equal(a, b) for a, b in zip((scores, labels, draws), again))
    steps = float(gen.TUNE_SCORE_STEPS)
    assert np.array_equal(scores, np.round(scores * steps) / steps)
    assert np.unique(scores).size <= gen.TUNE_SCORE_STEPS + 1
    assert np.unique(draws).size == draws.size
    assert scores.min() >= 0.0 and scores.max() <= 1.0
    assert draws.min() >= 0.0 and draws.max() < 1.0
    info = gen.describe(labels, 1, scores)
    assert info["rows"] == 20_000 and info["distinct_scores"] == np.unique(scores).size


def test_tune_csv_parses_to_the_generator_arrays(tmp_path):
    raw = gen.tune_table(7, n=5_000)
    path = tmp_path / "tune.csv"
    gen.write_tune_csv(path, *raw)
    ds = load_csv(path, label_column="label", draw_column="draw")
    scores, labels, draws = gen.tune_arrays(*raw)
    assert np.array_equal(ds.covariates[:, 0], scores)
    assert np.array_equal(ds.labels, labels)
    assert np.array_equal(ds.draws, draws)
