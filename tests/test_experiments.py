"""Tests for the experiment drivers and their reproducibility contract."""

import ctypes
from pathlib import Path

import numpy as np
import pytest

from stochthresh import experiments
from stochthresh.classify import empirical_confusion
from stochthresh.errors import ParameterDomainError
from stochthresh.experiments import (
    EXP1_COLUMNS,
    EXP2_COLUMNS,
    FRAUD_COLUMNS,
    ExperimentConfig,
    config_hash,
    default_n_grid,
    run_experiment1,
    run_experiment2,
    run_fraud_pipeline,
    trial_seed_sequence,
)
from stochthresh.io import save_csv, zscore
from stochthresh.knn import KnnModel, select_k
from stochthresh.metrics import CmmSpec, evaluate_cmm
from stochthresh.synth import (
    exp1_problem,
    exp2_nonuci_problem,
    exp2_uci_problem,
    generate,
)
from stochthresh.threshold_opt import (
    optimize_population_threshold,
    optimize_threshold,
    optimize_threshold_deterministic,
)

from helpers import argsort_knn_reference, write_csv


# ---------------------------------------------------------------------------
# Configuration plumbing.
# ---------------------------------------------------------------------------


def test_default_n_grid_is_log_spaced_hundred_to_ten_thousand():
    assert default_n_grid() == (
        100, 167, 278, 464, 774, 1292, 2154, 3594, 5995, 10000,
    )


def test_experiment_config_defaults_and_rule_selection():
    c1 = ExperimentConfig(experiment="exp1", n_grid=(10, 20))
    assert c1.k_rule == "exp1"
    c2 = ExperimentConfig(experiment="exp2", n_grid=(10, 20))
    assert c2.k_rule == "exp2"
    c3 = ExperimentConfig(experiment="exp1", n_grid=(10, 20), k_rule="extreme")
    assert c3.k_rule == "extreme"
    assert c1.n_grid == (10, 20)
    assert (c1.metric.label(), c2.metric.label()) == ("tp_tn_product", "f_beta:1")


def test_experiment_config_validation():
    bad = [
        dict(experiment="exp3"),
        dict(n_grid=()),
        dict(n_grid=(1, 10)),
        dict(n_grid=(10, 10)),
        dict(n_grid=(20, 10)),
        dict(trials=0),
        dict(test_size=0),
        dict(workers=0),
        dict(score_source="other"),
        dict(k_rule="bogus"),
        dict(experiment="exp2", metric=CmmSpec("accuracy")),
        dict(experiment="exp2", score_source="eta"),
    ]
    for kwargs in bad:
        with pytest.raises(ParameterDomainError):
            ExperimentConfig(**kwargs)


def test_each_driver_rejects_the_other_experiments_config():
    with pytest.raises(ParameterDomainError, match="needs an exp1 config"):
        run_experiment1(ExperimentConfig(experiment="exp2", n_grid=(20, 40), trials=1))
    with pytest.raises(ParameterDomainError, match="needs an exp2 config"):
        run_experiment2(ExperimentConfig(experiment="exp1", n_grid=(20, 40), trials=1))


def test_config_hash_is_canonical():
    h1 = config_hash({"a": 1, "b": [2, 3]})
    h2 = config_hash({"b": [2, 3], "a": 1})
    h3 = config_hash({"a": 1, "b": [2, 4]})
    assert h1 == h2
    assert h1 != h3
    assert len(h1) == 16
    assert set(h1) <= set("0123456789abcdef")


def test_trial_seed_sequence_is_pure_function_of_identity():
    a = trial_seed_sequence(0, 1, 2, 3).generate_state(4)
    b = trial_seed_sequence(0, 1, 2, 3).generate_state(4)
    assert np.array_equal(a, b)
    for other in (
        trial_seed_sequence(1, 1, 2, 3),
        trial_seed_sequence(0, 2, 2, 3),
        trial_seed_sequence(0, 1, 3, 3),
        trial_seed_sequence(0, 1, 2, 4),
    ):
        assert not np.array_equal(a, other.generate_state(4))


# ---------------------------------------------------------------------------
# Plateau-problem regret experiment.
# ---------------------------------------------------------------------------


SMALL_EXP1 = dict(
    experiment="exp1", n_grid=(20, 40), trials=3, master_seed=0, test_size=50
)


def test_run_experiment1_row_schema_and_regret_identity():
    cfg = ExperimentConfig(**SMALL_EXP1)
    rows, summary = run_experiment1(cfg)
    assert len(rows) == 2 * 3 * 2  # n values x trials x methods
    m_star = optimize_population_threshold(exp1_problem().eta, cfg.metric).metric_value
    expected_k = {20: select_k("exp1", 20), 40: select_k("exp1", 40)}
    for row in rows:
        n, trial, key, k, r, metric, method, value, regret = row
        assert n in (20, 40) and trial in (0, 1, 2)
        n_index = 0 if n == 20 else 1
        assert key == f"0:1:{n_index}:{trial}"
        assert k == expected_k[n]
        assert r == 1.0
        assert metric == "tp_tn_product"
        assert method in ("stochastic", "deterministic")
        assert 0.0 <= value <= 0.25
        assert regret == m_star - value
    # Summary: one row per (n, method) carrying the right trial count.
    assert len(summary) == 4
    for n, method, trials, mean_value, mean_regret, ci in summary:
        matching = [
            row for row in rows if row[0] == n and row[6] == method
        ]
        assert trials == 3
        assert mean_value == pytest.approx(
            np.mean([row[7] for row in matching]), rel=1e-15
        )
        assert mean_regret == pytest.approx(
            np.mean([row[8] for row in matching]), rel=1e-15
        )
        assert ci >= 0.0


def test_run_experiment1_deterministic_and_worker_invariant():
    rows1, summary1 = run_experiment1(ExperimentConfig(**SMALL_EXP1))
    rows2, summary2 = run_experiment1(ExperimentConfig(**SMALL_EXP1))
    assert rows1 == rows2
    assert summary1 == summary2
    rows4, summary4 = run_experiment1(ExperimentConfig(**SMALL_EXP1, workers=2))
    assert rows4 == rows1
    assert summary4 == summary1


def _blas_threads(job) -> list[tuple]:
    """A pool job: the thread count of numpy's bundled OpenBLAS in this worker."""
    (path,) = _bundled_openblas()
    getter = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_")
    getter.argtypes, getter.restype = (), ctypes.c_int
    return [(getter(),)]


def _bundled_openblas() -> list:
    return sorted(
        (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas*.so")
    )


def test_pool_workers_run_one_blas_thread():
    if len(_bundled_openblas()) != 1:
        pytest.skip("numpy bundles no single OpenBLAS library")
    assert experiments._run_jobs(_blas_threads, [0, 1, 2], 2) == [(1,), (1,), (1,)]


def test_run_experiment1_output_files(tmp_path):
    out = tmp_path / "exp1.csv"
    cfg = ExperimentConfig(**SMALL_EXP1)
    rows, summary = run_experiment1(cfg, out=out)
    summary_path = tmp_path / "exp1_summary.csv"
    assert out.exists() and summary_path.exists()
    text = out.read_text(encoding="utf-8")
    preamble = [l for l in text.splitlines() if l.startswith("# ")]
    keys = {l[2:].split("=", 1)[0] for l in preamble}
    assert {
        "tool", "tool_version", "numpy_version", "config_sha256",
        "master_seed", "population_optimum",
    } <= keys
    assert "# tool=stochthresh" in preamble
    assert f"# config_sha256={config_hash(cfg.to_mapping())}" in preamble
    header_line = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header_line == ",".join(EXP1_COLUMNS)
    data_lines = [
        l for l in text.splitlines() if l and not l.startswith("#")
    ]
    assert len(data_lines) == 1 + len(rows)
    # No timestamps: a rerun to a new path is byte-identical.
    out2 = tmp_path / "again.csv"
    run_experiment1(cfg, out=out2)
    assert out2.read_bytes() == out.read_bytes()


# ---------------------------------------------------------------------------
# Shrinking-imbalance experiment.
# ---------------------------------------------------------------------------


SMALL_EXP2 = dict(
    experiment="exp2", n_grid=(30, 60), trials=2, master_seed=0, test_size=40
)


def test_run_experiment2_row_schema():
    cfg = ExperimentConfig(**SMALL_EXP2)
    rows, summary = run_experiment2(cfg)
    assert len(rows) == 2 * 2 * 2  # n values x trials x regression shapes
    for row in rows:
        n, trial, key, k, r, metric, eta, linf, l1, reg_d, reg_s = row
        assert n in (30, 60)
        n_index = 0 if n == 30 else 1
        assert key == f"0:2:{n_index}:{trial}"
        assert r == float(n) ** -0.5
        assert k == select_k("exp2", n, r)
        assert metric == "f_beta:1"
        assert eta in ("uci", "nonuci")
        assert 0.0 <= l1 <= linf <= 1.0
        assert reg_d <= 1.0 and reg_s <= 1.0
    names = {(row[0], row[6]) for row in rows}
    assert names == {(30, "uci"), (30, "nonuci"), (60, "uci"), (60, "nonuci")}
    assert len(summary) == 4
    for srow in summary:
        assert srow[2] == 2  # trials


def test_run_experiment2_applies_its_k_rule():
    rows, summary = run_experiment2(ExperimentConfig(**SMALL_EXP2, k_rule="extreme"))
    assert [row[3] for row in rows] == [row[0] for row in rows]  # k == n
    assert [srow[3] for srow in summary] == [srow[0] for srow in summary]
    rows, _ = run_experiment2(ExperimentConfig(**SMALL_EXP2, k_rule="exp1"))
    assert [row[3] for row in rows] == [select_k("exp1", row[0]) for row in rows]


def test_run_experiment2_deterministic_with_output(tmp_path):
    out = tmp_path / "exp2.csv"
    cfg = ExperimentConfig(**SMALL_EXP2)
    rows1, _ = run_experiment2(cfg, out=out)
    rows2, _ = run_experiment2(cfg)
    assert rows1 == rows2
    text = out.read_text(encoding="utf-8")
    keys = {
        l[2:].split("=", 1)[0] for l in text.splitlines() if l.startswith("# ")
    }
    assert "config_sha256" in keys
    header_line = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header_line == ",".join(EXP2_COLUMNS)
    assert (tmp_path / "exp2_summary.csv").exists()


def test_run_experiment2_rows_replay_the_exact_tuners():
    # Each regret column is the population F1 optimum minus the test F1 of
    # the threshold the exact search tunes on the trial's training scores.
    spec = CmmSpec("f_beta", 1.0)
    cfg = ExperimentConfig(experiment="exp2", n_grid=(100, 1000), trials=3, test_size=200)
    rows, _ = run_experiment2(cfg)
    for row in rows:
        n, trial, _key, k, r, _metric, eta_name, _linf, _l1, reg_d, reg_s = row
        n_index = cfg.n_grid.index(n)
        streams = trial_seed_sequence(0, 2, n_index, trial).spawn(4)
        if eta_name == "uci":
            problem, (train_ss, test_ss) = exp2_uci_problem(r), streams[0:2]
        else:
            problem, (train_ss, test_ss) = exp2_nonuci_problem(r), streams[2:4]
        train = generate(problem, n, train_ss)
        test = generate(problem, cfg.test_size, test_ss)
        model = KnnModel.fit(train.covariates, train.labels, k)
        scores = model.predict(train.covariates[:, 0])
        tscores = model.predict(test.covariates[:, 0])
        det = optimize_threshold_deterministic((scores, train.labels), spec)
        sto = optimize_threshold((scores, train.labels, train.draws), spec)
        pop = optimize_population_threshold(problem.eta, spec).metric_value
        f1_d = evaluate_cmm(
            spec, empirical_confusion(det.threshold, (tscores, test.labels, None))
        )
        f1_s = evaluate_cmm(
            spec, empirical_confusion(sto.threshold, (tscores, test.labels, test.draws))
        )
        assert (reg_d, reg_s) == (pop - f1_d, pop - f1_s), row


# ---------------------------------------------------------------------------
# CSV pipeline driver.
# ---------------------------------------------------------------------------


def _standin_csv(tmp_path, n=400, seed=99, with_draws=False):
    ds = generate(exp2_nonuci_problem(0.3), n, seed=seed)
    path = tmp_path / "standin.csv"
    save_csv(ds, path, include_draws=with_draws)
    return path


def test_fraud_pipeline_schema_and_determinism(tmp_path):
    path = _standin_csv(tmp_path)
    rows, summary = run_fraud_pipeline(
        path, trials=3, master_seed=0, k_values=(2, 8)
    )
    assert len(rows) == 3 * 2 * 2  # trials x k values x methods
    assert len(summary) == 4
    for trial, key, k, imbalance, method, f1 in rows:
        assert key == f"0:3:0:{trial}"
        assert k in (2, 8)
        assert imbalance > 0.0
        assert method in ("stochastic", "deterministic")
        assert 0.0 <= f1 <= 1.0
    # Trials differ (different splits), reruns do not.
    per_trial = {r[0]: r[5] for r in rows if r[2] == 2 and r[4] == "stochastic"}
    assert len(set(per_trial.values())) > 1
    rows2, summary2 = run_fraud_pipeline(
        path, trials=3, master_seed=0, k_values=(2, 8)
    )
    assert rows == rows2 and summary == summary2
    for k, method, trials, mean_f1, se in summary:
        sel = [r[5] for r in rows if r[2] == k and r[4] == method]
        assert trials == 3
        assert mean_f1 == pytest.approx(np.mean(sel), rel=1e-15)
        assert se >= 0.0


def test_fraud_pipeline_stored_draws_and_k_clamp(tmp_path):
    path = _standin_csv(tmp_path, n=20, seed=3, with_draws=True)
    rows, _ = run_fraud_pipeline(
        path, draw_column="draw", trials=2, master_seed=0, k_values=(50,)
    )
    # Training part has 12 rows under the default 0.6/0.2/0.2 split.
    assert all(r[2] == 12 for r in rows)
    rows2, _ = run_fraud_pipeline(
        path, draw_column="draw", trials=2, master_seed=0, k_values=(50,)
    )
    assert rows == rows2


def test_fraud_pipeline_matches_per_k_refit(tmp_path, monkeypatch):
    # A d = 3 logistic table; one feature on a coarse grid makes ties.
    gen = np.random.default_rng(7)
    n = 300
    x = np.column_stack(
        (gen.standard_normal(n), gen.standard_normal(n), gen.integers(0, 3, n))
    )
    p_pos = 1.0 / (1.0 + np.exp(-(x @ np.array([1.5, -1.0, 0.8]) - 1.5)))
    labels = (gen.random(n) < p_pos).astype(int)
    path = write_csv(
        tmp_path / "d3.csv", ["f0", "f1", "f2", "label"],
        [[*map(repr, row), int(lab)] for row, lab in zip(x.tolist(), labels)],
    )
    ks = (1, 3, 8, 40, 500)
    rows, summary = run_fraud_pipeline(path, trials=2, master_seed=5, k_values=ks)
    assert [r[2] for r in rows[:10]] == [1, 1, 3, 3, 8, 8, 40, 40, 180, 180]

    # Reference: one pipeline run per k, each scoring with a stable-argsort
    # k-NN refitted at that k.  Splits and draws depend only on the trial.
    def argsort_path(self, queries, path_ks):
        return np.stack(
            [argsort_knn_reference(KnnModel.fit(self.x, self.y, k), queries, k)
             for k in path_ks]
        )

    monkeypatch.setattr(KnnModel, "predict_path", argsort_path)
    per_k = {k: run_fraud_pipeline(path, trials=2, master_seed=5, k_values=(k,))
             for k in ks}
    assert rows == [
        row for trial in (0, 1) for k in ks for row in per_k[k][0] if row[0] == trial
    ]
    assert summary == [row for k in ks for row in per_k[k][1]]


def test_fraud_pipeline_writes_files(tmp_path):
    path = _standin_csv(tmp_path)
    out = tmp_path / "fraud.csv"
    run_fraud_pipeline(path, trials=2, master_seed=1, k_values=(4,), out=out)
    assert out.exists() and (tmp_path / "fraud_summary.csv").exists()
    text = out.read_text(encoding="utf-8")
    header_line = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header_line == ",".join(FRAUD_COLUMNS)
    keys = {
        l[2:].split("=", 1)[0] for l in text.splitlines() if l.startswith("# ")
    }
    assert {"config_sha256", "data_path", "zscore"} <= keys


def test_fraud_pipeline_fits_zscore_on_training_split(tmp_path, monkeypatch):
    fitted = []

    def recording_zscore(ds):
        fitted.append(ds.n)
        return zscore(ds)

    monkeypatch.setattr(experiments, "zscore", recording_zscore)
    run_fraud_pipeline(_standin_csv(tmp_path), trials=2, master_seed=1, k_values=(4,))
    assert fitted == [240, 240]  # the 60 % training split of 400 rows, per trial


def test_fraud_pipeline_drops_a_feature_constant_on_every_row(tmp_path):
    gen = np.random.default_rng(3)
    x = gen.standard_normal((200, 2))
    labels = (gen.random(200) < 1.0 / (1.0 + np.exp(-x.sum(axis=1)))).astype(int)
    table = [[*map(repr, row), int(y)] for row, y in zip(x.tolist(), labels)]
    d2 = write_csv(tmp_path / "d2.csv", ["f0", "f1", "label"], table)
    with_const = write_csv(
        tmp_path / "d2c.csv", ["f0", "c", "f1", "label"],
        [[row[0], "1.0", *row[1:]] for row in table],
    )
    rows, summary = run_fraud_pipeline(d2, trials=3, master_seed=2, k_values=(2, 8))
    assert run_fraud_pipeline(
        with_const, trials=3, master_seed=2, k_values=(2, 8)
    ) == (rows, summary)


def test_fraud_pipeline_config_hash_at_defaults(tmp_path):
    out = tmp_path / "fraud.csv"
    run_fraud_pipeline(_standin_csv(tmp_path), out=out)
    want = config_hash({
        "pipeline": "fraud",
        "label_column": "label",
        "trials": 20,
        "master_seed": 0,
        "k_values": [2, 4, 8, 16, 32, 64, 128],
        "downsample_negative_ratio": None,
        "fractions": [0.6, 0.2, 0.2],
        "stratified": False,
        "metric": "f_beta:1",
    })
    assert f"# config_sha256={want}" in out.read_text(encoding="utf-8").splitlines()


def test_fraud_pipeline_validation(tmp_path):
    path = _standin_csv(tmp_path, n=30, seed=1)
    with pytest.raises(ParameterDomainError):
        run_fraud_pipeline(path, trials=0)
    with pytest.raises(ParameterDomainError):
        run_fraud_pipeline(path, k_values=())
    with pytest.raises(ParameterDomainError):
        run_fraud_pipeline(path, k_values=(0,))


# ---------------------------------------------------------------------------
# Summaries.
# ---------------------------------------------------------------------------


def _ci95_half_reference(values):
    if values.size < 2:
        return 0.0
    return float(1.96 * values.std(ddof=1) / np.sqrt(values.size))


def test_summaries_equal_per_group_scans(tmp_path):
    """The shared group-by gives the summaries of a separate scan per group."""
    rows, summary = run_experiment1(ExperimentConfig(**SMALL_EXP1))
    want = []
    for n in SMALL_EXP1["n_grid"]:
        for method in ("stochastic", "deterministic"):
            sel = [r for r in rows if r[0] == n and r[6] == method]
            values = np.array([r[7] for r in sel])
            regrets = np.array([r[8] for r in sel])
            want.append((n, method, regrets.size, float(values.mean()),
                         float(regrets.mean()), _ci95_half_reference(regrets)))
    assert summary == want

    rows, summary = run_experiment2(ExperimentConfig(**SMALL_EXP2))
    want = []
    for n in SMALL_EXP2["n_grid"]:
        for eta in ("uci", "nonuci"):
            sel = [r for r in rows if r[0] == n and r[6] == eta]
            cols = [np.array([r[c] for r in sel]) for c in (7, 8, 9, 10)]
            stats = [f(c) for c in cols for f in (lambda a: float(a.mean()),
                                                   _ci95_half_reference)]
            want.append((n, eta, len(sel), sel[0][3], sel[0][4], *stats))
    assert summary == want

    # An unsorted k list whose large entries clamp to the same k: the
    # summary lists each k once, ascending, stochastic first.
    path = _standin_csv(tmp_path, n=40, seed=5)
    rows, summary = run_fraud_pipeline(path, trials=3, master_seed=0, k_values=(30, 2, 50))
    want = []
    for k in sorted({r[2] for r in rows}):
        for method in ("stochastic", "deterministic"):
            f1s = np.array([r[5] for r in rows if r[2] == k and r[4] == method])
            se = float(f1s.std(ddof=1) / np.sqrt(f1s.size)) if f1s.size > 1 else 0.0
            want.append((k, method, f1s.size, float(f1s.mean()), se))
    assert [s[:3] for s in summary] == [
        (2, "stochastic", 3), (2, "deterministic", 3),
        (24, "stochastic", 6), (24, "deterministic", 6),
    ]
    assert summary == want


# ---------------------------------------------------------------------------
# Pinned result bytes.
# ---------------------------------------------------------------------------

# The data lines of two result files, everything below the ``#`` preamble
# (which names the numpy version).  A speed change must leave them as they
# are, bit for bit: the norms, the tuned thresholds and their text.
PINNED_EXP2_LINES = (
    'n,trial,seed,k,r,metric,eta,linf,l1,f1_regret,f1_regret_stochastic',
    '20,0,0:2:0:0,12,0.22360679774997896,f_beta:1,uci,0.31097825718029964,0.20271294880008117,0.1465755002537853,0.02444664871316904',
    '20,0,0:2:0:0,12,0.22360679774997896,f_beta:1,nonuci,0.8333333333333334,0.10282091603840487,0.0699257133519453,0.10841362785138098',
    '20,1,0:2:0:1,12,0.22360679774997896,f_beta:1,uci,0.25,0.18050232242281,0.0865935671011204,0.0547432706732113',
    '20,1,0:2:0:1,12,0.22360679774997896,f_beta:1,nonuci,0.75,0.12742667123441287,0.4157177367859246,0.3816605543561659',
    '200,0,0:2:1:0,82,0.07071067811865475,f_beta:1,uci,0.024390243902439025,0.010175982713053174,-0.017909664088557098,0.03871694609558743',
    '200,0,0:2:1:0,82,0.07071067811865475,f_beta:1,nonuci,0.9390243902439024,0.040636873443430234,0.5222653558335436,0.7184774770456649',
    '200,1,0:2:1:1,82,0.07071067811865475,f_beta:1,uci,0.014409838277227277,0.005491341000506101,-0.02109307683267983,0.058484387956052555',
    '200,1,0:2:1:1,82,0.07071067811865475,f_beta:1,nonuci,0.8780487804878049,0.04537736258487727,0.3731274247990609,0.3913830028923672',
    '2000,0,0:2:2:0,563,0.022360679774997897,f_beta:1,uci,0.011502043897266591,0.003342055033930256,0.01184862402370684,-0.002721822711688346',
    '2000,0,0:2:2:0,563,0.022360679774997897,f_beta:1,nonuci,0.9715808170515098,0.013943944991456236,0.5984147811209,0.7639320225002103',
    '2000,1,0:2:2:1,563,0.022360679774997897,f_beta:1,uci,0.010165822606343435,0.002699663932929077,0.03851529069037351,0.03851529069037351',
    '2000,1,0:2:2:1,563,0.022360679774997897,f_beta:1,nonuci,0.9680284191829485,0.014739409463772847,0.5832868612098877,0.6414830429083735',
)

PINNED_EXP1_LINES = (
    'n,trial,seed,k,r,metric,method,value,regret',
    '20,0,0:1:0:0,7,1.0,tp_tn_product,stochastic,0.1824,-0.008788888888888874',
    '20,0,0:1:0:0,7,1.0,tp_tn_product,deterministic,0.1848,-0.01118888888888886',
    '20,1,0:1:0:1,7,1.0,tp_tn_product,stochastic,0.144,0.029611111111111144',
    '20,1,0:1:0:1,7,1.0,tp_tn_product,deterministic,0.168,0.005611111111111122',
    '40,0,0:1:1:0,11,1.0,tp_tn_product,stochastic,0.1728,0.0008111111111111236',
    '40,0,0:1:1:0,11,1.0,tp_tn_product,deterministic,0.1836,-0.00998888888888888',
    '40,1,0:1:1:1,11,1.0,tp_tn_product,stochastic,0.1344,0.03921111111111114',
    '40,1,0:1:1:1,11,1.0,tp_tn_product,deterministic,0.1344,0.03921111111111114',
)


def _data_lines(path) -> tuple[str, ...]:
    return tuple(
        l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")
    )


def test_result_files_keep_their_pinned_bytes(tmp_path):
    run_experiment2(
        ExperimentConfig(experiment="exp2", n_grid=(20, 200, 2000), trials=2),
        out=tmp_path / "exp2.csv",
    )
    assert _data_lines(tmp_path / "exp2.csv") == PINNED_EXP2_LINES
    run_experiment1(ExperimentConfig(**{**SMALL_EXP1, "trials": 2}), out=tmp_path / "exp1.csv")
    assert _data_lines(tmp_path / "exp1.csv") == PINNED_EXP1_LINES
