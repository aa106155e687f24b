"""Reproducible experiment pipelines behind the command-line interface.

Every trial derives its randomness from
``SeedSequence(master_seed, spawn_key=(experiment_tag, n_index, trial))`` —
a pure function of the trial's identity, independent of execution order.
Jobs therefore parallelize freely: a 4-worker run and a sequential run
produce byte-identical result files.  Output CSVs carry a ``#`` metadata
preamble (tool/numpy versions, canonical config hash, master seed — never
timestamps) so byte equality is meaningful across reruns.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .classify import empirical_confusion
from .errors import ParameterDomainError
from .io import LabeledDataset, SplitSpec, load_csv, split, write_results_csv, zscore
from .knn import K_RULES, KnnModel, average_error, k_rule, select_k, uniform_error
from .metrics import CmmSpec, evaluate_cmm
from .synth import exp1_problem, exp2_nonuci_problem, exp2_uci_problem
from .synth import generate
from .threshold_opt import (
    optimize_population_threshold,
    optimize_threshold,
    optimize_threshold_deterministic,
)

__all__ = [
    "ExperimentConfig",
    "default_n_grid",
    "trial_seed_sequence",
    "run_experiment1",
    "run_experiment2",
    "run_fraud_pipeline",
    "EXP1_COLUMNS",
    "EXP2_COLUMNS",
    "FRAUD_COLUMNS",
]

EXP1_COLUMNS = ("n", "trial", "seed", "k", "r", "metric", "method", "value", "regret")
EXP1_SUMMARY_COLUMNS = ("n", "method", "trials", "mean_value", "mean_regret", "ci95_half")
EXP2_COLUMNS = (
    "n", "trial", "seed", "k", "r", "metric", "eta",
    "linf", "l1", "f1_regret", "f1_regret_stochastic",
)
EXP2_SUMMARY_COLUMNS = (
    "n", "eta", "trials", "k", "r",
    "mean_linf", "ci95_linf", "mean_l1", "ci95_l1",
    "mean_f1_regret", "ci95_f1_regret",
    "mean_f1_regret_stochastic", "ci95_f1_regret_stochastic",
)
FRAUD_COLUMNS = ("trial", "seed", "k", "imbalance_ratio", "method", "f1")
FRAUD_SUMMARY_COLUMNS = ("k", "method", "trials", "mean_f1", "se_f1")

#: Grid resolution used when measuring regression error norms in experiments.
ERROR_NORM_GRID = 10_000


def default_n_grid() -> tuple[int, ...]:
    """Ten log-spaced training sizes from 10^2 to 10^4."""
    return tuple(int(round(10.0 ** (2.0 + 2.0 * i / 9.0))) for i in range(10))


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the synthetic experiment drivers."""

    experiment: str = "exp1"
    n_grid: tuple[int, ...] = field(default_factory=default_n_grid)
    trials: int = 100
    master_seed: int = 0
    metric: CmmSpec = CmmSpec("tp_tn_product")
    k_rule: str = ""
    score_source: str = "knn"
    test_size: int = 1000
    workers: int = 1

    def __post_init__(self) -> None:
        if self.experiment not in ("exp1", "exp2"):
            raise ParameterDomainError(
                f"experiment {self.experiment!r} not one of exp1/exp2"
            )
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(n < 2 for n in grid):
            raise ParameterDomainError("n_grid must hold sizes >= 2")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterDomainError("n_grid must be strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.trials < 1:
            raise ParameterDomainError(f"trials={self.trials!r} must be >= 1")
        if self.test_size < 1:
            raise ParameterDomainError(f"test_size={self.test_size!r} must be >= 1")
        if self.workers < 1:
            raise ParameterDomainError(f"workers={self.workers!r} must be >= 1")
        if self.score_source not in ("knn", "eta"):
            raise ParameterDomainError(
                f"score_source {self.score_source!r} not one of knn/eta"
            )
        # Each experiment's default k rule carries the experiment's name.
        rule = self.k_rule or self.experiment
        if rule not in K_RULES:
            raise ParameterDomainError(f"k_rule {rule!r} not one of {'/'.join(K_RULES)}")
        object.__setattr__(self, "k_rule", rule)

    def to_mapping(self) -> dict:
        return {
            "experiment": self.experiment,
            "n_grid": list(self.n_grid),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "metric": self.metric.label(),
            "k_rule": self.k_rule,
            "score_source": self.score_source,
            "test_size": self.test_size,
        }


def config_hash(mapping: dict) -> str:
    """Short canonical hash of a JSON-serializable config mapping."""
    blob = json.dumps(mapping, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def trial_seed_sequence(
    master_seed: int, experiment_tag: int, n_index: int, trial: int
) -> np.random.SeedSequence:
    """Root seed sequence of one trial — a pure function of its identity."""
    return np.random.SeedSequence(
        master_seed, spawn_key=(experiment_tag, n_index, trial)
    )


def _seed_key(master_seed: int, tag: int, n_index: int, trial: int) -> str:
    return f"{master_seed}:{tag}:{n_index}:{trial}"


def _ci95_half(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(1.96 * values.std(ddof=1) / np.sqrt(values.size))


def _standard_error(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(values.size))


def _group_columns(rows, key_cols, value_cols) -> list[tuple[tuple, list[np.ndarray]]]:
    """Group rows by their ``key_cols`` entries in one pass.

    Returns one ``(first row, value arrays)`` pair per group, in first-seen
    order, with one array per entry of ``value_cols`` holding the group's
    values of that column in row order.
    """
    groups: dict[tuple, tuple[tuple, list[list]]] = {}
    for row in rows:
        key = tuple(row[c] for c in key_cols)
        if key not in groups:
            groups[key] = (row, [[] for _ in value_cols])
        for values, c in zip(groups[key][1], value_cols):
            values.append(row[c])
    return [(first, [np.array(v) for v in values]) for first, values in groups.values()]


def _run_jobs(fn, jobs: list, workers: int) -> list:
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=max(1, len(jobs) // (4 * workers))))


def _base_metadata(cfg_mapping: dict, master_seed: int) -> dict:
    return {
        "tool": "stochthresh",
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "config_sha256": config_hash(cfg_mapping),
        "master_seed": master_seed,
    }


def _maybe_write(out, columns, rows, summary_columns, summary_rows, metadata) -> None:
    if out is None:
        return
    out = Path(out)
    write_results_csv(out, columns, rows, metadata)
    summary_path = out.with_name(out.stem + "_summary" + out.suffix)
    write_results_csv(summary_path, summary_columns, summary_rows, metadata)


# ---------------------------------------------------------------------------
# Experiment 1: balanced plateaus, stochastic vs deterministic regret


def _exp1_trial(args) -> list[tuple]:
    (master_seed, n_index, n, trial, spec, rule, score_source, test_size, m_star) = args
    problem = exp1_problem()
    ss = trial_seed_sequence(master_seed, 1, n_index, trial)
    train_ss, test_ss = ss.spawn(2)
    train = generate(problem, n, train_ss)
    k = select_k(k_rule(rule, problem.r), n)
    xs = train.covariates[:, 0]
    if score_source == "knn":
        model = KnnModel.fit(train.covariates, train.labels, k)
        scores = model.predict(xs)
    else:
        model = None
        scores = problem.eta.evaluate(xs)
    stoch = optimize_threshold((scores, train.labels, train.draws), spec)
    det = optimize_threshold_deterministic((scores, train.labels), spec)

    test = generate(problem, test_size, test_ss)
    tq = test.covariates[:, 0]
    tscores = model.predict(tq) if model is not None else problem.eta.evaluate(tq)
    val_s = evaluate_cmm(
        spec, empirical_confusion(stoch.threshold, (tscores, test.labels, test.draws))
    )
    val_d = evaluate_cmm(
        spec, empirical_confusion(det.threshold, (tscores, test.labels, None))
    )
    key = _seed_key(master_seed, 1, n_index, trial)
    label = spec.label()
    return [
        (n, trial, key, k, problem.r, label, "stochastic", val_s, m_star - val_s),
        (n, trial, key, k, problem.r, label, "deterministic", val_d, m_star - val_d),
    ]


def run_experiment1(cfg: ExperimentConfig, out=None):
    """Tune thresholds on scored training data, measure test regret.

    Returns (rows, summary_rows); writes both CSVs when ``out`` is given.
    Regret is measured against the exact population optimum of the metric
    for the generating problem.
    """
    problem = exp1_problem()
    m_star = optimize_population_threshold(problem.eta, cfg.metric).metric_value
    jobs = [
        (
            cfg.master_seed, n_index, n, trial, cfg.metric, cfg.k_rule,
            cfg.score_source, cfg.test_size, m_star,
        )
        for n_index, n in enumerate(cfg.n_grid)
        for trial in range(cfg.trials)
    ]
    results = _run_jobs(_exp1_trial, jobs, cfg.workers)
    rows = [row for trial_rows in results for row in trial_rows]

    summary_rows = [
        (
            first[0], first[6], regrets.size,
            float(values.mean()), float(regrets.mean()), _ci95_half(regrets),
        )
        for first, (values, regrets) in _group_columns(rows, (0, 6), (7, 8))
    ]

    mapping = cfg.to_mapping()
    metadata = _base_metadata(mapping, cfg.master_seed)
    metadata["population_optimum"] = repr(float(m_star))
    _maybe_write(out, EXP1_COLUMNS, rows, EXP1_SUMMARY_COLUMNS, summary_rows, metadata)
    return rows, summary_rows


# ---------------------------------------------------------------------------
# Experiment 2: shrinking imbalance, error norms and F1 regret


def _exp2_trial(args) -> list[tuple]:
    (master_seed, n_index, n, trial, rule, test_size, pop_f1_uci, pop_f1_nonuci) = args
    spec = CmmSpec("f_beta", 1.0)
    r = float(n ** -0.5)
    k = select_k(k_rule(rule, r), n)
    ss = trial_seed_sequence(master_seed, 2, n_index, trial)
    streams = ss.spawn(4)
    key = _seed_key(master_seed, 2, n_index, trial)
    rows = []
    for eta_name, problem, pop_f1, (train_ss, test_ss) in (
        ("uci", exp2_uci_problem(r), pop_f1_uci, streams[0:2]),
        ("nonuci", exp2_nonuci_problem(r), pop_f1_nonuci, streams[2:4]),
    ):
        train = generate(problem, n, train_ss)
        model = KnnModel.fit(train.covariates, train.labels, k)
        linf = uniform_error(model, problem.eta, ERROR_NORM_GRID)
        l1 = average_error(model, problem.eta, ERROR_NORM_GRID)

        xs = train.covariates[:, 0]
        scores = model.predict(xs)
        det = optimize_threshold_deterministic((scores, train.labels), spec)
        stoch = optimize_threshold((scores, train.labels, train.draws), spec)

        test = generate(problem, test_size, test_ss)
        tscores = model.predict(test.covariates[:, 0])
        det_c = empirical_confusion(det.threshold, (tscores, test.labels, None))
        sto_c = empirical_confusion(
            stoch.threshold, (tscores, test.labels, test.draws)
        )
        f1_det = evaluate_cmm(spec, det_c)
        f1_sto = evaluate_cmm(spec, sto_c)
        rows.append(
            (
                n, trial, key, k, r, spec.label(), eta_name,
                linf, l1, pop_f1 - f1_det, pop_f1 - f1_sto,
            )
        )
    return rows


def run_experiment2(cfg: ExperimentConfig, out=None):
    """Error norms and F1 regret as imbalance shrinks with n (r = n^-1/2).

    Regret is measured against the exact population F1 optimum.
    """
    spec = CmmSpec("f_beta", 1.0)
    pop = {
        (n, name): optimize_population_threshold(problem(n ** -0.5).eta, spec).metric_value
        for n in cfg.n_grid
        for name, problem in (("uci", exp2_uci_problem), ("nonuci", exp2_nonuci_problem))
    }
    jobs = [
        (
            cfg.master_seed, n_index, n, trial, cfg.k_rule, cfg.test_size,
            pop[(n, "uci")], pop[(n, "nonuci")],
        )
        for n_index, n in enumerate(cfg.n_grid)
        for trial in range(cfg.trials)
    ]
    results = _run_jobs(_exp2_trial, jobs, cfg.workers)
    rows = [row for trial_rows in results for row in trial_rows]

    summary_rows = [
        (
            first[0], first[6], linf.size, first[3], first[4],
            float(linf.mean()), _ci95_half(linf),
            float(l1.mean()), _ci95_half(l1),
            float(reg.mean()), _ci95_half(reg),
            float(reg_s.mean()), _ci95_half(reg_s),
        )
        for first, (linf, l1, reg, reg_s) in _group_columns(rows, (0, 6), (7, 8, 9, 10))
    ]

    mapping = cfg.to_mapping()
    metadata = _base_metadata(mapping, cfg.master_seed)
    metadata["error_norm_grid"] = ERROR_NORM_GRID
    _maybe_write(out, EXP2_COLUMNS, rows, EXP2_SUMMARY_COLUMNS, summary_rows, metadata)
    return rows, summary_rows


# ---------------------------------------------------------------------------
# Imbalanced-data pipeline on a CSV dataset


def _fraud_trial(args) -> list[tuple]:
    (data, master_seed, trial, k_values, fractions, stratified, ratio) = args
    spec = CmmSpec("f_beta", 1.0)
    ss = trial_seed_sequence(master_seed, 3, 0, trial)
    split_ss, draw_ss = ss.spawn(2)
    split_seed = int(split_ss.generate_state(1, np.uint64)[0])
    if data.draws is None:
        rng = np.random.Generator(np.random.Philox(draw_ss))
        data = LabeledDataset(
            covariates=data.covariates,
            labels=data.labels,
            draws=rng.random(data.n),
            feature_names=data.feature_names,
        )
    spec_split = SplitSpec(
        fractions=fractions,
        seed=split_seed,
        stratified=stratified,
        downsample_negative_ratio=ratio,
    )
    train, val, test = split(data, spec_split)
    # Standardize with training statistics only, so nothing of val or test leaks in.
    train, transform = zscore(train)
    val, test = transform.apply(val), transform.apply(test)
    kept_pos = train.positive_count + val.positive_count + test.positive_count
    kept_n = train.n + val.n + test.n
    imbalance = (kept_n - kept_pos) / kept_pos if kept_pos else float("inf")
    key = _seed_key(master_seed, 3, 0, trial)

    rows = []
    k_effs = tuple(min(k, train.n) for k in k_values)
    # One fit and one neighbor pass per split serve every k.
    model = KnnModel.fit(train.covariates, train.labels, max(k_effs))
    val_path = model.predict_path(val.covariates, k_effs)
    test_path = model.predict_path(test.covariates, k_effs)
    for k_eff, val_scores, test_scores in zip(k_effs, val_path, test_path):
        sto = optimize_threshold((val_scores, val.labels, val.draws), spec)
        det = optimize_threshold_deterministic((val_scores, val.labels), spec)
        f1_s = evaluate_cmm(
            spec,
            empirical_confusion(sto.threshold, (test_scores, test.labels, test.draws)),
        )
        f1_d = evaluate_cmm(
            spec,
            empirical_confusion(det.threshold, (test_scores, test.labels, None)),
        )
        rows.append((trial, key, k_eff, imbalance, "stochastic", f1_s))
        rows.append((trial, key, k_eff, imbalance, "deterministic", f1_d))
    return rows


def run_fraud_pipeline(
    data_path,
    label_column: str = "label",
    draw_column: str | None = None,
    trials: int = 20,
    master_seed: int = 0,
    k_values: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128),
    downsample_negative_ratio: float | None = None,
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
    stratified: bool = False,
    workers: int = 1,
    out=None,
):
    """Load, split, standardize, tune per k on validation, score on test.

    Each trial fits the z-score on its training split and applies it to
    validation and test.  F1 is the fixed pipeline metric.  Stochastic
    tuning uses the exact sweep on validation scores; deterministic tuning
    sweeps the same candidates with p = 0.  Returns (rows, summary_rows).
    """
    if trials < 1:
        raise ParameterDomainError(f"trials={trials!r} must be >= 1")
    if not k_values or any(k < 1 for k in k_values):
        raise ParameterDomainError(f"k_values {k_values!r} must be positive")
    ds = load_csv(data_path, label_column=label_column, draw_column=draw_column)
    jobs = [
        (
            ds, master_seed, trial, tuple(int(k) for k in k_values),
            tuple(fractions), bool(stratified), downsample_negative_ratio,
        )
        for trial in range(trials)
    ]
    results = _run_jobs(_fraud_trial, jobs, workers)
    rows = [row for trial_rows in results for row in trial_rows]

    # Groups come in --k-list order; the summary lists k ascending, and the
    # stable sort keeps stochastic ahead of deterministic within each k.
    groups = sorted(_group_columns(rows, (2, 4), (5,)), key=lambda g: g[0][2])
    summary_rows = [
        (first[2], first[4], f1s.size, float(f1s.mean()), _standard_error(f1s))
        for first, (f1s,) in groups
    ]

    mapping = {
        "pipeline": "fraud",
        "label_column": label_column,
        "trials": trials,
        "master_seed": master_seed,
        "k_values": list(k_values),
        "downsample_negative_ratio": downsample_negative_ratio,
        "fractions": list(fractions),
        "stratified": bool(stratified),
        "metric": "f_beta:1",
    }
    metadata = _base_metadata(mapping, master_seed)
    metadata["zscore"] = (
        "per-feature, population sd (ddof=0), fitted on each trial's training split"
    )
    metadata["data_path"] = Path(data_path).name
    _maybe_write(out, FRAUD_COLUMNS, rows, FRAUD_SUMMARY_COLUMNS, summary_rows, metadata)
    return rows, summary_rows
