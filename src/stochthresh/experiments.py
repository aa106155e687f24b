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

import ctypes
import functools
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .classify import empirical_confusion
from .errors import ParameterDomainError
from .io import (
    SPLIT_FRACTIONS,
    load_csv,
    split,
    varying_features,
    write_results_csv,
    zscore,
)
from .knn import K_RULES, KnnModel, average_error, select_k, uniform_error
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

#: The measure exp2 and the fraud pipeline tune and score.
F1 = CmmSpec("f_beta", 1.0)


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
    metric: CmmSpec | None = None
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
        if self.master_seed < 0:
            raise ParameterDomainError(f"master_seed={self.master_seed!r} must be >= 0")
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
        # exp2 tunes F1 on k-NN scores; it has no other measure or score source.
        metric = self.metric or (F1 if self.experiment == "exp2" else CmmSpec("tp_tn_product"))
        if self.experiment == "exp2" and (metric != F1 or self.score_source != "knn"):
            raise ParameterDomainError(
                f"exp2 tunes {F1.label()} on knn scores, not {metric.label()} "
                f"on {self.score_source} scores"
            )
        object.__setattr__(self, "metric", metric)

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


def _standard_error(values: np.ndarray, z: float = 1.0) -> float:
    """``z`` standard errors of the mean (z = 1.96: a 95 % interval's half-width)."""
    if values.size < 2:
        return 0.0
    return float(z * values.std(ddof=1) / np.sqrt(values.size))


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


def _one_blas_thread() -> None:
    """Pool initializer: one thread for numpy's bundled OpenBLAS, if it has one.

    Each worker's BLAS otherwise starts a thread per core, and the workers
    oversubscribe the cores.  Results cannot depend on the thread count: the
    slack of the n-d k-NN's GEMM filter is proven for any summation order
    (``knn._gemm_filter``), and the exact recheck decides every prediction.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        setter = getattr(ctypes.CDLL(str(path)), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            setter(1)


def _run_jobs(trial, jobs: list, workers: int) -> list[tuple]:
    """Run ``trial`` on each job and concatenate the rows, in job order."""
    if workers <= 1:
        return [row for job in jobs for row in trial(job)]
    with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
        chunksize = max(1, len(jobs) // (4 * workers))
        return [row for rows in pool.map(trial, jobs, chunksize=chunksize) for row in rows]


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
# The step every trial shares: tune on one sample, score on held-out rows


def _test_values(spec: CmmSpec, tune, test) -> tuple[float, float]:
    """Test values of the stochastic and the deterministic threshold tuned on ``tune``.

    ``tune`` and ``test`` are ``(scores, labels, draws)`` triples.  The
    deterministic threshold has p = 0, so it is tuned and tested without draws.
    """
    stoch = optimize_threshold(tune, spec)
    det = optimize_threshold_deterministic(tune[:2], spec)
    return (
        evaluate_cmm(spec, empirical_confusion(stoch.threshold, test)),
        evaluate_cmm(spec, empirical_confusion(det.threshold, (*test[:2], None))),
    )


def _synthetic_trial(cfg: ExperimentConfig, eta, n: int, k: int, streams):
    """Train on ``n`` rows drawn from ``eta``, test on ``cfg.test_size`` rows.

    Scores come from a k-NN fit on the training rows, or are eta itself when
    ``cfg.score_source`` is ``"eta"`` (the model is then None).  ``streams``
    are the training and test seed sequences.  Returns ``(model,
    _test_values(...))``.

    The k-NN scores the training rows in the fit's canonical order, where
    the queries are sorted, so each binary search starts from the last
    one's bound; the scores are then put back in row order.
    """
    train_ss, test_ss = streams
    train = generate(eta, n, train_ss)
    test = generate(eta, cfg.test_size, test_ss)
    if cfg.score_source == "knn":
        model = KnnModel.fit(train.covariates, train.labels, k)
        score = model.predict
        train_scores = np.empty(n)
        train_scores[model.order] = score(model.x[:, 0])
    else:
        model, score = None, eta.evaluate
        train_scores = score(train.covariates[:, 0])
    return model, _test_values(
        cfg.metric,
        (train_scores, train.labels, train.draws),
        (score(test.covariates[:, 0]), test.labels, test.draws),
    )


# ---------------------------------------------------------------------------
# Experiment 1: balanced plateaus, stochastic vs deterministic regret


def _exp1_trial(cfg: ExperimentConfig, m_star: float, job) -> list[tuple]:
    n_index, n, trial = job
    eta = exp1_problem()
    k = select_k(cfg.k_rule, n, eta.r)
    streams = trial_seed_sequence(cfg.master_seed, 1, n_index, trial).spawn(2)
    _, values = _synthetic_trial(cfg, eta, n, k, streams)
    key = _seed_key(cfg.master_seed, 1, n_index, trial)
    label = cfg.metric.label()
    return [
        (n, trial, key, k, eta.r, label, method, value, m_star - value)
        for method, value in zip(("stochastic", "deterministic"), values)
    ]


def run_experiment1(cfg: ExperimentConfig, out=None):
    """Tune thresholds on scored training data, measure test regret.

    Returns (rows, summary_rows); writes both CSVs when ``out`` is given.
    Regret is measured against the exact population optimum of the metric
    for the generating eta.
    """
    if cfg.experiment != "exp1":
        raise ParameterDomainError(f"run_experiment1 needs an exp1 config, not {cfg.experiment}")
    m_star = optimize_population_threshold(exp1_problem(), cfg.metric).metric_value
    trial = functools.partial(_exp1_trial, cfg, m_star)
    jobs = [(i, n, t) for i, n in enumerate(cfg.n_grid) for t in range(cfg.trials)]
    rows = _run_jobs(trial, jobs, cfg.workers)

    summary_rows = [
        (
            first[0], first[6], regrets.size,
            float(values.mean()), float(regrets.mean()), _standard_error(regrets, z=1.96),
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


def _exp2_trial(cfg: ExperimentConfig, pop_f1: dict, job) -> list[tuple]:
    n_index, n, trial = job
    r = float(n ** -0.5)
    k = select_k(cfg.k_rule, n, r)
    streams = trial_seed_sequence(cfg.master_seed, 2, n_index, trial).spawn(4)
    key = _seed_key(cfg.master_seed, 2, n_index, trial)
    rows = []
    for eta_name, eta, eta_streams in (
        ("uci", exp2_uci_problem(r), streams[0:2]),
        ("nonuci", exp2_nonuci_problem(r), streams[2:4]),
    ):
        model, (f1_sto, f1_det) = _synthetic_trial(cfg, eta, n, k, eta_streams)
        linf = uniform_error(model, eta)
        l1 = average_error(model, eta)
        pop = pop_f1[(n, eta_name)]
        rows.append(
            (
                n, trial, key, k, r, cfg.metric.label(), eta_name,
                linf, l1, pop - f1_det, pop - f1_sto,
            )
        )
    return rows


def run_experiment2(cfg: ExperimentConfig, out=None):
    """Error norms and F1 regret as imbalance shrinks with n (r = n^-1/2).

    Regret is measured against the exact population F1 optimum.
    """
    if cfg.experiment != "exp2":
        raise ParameterDomainError(f"run_experiment2 needs an exp2 config, not {cfg.experiment}")
    pop_f1 = {
        (n, name): optimize_population_threshold(problem(n ** -0.5), cfg.metric).metric_value
        for n in cfg.n_grid
        for name, problem in (("uci", exp2_uci_problem), ("nonuci", exp2_nonuci_problem))
    }
    trial = functools.partial(_exp2_trial, cfg, pop_f1)
    jobs = [(i, n, t) for i, n in enumerate(cfg.n_grid) for t in range(cfg.trials)]
    rows = _run_jobs(trial, jobs, cfg.workers)

    summary_rows = [
        (
            first[0], first[6], linf.size, first[3], first[4],
            float(linf.mean()), _standard_error(linf, z=1.96),
            float(l1.mean()), _standard_error(l1, z=1.96),
            float(reg.mean()), _standard_error(reg, z=1.96),
            float(reg_s.mean()), _standard_error(reg_s, z=1.96),
        )
        for first, (linf, l1, reg, reg_s) in _group_columns(rows, (0, 6), (7, 8, 9, 10))
    ]

    mapping = cfg.to_mapping()
    metadata = _base_metadata(mapping, cfg.master_seed)
    _maybe_write(out, EXP2_COLUMNS, rows, EXP2_SUMMARY_COLUMNS, summary_rows, metadata)
    return rows, summary_rows


# ---------------------------------------------------------------------------
# Imbalanced-data pipeline on a CSV dataset


def _fraud_trial(data, master_seed, k_values, stratified, downsample_negative_ratio,
                 trial) -> list[tuple]:
    ss = trial_seed_sequence(master_seed, 3, 0, trial)
    split_ss, draw_ss = ss.spawn(2)
    split_seed = int(split_ss.generate_state(1, np.uint64)[0])
    if data.draws is None:
        rng = np.random.Generator(np.random.Philox(draw_ss))
        data = replace(data, draws=rng.random(data.n))
    train, val, test = split(data, split_seed, stratified, downsample_negative_ratio)
    # A feature constant on the training split adds the same term to a query's
    # distance from every training row and leaves the canonical order as it
    # is, so it cannot change any neighbour set; it is dropped, since it cannot
    # be standardized.  With no varying feature, zscore rejects the data.
    varies = varying_features(train.covariates)
    if varies.any() and not varies.all():
        names = tuple(name for name, v in zip(train.feature_names, varies) if v)
        train, val, test = (
            replace(ds, covariates=ds.covariates[:, varies], feature_names=names)
            for ds in (train, val, test)
        )
    # Standardize with training statistics only, so nothing of val or test leaks in.
    train, val, test = zscore(train, val, test)
    kept_pos = train.positive_count + val.positive_count + test.positive_count
    kept_n = train.n + val.n + test.n
    imbalance = (kept_n - kept_pos) / kept_pos if kept_pos else float("inf")
    key = _seed_key(master_seed, 3, 0, trial)

    rows = []
    # ks that clamp to the same value are scored once.
    k_effs = tuple(dict.fromkeys(min(k, train.n) for k in k_values))
    # One fit and one neighbor pass per split serve every k.
    model = KnnModel.fit(train.covariates, train.labels, max(k_effs))
    val_path = model.predict_path(val.covariates, k_effs)
    test_path = model.predict_path(test.covariates, k_effs)
    for k_eff, val_scores, test_scores in zip(k_effs, val_path, test_path):
        f1_s, f1_d = _test_values(
            F1,
            (val_scores, val.labels, val.draws),
            (test_scores, test.labels, test.draws),
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
    stratified: bool = False,
    workers: int = 1,
    out=None,
):
    """Load, split, standardize, tune per k on validation, score on test.

    Each trial splits the rows a fixed 60/20/20, drops the features constant
    on its training split, and fits the z-score on that split.  F1 is the
    fixed pipeline metric.  Stochastic tuning uses the exact sweep on
    validation scores; deterministic tuning sweeps the same candidates with
    p = 0.  Returns (rows, summary_rows).
    """
    if trials < 1:
        raise ParameterDomainError(f"trials={trials!r} must be >= 1")
    if master_seed < 0:
        raise ParameterDomainError(f"master_seed={master_seed!r} must be >= 0")
    if workers < 1:
        raise ParameterDomainError(f"workers={workers!r} must be >= 1")
    if not k_values or any(k < 1 for k in k_values):
        raise ParameterDomainError(f"k_values {k_values!r} must be positive")
    ds = load_csv(data_path, label_column=label_column, draw_column=draw_column)
    trial = functools.partial(
        _fraud_trial, ds, master_seed, tuple(int(k) for k in k_values),
        bool(stratified), downsample_negative_ratio,
    )
    rows = _run_jobs(trial, list(range(trials)), workers)

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
        "fractions": list(SPLIT_FRACTIONS),
        "stratified": bool(stratified),
        "metric": F1.label(),
    }
    metadata = _base_metadata(mapping, master_seed)
    metadata["zscore"] = (
        "per-feature, population sd (ddof=0), fitted on each trial's training split"
    )
    metadata["data_path"] = Path(data_path).name
    _maybe_write(out, FRAUD_COLUMNS, rows, FRAUD_SUMMARY_COLUMNS, summary_rows, metadata)
    return rows, summary_rows
