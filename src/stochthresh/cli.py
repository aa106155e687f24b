"""Command-line interface.

Usage errors (bad flags, malformed option values) exit with code 2; data
and domain errors (missing or unreadable files, schema violations,
infeasible parameter combinations, a result that is not a finite number)
exit with code 1 and a message.  A ``--config`` JSON file
supplies defaults that explicit flags override.  Its keys are the option
names with underscores, and each value is parsed by its flag's own parser,
so a malformed value exits 2 naming the flag, exactly as on the command
line; an unreadable file or an unknown key exits 1.
"""

from __future__ import annotations

import dataclasses
import json

import click
import numpy as np

from . import __version__
from .bounds import (
    BoundInputs,
    estimation_error_bound,
    regret_bound,
    shattering_bound,
    uniform_error_bound,
)
from .errors import SchemaError, StochthreshError
from .experiments import (
    ExperimentConfig,
    run_experiment1,
    run_experiment2,
    run_fraud_pipeline,
)
from .io import load_csv, save_csv
from .knn import K_RULES, KnnModel, select_k
from .metrics import CmmSpec
from .synth import (
    constant_problem,
    exp1_problem,
    exp2_nonuci_problem,
    exp2_uci_problem,
    generate,
    singleton_problem,
)
from .threshold_opt import optimize_threshold, optimize_threshold_deterministic

__all__ = ["main"]


def _parse_metric(ctx, param, value):
    if value is None:
        return None
    try:
        return CmmSpec.parse(value)
    except StochthreshError as exc:
        raise click.UsageError(f"--metric: {exc}") from exc


class _CommaList(click.ParamType):
    """A comma list such as ``2,4``, or a JSON list of numbers from --config."""

    def __init__(self, item: type) -> None:
        self.item = item
        self.name = f"{item.__name__},..."

    def convert(self, value, param, ctx):
        parts = value.replace(" ", "").split(",") if isinstance(value, str) else value
        try:
            # Items go through str(), so a JSON 2.5 or true fails as it would as a flag.
            items = tuple(self.item(str(v)) for v in parts if v != "")
        except (TypeError, ValueError):
            self.fail(f"{value!r} is not a comma list of {self.item.__name__}s", param, ctx)
        if not items:
            self.fail("empty list", param, ctx)
        return items


def _config_defaults(ctx, param, path):
    """Make the --config JSON object the command's option defaults.

    Click then parses each value with the matching flag's type and
    callback.  A scalar option gets a number, list or boolean as its JSON
    text, so ``1.7`` fails an int flag as ``--trials 1.7`` does; a list
    option gets the value itself.  Keys that name no option of the command
    (``config``, ``out`` and ``data`` are flag-only) exit 1, as do
    unreadable files, through ``main``'s error boundary.
    """
    if path is None:
        return
    try:
        with open(path, encoding="utf-8-sig") as fh:
            cfg = json.load(fh)
    except ValueError as exc:
        raise click.ClickException(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise click.ClickException(f"{path}: config must be a JSON object")
    allowed = {p.name for p in ctx.command.params} - {"config", "out", "data"}
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise click.ClickException(
            f"{path}: unknown config key {unknown[0]!r}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    lists = {p.name for p in ctx.command.params if isinstance(p.type, _CommaList)}
    ctx.default_map = {
        k: v if k in lists or v is None or isinstance(v, str) else json.dumps(v)
        for k, v in cfg.items()
    }


#: A seed is a non-negative int, as ``numpy.random.SeedSequence`` needs.
_SEED = click.IntRange(min=0)

_config_option = click.option(
    "--config", type=str, is_eager=True, expose_value=False, callback=_config_defaults,
    help="JSON file of option defaults; flags override.",
)


def _given(options: dict, **library_names) -> dict:
    """The options that were set, keyed by library name; the rest keep the library default."""
    return {library_names.get(k, k): v for k, v in options.items() if v is not None}


def _echo_json(obj) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # an overflowed bound is inf, which JSON cannot hold
        raise click.ClickException("a result is not a finite number") from exc
    click.echo(text)


class _ErrorBoundary(click.Group):
    """A group whose subcommands, option callbacks included, run inside one error map.

    Package/data errors, OS errors and float overflows exit 1 with the message.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (StochthreshError, OSError, OverflowError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_ErrorBoundary)
@click.version_option(__version__, prog_name="stochthresh")
def main() -> None:
    """Stochastic threshold classifiers: tuning, experiments, bounds."""


# ---------------------------------------------------------------------------
# experiment


@main.group()
def experiment() -> None:
    """Synthetic experiment drivers with deterministic per-trial seeding."""


def _experiment_options(fn):
    fn = _config_option(fn)
    fn = click.option("--seed", type=_SEED, default=None, help="Master seed.")(fn)
    fn = click.option("--trials", type=int, default=None, help="Trials per n.")(fn)
    fn = click.option("--n-grid", type=_CommaList(int), default=None,
                      help="Comma list of training sizes.")(fn)
    fn = click.option("--test-size", type=int, default=None)(fn)
    fn = click.option("--k-rule", type=click.Choice(K_RULES), default=None,
                      help="Neighborhood-size rule; defaults to the experiment's own.")(fn)
    fn = click.option("--workers", type=int, default=None)(fn)
    fn = click.option("--out", type=str, default=None,
                      help="Results CSV path; a *_summary.csv lands beside it.")(fn)
    return fn


@experiment.command("exp1")
@_experiment_options
@click.option("--metric", callback=_parse_metric, default=None,
              help="Measure to optimize, e.g. tp_tn_product or f_beta:1.")
@click.option("--score-source", type=click.Choice(["knn", "eta"]), default=None,
              help="Tune on regressor scores (knn) or on true regression values (eta).")
def experiment_exp1(out, **options):
    """Balanced plateaus: stochastic vs deterministic threshold regret."""
    cfg = ExperimentConfig("exp1", **_given(options, seed="master_seed"))
    _, summary = run_experiment1(cfg, out=out)
    for r in summary:
        click.echo(f"n={r[0]} {r[1]}: mean_regret={r[4]:.6f} ci95={r[5]:.6f}")


@experiment.command("exp2")
@_experiment_options
def experiment_exp2(out, **options):
    """Shrinking imbalance r = n^-1/2: error norms and F1 regret."""
    cfg = ExperimentConfig("exp2", **_given(options, seed="master_seed"))
    _, summary = run_experiment2(cfg, out=out)
    for r in summary:
        click.echo(
            f"n={r[0]} eta={r[1]}: mean_linf={r[5]:.6f} mean_l1={r[7]:.6f} "
            f"mean_f1_regret={r[9]:.6f}"
        )


# ---------------------------------------------------------------------------
# fraud pipeline


@main.command()
@click.option("--data", type=str, required=True,
              help="CSV with features and a binary label column.")
@click.option("--label-column", type=str, default=None)
@click.option("--draw-column", type=str, default=None,
              help="Optional column of stored uniform draws.")
@click.option("--trials", type=int, default=None)
@click.option("--seed", type=_SEED, default=None)
@click.option("--k-list", type=_CommaList(int), default=None,
              help="Comma list of neighborhood sizes.")
@click.option("--downsample", type=float, default=None,
              help="Keep this fraction of negative rows before splitting.")
@click.option("--stratified/--no-stratified", default=None)
@click.option("--workers", type=int, default=None)
@click.option("--out", type=str, default=None)
@_config_option
def fraud(data, out, **options):
    """Imbalanced-data pipeline: split 60/20/20, z-score on train, tune per k, test F1."""
    _, summary = run_fraud_pipeline(
        data, out=out,
        **_given(options, seed="master_seed", k_list="k_values",
                 downsample="downsample_negative_ratio"),
    )
    for row in summary:
        click.echo(f"k={row[0]} {row[1]}: mean_f1={row[3]:.6f} se={row[4]:.6f}")


# ---------------------------------------------------------------------------
# tune-threshold


def _read_scored_csv(path):
    """Read a CSV with columns score,label[,draw] (any order, extra cols rejected).

    The scores and draws are range-checked by the sweep that reads them.
    """
    ds = load_csv(path, label_column="label")
    names = ds.feature_names
    if "score" not in names:
        raise SchemaError(f"{path}: need 'score' and 'label' columns, got {[*names, 'label']}")
    unexpected = set(names) - {"score", "draw"}
    if unexpected:
        raise SchemaError(f"{path}: unexpected columns {sorted(unexpected)}")
    scores = ds.covariates[:, names.index("score")]
    draws = ds.covariates[:, names.index("draw")] if "draw" in names else None
    return scores, ds.labels, draws


@main.command("tune-threshold")
@click.option("--data", "data_path", type=str, required=True,
              help="CSV with columns score,label[,draw].")
@click.option("--metric", callback=_parse_metric, default=None)
@click.option("--deterministic", is_flag=True, default=False,
              help="Restrict to p = 0 thresholds.")
@click.option("--seed", type=_SEED, default=0,
              help="Seed for synthetic draws when the CSV has no draw column.")
def tune_threshold(data_path, metric, deterministic, seed):
    """Exactly optimize a threshold on scored data; prints JSON."""
    spec = metric if metric is not None else CmmSpec("accuracy")
    scores, labels, draws = _read_scored_csv(data_path)
    if deterministic:
        res = optimize_threshold_deterministic((scores, labels, draws), spec)
        method = "deterministic"
    else:
        if draws is None:
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(seed, spawn_key=(5,)))
            )
            draws = rng.random(scores.size)
        res = optimize_threshold((scores, labels, draws), spec)
        method = "stochastic"
    _echo_json(
        {
            "method": method,
            "metric": spec.label(),
            "t": res.threshold.t,
            "p": res.threshold.p,
            "value": res.metric_value,
            "prefix_index": res.classification_prefix_index,
        }
    )


# ---------------------------------------------------------------------------
# fit-knn


@main.command("fit-knn")
@click.option("--data", "data_path", type=str, required=True)
@click.option("--label-column", type=str, default="label")
@click.option("--draw-column", type=str, default=None,
              help="Column of stored draws to exclude from the features.")
@click.option("--k", type=int, default=None)
@click.option("--k-rule", "rule_name", type=click.Choice(K_RULES), default=None)
@click.option("--rule-r", type=float, default=1.0,
              help="Imbalance degree fed to the k rule.")
@click.option("--rule-alpha", type=float, default=1.0)
@click.option("--query", "queries", type=_CommaList(float), multiple=True,
              help="Query point, comma-separated coordinates; repeatable.")
def fit_knn(data_path, label_column, draw_column, k, rule_name, rule_r, rule_alpha, queries):
    """Fit a k-NN regressor on a CSV and print predictions as JSON."""
    if (k is None) == (rule_name is None):
        raise click.UsageError("provide exactly one of --k / --k-rule")
    ds = load_csv(data_path, label_column=label_column, draw_column=draw_column)
    if k is None:
        k = select_k(rule_name, ds.n, r=rule_r, alpha=rule_alpha, d=ds.d)
    model = KnnModel.fit(ds.covariates, ds.labels, k)
    preds = []
    for point in map(list, queries):
        if len(point) != ds.d:
            raise click.UsageError(
                f"--query: {point} has {len(point)} coordinates, data has d={ds.d}"
            )
        value = model.predict(point[0]) if ds.d == 1 else model.predict(point)
        preds.append({"query": point, "prediction": float(value)})
    _echo_json({"k": int(k), "n": ds.n, "d": ds.d, "predictions": preds})


# ---------------------------------------------------------------------------
# bounds


@main.command("bounds")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=None)
@click.option("--r", type=float, default=None)
@click.option("--alpha", type=float, default=None)
@click.option("--l-const", "L", type=float, default=None,
              help="Smoothness constant of the regression shape.")
@click.option("--d", type=int, default=None)
@click.option("--p-star", type=float, default=None)
@click.option("--delta", type=float, default=None)
@click.option("--eps-star", type=float, default=None)
@click.option("--c-margin", "C_margin", type=float, default=None)
@click.option("--beta-margin", type=float, default=None)
@click.option("--l-metric", "L_M", type=float, default=None,
              help="Lipschitz constant of the measure.")
@click.option("--sup-err", type=float, default=None,
              help="Regression sup-error to feed the regret bound.")
@_config_option
def bounds_cmd(sup_err, **options):
    """Evaluate the closed-form bounds; prints a JSON record."""
    # Checks every parameter, also unread ones; the regret bound ignores k.
    inputs = BoundInputs(**_given(options))
    out = {
        "n": inputs.n,
        "d": inputs.d,
        "delta": inputs.delta,
        "estimation_error_bound": estimation_error_bound(inputs.n, inputs.delta),
        "shattering_bound": shattering_bound(inputs.n, inputs.d),
    }
    if options["k"] is not None:
        out["uniform_error_bound"] = dataclasses.asdict(uniform_error_bound(inputs))
    if sup_err is not None:
        out["regret_bound"] = regret_bound(inputs, sup_err)
    _echo_json(out)


# ---------------------------------------------------------------------------
# generate


@main.command("generate")
@click.option("--problem", type=click.Choice(
    ["exp1", "exp2-uci", "exp2-nonuci", "singleton", "constant"]), required=True)
@click.option("--r", type=float, default=None, help="Shape parameter for exp2-*.")
@click.option("--value", type=float, default=None,
              help="Regression value for singleton/constant.")
@click.option("--n", type=int, required=True)
@click.option("--seed", type=_SEED, default=0)
@click.option("--out", type=str, required=True)
@click.option("--draws/--no-draws", "with_draws", default=True,
              help="Include the stored uniform draw column.")
def generate_cmd(problem, r, value, n, seed, out, with_draws):
    """Sample a synthetic dataset and write it as CSV."""
    if problem in ("exp2-uci", "exp2-nonuci"):
        if r is None:
            raise click.UsageError(f"--r is required for --problem {problem}")
        eta = exp2_uci_problem(r) if problem == "exp2-uci" else exp2_nonuci_problem(r)
    elif problem in ("singleton", "constant"):
        if value is None:
            raise click.UsageError(f"--value is required for --problem {problem}")
        eta = singleton_problem(value) if problem == "singleton" else constant_problem(value)
    else:
        eta = exp1_problem()
    ds = generate(eta, n, seed)
    save_csv(ds, out, include_draws=with_draws)
    click.echo(f"wrote {ds.n} rows ({ds.positive_count} positive) to {out}")


if __name__ == "__main__":
    main()
