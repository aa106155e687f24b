"""Tests for the command-line interface.

Convention under test: usage errors (bad flags or option values) exit 2,
data/domain errors exit 1 with a message, success exits 0.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from stochthresh.cli import main
from stochthresh.io import load_csv, save_csv
from stochthresh.knn import select_k
from stochthresh.metrics import CmmSpec
from stochthresh.synth import exp1_problem, exp2_nonuci_problem, generate
from stochthresh.threshold_opt import brute_force_threshold

from helpers import write_csv


@pytest.fixture()
def runner():
    return CliRunner()


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "stochthresh" in result.output


# ---------------------------------------------------------------------------
# tune-threshold
# ---------------------------------------------------------------------------


def test_tune_threshold_matches_brute_force(runner, tmp_path):
    scores = np.array([0.2, 0.5, 0.5, 0.9])
    labels = np.array([0, 1, 0, 1])
    p = tmp_path / "scored.csv"
    write_csv(p, ["score", "label"], list(zip(scores.tolist(), labels.tolist())))
    result = runner.invoke(
        main, ["tune-threshold", "--data", str(p), "--metric", "f_beta:1"]
    )
    assert result.exit_code == 0, result.output
    got = json.loads(result.output)
    # The CLI synthesizes draws from seed 0 when the CSV has none.
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(0, spawn_key=(5,)))
    )
    draws = rng.random(scores.size)
    want = brute_force_threshold((scores, labels, draws), CmmSpec("f_beta", 1.0))
    assert got["method"] == "stochastic"
    assert got["metric"] == "f_beta:1"
    assert got["t"] == want.threshold.t
    assert got["p"] == want.threshold.p
    assert got["value"] == want.metric_value
    assert got["prefix_index"] == want.classification_prefix_index


def test_tune_threshold_deterministic_and_stored_draws(runner, tmp_path):
    p = tmp_path / "scored.csv"
    write_csv(
        p,
        ["score", "draw", "label"],
        [[0.2, 0.9, 0], [0.5, 0.1, 1], [0.5, 0.6, 0], [0.9, 0.3, 1]],
    )
    det = runner.invoke(
        main, ["tune-threshold", "--data", str(p), "--deterministic"]
    )
    assert det.exit_code == 0, det.output
    got = json.loads(det.output)
    assert got["method"] == "deterministic"
    assert got["p"] == 0.0
    sto = runner.invoke(main, ["tune-threshold", "--data", str(p)])
    assert sto.exit_code == 0
    assert json.loads(sto.output)["method"] == "stochastic"


def test_tune_threshold_reports_a_signed_zero_score_as_positive_zero(runner, tmp_path):
    # Both searches label the -0.0 row 0 and the 0.5 row 1; the stochastic
    # one used to print that row's score as "t": -0.0.
    p = write_csv(tmp_path / "scored.csv", ["score", "label", "draw"],
                  [[-0.0, 0, 0.3], [0.5, 1, 0.4]])
    for extra in ([], ["--deterministic"]):
        args = ["tune-threshold", "--data", str(p), "--metric", "accuracy", *extra]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        got = json.loads(result.output)
        assert (got["value"], got["prefix_index"]) == (1.0, 1)
        assert '"t": 0.0' in result.output, extra


def _tie_heavy_scored_rows(with_draws: bool) -> tuple[list[str], list[list]]:
    """40 rows on a 1/8 score lattice, with draws on a 1/3 lattice when asked.

    The lattice draws repeat (score, draw) pairs, so the sweep falls back to
    its lexsort; without a draw column the CLI's seeded Philox draws are
    distinct and the key sort decides.
    """
    rows = []
    for i in range(40):
        score = (i * 5 % 9) / 8.0
        row = [score, int((i * 7 % 11) / 10.0 < score)]
        if with_draws:
            row.append((i % 4) / 3.0)
        rows.append(row)
    return ["score", "label", "draw"][: 2 + with_draws], rows


#: tune-threshold --metric f_beta:1 output (stochastic, then --deterministic)
#: on the table with its draw column, then on the same table without it.
TUNE_THRESHOLD_PINNED = {
    (True, False): """\
{
  "method": "stochastic",
  "metric": "f_beta:1",
  "p": 0.6666666666666666,
  "prefix_index": 16,
  "t": 0.375,
  "value": 0.7619047619047619
}
""",
    (True, True): """\
{
  "method": "deterministic",
  "metric": "f_beta:1",
  "p": 0.0,
  "prefix_index": 14,
  "t": 0.25,
  "value": 0.7272727272727273
}
""",
    (False, False): """\
{
  "method": "stochastic",
  "metric": "f_beta:1",
  "p": 0.9611456604643658,
  "prefix_index": 12,
  "t": 0.25,
  "value": 0.7391304347826088
}
""",
    (False, True): """\
{
  "method": "deterministic",
  "metric": "f_beta:1",
  "p": 0.0,
  "prefix_index": 14,
  "t": 0.25,
  "value": 0.7272727272727273
}
""",
}


@pytest.mark.parametrize("with_draws,deterministic", list(TUNE_THRESHOLD_PINNED))
def test_tune_threshold_output_is_pinned(runner, tmp_path, with_draws, deterministic):
    p = write_csv(tmp_path / "scored.csv", *_tie_heavy_scored_rows(with_draws))
    args = ["tune-threshold", "--data", str(p), "--metric", "f_beta:1"]
    result = runner.invoke(main, args + ["--deterministic"] * deterministic)
    assert result.exit_code == 0, result.output
    assert result.output == TUNE_THRESHOLD_PINNED[with_draws, deterministic]


def test_tune_threshold_reads_a_file_with_a_byte_order_mark(runner, tmp_path):
    plain = write_csv(tmp_path / "scored.csv", *_tie_heavy_scored_rows(False))
    p = tmp_path / "bom.csv"
    p.write_bytes("\ufeff".encode("utf-8") + plain.read_bytes())
    result = runner.invoke(main, ["tune-threshold", "--data", str(p), "--metric", "f_beta:1"])
    assert result.exit_code == 0, result.output
    assert result.output == TUNE_THRESHOLD_PINNED[False, False]


def test_tune_threshold_error_exit_codes(runner, tmp_path):
    missing = runner.invoke(main, ["tune-threshold", "--data", str(tmp_path / "no.csv")])
    assert missing.exit_code == 1
    extra = tmp_path / "extra.csv"
    write_csv(extra, ["score", "label", "other"], [[0.5, 1, 2.0]])
    result = runner.invoke(main, ["tune-threshold", "--data", str(extra)])
    assert result.exit_code == 1
    assert "other" in result.output
    out_of_range = tmp_path / "range.csv"
    write_csv(out_of_range, ["score", "label"], [[1.5, 1]])
    result = runner.invoke(main, ["tune-threshold", "--data", str(out_of_range)])
    assert result.exit_code == 1
    nan_score = tmp_path / "nan.csv"
    write_csv(nan_score, ["score", "label"], [[0.2, 0], ["nan", 1], [0.7, 1]])
    for flags in ([], ["--deterministic"]):
        result = runner.invoke(main, ["tune-threshold", "--data", str(nan_score), *flags])
        assert result.exit_code == 1
        assert "score nan at row 1 outside [0, 1]" in result.output
    nan_draw = tmp_path / "nan_draw.csv"
    write_csv(nan_draw, ["score", "label", "draw"], [[0.2, 0, 0.5], [0.7, 1, "nan"]])
    for flags in ([], ["--deterministic"]):
        result = runner.invoke(main, ["tune-threshold", "--data", str(nan_draw), *flags])
        assert result.exit_code == 1
        assert "draw nan at row 1 outside [0, 1]" in result.output
    bad_metric = tmp_path / "ok.csv"
    write_csv(bad_metric, ["score", "label"], [[0.5, 1]])
    result = runner.invoke(
        main, ["tune-threshold", "--data", str(bad_metric), "--metric", "nope"]
    )
    assert result.exit_code == 2
    for flags in ([], ["--deterministic"]):
        result = runner.invoke(
            main,
            ["tune-threshold", "--data", str(bad_metric), "--metric", "f_beta:1e200", *flags],
        )
        assert result.exit_code == 2
        assert "squared overflows" in result.output
    no_score = write_csv(tmp_path / "no_score.csv", ["draw", "label"], [[0.5, 1]])
    result = runner.invoke(main, ["tune-threshold", "--data", str(no_score)])
    assert result.exit_code == 1
    assert "need 'score' and 'label'" in result.output


def test_os_errors_and_non_utf8_files_exit_one_with_a_message(runner, tmp_path):
    ok = write_csv(tmp_path / "ok.csv", ["score", "label"], [[0.5, 1]])
    for args in (
        ["tune-threshold", "--data", str(ok / "child")],
        ["generate", "--problem", "exp1", "--n", "5", "--out", str(ok / "x.csv")],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert "Not a directory" in result.output
        assert "Traceback" not in result.output
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"score,label\n0.5,1\n0.25\xff,0\n")
    result = runner.invoke(main, ["tune-threshold", "--data", str(latin1)])
    assert result.exit_code == 1
    assert f"{latin1}: not UTF-8 text" in result.output


def test_fit_knn_rejects_a_repeated_label_column(runner, tmp_path):
    p = write_csv(tmp_path / "d.csv", ["x", "label", "label"], [[0.1, 0, 0], [0.4, 1, 1]])
    result = runner.invoke(main, ["fit-knn", "--data", str(p), "--k", "1"])
    assert result.exit_code == 1
    assert "'label' repeats" in result.output


# ---------------------------------------------------------------------------
# fit-knn
# ---------------------------------------------------------------------------


def test_fit_knn_full_neighborhood_prediction(runner, tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["x", "label"], [[0.1, 0], [0.4, 1], [0.8, 1], [0.9, 0]])
    result = runner.invoke(
        main, ["fit-knn", "--data", str(p), "--k", "4", "--query", "0.5"]
    )
    assert result.exit_code == 0, result.output
    got = json.loads(result.output)
    assert got["k"] == 4 and got["n"] == 4 and got["d"] == 1
    assert got["predictions"] == [{"query": [0.5], "prediction": 0.5}]


def test_fit_knn_rule_based_k(runner, tmp_path):
    ds = generate(exp1_problem(), 100, seed=8)
    p = tmp_path / "d.csv"
    save_csv(ds, p, include_draws=False)
    result = runner.invoke(
        main, ["fit-knn", "--data", str(p), "--k-rule", "exp1"]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["k"] == 21  # floor(100^(2/3))


@pytest.mark.parametrize("rule", ["exp2", "theorem", "extreme"])
def test_fit_knn_rule_reads_rule_options_and_dimension(runner, tmp_path, rule):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(17)))
    x = gen.random((300, 2))
    p = write_csv(tmp_path / "d2.csv", ["x0", "x1", "label"],
                  [[a, b, int(a > b)] for a, b in x.tolist()])
    result = runner.invoke(
        main,
        ["fit-knn", "--data", str(p), "--k-rule", rule,
         "--rule-r", "0.1", "--rule-alpha", "0.5"],
    )
    assert result.exit_code == 0, result.output
    got = json.loads(result.output)
    assert got["d"] == 2 and got["n"] == 300
    assert got["k"] == select_k(rule, 300, r=0.1, alpha=0.5, d=2)


def test_fit_knn_usage_errors(runner, tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["x", "label"], [[0.1, 0], [0.4, 1]])
    both = runner.invoke(
        main, ["fit-knn", "--data", str(p), "--k", "1", "--k-rule", "exp1"]
    )
    assert both.exit_code == 2
    neither = runner.invoke(main, ["fit-knn", "--data", str(p)])
    assert neither.exit_code == 2
    bad_dim = runner.invoke(
        main, ["fit-knn", "--data", str(p), "--k", "1", "--query", "0.5,0.5"]
    )
    assert bad_dim.exit_code == 2
    not_numeric = runner.invoke(
        main, ["fit-knn", "--data", str(p), "--k", "1", "--query", "x"]
    )
    assert not_numeric.exit_code == 2


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_reports_estimation_and_shattering(runner):
    result = runner.invoke(main, ["bounds", "--n", "800"])
    assert result.exit_code == 0, result.output
    got = json.loads(result.output)
    assert got["n"] == 800 and got["d"] == 1 and got["delta"] == 0.05
    assert got["shattering_bound"] == 1_280_002
    assert got["estimation_error_bound"] == pytest.approx(
        0.37201951412997725, abs=1e-10
    )
    assert "uniform_error_bound" not in got
    assert "regret_bound" not in got


def test_bounds_uniform_block_and_regret(runner):
    result = runner.invoke(
        main, ["bounds", "--n", "100", "--k", "100", "--r", "1.0"]
    )
    assert result.exit_code == 0, result.output
    ub = json.loads(result.output)["uniform_error_bound"]
    assert ub["value"] == pytest.approx(4.61200818043743, rel=1e-10)
    assert ub["value"] == pytest.approx(
        ub["bias_term"] + ub["deviation_term"] + ub["variance_term"], rel=1e-15
    )
    regret = runner.invoke(main, ["bounds", "--n", "800", "--sup-err", "0.1"])
    assert regret.exit_code == 0
    assert json.loads(regret.output)["regret_bound"] == pytest.approx(
        0.8440390282599545, rel=1e-10
    )


def test_bounds_regret_does_not_depend_on_k(runner):
    without_k = runner.invoke(main, ["bounds", "--n", "800", "--sup-err", "0.1"])
    with_k = runner.invoke(
        main, ["bounds", "--n", "800", "--k", "34", "--r", "0.1", "--sup-err", "0.1"]
    )
    assert without_k.exit_code == 0 and with_k.exit_code == 0, with_k.output
    assert (json.loads(without_k.output)["regret_bound"]
            == json.loads(with_k.output)["regret_bound"])


def test_bounds_checks_eps_star_with_sup_err_alone(runner):
    result = runner.invoke(
        main, ["bounds", "--n", "800", "--sup-err", "0.1", "--eps-star", "-1"]
    )
    assert result.exit_code == 1
    assert "eps_star" in result.output


@pytest.mark.parametrize("flags", [
    ["--eps-star", "-1", "--r", "7"], ["--alpha", "0"], ["--p-star", "2"],
    ["--l-const", "0"], ["--c-margin", "-1"], ["--beta-margin", "0"], ["--l-metric", "0"],
])
def test_bounds_checks_every_parameter_without_k_or_sup_err(runner, flags):
    result = runner.invoke(main, ["bounds", "--n", "800", *flags])
    assert result.exit_code == 1, result.output


def test_bounds_regime_violation_exits_one(runner):
    result = runner.invoke(
        main,
        ["bounds", "--n", "100", "--k", "50", "--eps-star", "0.1"],
    )
    assert result.exit_code == 1
    assert "regime" in result.output


@pytest.mark.parametrize("args", [
    ["--n", "10", "--k", "5", "--d", "2000"],  # the shattering bound exceeds a float
    ["--n", "100", "--sup-err", "1e200", "--beta-margin", "2"],  # sup_err^beta overflows
    # These three return inf, which has no JSON form.
    ["--n", "100", "--k", "2", "--d", "1", "--l-const", "1e308"],  # bias term
    ["--n", "100", "--k", "2", "--delta", "1e-320"],  # log term: estimation and deviation
    ["--n", "100", "--sup-err", "1e300", "--l-metric", "1e300"],  # regret bound
])
def test_bounds_overflow_exits_one_with_a_message(runner, args):
    result = runner.invoke(main, ["bounds", *args])
    assert result.exit_code == 1
    assert "Error:" in result.output
    assert "Traceback" not in result.output


def test_bounds_requires_n(runner):
    assert runner.invoke(main, ["bounds"]).exit_code == 2


def test_bounds_config_file_with_flag_override(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 800}), encoding="utf-8")
    from_config = runner.invoke(main, ["bounds", "--config", str(cfg)])
    assert from_config.exit_code == 0
    assert json.loads(from_config.output)["n"] == 800
    overridden = runner.invoke(
        main, ["bounds", "--config", str(cfg), "--n", "500"]
    )
    assert overridden.exit_code == 0
    got = json.loads(overridden.output)
    assert got["n"] == 500
    assert got["estimation_error_bound"] == pytest.approx(
        0.46251872101646113, abs=1e-10
    )


def test_invalid_config_json_exits_one(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    assert runner.invoke(main, ["bounds", "--config", str(bad), "--n", "10"]).exit_code == 1
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]", encoding="utf-8")
    assert runner.invoke(main, ["bounds", "--config", str(arr), "--n", "10"]).exit_code == 1


CONFIG_COMMANDS = {
    "exp1": ["experiment", "exp1"],
    "exp2": ["experiment", "exp2"],
    "fraud": ["fraud", "--data", "missing.csv"],
    "bounds": ["bounds", "--n", "800"],
}


@pytest.mark.parametrize("key", ["trails", "grid", "out"])
@pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
def test_unknown_config_key_exits_one_naming_it(runner, tmp_path, command, key):
    # The small sizes keep a run short where the key used to be dropped.
    cfg = tmp_path / "cfg.json"
    small = {"n_grid": [20, 40], "test_size": 20} if command.startswith("exp") else {}
    cfg.write_text(json.dumps({key: 1, **small}), encoding="utf-8")
    result = runner.invoke(main, [*CONFIG_COMMANDS[command], "--config", str(cfg)])
    assert result.exit_code == 1
    assert repr(key) in result.output


def test_exp2_config_rejects_the_keys_it_fixes(runner, tmp_path):
    for key, value in (("metric", "accuracy"), ("score_source", "eta")):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value, "n_grid": [20, 40]}), encoding="utf-8")
        result = runner.invoke(main, ["experiment", "exp2", "--config", str(cfg)])
        assert result.exit_code == 1
        assert repr(key) in result.output


def test_config_accepts_every_key_its_command_reads(runner, tmp_path):
    data = tmp_path / "d.csv"
    save_csv(generate(exp2_nonuci_problem(0.3), 120, seed=4), data, include_draws=True)
    experiment = {"n_grid": [20, 40], "trials": 1, "seed": 3, "k_rule": "theorem",
                  "test_size": 20, "workers": 1}
    cases = (
        (["experiment", "exp1"], {**experiment, "metric": "accuracy", "score_source": "eta"}),
        (["experiment", "exp2"], experiment),
        (["fraud", "--data", str(data)],
         {"label_column": "label", "draw_column": "draw", "trials": 1, "seed": 3,
          "k_list": [2, 4], "downsample": 0.5, "stratified": True, "workers": 1}),
        (["bounds"],
         {"n": 800, "k": 34, "r": 0.1, "alpha": 1.0, "L": 1.0, "d": 1, "p_star": 1.0,
          "delta": 0.05, "eps_star": 1.0, "C_margin": 1.0, "beta_margin": 1.0,
          "L_M": 1.0, "sup_err": 0.1}),
    )
    cfg = tmp_path / "cfg.json"
    for args, mapping in cases:
        cfg.write_text(json.dumps(mapping), encoding="utf-8")
        result = runner.invoke(main, [*args, "--config", str(cfg)])
        assert result.exit_code == 0, (args, result.output)


@pytest.mark.parametrize("args, mapping, flag", [
    (["experiment", "exp1"], {"n_grid": 100}, "--n-grid"),
    (["experiment", "exp1"], {"trials": "x"}, "--trials"),
    (["bounds"], {"n": 800, "r": "abc"}, "--r"),
    (["fraud", "--data", "missing.csv"], {"k_list": []}, "--k-list"),
], ids=["exp1-n_grid", "exp1-trials", "bounds-r", "fraud-k_list"])
def test_malformed_config_value_is_a_usage_error_naming_the_flag(
    runner, tmp_path, args, mapping, flag
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(mapping), encoding="utf-8")
    result = runner.invoke(main, [*args, "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{flag}'" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args, has_config", [
    (["generate", "--problem", "exp1", "--n", "10", "--out", "g.csv"], False),
    (["experiment", "exp1"], True),
    (["experiment", "exp2"], True),
    (["fraud", "--data", "missing.csv"], True),
    (["tune-threshold", "--data", "missing.csv"], False),
], ids=["generate", "exp1", "exp2", "fraud", "tune-threshold"])
def test_a_negative_seed_is_a_usage_error(runner, tmp_path, args, has_config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}), encoding="utf-8")
    runs = [[*args, "--seed", "-1"]] + ([[*args, "--config", str(cfg)]] if has_config else [])
    for run in runs:
        result = runner.invoke(main, run)
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--seed'" in result.output


def _written_files(runner, tmp_path, name, args):
    out = tmp_path / name / "run.csv"
    out.parent.mkdir()
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    return [out.read_bytes(), (out.parent / "run_summary.csv").read_bytes()]


def _fraud_data(tmp_path):
    data = tmp_path / "d.csv"
    save_csv(generate(exp2_nonuci_problem(0.3), 120, seed=4), data, include_draws=False)
    return ["fraud", "--data", str(data), "--trials", "2"]


@pytest.mark.parametrize("command, mapping, flags", [
    ("exp1", {"n_grid": [20, 40], "trials": 2, "metric": "accuracy"},
     ["--n-grid", "20,40", "--trials", "2", "--metric", "accuracy"]),
    ("fraud", {"k_list": "2,4"}, ["--k-list", "2,4"]),
    ("fraud", {"k_list": [2, 4], "downsample": 0.5},
     ["--k-list", "2,4", "--downsample", "0.5"]),
], ids=["exp1", "fraud-k_list-text", "fraud-k_list-downsample"])
def test_config_values_write_the_same_files_as_flags(runner, tmp_path, command, mapping, flags):
    args = ["experiment", "exp1"] if command == "exp1" else _fraud_data(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(mapping), encoding="utf-8")
    from_flags = _written_files(runner, tmp_path, "flags", [*args, *flags])
    from_config = _written_files(runner, tmp_path, "config", [*args, "--config", str(cfg)])
    assert from_config == from_flags


def test_a_config_file_with_a_byte_order_mark_is_read(runner, tmp_path):
    # Some editors save UTF-8 with a leading U+FEFF, which json.load rejects.
    args = _fraud_data(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('\ufeff{"seed": 3}', encoding="utf-8")
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
    from_config = _written_files(runner, tmp_path, "config", [*args, "--config", str(cfg)])
    assert from_config == _written_files(runner, tmp_path, "flags", [*args, "--seed", "3"])
    assert from_config != _written_files(runner, tmp_path, "default", args)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_round_trips_exactly(runner, tmp_path):
    out = tmp_path / "gen.csv"
    result = runner.invoke(
        main,
        ["generate", "--problem", "exp1", "--n", "5", "--seed", "3", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert "wrote 5 rows" in result.output
    loaded = load_csv(out, draw_column="draw")
    direct = generate(exp1_problem(), 5, seed=3)
    assert np.array_equal(loaded.covariates, direct.covariates)
    assert np.array_equal(loaded.labels, direct.labels)
    assert np.array_equal(loaded.draws, direct.draws)


def test_generate_no_draws_header(runner, tmp_path):
    out = tmp_path / "gen.csv"
    result = runner.invoke(
        main,
        [
            "generate", "--problem", "constant", "--value", "0.5",
            "--n", "3", "--out", str(out), "--no-draws",
        ],
    )
    assert result.exit_code == 0
    assert out.read_text(encoding="utf-8").splitlines()[0] == "x0,label"


def test_generate_usage_errors(runner, tmp_path):
    out = str(tmp_path / "x.csv")
    missing_r = runner.invoke(
        main, ["generate", "--problem", "exp2-uci", "--n", "3", "--out", out]
    )
    assert missing_r.exit_code == 2
    missing_value = runner.invoke(
        main, ["generate", "--problem", "singleton", "--n", "3", "--out", out]
    )
    assert missing_value.exit_code == 2
    bad_r = runner.invoke(
        main,
        ["generate", "--problem", "exp2-uci", "--r", "2.0", "--n", "3", "--out", out],
    )
    assert bad_r.exit_code == 1  # domain error, not a usage error


# ---------------------------------------------------------------------------
# experiment and fraud drivers
# ---------------------------------------------------------------------------


def test_experiment_exp1_command_writes_files(runner, tmp_path):
    out = tmp_path / "exp1.csv"
    result = runner.invoke(
        main,
        [
            "experiment", "exp1", "--trials", "1", "--n-grid", "20,40",
            "--test-size", "30", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert out.exists() and (tmp_path / "exp1_summary.csv").exists()
    lines = [l for l in result.output.splitlines() if l.startswith("n=")]
    assert len(lines) == 4  # (two n values) x (two methods)
    assert any("mean_regret=" in l for l in lines)


def test_experiment_exp1_bad_n_grid(runner):
    result = runner.invoke(
        main, ["experiment", "exp1", "--n-grid", "20,abc"]
    )
    assert result.exit_code == 2


def test_experiment_exp2_command_smoke(runner, tmp_path):
    out = tmp_path / "exp2.csv"
    result = runner.invoke(
        main,
        [
            "experiment", "exp2", "--trials", "1", "--n-grid", "30,60",
            "--test-size", "30", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert out.exists()
    assert any(l.startswith("n=") and "eta=" in l for l in result.output.splitlines())


def test_fraud_command_smoke_and_missing_file(runner, tmp_path):
    missing = runner.invoke(main, ["fraud", "--data", str(tmp_path / "no.csv")])
    assert missing.exit_code == 1
    data = tmp_path / "d.csv"
    save_csv(generate(exp2_nonuci_problem(0.3), 120, seed=4), data, include_draws=False)
    result = runner.invoke(
        main,
        ["fraud", "--data", str(data), "--trials", "2", "--k-list", "2,4", "--seed", "0"],
    )
    assert result.exit_code == 0, result.output
    lines = [l for l in result.output.splitlines() if l.startswith("k=")]
    assert len(lines) == 4  # (two k values) x (two methods)
    assert all("mean_f1=" in l for l in lines)


def test_fraud_runs_when_a_feature_is_constant_on_a_training_split(runner, tmp_path):
    # x1 is 1 on one row only, so it is constant on any training split
    # without that row (here on trial 0's); the trial drops it, not the run.
    gen = np.random.default_rng(11)
    x0 = gen.standard_normal(200)
    labels = (gen.random(200) < 1.0 / (1.0 + np.exp(-2.0 * x0))).astype(int)
    data = write_csv(
        tmp_path / "rare.csv", ["x0", "x1", "label"],
        [[repr(a), int(i == 2), int(y)] for i, (a, y) in enumerate(zip(x0.tolist(), labels))],
    )
    result = runner.invoke(
        main, ["fraud", "--data", str(data), "--trials", "3", "--k-list", "2,4"]
    )
    assert result.exit_code == 0, result.output
    assert len([l for l in result.output.splitlines() if l.startswith("k=")]) == 4


def test_fraud_workers_write_identical_files_on_a_d3_table(runner, tmp_path):
    # d = 3 reaches the n-d k-NN path (BLAS filter, exact recheck) in the
    # pool workers.
    gen = np.random.default_rng(5)
    x = np.column_stack(
        (gen.standard_normal(240), gen.standard_normal(240), gen.integers(0, 3, 240))
    )
    labels = (gen.random(240) < 1.0 / (1.0 + np.exp(1.5 - x @ [1.5, -1.0, 0.8])))
    data = write_csv(
        tmp_path / "d3.csv", ["f0", "f1", "f2", "label"],
        [[*map(repr, row), int(y)] for row, y in zip(x.tolist(), labels)],
    )
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"fraud_w{workers}.csv"
        result = runner.invoke(
            main,
            ["fraud", "--data", str(data), "--trials", "4", "--k-list", "2,8,40",
             "--seed", "3", "--workers", workers, "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        summary = out.with_name(out.stem + "_summary.csv")
        outputs.append((out.read_bytes(), summary.read_bytes()))
    assert outputs[0] == outputs[1]


def test_fraud_bad_k_list(runner, tmp_path):
    data = tmp_path / "d.csv"
    save_csv(generate(exp2_nonuci_problem(0.3), 60, seed=4), data, include_draws=False)
    result = runner.invoke(main, ["fraud", "--data", str(data), "--k-list", "2,x"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["fraud", "--data", str(data), "--k-list", ","])
    assert result.exit_code == 2
    assert "Invalid value for '--k-list': empty list" in result.output


# ---------------------------------------------------------------------------
# the error boundary
# ---------------------------------------------------------------------------

#: One domain error per leaf command; ``{data}`` is a valid table, ``{label2}``
#: a scored CSV with a label 2 and ``{out}`` a fresh output path.
DOMAIN_ERRORS = [
    (["experiment", "exp1", "--trials", "0"], "trials=0"),
    (["experiment", "exp2", "--trials", "0"], "trials=0"),
    (["fraud", "--data", "{data}", "--trials", "0"], "trials=0"),
    (["tune-threshold", "--data", "{label2}"], "label must be 0 or 1"),
    (["fit-knn", "--data", "{data}", "--k", "0"], "k=0"),
    (["bounds", "--n", "100", "--r", "7"], "r=7.0"),
    (["generate", "--problem", "exp2-uci", "--r", "2", "--n", "5", "--out", "{out}"], "r=2.0"),
]


@pytest.mark.parametrize("args, message", DOMAIN_ERRORS)
def test_every_command_exits_one_on_a_domain_error(runner, tmp_path, args, message):
    data = tmp_path / "d.csv"
    save_csv(generate(exp2_nonuci_problem(0.3), 60, seed=4), data, include_draws=False)
    paths = {
        "{data}": str(data),
        "{label2}": str(write_csv(tmp_path / "s.csv", ["score", "label"], [[0.5, 2]])),
        "{out}": str(tmp_path / "out.csv"),
    }
    result = runner.invoke(main, [paths.get(a, a) for a in args])
    assert result.exit_code == 1, result.output
    assert "Error:" in result.output and message in result.output
    assert "Traceback" not in result.output


def test_the_domain_error_cases_name_every_command():
    def leaves(group, path=()):
        for name, cmd in group.commands.items():
            if hasattr(cmd, "commands"):
                yield from leaves(cmd, (*path, name))
            else:
                yield (*path, name)

    missing = [leaf for leaf in leaves(main)
               if not any(tuple(args[:len(leaf)]) == leaf for args, _ in DOMAIN_ERRORS)]
    assert not missing
