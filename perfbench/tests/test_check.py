"""The output check passes correct results and names each kind of defect."""

import check
import gen
import job


def _csv(columns, rows, preamble=("# tool=stochthresh",)):
    lines = list(preamble) + [",".join(columns)] + [",".join(map(str, r)) for r in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _fraud_files(rows=14, summary_rows=14, header=None):
    columns = header or check.RESULT_COLUMNS["fraud-nd"]
    body = [(0, "1:3:0:0", 2, 13.2, "stochastic", 0.25)] * rows
    summary = [(2, "stochastic", 1, 0.25, 0.0)] * summary_rows
    return _csv(columns, body), _csv(check.SUMMARY_COLUMNS["fraud-nd"], summary)


def test_result_files_with_documented_layout_pass():
    assert check.check_result_files("fraud-nd", *_fraud_files(), 14, 14) == []


def test_result_files_report_wrong_header_rows_and_cells():
    header = ("trial", "seed", "k", "ratio", "method", "f1")
    assert "header" in check.check_result_files("fraud-nd", *_fraud_files(header=header),
                                                14, 14)[0]
    assert "13 rows" in check.check_result_files("fraud-nd", *_fraud_files(rows=13),
                                                 14, 14)[0]
    results, summary = _fraud_files()
    bad = results.replace(b",0.25\n", b",nan\n", 1)
    assert "non-finite" in check.check_result_files("fraud-nd", bad, summary, 14, 14)[0]


def _tune_case(tmp_path, n=3_000, seed=1):
    """The job's library sequence on a small generated table, with its arrays."""
    raw = gen.tune_table(seed, n=n)
    path = tmp_path / "tune.csv"
    gen.write_tune_csv(path, *raw)
    return job.tune_large(str(path)), gen.tune_arrays(*raw)


def test_tune_results_of_the_program_pass(tmp_path):
    results, sample = _tune_case(tmp_path)
    assert check.check_tune_results(results, *sample) == []


def test_tune_results_catch_a_wrong_value_and_an_inverted_pair(tmp_path):
    results, sample = _tune_case(tmp_path)
    results["measures"]["mcc"]["stochastic"][2] += 1e-12
    problems = check.check_tune_results(results, *sample)
    assert any("mcc stochastic" in p for p in problems)

    results, sample = _tune_case(tmp_path)
    strict = [m for m, r in results["measures"].items()
              if r["stochastic"][2] > r["deterministic"][2]]
    assert strict, "tied scores should let a stochastic threshold beat every cut"
    pair = results["measures"][strict[0]]
    pair["stochastic"], pair["deterministic"] = pair["deterministic"], pair["stochastic"]
    problems = check.check_tune_results(results, *sample)
    assert f"{strict[0]}: stochastic value below deterministic value" in problems


def test_sweep_oracle_agrees_on_a_tied_slice():
    scores, labels, draws = gen.tune_arrays(*gen.tune_table(2, n=400))
    assert check.check_sweep_oracle(job.MEASURES, scores, labels, draws) == []


def test_canonical_form_is_order_independent():
    a = {"auroc": 0.5, "measures": {"x": [1.0, 2]}}
    b = {"measures": {"x": [1.0, 2]}, "auroc": 0.5}
    assert check.canonical(a) == check.canonical(b)
    assert check.sha256(check.canonical(a)) == check.sha256(check.canonical(b))
    assert b"0.30000000000000004" in check.canonical({"v": 0.1 + 0.2})
