"""The scalar and array rules: counts, bounded numbers, 0/1 labels, [0, 1]
values and covariate matrices are checked in errors.py."""

import re
from pathlib import Path

import numpy as np
import pytest

import stochthresh
from stochthresh.errors import (
    DomainError,
    ParameterDomainError,
    SchemaError,
    ShapeError,
    check_count,
    check_labels,
    check_matrix,
    check_real,
    check_unit_interval,
)


def _modules_spelling(text: str) -> list[str]:
    package = Path(stochthresh.__file__).parent
    return [p.name for p in sorted(package.glob("*.py"))
            if text in p.read_text(encoding="utf-8") and p.name != "errors.py"]


def test_only_errors_py_spells_the_integer_rule():
    # Any other module that tests for numpy integers has copied check_count.
    assert _modules_spelling("np.integer") == []


def test_only_errors_py_spells_the_array_rules():
    # A module spelling these has copied check_labels or check_unit_interval.
    assert _modules_spelling("== 0) | (") == []
    assert _modules_spelling(".min() >= 0.0") == []


def test_check_count_takes_integers_from_low():
    count = check_count("n", np.int64(3))
    assert count == 3 and type(count) is int
    assert check_count("seed", 0, low=0) == 0
    for bad in (0, 2.0, 1.5, "3", None, True, False, np.True_):
        with pytest.raises(ParameterDomainError, match=r"^n=.* must be an integer >= 1$"):
            check_count("n", bad)


@pytest.mark.parametrize("interval, inside, outside", [
    ("[0, 1]", (0.0, 1.0), (-0.1, 1.1)),
    ("(0, 1]", (1e-300, 1.0), (0.0, 1.1)),
    ("(0, 1)", (0.5,), (0.0, 1.0)),
    ("(0, inf)", (1e-300, 1e300), (0.0, -1.0)),
    ("[0, inf)", (0.0, 1e300), (-1e-300,)),
])
def test_check_real_intervals(interval, inside, outside):
    for value in inside:
        check_real("x", value, interval)
    for value in (*outside, np.nan, np.inf, -np.inf, None, "0.5", True, False, np.True_):
        with pytest.raises(ParameterDomainError, match=rf"^x=.* outside {re.escape(interval)}$"):
            check_real("x", value, interval)


def test_check_labels_flattens_0_1_labels_to_int64():
    labels = check_labels(np.array([[1.0], [0.0], [1.0]]))
    assert labels.dtype == np.int64 and labels.tolist() == [1, 0, 1]
    assert check_labels([True, False]).tolist() == [1, 0]
    for bad in ([0, 2], [0.5], [np.nan]):
        with pytest.raises(ParameterDomainError, match="^labels must be 0/1$"):
            check_labels(bad)
    with pytest.raises(SchemaError):
        check_labels([-1], SchemaError)


def test_check_unit_interval_names_the_first_bad_row():
    check_unit_interval("score", np.array([]))
    check_unit_interval("score", np.array([[0.0, 1.0], [0.5, -0.0]]))
    with pytest.raises(ParameterDomainError, match=r"^score nan at row 1 outside \[0, 1\]$"):
        check_unit_interval("score", [0.5, np.nan, 2.0])
    # Rows index the flattened array.
    with pytest.raises(DomainError, match=r"^point 1.5 at row 3 outside \[0, 1\]$"):
        check_unit_interval("point", np.array([[0.0, 1.0], [0.5, 1.5]]), DomainError)
    with pytest.raises(ParameterDomainError, match=r"^t -0.25 at row 0 outside"):
        check_unit_interval("t", np.float64(-0.25))


def test_check_matrix_makes_an_n_by_d_float_matrix():
    assert check_matrix("x", [1, 2, 3]).shape == (3, 1)
    x = check_matrix("x", [[1, 2]])
    assert x.shape == (1, 2) and x.dtype == np.float64
    for bad in (1.0, np.zeros((2, 1, 1))):
        with pytest.raises(ShapeError, match=r"^x must be \(n,\) or \(n, d\), got shape"):
            check_matrix("x", bad)
