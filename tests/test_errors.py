"""The two scalar rules: every count and bounded number is checked in errors.py."""

import re
from pathlib import Path

import numpy as np
import pytest

import stochthresh
from stochthresh.errors import ParameterDomainError, check_count, check_real


def test_only_errors_py_spells_the_integer_rule():
    # Any other module that tests for numpy integers has copied check_count.
    package = Path(stochthresh.__file__).parent
    copies = [p.name for p in sorted(package.glob("*.py"))
              if "np.integer" in p.read_text(encoding="utf-8") and p.name != "errors.py"]
    assert copies == []


def test_check_count_takes_integers_from_low():
    count = check_count("n", np.int64(3))
    assert count == 3 and type(count) is int
    assert check_count("seed", 0, low=0) == 0
    for bad in (0, 2.0, 1.5, "3", None):
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
    for value in (*outside, np.nan, np.inf, -np.inf, None, "0.5"):
        with pytest.raises(ParameterDomainError, match=rf"^x=.* outside {re.escape(interval)}$"):
            check_real("x", value, interval)
