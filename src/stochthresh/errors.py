"""Exception types shared across the package, and its scalar and array rules.

Everything derives from :class:`ValueError` so callers that do not care about
the fine-grained category can catch one thing.  The CLI maps these to exit
code 1 (data / domain problems) while argument-parsing mistakes surface as
usage errors (exit code 2).

The rules, kept out of ``__all__``, are one function each.  A scalar
parameter is a :func:`check_count` integer (``int`` or ``numpy.integer``)
of at least a lower bound, or a :func:`check_real` finite number in one of
the five :data:`_INTERVALS`; neither takes a bool.  Both raise
:class:`ParameterDomainError` as ``name=value must be an integer >= low``
or ``name=value outside interval``.  An array holds :func:`check_labels`
0/1 labels or :func:`check_unit_interval` values in [0, 1] (``name value
at row i outside [0, 1]``; NaN fails), each raising the error class its
caller passes, or is a :func:`check_matrix` (n, d) covariate matrix.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "StochthreshError",
    "ParameterDomainError",
    "DegenerateInputError",
    "DegenerateFeatureError",
    "UnsupportedSpecError",
    "RegimeError",
    "DomainError",
    "SchemaError",
    "ParseError",
    "SizeError",
    "ShapeError",
]


class StochthreshError(ValueError):
    """Base class for all errors raised by this package."""


class ParameterDomainError(StochthreshError):
    """A numeric parameter lies outside its documented domain."""


class DegenerateInputError(StochthreshError):
    """Input data is empty or otherwise carries no usable information."""


class DegenerateFeatureError(StochthreshError):
    """A feature column has zero variance and cannot be standardized."""


class UnsupportedSpecError(StochthreshError):
    """The requested operation is not defined for this spec/kind."""


class RegimeError(StochthreshError):
    """Bound preconditions (parameter regime) are violated."""


class DomainError(StochthreshError):
    """A point lies outside the domain of a regression function."""


class SchemaError(StochthreshError):
    """Tabular input does not match the expected schema."""


class ParseError(StochthreshError):
    """Tabular input contains a cell that cannot be parsed."""


class SizeError(StochthreshError):
    """A requested split/size allocation is infeasible."""


class ShapeError(StochthreshError):
    """Array arguments have incompatible shapes or dimensions."""


def check_count(name: str, value, low: int = 1) -> int:
    """``value`` as an ``int``, if it is an ``int`` or ``numpy.integer`` of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ParameterDomainError(f"{name}={value!r} must be an integer >= {low}")
    return int(value)


#: The intervals :func:`check_real` accepts, each with its membership test.
_INTERVALS = {
    "[0, 1]": lambda v: 0.0 <= v <= 1.0,
    "(0, 1]": lambda v: 0.0 < v <= 1.0,
    "(0, 1)": lambda v: 0.0 < v < 1.0,
    "(0, inf)": lambda v: v > 0.0,
    "[0, inf)": lambda v: v >= 0.0,
}


def check_real(name: str, value, interval: str) -> None:
    """Raise unless ``value`` is a finite number in ``interval``, a key of :data:`_INTERVALS`."""
    try:
        ok = (not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
              and _INTERVALS[interval](value))
    except TypeError:  # None, a string or another non-number
        ok = False
    if not ok:
        raise ParameterDomainError(f"{name}={value!r} outside {interval}")


def check_labels(labels, error=ParameterDomainError) -> np.ndarray:
    """``labels`` flattened to int64, if every one is 0 or 1."""
    y = np.asarray(labels).ravel()
    if not np.all((y == 0) | (y == 1)):
        raise error("labels must be 0/1")
    return y.astype(np.int64)


def check_unit_interval(name: str, values, error=ParameterDomainError) -> None:
    """Raise at the first of ``values`` (any shape, read flat) outside [0, 1] or NaN."""
    v = np.asarray(values)
    # min/max propagate NaN, which then fails both comparisons.
    if v.size and not (v.min() >= 0.0 and v.max() <= 1.0):
        flat = v.ravel()
        i = int(np.flatnonzero(~((flat >= 0.0) & (flat <= 1.0)))[0])
        raise error(f"{name} {float(flat[i])!r} at row {i} outside [0, 1]")


def check_matrix(name: str, values) -> np.ndarray:
    """``values`` as a float64 (n, d) matrix; an (n,) vector becomes one column."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ShapeError(f"{name} must be (n,) or (n, d), got shape {x.shape}")
    return x
