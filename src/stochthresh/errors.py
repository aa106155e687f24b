"""Exception types shared across the package, and its two scalar rules.

Everything derives from :class:`ValueError` so callers that do not care about
the fine-grained category can catch one thing.  The CLI maps these to exit
code 1 (data / domain problems) while argument-parsing mistakes surface as
usage errors (exit code 2).

Every scalar parameter is checked by one of two functions, kept out of
``__all__``: :func:`check_count` takes an integer (an ``int`` or a
``numpy.integer``) of at least a lower bound, and :func:`check_real` a
finite number in one of the five intervals in :data:`_INTERVALS`.  Both
raise :class:`ParameterDomainError` in one form, ``name=value must be an
integer >= low`` or ``name=value outside interval``.
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
    if not isinstance(value, (int, np.integer)) or value < low:
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
        ok = math.isfinite(value) and _INTERVALS[interval](value)
    except TypeError:  # None, a string or another non-number
        ok = False
    if not ok:
        raise ParameterDomainError(f"{name}={value!r} outside {interval}")
