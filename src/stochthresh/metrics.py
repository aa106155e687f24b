"""Confusion-matrix measures over probability-normalized 2x2 matrices.

A confusion matrix here stores population *fractions*, not counts: the four
cells are nonnegative and sum to one.  A measure maps such a matrix to a
score in which correcting errors never hurts: moving false-positive mass to
true-negative, or false-negative mass to true-positive, may only increase
the value.

Ratio-style measures adopt the convention that a zero denominator yields 0,
and the correlation measure returns 0 whenever any of its four marginal
factors vanishes.  These conventions keep every registered measure total on
the whole simplex while preserving the monotone direction above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterDomainError

__all__ = [
    "ConfusionMatrix",
    "CmmSpec",
    "RocCurve",
    "REGISTERED_KINDS",
    "evaluate_cmm",
    "roc_and_auroc",
]

#: Tolerance for cell-range / sum-to-one validation.  Cells produced as
#: integer counts divided by n are exact, so this only absorbs float noise
#: from user-constructed matrices.
CELL_TOL = 1e-12

REGISTERED_KINDS = (
    "accuracy",
    "weighted_accuracy",
    "precision",
    "recall",
    "f_beta",
    "mcc",
    "tp_tn_product",
    "tp_pow_theta_tn",
)

_PARAM_FREE = frozenset(
    {"accuracy", "precision", "recall", "mcc", "tp_tn_product"}
)


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 confusion matrix of population fractions (tn, fp, fn, tp)."""

    tn: float
    fp: float
    fn: float
    tp: float

    def __post_init__(self) -> None:
        cells = (self.tn, self.fp, self.fn, self.tp)
        for name, v in zip(("tn", "fp", "fn", "tp"), cells):
            if not np.isfinite(v) or v < -CELL_TOL or v > 1.0 + CELL_TOL:
                raise ParameterDomainError(
                    f"confusion cell {name}={v!r} outside [0, 1]"
                )
        total = float(sum(cells))
        if abs(total - 1.0) > 4 * CELL_TOL:
            raise ParameterDomainError(
                f"confusion cells must sum to 1 (got {total!r})"
            )


@dataclass(frozen=True)
class CmmSpec:
    """A registered measure kind plus its parameter, if the kind takes one.

    Parametric kinds: ``weighted_accuracy`` (weight in (0, 1)), ``f_beta``
    (beta > 0 with a finite beta^2), ``tp_pow_theta_tn`` (theta > 0).  All
    other kinds must be constructed with ``param=None``.
    """

    kind: str
    param: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in REGISTERED_KINDS:
            raise ParameterDomainError(
                f"unknown measure kind {self.kind!r}; "
                f"registered: {', '.join(REGISTERED_KINDS)}"
            )
        if self.kind in _PARAM_FREE:
            if self.param is not None:
                raise ParameterDomainError(
                    f"measure {self.kind!r} takes no parameter"
                )
            return
        p = self.param
        if p is None or not np.isfinite(p):
            raise ParameterDomainError(
                f"measure {self.kind!r} requires a finite parameter"
            )
        if self.kind == "weighted_accuracy" and not 0.0 < p < 1.0:
            raise ParameterDomainError(
                f"weighted_accuracy weight must lie in (0, 1), got {p!r}"
            )
        if self.kind in ("f_beta", "tp_pow_theta_tn") and not p > 0.0:
            raise ParameterDomainError(
                f"{self.kind} parameter must be positive, got {p!r}"
            )
        if self.kind == "f_beta" and not np.isfinite(p * p):
            raise ParameterDomainError(f"f_beta parameter {p!r} squared overflows")

    @classmethod
    def parse(cls, text: str) -> "CmmSpec":
        """Parse ``"kind"`` or ``"kind:param"`` (e.g. ``"f_beta:1.0"``)."""
        kind, sep, raw = text.partition(":")
        kind = kind.strip()
        if not sep:
            return cls(kind=kind)
        try:
            param = float(raw)
        except ValueError as exc:
            raise ParameterDomainError(
                f"bad measure parameter {raw!r} in {text!r}"
            ) from exc
        return cls(kind=kind, param=param)

    def label(self) -> str:
        """Inverse of :meth:`parse`, used in CSV columns."""
        if self.param is None:
            return self.kind
        return f"{self.kind}:{self.param:g}"


def _cmm_fraction(spec: CmmSpec, tn, fp, fn, tp):
    """``(num, den)`` of a ratio kind (mcc: ``num / sqrt(den)``), else None.

    Cells may also be numpy polynomials, which the population search uses.
    """
    kind = spec.kind
    if kind == "precision":
        return tp, tp + fp
    if kind == "recall":
        return tp, tp + fn
    if kind == "f_beta":
        b2 = spec.param * spec.param
        return (1.0 + b2) * tp, (1.0 + b2) * tp + fp + b2 * fn
    if kind == "mcc":
        return tp * tn - fp * fn, (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    return None


def _cmm_values(spec: CmmSpec, tn, fp, fn, tp):
    """Evaluate the measure on cells given as floats or aligned arrays.

    The optimizer sweeps and the brute-force oracle both funnel through this
    single expression tree, so identical cell values produce bit-identical
    measure values on either path.
    """
    kind = spec.kind
    if kind == "accuracy":
        return tp + tn
    if kind == "weighted_accuracy":
        w = spec.param
        return (1.0 - w) * tp + w * tn
    if kind == "tp_tn_product":
        return tp * tn
    if kind == "tp_pow_theta_tn":
        return np.maximum(tp, 0.0) ** spec.param * tn
    num, den = _cmm_fraction(spec, tn, fp, fn, tp)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "mcc":  # a product rounded below 0 yields nan, hence 0
            den = np.sqrt(den)
        raw = np.divide(num, den)  # ufunc: scalar 0/0 yields nan, not a raise
    return np.where(den > 0.0, raw, 0.0)


def evaluate_cmm(spec: CmmSpec, c: ConfusionMatrix) -> float:
    """Value of the measure at ``c``; total on valid matrices."""
    return float(_cmm_values(spec, c.tn, c.fp, c.fn, c.tp))


@dataclass(frozen=True)
class RocCurve:
    """ROC knots (fpr, tpr) from (0, 0) to (1, 1) plus the area under them.

    Tied scores are collapsed into a single knot per distinct score, so the
    straight segment across a tie group is exactly the set of rates
    achievable by randomized splitting of that group.
    """

    knots: tuple[tuple[float, float], ...]
    auroc: float

    def __post_init__(self) -> None:
        if len(self.knots) < 2:
            raise DegenerateInputError("ROC curve needs at least two knots")
        xs = np.array([k[0] for k in self.knots])
        ys = np.array([k[1] for k in self.knots])
        if self.knots[0] != (0.0, 0.0) or self.knots[-1] != (1.0, 1.0):
            raise ParameterDomainError("ROC knots must run from (0,0) to (1,1)")
        if np.any(np.diff(xs) < 0) or np.any(np.diff(ys) < 0):
            raise ParameterDomainError("ROC knots must be monotone")
        area = float(np.trapezoid(ys, xs))
        if abs(area - self.auroc) > 1e-9:
            raise ParameterDomainError(
                f"auroc={self.auroc!r} does not match knot area {area!r}"
            )


def _score_cuts(scores: np.ndarray, labels: np.ndarray):
    """Distinct scores ``u`` ascending, with the rows and positives at or below each.

    ``rows[0] = pos[0] = 0``; ``rows[g + 1]`` counts the scores ``<= u[g]``
    and ``pos[g + 1]`` the positive-labeled ones among them (int64), so
    prefix ``rows[g]`` of any score-sorted order holds ``pos[g]`` positives
    and tie group g holds its sorted rows ``rows[g]`` to ``rows[g + 1]``.
    One value sort gives them, of int64 keys ``2 bits(score) + label``: the
    scores must lie in [0, 1], where the bit patterns of nonnegative floats
    order as the floats do and stay below 2^62.  No permutation is built or
    applied.  ``0.0`` and ``-0.0`` are one distinct score, reported as
    ``0.0``.
    """
    key = (scores + 0.0).view(np.int64) << 1  # + 0.0 turns -0.0 into 0.0
    key |= labels
    key.sort()
    n = key.size
    cum_pos = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(key & 1, out=cum_pos[1:])
    key >>= 1
    cut = np.empty(n + 1, dtype=bool)
    cut[0] = cut[n] = True
    np.not_equal(key[1:], key[:-1], out=cut[1:n])
    rows = np.flatnonzero(cut)
    return key[rows[1:] - 1].view(np.float64), rows, cum_pos[rows]


def roc_and_auroc(scores, labels) -> RocCurve:
    """ROC curve and area for finite real scores against binary labels.

    Requires at least one positive and one negative label.  Higher scores
    rank as more positive; ties are grouped as described on
    :class:`RocCurve`.  The knots read the counts of rows and positives at
    or above each distinct score from :func:`_score_cuts`, in descending
    order, so no order inside a tie group enters.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if s.size == 0:
        raise DegenerateInputError("empty score array")
    if s.shape != y.shape:
        raise ParameterDomainError(
            f"scores and labels differ in length ({s.size} vs {y.size})"
        )
    if not np.isfinite(s).all():
        raise ParameterDomainError("ROC scores must be finite")
    if not np.all((y == 0) | (y == 1)):
        raise ParameterDomainError("labels must be 0/1")
    y = y.astype(np.int64)
    npos = int(y.sum())
    nneg = int(y.size - npos)
    if npos == 0 or nneg == 0:
        raise DegenerateInputError(
            "ROC needs at least one positive and one negative label"
        )
    if s.min() < 0.0 or s.max() > 1.0:
        # _score_cuts reads scores in [0, 1]; the ROC needs only their order
        # and ties, which dense ranks over n keep.
        s = np.unique(s, return_inverse=True)[1] / s.size
    _, rows, pos = _score_cuts(s, y)
    # Rows and positives at or above each distinct score, highest first.
    rows_ge = y.size - rows[:-1][::-1]
    tp_at = npos - pos[:-1][::-1]
    fp_at = rows_ge - tp_at
    fpr = np.concatenate(([0.0], fp_at / nneg))
    tpr = np.concatenate(([0.0], tp_at / npos))
    auroc = float(np.trapezoid(tpr, fpr))
    knots = tuple(zip(map(float, fpr), map(float, tpr)))
    return RocCurve(knots=knots, auroc=auroc)
