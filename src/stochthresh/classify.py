"""Stochastic threshold classifiers over scores in [0, 1].

A threshold pair (t, p) maps a score s and a stored uniform draw z to the
label 1 exactly when ``s > t`` or (``s == t`` and ``z < p``).  The tie test
is an exact float comparison on purpose: score generators in this package
emit exactly representable tie values, and the draw stream is stored with
the data so the same classification can be reproduced bit-for-bit.

The module also carries a small closed-form model of one-dimensional
regression functions (piecewise-linear, or a single atom) so population
confusion matrices can be computed exactly instead of by Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateInputError, DomainError, ParameterDomainError,
                     check_labels, check_real, check_unit_interval)
from .metrics import ConfusionMatrix

__all__ = [
    "StochasticThreshold",
    "Piece",
    "RegressionFunctionSpec",
    "empirical_confusion",
    "population_confusion_parts",
]


@dataclass(frozen=True)
class StochasticThreshold:
    """Threshold location t and tie-acceptance probability p, both in [0, 1]."""

    t: float
    p: float

    def __post_init__(self) -> None:
        check_real("threshold t", self.t, "[0, 1]")
        check_real("tie probability p", self.p, "[0, 1]")


def as_sample_arrays(
    samples, *, require_draws: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Check a ``(scores, labels[, draws])`` tuple of equal-length arrays.

    The tuple is the only accepted sample form; ``draws`` may be ``None``.
    Any other input, a list of row tuples included, raises rather than be
    misread.  Raises on empty input, on a label other than 0/1, on a score
    or draw that is not finite or lies outside [0, 1], and on missing draws
    when ``require_draws`` is set.
    """
    if not (
        isinstance(samples, tuple)
        and len(samples) in (2, 3)
        and np.ndim(samples[0]) >= 1
    ):
        raise ParameterDomainError(
            "samples must be a tuple (scores, labels[, draws]) of equal-length "
            f"arrays, not {type(samples).__name__}"
        )
    scores = np.asarray(samples[0], dtype=np.float64).ravel()
    labels = np.asarray(samples[1]).ravel()
    draws = None
    if len(samples) == 3 and samples[2] is not None:
        draws = np.asarray(samples[2], dtype=np.float64).ravel()
    if scores.size == 0:
        raise DegenerateInputError("empty sample collection")
    if scores.shape != labels.shape or (draws is not None and draws.shape != scores.shape):
        raise ParameterDomainError("scores, labels and draws differ in length")
    labels = check_labels(labels)
    check_unit_interval("score", scores)
    if draws is not None:
        check_unit_interval("draw", draws)
    if require_draws and draws is None:
        raise DegenerateInputError(
            "this operation needs stored uniform draws for every sample"
        )
    return scores, labels, draws


def empirical_confusion(th: StochasticThreshold, samples) -> ConfusionMatrix:
    """Confusion fractions of the threshold on a ``(scores, labels[, draws])`` sample.

    A row is labeled 1 iff score > t, or score == t and draw < p.  Missing
    draws mean draw = 0, so a tie takes label 1 exactly when p > 0.
    """
    scores, labels, draws = as_sample_arrays(samples)
    z = 0.0 if draws is None else draws
    pred = (scores > th.t) | ((scores == th.t) & (z < th.p))
    pos = labels == 1
    n = scores.size
    tp = int(np.count_nonzero(pred & pos))
    fp = int(np.count_nonzero(pred & ~pos))
    fn = int(np.count_nonzero(~pred & pos))
    tn = n - tp - fp - fn
    return ConfusionMatrix(tn=tn / n, fp=fp / n, fn=fn / n, tp=tp / n)


# ---------------------------------------------------------------------------
# Closed-form regression functions on [0, 1]


@dataclass(frozen=True)
class Piece:
    """Linear segment of a regression function: value v_lo at lo, v_hi at hi."""

    lo: float
    hi: float
    v_lo: float
    v_hi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise ParameterDomainError(
                f"piece interval [{self.lo!r}, {self.hi!r}] invalid within [0, 1]"
            )
        check_real("piece v_lo", self.v_lo, "[0, 1]")
        check_real("piece v_hi", self.v_hi, "[0, 1]")


@dataclass(frozen=True)
class RegressionFunctionSpec:
    """Exact regression function: piecewise-linear on [0, 1] or a point atom.

    Exactly one of ``pieces`` (contiguous cover of [0, 1]) or ``atom`` (the
    value at the single domain point 0) must be given.  ``r`` is the sup of
    the function, its imbalance degree.  The identically-zero function is
    admitted with r = 0 as a degenerate special case.

    ``table`` holds the piece columns ``(lo, width, v_lo, rise)``, with
    ``width = hi - lo`` and ``rise = v_hi - v_lo``, built once; an atom is
    one flat piece of width 1.  :meth:`evaluate` and the k-NN error norms
    read values through :meth:`on_piece`, the one site of the piece lookup
    and the line formula.
    """

    pieces: tuple[Piece, ...] = ()
    atom: float | None = None
    table: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # A tuple keeps the spec hashable (error norms are memoized per eta)
        # when the pieces come as a list or another sequence.
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if (len(self.pieces) > 0) == (self.atom is not None):
            raise ParameterDomainError(
                "exactly one of pieces / atom must be provided"
            )
        if self.atom is not None:
            check_real("atom value", self.atom, "[0, 1]")
        else:
            if self.pieces[0].lo != 0.0 or self.pieces[-1].hi != 1.0:
                raise ParameterDomainError("pieces must cover [0, 1]")
            for a, b in zip(self.pieces, self.pieces[1:]):
                if a.hi != b.lo:
                    raise ParameterDomainError(
                        f"pieces not contiguous at {a.hi!r} vs {b.lo!r}"
                    )
        lo, hi, v_lo, v_hi = np.array(
            [(pc.lo, pc.hi, pc.v_lo, pc.v_hi) for pc in self._pieces_or_atom()],
            dtype=np.float64,
        ).T.copy()
        object.__setattr__(self, "table", (lo, hi - lo, v_lo, v_hi - v_lo))

    def _pieces_or_atom(self) -> tuple[Piece, ...]:
        """The pieces, or the atom as one flat piece of width 1."""
        return self.pieces or (Piece(0.0, 1.0, self.atom, self.atom),)

    @property
    def r(self) -> float:
        """Sup of the function (imbalance degree); 0 only for the zero function."""
        return float(max(max(p.v_lo, p.v_hi) for p in self._pieces_or_atom()))

    def knots(self) -> tuple[float, ...]:
        """Domain breakpoints of the piecewise definition."""
        if self.atom is not None:
            return (0.0,)
        return tuple([p.lo for p in self.pieces] + [self.pieces[-1].hi])

    def on_piece(self, x, at=None) -> np.ndarray:
        """Values at points x of the lines of the pieces holding ``at`` (default x).

        ``at`` broadcasts against x.  A point outside its piece reads the
        piece's line extended, so the ends of a piece give its one-sided limits.
        """
        i = np.searchsorted(self.table[0], x if at is None else at, side="right") - 1
        lo, width, v_lo, rise = (col.take(i) for col in self.table)
        return v_lo + rise * ((x - lo) / width)

    def evaluate(self, x):
        """Function value at x (scalar or array); out-of-domain points raise."""
        arr = np.asarray(x, dtype=np.float64)
        pts = np.atleast_1d(arr)
        check_unit_interval("point", pts, DomainError)
        if self.atom is not None and np.any(pts != 0.0):
            raise DomainError("atom regression function is defined only at 0")
        out = self.on_piece(pts)
        return float(out[0]) if arr.ndim == 0 else out


def _linear_mass(v_a, v_b, width):
    """Integral of a linear value running v_a -> v_b over an interval."""
    return width * (v_a + v_b) / 2.0


def population_confusion_parts(
    eta: RegressionFunctionSpec, t
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Split population cells at thresholds t into (p = 0 base, tie mass per unit p).

    ``t`` is a float or an array.  Full cells at (t, p) are ``base + p *
    tie`` componentwise in the order (tn, fp, fn, tp); each entry is an
    array shaped like ``t``.  Exact closed form; no sampling.
    """
    t = np.asarray(t, dtype=np.float64)
    check_unit_interval("threshold t", t)
    # Mass integrals over the strict-above region A, the tie set E and the
    # rest B: pos_* = integral of eta, neg_* = integral of (1 - eta).  Each
    # piece adds one term to an accumulator (0.0 where it misses the region),
    # in piece order, so every t gets the bits of a loop over one t.
    acc = np.zeros((3, 2) + t.shape)  # (pos, neg) of A, E and B
    for pc, w in zip(eta._pieces_or_atom(), eta.table[1].tolist()):
        v0, v1 = pc.v_lo, pc.v_hi
        if v0 == v1:
            pos, neg = v0 * w, (1.0 - v0) * w
            for region, hit in enumerate((v0 > t, v0 == t, v0 < t)):
                acc[region, 0] += np.where(hit, pos, 0.0)
                acc[region, 1] += np.where(hit, neg, 0.0)
            continue
        # The piece lies wholly above t, wholly at or below it, or crosses t
        # at w_cross from lo, its left part lying above t iff v0 > t.
        m = _linear_mass(v0, v1, w)
        w_cross = (t - v0) * w / (v1 - v0)
        m_left = _linear_mass(v0, t, w_cross)
        m_right = _linear_mass(t, v1, w - w_cross)
        whole, left = (m, w - m), (m_left, w_cross - m_left)
        right = (m_right, (w - w_cross) - m_right)
        above, below, left_up = min(v0, v1) > t, max(v0, v1) <= t, v0 > t
        for k in (0, 1):
            up = np.where(left_up, left[k], right[k])
            down = np.where(left_up, right[k], left[k])
            acc[0, k] += np.where(above, whole[k], np.where(below, 0.0, up))
            acc[2, k] += np.where(below, whole[k], np.where(above, 0.0, down))
    (pos_a, neg_a), (pos_e, neg_e), (pos_b, neg_b) = acc
    base = (neg_b + neg_e, neg_a, pos_b + pos_e, pos_a)  # tn, fp, fn, tp at p=0
    tie = (-neg_e, neg_e, -pos_e, pos_e)
    return base, tie
