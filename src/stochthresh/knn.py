"""k-nearest-neighbor regression with exact, reproducible tie handling.

Predictions are averages of the k nearest training labels in Euclidean
distance.  Distance ties are broken by *canonical order*: training rows are
sorted by their covariate tuple (then original index), and among equidistant
rows the canonically earliest wins.  This makes predictions a pure function
of the training set — permuting training rows cannot change any prediction —
unless equal covariates carry different labels: their copies are ordered by
row index, so the input order then decides which of them are neighbors.

In one dimension the canonical rule makes every neighborhood a contiguous
window of the sorted covariates, except that a window starting inside a run
of equal values takes that run's earliest copies.  Batch prediction reduces
to a single ``searchsorted`` against precomputed window-boundary sums plus
label prefix sums (and the run bounds, built only when a value repeats):
O((n + m) log n) overall, exact, no distance matrix.  Several k share the
sorted covariates, prefix sums and run bounds; only the boundary sums are
per k.

In more dimensions, query rows go in blocks of ``budget // (n * d)``
rows, a rule kept from a ``(rows, n, d)`` distance temporary that no step
builds any more; the few ``(rows, n)`` arrays of the filter below hold at
most ``budget / d`` elements each.  Sizing blocks by those arrays is an open
item of ROADMAP.md (n-d k-NN block size).
Each block is filtered with one GEMM: the expanded squared distances
``|q|^2 - 2 q.x + |x|^2`` are partitioned to ``k_max``, and every training
row within a proven rounding-error slack of that ``k_max``-th value stays a
candidate.  The candidates' exact squared distances ``((q - x)**2).sum()``
are then recomputed, and the selection runs on them bit for bit as on the
full distance row: every candidate strictly closer than the ``k_max``-th
smallest distance plus the canonically earliest ones at exactly that
distance, ordered by (distance, canonical index).  Cumulative label sums
along that order give the prediction for every ``k <= k_max`` from one
distance pass: :meth:`KnnModel.predict_path`.  Single-k
:meth:`KnnModel.predict` is the one-element case.

The error norms of a 1-d model against a piecewise-linear eta
(:func:`uniform_error`, :func:`average_error`) are exact, with no grid.
Between consecutive breakpoints (eta's knots and the window-boundary
midpoints ``h / 2``) eta is linear, and the searchsorted window start, and
so the prediction, is one constant on each half-open ``(b_j, b_j+1]``.  One
``predict`` at the breakpoints only gives every value the closed forms
need: the sup is an interval's end limit or a breakpoint's value, and the
integral is a trapezoid per interval, or two triangles where the error
changes sign.  Both norms come from one pass, memoized per (model, eta), so
asking for the second costs a dictionary lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classify import RegressionFunctionSpec
from .errors import (
    DegenerateInputError,
    ParameterDomainError,
    ShapeError,
    UnsupportedSpecError,
)

__all__ = [
    "KnnModel",
    "KSelectionRule",
    "K_RULES",
    "k_rule",
    "select_k",
    "uniform_error",
    "average_error",
]


#: Element budget of an n-d query block (8 MiB of float64): a block holds
#: ``max(1, budget // (n * d))`` query rows, the rule of a (rows, n, d)
#: distance temporary that is gone.  ROADMAP.md's n-d block-size item sizes
#: blocks by the filter's (rows, n) arrays instead.
_BLOCK_ELEMENTS = 1 << 20

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


def _check_k(k, n: int) -> int:
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n:
        raise ParameterDomainError(f"k={k!r} outside [1, n={n}]")
    return int(k)


def _as_matrix(covariates) -> np.ndarray:
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ShapeError(f"covariates must be (n,) or (n, d), got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ParameterDomainError("covariates must be finite")
    return x


@dataclass(frozen=True, eq=False)
class KnnModel:
    """Fitted k-NN regressor; build via :meth:`fit`."""

    x: np.ndarray
    y: np.ndarray
    k: int
    #: The canonical permutation: ``x`` and ``y`` are the fitted rows taken in it.
    order: np.ndarray = field(repr=False, default=None)
    _prefix: np.ndarray = field(repr=False, default=None)
    _h: np.ndarray = field(repr=False, default=None)
    _runs: np.ndarray = field(repr=False, default=None)
    # (sup, integral) error norms per eta, filled by _error_norms.  Like the
    # fields above it is derived from x and y; ``dataclasses.replace`` starts
    # a new, empty one.
    _norms: dict = field(init=False, repr=False, default_factory=dict)

    @classmethod
    def fit(cls, covariates, labels, k: int) -> "KnnModel":
        x = _as_matrix(covariates)
        y = np.asarray(labels).ravel()
        n = x.shape[0]
        if n == 0:
            raise DegenerateInputError("empty training set")
        if y.shape[0] != n:
            raise ShapeError(
                f"{n} covariate rows but {y.shape[0]} labels"
            )
        if not np.all((y == 0) | (y == 1)):
            raise ParameterDomainError("training labels must be 0/1")
        k = _check_k(k, n)
        # Canonical order: covariate tuple ascending, then original index.
        # The first coordinate is its primary key, so when no two of those are
        # equal, one unstable argsort of it is that order.  Otherwise (0.0
        # against -0.0 included) a stable lexsort over every column is.
        order = np.argsort(x[:, 0])
        xs = x[order]
        if (xs[1:, 0] == xs[:-1, 0]).any():
            order = np.lexsort(tuple(x[:, j] for j in range(x.shape[1] - 1, -1, -1)))
            xs = x[order]
        xs = np.ascontiguousarray(xs)
        ys = y[order].astype(np.float64)
        prefix = h = runs = None
        if xs.shape[1] == 1:
            flat = xs[:, 0]
            prefix = np.concatenate(([0.0], np.cumsum(ys)))
            h = flat[: n - k] + flat[k:]
            first = np.concatenate(([True], flat[1:] != flat[:-1]))
            if not first.all():
                # Row i lies in the run of equal values [runs[0, i], runs[1, i]).
                starts = np.flatnonzero(first)
                run_of = np.cumsum(first) - 1
                runs = np.stack((starts, np.append(starts[1:], n)))[:, run_of]
        return cls(x=xs, y=ys, k=k, order=order, _prefix=prefix, _h=h, _runs=runs)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def predict(self, queries) -> np.ndarray:
        """Mean label of the k nearest training rows for each query row.

        A scalar query (d = 1) or a single length-d query returns a float.
        """
        q, scalar = self._queries(queries)
        out = self._path(q, (self.k,))[0]
        return float(out[0]) if scalar else out

    def predict_path(self, queries, ks) -> np.ndarray:
        """Predictions for every k in ``ks`` at once: shape (len(ks), m).

        Row i equals ``KnnModel.fit(x, y, ks[i]).predict(queries)`` bit for
        bit; the neighbor order is found once, for the largest k.
        """
        q, _ = self._queries(queries)
        ks = tuple(_check_k(k, self.n) for k in ks)
        if not ks:
            raise ParameterDomainError("ks must name at least one k")
        return np.asarray(self._path(q, ks))

    def _queries(self, queries) -> tuple[np.ndarray, bool]:
        """Query rows as (m,) for d = 1 or (m, d), plus whether it was one point."""
        q = np.asarray(queries, dtype=np.float64)
        scalar = q.ndim == 0
        if self.d == 1:
            flat = np.atleast_1d(q)
            if flat.ndim == 2 and flat.shape[1] == 1:
                flat = flat[:, 0]
            if flat.ndim != 1:
                raise ShapeError(
                    f"model has d=1 but queries have shape {q.shape}"
                )
            q = flat
        else:
            if q.ndim == 1:
                if q.shape[0] != self.d:
                    raise ShapeError(
                        f"query has {q.shape[0]} coordinates, model has d={self.d}"
                    )
                q = q[None, :]
                scalar = True
            if q.ndim != 2 or q.shape[1] != self.d:
                raise ShapeError(
                    f"queries must be (m, {self.d}), got shape {q.shape}"
                )
        if not np.isfinite(q).all():
            raise ParameterDomainError("queries must be finite")
        return q, scalar

    def _path(self, q: np.ndarray, ks: tuple[int, ...]):
        """One prediction row per k in ``ks``."""
        if self.d == 1:
            return self._path_1d(q, ks)
        return self._path_nd(q, ks)

    def _path_1d(self, q: np.ndarray, ks: tuple[int, ...]) -> list[np.ndarray]:
        # Advancing the window past training point i is strictly better
        # exactly when 2q > x[i] + x[i+k]; on equality the canonical rule
        # keeps the left (earlier) point, hence side="left".
        # A list, not a preallocated (len(ks), m) array: the extra live
        # buffer measurably slowed single-k predict on large query sets.
        # A window [s, s+k) that starts inside a run of equal values [a, e)
        # holds that run's later copies; the canonical rule wants its
        # earliest ones, so the run part [s, b) is read as [a, a + b - s).
        flat, cum = self.x[:, 0], self._prefix
        rows = []
        for k in ks:
            h = self._h if k == self.k else flat[: self.n - k] + flat[k:]
            s = np.searchsorted(h, 2.0 * q, side="left")
            if self._runs is None:
                rows.append((cum[s + k] - cum[s]) / k)
                continue
            a, e = self._runs[:, s]
            b = np.minimum(e, s + k)
            rows.append((cum[s + k] - cum[b] + cum[a + b - s] - cum[a]) / k)
        return rows

    def _path_nd(self, q: np.ndarray, ks: tuple[int, ...]) -> np.ndarray:
        m, n, d = q.shape[0], self.n, self.d
        k_max = max(ks)
        cols_k = np.asarray(ks) - 1
        ks_f = np.asarray(ks, dtype=np.float64)
        out = np.empty((len(ks), m), dtype=np.float64)
        sq_x = np.einsum("ij,ij->i", self.x, self.x)
        chunk = max(1, _BLOCK_ELEMENTS // (n * d))
        for i0 in range(0, m, chunk):
            block = q[i0 : i0 + chunk]
            rows = block.shape[0]
            admit = _gemm_filter(block, self.x, sq_x, k_max)
            # Recheck: exact distances of the admitted columns only, one query
            # per row in ascending canonical index, padded with NaN (which
            # never compares true; each row admits at least k_max columns).
            flat = np.flatnonzero(admit)
            counts = np.diff(np.searchsorted(flat, np.arange(rows + 1) * n))
            valid = np.arange(counts.max()) < counts[:, None]
            cand = np.zeros(valid.shape, dtype=np.intp)
            cand[valid] = flat % n
            del admit, flat
            # In place on the gathered rows: the one (rows, width, d)
            # temporary, with the bits of ((block[:, None] - x) ** 2).sum().
            xc = self.x[cand]
            np.subtract(block[:, None, :], xc, out=xc)
            np.square(xc, out=xc)
            d2 = xc.sum(axis=2)
            del xc
            d2[~valid] = np.nan
            kth = np.partition(d2, k_max - 1, axis=1)[:, k_max - 1 : k_max]
            keep = d2 <= kth
            # Rows with more than k_max candidates tie at the k_max-th
            # distance: keep only the canonically earliest of those ties.
            over = np.flatnonzero(keep.sum(axis=1) > k_max)
            if over.size:
                sub, sub_kth = d2[over], kth[over]
                lt = sub < sub_kth
                eq = sub == sub_kth
                room = k_max - lt.sum(axis=1, keepdims=True)
                keep[over] = lt | (eq & (np.cumsum(eq, axis=1) <= room))
            # flatnonzero walks rows in order, so candidates arrive in
            # canonical index order and a stable sort by distance finishes
            # the (distance, index) order.
            idx = (np.flatnonzero(keep) % keep.shape[1]).reshape(-1, k_max)
            order = np.argsort(
                np.take_along_axis(d2, idx, axis=1), axis=1, kind="stable"
            )
            idx = np.take_along_axis(cand, idx, axis=1)
            labels = self.y[np.take_along_axis(idx, order, axis=1)]
            cum = np.cumsum(labels, axis=1)
            out[:, i0 : i0 + chunk] = (cum[:, cols_k] / ks_f).T
        return out


def _gemm_filter(
    block: np.ndarray, x: np.ndarray, sq_x: np.ndarray, k_max: int
) -> np.ndarray:
    """Mask of the (query row, training row) pairs that may be k_max-nearest.

    The mask admits every pair whose exact distance ``((q - x)**2).sum()``
    is at most the k_max-th smallest of its query row.

    Let D be a pair's true squared distance, u = eps / 2, R = |q| + max|x|
    and gamma_j = j u / (1 - j u).  In any summation order, with or without
    FMA (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3):
    the exact expression d2 has |d2 - D| <= gamma_{d+2} D <= gamma_{d+2} R^2,
    and the expansion e = |q|^2 - 2 q.x + |x|^2 has |e - D| <= gamma_{d+2} R^2.
    So |e - d2| <= 2 gamma_{d+2} R^2, about (d + 2) eps R^2; the slack
    (d + 4) eps R^2 also covers the rounding of |q|, max|x|, R^2 and the
    bound's sum.  Underflow costs each of a pair's at most 9d operations no
    more than one smallest normal, even where a kernel flushes subnormals to
    zero; the 16 (d + 4) tiny term covers that.

    The k_max smallest e each have d2 <= e_kth + slack, so the exact k_max-th
    distance is at most that, and every pair at or below it has
    e <= e_kth + 2 slack.  A row with a non-finite e gets an infinite bound
    and admits every column, a NaN e too, since NaN fails ``e > bound``.
    """
    d = block.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        sq_q = np.einsum("ij,ij->i", block, block)
        e = (-2.0 * block) @ x.T  # scaling by -2 is exact
        e += sq_q[:, None]
        e += sq_x
        radius = np.sqrt(sq_q) + np.sqrt(sq_x.max())
        slack = (d + 4) * (_EPS * radius**2 + 16.0 * _TINY)
        e_kth = np.partition(e, k_max - 1, axis=1)[:, k_max - 1]
        bound = np.where(np.isfinite(e).all(axis=1), e_kth + 2.0 * slack, np.inf)
        admit = e > bound[:, None]
    return np.logical_not(admit, out=admit)


@dataclass(frozen=True)
class KSelectionRule:
    """Rate-optimal k rule: smoothness alpha, dimension d, imbalance r.

    ``regime`` picks how imbalance enters: "balanced" ignores r, "uci"
    scales k up by r^(-d/(2*alpha+d)), "extreme" uses k = n outright.
    ``drop_log`` switches from the rounded (log n)-corrected rule to the
    floored power law used by the reference experiment conventions.
    """

    alpha: float = 1.0
    d: int = 1
    r: float = 1.0
    regime: str = "uci"
    drop_log: bool = False

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and 0.0 < self.alpha <= 1.0):
            raise ParameterDomainError(f"alpha={self.alpha!r} outside (0, 1]")
        if not isinstance(self.d, (int, np.integer)) or self.d < 1:
            raise ParameterDomainError(f"dimension d={self.d!r} must be a positive int")
        if not (np.isfinite(self.r) and 0.0 < self.r <= 1.0):
            raise ParameterDomainError(f"imbalance r={self.r!r} outside (0, 1]")
        if self.regime not in ("balanced", "uci", "extreme"):
            raise ParameterDomainError(
                f"regime {self.regime!r} not one of balanced/uci/extreme"
            )


def select_k(rule: KSelectionRule, n: int) -> int:
    """Neighborhood size for a sample of size n under the rule, clamped to [1, n]."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterDomainError(f"sample size n={n!r} must be a positive int")
    if rule.regime == "extreme":
        return int(n)
    r_eff = 1.0 if rule.regime == "balanced" else rule.r
    expo = 2.0 * rule.alpha / (2.0 * rule.alpha + rule.d)
    side = rule.d / (2.0 * rule.alpha + rule.d)
    base = n**expo * r_eff ** (-side)
    if rule.drop_log:
        k = math.floor(base)
    else:
        k = round(base * math.log(n) ** side)
    return int(min(max(k, 1), n))


#: The fields each named k rule fixes; :func:`k_rule` fills the rest from
#: its arguments.
_K_RULE_FIELDS = {
    "exp1": {"r": 1.0, "regime": "balanced", "drop_log": True},
    "exp2": {"regime": "uci", "drop_log": True},
    "theorem": {"regime": "uci", "drop_log": False},
    "extreme": {"alpha": 1.0, "d": 1, "r": 1.0, "regime": "extreme"},
}

#: Names :func:`k_rule` accepts.
K_RULES = tuple(_K_RULE_FIELDS)


def k_rule(name: str, r: float = 1.0, alpha: float = 1.0, d: int = 1) -> KSelectionRule:
    """The named k rule at imbalance r, smoothness alpha and dimension d.

    ``exp1`` is the balanced floored power law floor(n^(2a/(2a+d))) and
    ignores r; ``exp2`` scales it by r^(-d/(2a+d)); ``theorem`` is the
    rounded (log n)-corrected rule; ``extreme`` is k = n and ignores alpha,
    d and r.  At the defaults, ``exp1`` gives floor(n^(2/3)) and ``exp2``
    floor(n^(2/3) r^(-1/3)).
    """
    if name not in _K_RULE_FIELDS:
        raise ParameterDomainError(f"k rule {name!r} not one of {'/'.join(K_RULES)}")
    return KSelectionRule(**{"alpha": alpha, "d": d, "r": r, **_K_RULE_FIELDS[name]})


def _error_norms(model: KnnModel, eta: RegressionFunctionSpec) -> tuple[float, float]:
    """Sup and integral of |prediction - eta| over [0, 1]; see the module notes."""
    if eta in model._norms:
        return model._norms[eta]
    if model.d != 1:
        raise UnsupportedSpecError("error norms are defined for d = 1 models only")
    if eta.atom is not None:
        raise UnsupportedSpecError(
            "error norms need a piecewise regression function on [0, 1]"
        )
    b = np.unique(np.clip(np.concatenate((eta.knots(), 0.5 * model._h)), 0.0, 1.0))
    left, right = b[:-1], b[1:]
    # eta at both ends of each interval, read on the piece holding its left
    # end by RegressionFunctionSpec.on_piece: where eta jumps at a knot these
    # are the one-sided limits, and e0 with the last e1 is eta at every
    # breakpoint.
    e0, e1 = eta.on_piece(np.stack((left, right)), at=left)
    mid = 0.5 * (left + right)
    # An interval with no float strictly inside counts for nothing.
    inside = (left < mid) & (mid < right)
    # b holds every window-boundary midpoint h / 2 in [0, 1], so none lies
    # strictly inside an interval, and q > h / 2 exactly when 2q > h, the
    # searchsorted test: the window start, and so the prediction, is one
    # constant on (left, right] and is read at right.  That needs 0.5 * h to
    # be exact, which it is unless h is subnormal.
    at_b = model.predict(b)
    c = at_b[1:][inside]
    g0, g1 = c - e0[inside], c - e1[inside]
    a0, a1 = np.abs(g0), np.abs(g1)
    sup = max(a0.max(), a1.max(), np.abs(at_b - np.append(e0, e1[-1])).max())
    # Mean of |error| on each interval: a trapezoid, or where the error
    # changes sign, two triangles.
    total = a0 + a1
    cross = np.sign(g0) * np.sign(g1) < 0
    mean_abs = np.divide(g0 * g0 + g1 * g1, 2.0 * total, out=0.5 * total, where=cross)
    norms = float(sup), float(np.sum((right - left)[inside] * mean_abs))
    model._norms[eta] = norms
    return norms


def uniform_error(model: KnnModel, eta: RegressionFunctionSpec) -> float:
    """Sup of |prediction - eta| over [0, 1], one-sided limits included."""
    return _error_norms(model, eta)[0]


def average_error(model: KnnModel, eta: RegressionFunctionSpec) -> float:
    """Integral of |prediction - eta| over [0, 1], whose length is 1.

    So it is at most :func:`uniform_error`, up to rounding.
    """
    return _error_norms(model, eta)[1]
