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
rows.  That rule bounds the recheck below, which gathers a ``(rows, width,
d)`` array of candidate rows: ``width`` reaches n when the slack admits
every column (features offset by 1e8, say), and the gather then holds
``rows * n * d`` elements.  The filter's three ``(rows, n)`` arrays hold
at most ``budget / d`` elements each.  They are one workspace, allocated
once per call and reused by every block, so a long query set does not
return its block temporaries to the system and fault them back in; the
recheck's gather reuses the partition scratch whenever it fits there.
Each block is filtered with one GEMM of augmented rows,
``[q, 1, |q|^2] . [-2x, |x|^2, 1]``, which sums the expanded squared
distance ``|q|^2 - 2 q.x + |x|^2`` in one product; its right-hand side is
built once per call.  Those distances are partitioned to ``k_max``, and
every training row within a proven rounding-error slack of that
``k_max``-th value stays a candidate.  The candidates' exact squared
distances ``((q - x)**2).sum()`` are then recomputed, and the selection
runs on them bit for bit as on the full distance row: the candidates
arrive in canonical order, so one stable sort by distance puts the
``k_max`` nearest first in (distance, canonical index) order; rows that
admit fewer candidates than the widest are padded.  Cumulative label sums along that order give the
prediction for every ``k <= k_max`` from one distance pass:
:meth:`KnnModel.predict_path`.  Single-k :meth:`KnnModel.predict` is the
one-element case.

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
    "K_RULES",
    "select_k",
    "uniform_error",
    "average_error",
]


#: Element budget of an n-d query block (8 MiB of float64): a block holds
#: ``max(1, budget // (n * d))`` query rows, which bounds the recheck's
#: (rows, width, d) gather, since ``width`` reaches n when the slack admits
#: every column.
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
        chunk = max(1, _BLOCK_ELEMENTS // (n * d))
        # The filter's right-hand factor [-2x, |x|^2, 1]^T; scaling by -2 is
        # exact.
        xa = np.empty((d + 2, n))
        xa[d + 1] = 1.0
        with np.errstate(over="ignore"):
            np.multiply(self.x.T, -2.0, out=xa[:d])
            np.einsum("ij,ij->i", self.x, self.x, out=xa[d])
        # One workspace for every block: its left-hand factor [q, 1, |q|^2],
        # the filter's distances, the scratch they are partitioned in (then
        # the recheck's gather), and the mask.
        rows_ws = min(m, chunk)
        qa = np.empty((rows_ws, d + 2))
        qa[:, d] = 1.0
        e = np.empty((rows_ws, n))
        part = np.empty((rows_ws, n))
        admit = np.empty((rows_ws, n), dtype=bool)
        for i0 in range(0, m, chunk):
            block = q[i0 : i0 + chunk]
            rows = block.shape[0]
            qa[:rows, :d] = block
            with np.errstate(over="ignore"):
                np.einsum("ij,ij->i", block, block, out=qa[:rows, d + 1])
            _gemm_filter(qa[:rows], xa, k_max, e[:rows], part[:rows], admit[:rows])
            # Recheck: exact distances of the admitted columns only, one query
            # per row in ascending canonical index, padded with NaN (which
            # never compares true; each row admits at least k_max columns).
            flat = np.flatnonzero(admit[:rows])
            counts = np.diff(np.searchsorted(flat, np.arange(rows + 1) * n))
            width = int(counts.max())
            valid = np.arange(width) < counts[:, None]
            cand = np.zeros(valid.shape, dtype=np.intp)
            cand[valid] = flat % n
            del flat
            # In place on the gathered rows: the one (rows, width, d) array,
            # with the bits of ((block[:, None] - x) ** 2).sum().  The
            # partition scratch is dead by now; it holds the gather when that
            # fits.  Every index is in range, so mode="clip" changes nothing
            # but lets np.take write to ``out`` unbuffered.
            size = rows * width * d
            xc = part.reshape(-1)[:size].reshape(rows, width, d) if size <= part.size else None
            xc = np.take(self.x, cand, axis=0, out=xc, mode="clip")
            np.subtract(block[:, None, :], xc, out=xc)
            np.square(xc, out=xc)
            d2 = xc.sum(axis=2)
            del xc
            d2[~valid] = np.nan
            # Candidates sit in ascending canonical index, so a stable sort
            # by distance gives the (distance, index) order, ties at the
            # k_max-th distance included, and the padding sorts last.
            # Masking what lies past the k_max-th distance to inf only makes
            # the sort cheaper.
            kth = np.partition(d2, k_max - 1, axis=1)[:, k_max - 1 : k_max]
            d2[d2 > kth] = np.inf
            nearest = np.argsort(d2, axis=1, kind="stable")[:, :k_max]
            labels = self.y[np.take_along_axis(cand, nearest, axis=1)]
            cum = np.cumsum(labels, axis=1)
            out[:, i0 : i0 + chunk] = (cum[:, cols_k] / ks_f).T
        return out


def _gemm_filter(
    qa: np.ndarray, xa: np.ndarray, k_max: int,
    e: np.ndarray, part: np.ndarray, admit: np.ndarray,
) -> None:
    """Set ``admit`` to the (query row, training row) pairs that may be k_max-nearest.

    ``qa`` holds the block's query rows as ``[q, 1, s_q]`` and ``xa`` the
    training rows as ``[-2x, s_x, 1]^T``, where s_q and s_x are |q|^2 and
    |x|^2 rounded as sums of d squares.  ``e`` (rows, n) receives the
    product, ``part`` of its shape is scratch, and so is ``admit`` until it
    holds the mask.  The mask admits
    every pair whose exact distance ``((q - x)**2).sum()`` is at most the
    k_max-th smallest of its query row.

    Let D be a pair's true squared distance, u = eps / 2, R = |q| + max|x|
    and gamma_j = j u / (1 - j u).  A sum whose every term passes at most j
    roundings (a product or an addition each, in any summation order, with
    or without FMA) is off by at most gamma_j times the sum of its terms'
    absolute values (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3).
    - The exact expression d2: each of its d terms passes a subtraction, a
      square and at most d - 1 additions, so |d2 - D| <= gamma_{d+1} D
      <= gamma_{d+1} R^2.
    - The filter e: D = |q|^2 - 2 q.x + |x|^2 is a sum of 3d terms whose
      absolute values sum to at most (|q| + |x|)^2 <= R^2.  A square summed
      into s_q or s_x passes its own rounding and at most d - 1 additions
      there; the GEMM's product by 1 is exact, and its at most d + 1
      additions follow: 2d + 1 roundings.  A term q_j (-2 x_j) passes the
      GEMM's product and at most d + 1 additions.  So
      |e - D| <= gamma_{2d+1} R^2.
    So |e - d2| <= (gamma_{2d+1} + gamma_{d+1}) R^2, about (3d + 2) eps R^2
    / 2; the slack (2d + 4) eps R^2 exceeds that by at least 3.5 eps R^2,
    which covers the rounding of |q|, max|x|, R^2, the slack itself and the
    bound's sum.  Underflow costs each of a pair's at most 9d operations no
    more than one smallest normal, even where a kernel flushes subnormals to
    zero; the 16 (2d + 4) tiny term covers that.

    The k_max smallest e each have d2 <= e_kth + slack, so the exact k_max-th
    distance is at most that, and every pair at or below it has
    e <= e_kth + 2 slack.  A row with a non-finite e gets an infinite bound
    and admits every column, a NaN e too, since NaN fails ``e > bound``.
    """
    d = qa.shape[1] - 2
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(qa, xa, out=e)
        radius = np.sqrt(qa[:, d + 1]) + np.sqrt(xa[d].max())
        slack = (2 * d + 4) * (_EPS * radius**2 + 16.0 * _TINY)
        np.copyto(part, e)
        part.partition(k_max - 1, axis=1)
        np.isfinite(e, out=admit)
        bound = np.where(admit.all(axis=1), part[:, k_max - 1] + 2.0 * slack, np.inf)
        np.greater(e, bound[:, None], out=admit)
    np.logical_not(admit, out=admit)


#: Names :func:`select_k` accepts.
K_RULES = ("exp1", "exp2", "theorem", "extreme")


def select_k(rule: str, n: int, r: float = 1.0, alpha: float = 1.0, d: int = 1) -> int:
    """Neighborhood size of the named rule for a sample of size n, in [1, n].

    The rules take smoothness alpha, dimension d and imbalance r.  ``exp1``
    is the balanced floored power law floor(n^(2a/(2a+d))) and ignores r;
    ``exp2`` scales it by r^(-d/(2a+d)); ``theorem`` is the rounded
    (log n)-corrected rule round(n^(2a/(2a+d)) r^(-d/(2a+d)) (log n)^(d/(2a+d)));
    ``extreme`` is k = n and ignores alpha, d and r.  Only the parameters a
    rule reads are checked.  At the defaults, ``exp1`` gives floor(n^(2/3))
    and ``exp2`` floor(n^(2/3) r^(-1/3)).
    """
    if rule not in K_RULES:
        raise ParameterDomainError(f"k rule {rule!r} not one of {'/'.join(K_RULES)}")
    if rule != "extreme":
        if not (np.isfinite(alpha) and 0.0 < alpha <= 1.0):
            raise ParameterDomainError(f"alpha={alpha!r} outside (0, 1]")
        if not isinstance(d, (int, np.integer)) or d < 1:
            raise ParameterDomainError(f"dimension d={d!r} must be a positive int")
        if rule != "exp1" and not (np.isfinite(r) and 0.0 < r <= 1.0):
            raise ParameterDomainError(f"imbalance r={r!r} outside (0, 1]")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterDomainError(f"sample size n={n!r} must be a positive int")
    if rule == "extreme":
        return int(n)
    expo = 2.0 * alpha / (2.0 * alpha + d)
    side = d / (2.0 * alpha + d)
    base = n**expo * (1.0 if rule == "exp1" else r) ** (-side)
    if rule == "theorem":
        k = round(base * math.log(n) ** side)
    else:
        k = math.floor(base)
    return int(min(max(k, 1), n))


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
