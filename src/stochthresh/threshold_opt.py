"""Exact threshold search for confusion-matrix measures.

On a finite sample the only classifications a stochastic threshold can
produce are the "prefixes" of the sample sorted by (score ascending, draw
descending): prefix j labels the first j sorted samples 0 and the rest 1.
A prefix that ends between two rows with the same (score, draw) pair is
not one of them, since the rule labels both rows alike; the searches skip
it.
:class:`SortedSample` is that sort plus the cumulative positive count, and
the confusion cells of a prefix are integer counts divided by n.  The
stochastic sweep reads all n + 1 prefixes, the deterministic search only
the cuts between distinct scores: O(n log n) and *exactly* optimal, with
no grid.  The sweep order comes from unstable argsorts and a key that is
exact unless two keys collide (then ``np.lexsort`` decides).  The
deterministic search needs no order at all: the counts at each distinct
score come from value sorts (``metrics._score_cuts``), which no order
inside a tie group can change.  A quadratic brute-force twin sorts on its
own and re-materializes every prefix from scratch, so it is an independent
oracle that evaluates measures on bit-identical cells and must agree
exactly.

The population search is exact too.  The population cells are linear in
p on the tie set of a breakpoint (eta's piece values or atom, 0 and 1),
and of degree <= 2 in t between two breakpoints, so it checks each
breakpoint with p = 0, 1 and every stationary p; every stationary t
inside an interval; and each interval's one-sided ends (``nextafter``),
where a supremum such as precision's at the top of eta is never attained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import (
    RegressionFunctionSpec,
    StochasticThreshold,
    as_sample_arrays,
    population_confusion_parts,
)
from .errors import ParameterDomainError
from .metrics import (
    CmmSpec,
    ConfusionMatrix,
    _cmm_fraction,
    _cmm_values,
    _score_cuts,
    evaluate_cmm,
)

__all__ = [
    "ThresholdSearchResult",
    "optimize_threshold",
    "brute_force_threshold",
    "optimize_threshold_deterministic",
    "optimize_population_threshold",
]


@dataclass(frozen=True)
class ThresholdSearchResult:
    """Best threshold found, its measure value, and the winning prefix.

    ``classification_prefix_index`` is the number of sorted samples the
    winning threshold labels 0 (0 = everything labeled 1).  It is ``None``
    for population searches, where no finite sample ordering exists.
    """

    threshold: StochasticThreshold
    metric_value: float
    classification_prefix_index: int | None

    def __post_init__(self) -> None:
        j = self.classification_prefix_index
        if j is not None and j < 0:
            raise ParameterDomainError(f"prefix index {j!r} must be >= 0")


def _key_order(s: np.ndarray, z: np.ndarray) -> np.ndarray | None:
    """Permutation of score-sorted rows (scores s, draws z) into sweep order.

    ``None`` when two ``g - draw`` keys are equal, so the key cannot order them.
    """
    group = np.zeros(s.size, dtype=np.int64)
    np.cumsum(s[1:] != s[:-1], out=group[1:])
    key = group - z  # float64; group < 2^53 converts exactly
    del group
    by_key = np.argsort(key)
    key = key[by_key]
    return None if np.any(key[1:] == key[:-1]) else by_key


def _cells(j: np.ndarray, cum_pos: np.ndarray, n: int, npos: int):
    """Cells (tn, fp, fn, tp) as counts / n of prefixes j holding ``cum_pos`` positives."""
    cum_neg = j - cum_pos
    return cum_neg / n, (n - npos - cum_neg) / n, cum_pos / n, (npos - cum_pos) / n


class SortedSample:
    """A sample's sweep order and its cumulative positive count.

    Rows sort by score ascending, then draw descending, then original
    index — the order of ``np.lexsort((-draws, scores))``.  One unstable
    score argsort numbers the distinct-score groups g = 0, 1, ..., and one
    unstable argsort of the float key ``g - draw`` orders the rows.
    Rounding is monotone and draws lie in [0, 1], so a smaller key means a
    smaller (g, -draw); when no two sorted keys are equal the key order is
    therefore exactly the lexsort order.  Equal keys (equal draws in a
    group, ``0.0`` against ``-0.0``, draws closer than the float spacing
    near g, or draw 0 against the next group's draw 1) fall back to
    ``np.lexsort``.

    ``order`` is that permutation of the input rows.  Labels are gathered
    through it once, for ``cum_pos``; the searches read scores and draws
    through it only at the winning prefix.  ``repeat[i]`` tells that sorted
    row i + 1 has the (score, draw) pair of row i, so that no threshold
    produces prefix i + 1.  Equal pairs have equal keys, so only the lexsort
    fallback can hold one; otherwise ``repeat`` is ``None``.
    """

    def __init__(self, scores: np.ndarray, labels: np.ndarray, draws: np.ndarray):
        order = np.argsort(scores)
        by_key = _key_order(scores[order], draws[order])
        self.repeat = None
        if by_key is None:
            self.order = np.lexsort((-draws, scores))
            s, z = scores[self.order], draws[self.order]
            self.repeat = (s[1:] == s[:-1]) & (z[1:] == z[:-1])
        else:
            # A permutation inside tie groups, composed with the score order.
            self.order = order[by_key]
        self.cum_pos = np.zeros(scores.size + 1, dtype=np.int64)
        np.cumsum(labels[self.order], out=self.cum_pos[1:])

    def cells(self):
        """Confusion cells (tn, fp, fn, tp) of all n + 1 prefixes, as counts / n."""
        n = self.order.size
        return _cells(np.arange(n + 1), self.cum_pos, n, int(self.cum_pos[-1]))


def _prefix_threshold(
    j: int, scores: np.ndarray, draws: np.ndarray, order: np.ndarray
) -> StochasticThreshold:
    """(score, draw) of the last row of prefix j in the sweep order ``order``.

    Prefix 0 (everything labeled 1) maps to t = 0 with p = 1 — p = 0 could
    not re-admit a sample whose score is exactly 0.  No threshold reaches it
    when a row has score 0 and draw 1, so the searches skip it then.
    """
    if j == 0:
        return StochasticThreshold(0.0, 1.0)
    row = order[j - 1]
    return StochasticThreshold(float(scores[row]), float(draws[row]))


def optimize_threshold(samples, spec: CmmSpec) -> ThresholdSearchResult:
    """Exactly maximize the measure over all stochastic thresholds.

    Every sample must carry its stored uniform draw.  Ties in the measure
    break toward the smallest reachable prefix index.  The returned (t, p)
    is the (score, draw) pair of the last excluded sample, and reproduces
    the winning classification.
    """
    scores, labels, draws = as_sample_arrays(samples, require_draws=True)
    sample = SortedSample(scores, labels, draws)
    vals = np.asarray(_cmm_values(spec, *sample.cells()))
    if sample.repeat is not None:
        vals[1:-1][sample.repeat] = -np.inf
    # The sweep order leads with the largest draw among the smallest scores.
    first = sample.order[0]
    skip = int(scores[first] == 0.0 and draws[first] == 1.0)
    best = skip + int(np.argmax(vals[skip:]))
    return ThresholdSearchResult(
        threshold=_prefix_threshold(best, scores, draws, sample.order),
        metric_value=float(vals[best]),
        classification_prefix_index=best,
    )


def brute_force_threshold(samples, spec: CmmSpec) -> ThresholdSearchResult:
    """Quadratic oracle twin of :func:`optimize_threshold`.

    Sorts by its own ``np.lexsort``, materializes each reachable prefix
    labeling and recomputes its confusion matrix from scratch — no
    cumulative counts — then evaluates the measure through the public
    scalar path (n <= 10^4).
    """
    scores, labels, draws = as_sample_arrays(samples, require_draws=True)
    n = scores.size
    if n > 10_000:
        raise ParameterDomainError(
            f"brute-force search is quadratic; n={n} exceeds 10000"
        )
    order = np.lexsort((-draws, scores))
    y = labels[order]
    s, z = scores[order], draws[order]
    best_j = -1
    best_val = -np.inf
    for j in range(int(np.any((scores == 0.0) & (draws == 1.0))), n + 1):
        if 0 < j < n and s[j] == s[j - 1] and z[j] == z[j - 1]:
            continue  # rows j - 1 and j share a (score, draw) pair
        pred = np.ones(n, dtype=np.int64)
        pred[:j] = 0
        tp = int(np.sum((pred == 1) & (y == 1)))
        fp = int(np.sum((pred == 1) & (y == 0)))
        fn = int(np.sum((pred == 0) & (y == 1)))
        tn = int(np.sum((pred == 0) & (y == 0)))
        c = ConfusionMatrix(tn=tn / n, fp=fp / n, fn=fn / n, tp=tp / n)
        val = evaluate_cmm(spec, c)
        if val > best_val:
            best_val = val
            best_j = j
    return ThresholdSearchResult(
        threshold=_prefix_threshold(best_j, scores, draws, order),
        metric_value=best_val,
        classification_prefix_index=best_j,
    )


def optimize_threshold_deterministic(samples, spec: CmmSpec) -> ThresholdSearchResult:
    """Exactly maximize over deterministic thresholds (p = 0) only.

    Candidates are the prefixes realizable by ``score > t`` alone: cuts at
    distinct-score group boundaries, the all-0 labeling, and the all-1
    labeling when every score is positive.  Same tie-breaking as the
    stochastic search; its value can never exceed the stochastic one.
    Draws, when given, are checked but not used.  The cut after distinct
    score u has t = u (a group of ``0.0`` and ``-0.0`` gives t = +0.0); the
    all-1 labeling has t = 0.
    """
    scores, labels, _ = as_sample_arrays(samples)
    u, rows_le, pos_le = _score_cuts(scores, labels)
    offset = int(u[0] > 0.0)  # prefix 0 leads the candidates
    if offset:
        rows_le, pos_le = np.append(0, rows_le), np.append(0, pos_le)
    cells = _cells(rows_le, pos_le, scores.size, int(pos_le[-1]))
    vals = np.asarray(_cmm_values(spec, *cells))
    i = int(np.argmax(vals))
    g = i - offset
    return ThresholdSearchResult(
        threshold=StochasticThreshold(float(u[g]) + 0.0 if g >= 0 else 0.0, 0.0),
        metric_value=float(vals[i]),
        classification_prefix_index=int(rows_le[i]),
    )


def _roots_in_open_unit(poly: np.poly1d) -> np.ndarray:
    """Real roots of odd multiplicity of ``poly`` in (-1, 1), by bisection.

    ``poly`` is monotone between consecutive roots of its derivative, so each
    such interval holds at most one root (Rolle); no eigenvalue solver runs.
    """
    if poly.order < 1:
        return np.empty(0)
    cuts = np.concatenate(([-1.0], _roots_in_open_unit(poly.deriv()), [1.0]))
    lo, hi = cuts[:-1], cuts[1:]
    sign_lo = np.sign(poly(lo))
    keep = sign_lo * np.sign(poly(hi)) < 0.0
    lo, hi, sign_lo = lo[keep], hi[keep], sign_lo[keep]
    for _ in range(64):  # 2 / 2^64 is below any ulp of the mapped threshold
        mid = (lo + hi) / 2.0
        left = np.sign(poly(mid)) != sign_lo
        lo, hi = np.where(left, lo, mid), np.where(left, mid, hi)
    return (lo + hi) / 2.0


def _stationary_points(spec: CmmSpec, cells) -> np.ndarray:
    """Stationary points in (-1, 1) of the measure on cells that are polynomials in u.

    They are the roots of the quotient rule's numerator on ``_cmm_fraction``
    (mcc: ``2 N' P - N P'``), of ``theta tp' tn + tp tn'`` for
    ``tp^theta * tn``, or of a polynomial kind's derivative.
    """
    if spec.kind == "tp_pow_theta_tn":
        tn, tp = cells[0], cells[3]
        return _roots_in_open_unit(spec.param * tp.deriv() * tn + tp * tn.deriv())
    fraction = _cmm_fraction(spec, *cells)
    if fraction is None:
        return _roots_in_open_unit(_cmm_values(spec, *cells).deriv())
    num, den = fraction
    c = 2.0 if spec.kind == "mcc" else 1.0
    return _roots_in_open_unit(c * num.deriv() * den - num * den.deriv())


def optimize_population_threshold(
    eta: RegressionFunctionSpec, spec: CmmSpec
) -> ThresholdSearchResult:
    """Exactly maximize the population measure over (t, p) for a closed-form eta.

    Every candidate named in the module docstring is evaluated on the
    closed-form cells; ties break toward the smallest t, then the smallest p.
    The cells come from three array calls: at the breakpoints, at the
    quarter-points of every interval, and at the candidates.
    """
    values = [eta.atom] if eta.atom is not None else [
        v for pc in eta.pieces for v in (pc.v_lo, pc.v_hi)
    ]
    breaks = np.unique(np.concatenate(([0.0, 1.0], values)))
    base, tie = population_confusion_parts(eta, breaks)
    # Inside (a, b) the cells are quadratic in t = mid + half * u; cells at
    # u = -1/2, 0, 1/2 give the coefficients.
    a, b = breaks[:-1], breaks[1:]
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    f_lo, f_mid, f_hi = np.array(
        population_confusion_parts(eta, mid + half * np.array([[-0.5], [0.0], [0.5]]))[0]
    ).transpose(1, 2, 0)
    quad = np.stack((2.0 * (f_hi + f_lo - 2.0 * f_mid), f_hi - f_lo, f_mid))
    ts, ps = [], []  # by ascending t, then p
    for i, t in enumerate(breaks):
        # On the tie set at t the cells are linear in p = (1 + u) / 2.
        lines = [np.poly1d([s[i] / 2.0, c[i] + s[i] / 2.0]) for c, s in zip(base, tie)]
        p = np.concatenate(([0.0], (1.0 + _stationary_points(spec, lines)) / 2.0, [1.0]))
        ts += [t] * p.size
        ps += list(p)
        if i + 1 == breaks.size:
            break
        quads = [np.poly1d(c) for c in quad[:, i].T]
        stationary_t = np.clip(mid[i] + half[i] * _stationary_points(spec, quads), a[i], b[i])
        inner = (np.nextafter(a[i], b[i]), *stationary_t, np.nextafter(b[i], a[i]))
        ts += inner
        ps += [0.0] * len(inner)
    ts, ps = np.array(ts), np.array(ps)
    base, tie = population_confusion_parts(eta, ts)
    vals = np.asarray(_cmm_values(spec, *(c + ps * s for c, s in zip(base, tie))))
    best = int(np.argmax(vals))
    return ThresholdSearchResult(
        threshold=StochasticThreshold(float(ts[best]), float(ps[best])),
        metric_value=float(vals[best]),
        classification_prefix_index=None,
    )
