"""Exact threshold search for confusion-matrix measures.

On a finite sample the only classifications a stochastic threshold can
produce are the "prefixes" of the sample sorted by (score ascending, draw
descending): prefix j labels the first j sorted samples 0 and the rest 1.
A prefix that ends between two rows with the same (score, draw) pair is
not one of them, since the rule labels both rows alike; the searches skip
it.
:func:`_sweep_order` is that sort; a cumulative positive count over it
gives the confusion cells of a prefix as integer counts divided by n.  The
stochastic sweep reads the prefixes of the tie groups that can hold the
optimum (the corner bound below), the deterministic search only the cuts
between distinct scores: O(n log n) and *exactly* optimal, with no grid.
The cuts need no order at all: the counts at each distinct score come
from a value sort (``metrics._score_cuts``), which no order inside a tie
group can change, and both searches read them.  The sweep order numbers
the rows by the distinct scores found there and sorts the float key
``2g - draw`` once; it is exact unless two keys collide (then
``np.lexsort`` decides).  A quadratic brute-force twin sorts on its own
and re-materializes every prefix from scratch, so it is an independent
oracle that evaluates measures on bit-identical cells and must agree
exactly.

The corner bound.  Every prefix whose last row lies in the tie group of
distinct score g differs from the cut before the group only in how the
group's rows are labeled.  Labeling the rest of the group's negatives 0
and its positives 1 moves false-positive mass to true negatives and
false-negative mass to true positives, and reaches the group's *corner*:
all of its negatives labeled 0, none of its positives.  Every registered
measure is monotone under that error correction (the measure contract in
:mod:`.metrics`; the float parameters the code uses keep it), so the
corner's exact value bounds every such prefix, the group's last cut
included, and group 0's corner also bounds prefix 0.  The sweep therefore
evaluates prefix 0, the cuts and the corners (from counts, with the sweep's
expression, in one vectorized call); it sorts only the rows from the first
group whose corner plus ``_CORNER_SLACK`` reaches the best reachable cut
value to the last such group, and evaluates their prefixes.  The group
that holds the first maximum is in that range, so the result is the one a
sweep over every prefix gives, bit for bit, and the winning (t, p) is read
from the winning prefix's actual last row.  On a tie-heavy sample with
1/100 score steps that range holds a fifth to a quarter of the rows.

The slack.  Let u = 2^-53.  Each cell count / n is within relative u of
its exact value, and every measure value lies in [-1, 1].  Accuracy,
weighted accuracy and tp_tn_product add at most 3 roundings, so a float
value is within E <= 4u of the exact value of the same counts; precision,
recall and f_beta (sums of nonnegative terms, one division) within 8u.
For mcc the numerator tp tn - fp fn cancels: its error is at most
4u (tp tn + fp fn) <= 4u (tp + fp)(tn + fn), and the denominator
sqrt((tp + fp)(tn + fn) P N) amplifies it by at most 1 / (2 sqrt(P N))
<= sqrt(n) with P, N >= 1 / n (else the value is exactly 0), so
E <= (4 sqrt(n) + 8) u.  For tp^theta tn the relative error u of tp grows
to theta u and tp^theta theta <= 1 / (e ln(1 / tp)) <= n, since tp is
exactly 1 or at most 1 - 1 / n; with pow's own rounding E <= (n + 4) u.
A prefix beats its corner in floats by at most 2E, and 2 (n + 4) u is
below ``_CORNER_SLACK`` = 2^-20 for every n < 2^31; a sample that large
holds 48 GiB of input arrays.

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


#: Above twice the rounding error of any measure value (module docstring).
_CORNER_SLACK = 2.0**-20


def _values(spec: CmmSpec, j: np.ndarray, cum_pos: np.ndarray, n: int, npos: int):
    """The measure at prefixes j holding ``cum_pos`` positives, with cells as counts / n."""
    cum_neg = j - cum_pos
    cells = cum_neg / n, (n - npos - cum_neg) / n, cum_pos / n, (npos - cum_pos) / n
    return np.asarray(_cmm_values(spec, *cells))


def _sweep_order(g: np.ndarray, draws: np.ndarray):
    """(order, repeat): a run's sweep order and the prefixes no threshold makes.

    ``g`` numbers each row's score among the run's distinct scores, which
    ``metrics._score_cuts`` found, so ``0.0`` and ``-0.0`` share a number.
    Rows sort by g ascending, then draw descending, then original index —
    the order of ``np.lexsort((-draws, g))``, which is that of
    ``np.lexsort((-draws, scores))``.  One unstable argsort of the float
    key ``2g - draw`` orders the rows.  Rounding is monotone and draws lie
    in [0, 1], so a smaller key means a smaller (g, -draw); when no two
    sorted keys are equal the key order is therefore exactly the lexsort
    order.  Equal keys (equal draws in a group, ``0.0`` against ``-0.0``,
    or draws closer than the float spacing near 2g) fall back to
    ``np.lexsort``.

    ``order`` is that permutation of the input rows.  ``repeat[i]`` tells
    that sorted row i + 1 has the (g, draw) pair of row i, so that no
    threshold produces prefix i + 1.  Equal pairs have equal keys, so only
    the lexsort fallback can hold one; otherwise ``repeat`` is ``None``.
    """
    key = 2 * g - draws  # float64; 2g < 2^53 converts exactly
    order = np.argsort(key)
    key = key[order]
    if not np.any(key[1:] == key[:-1]):
        return order, None
    order = np.lexsort((-draws, g))
    g, z = g[order], draws[order]
    return order, (g[1:] == g[:-1]) & (z[1:] == z[:-1])


def _prefix_threshold(
    j: int, scores: np.ndarray, draws: np.ndarray, order: np.ndarray
) -> StochasticThreshold:
    """(score, draw) of the last row of prefix j in the sweep order ``order``.

    Prefix 0 (everything labeled 1) maps to t = 0 with p = 1 — p = 0 could
    not re-admit a sample whose score is exactly 0.  No threshold reaches it
    when a row has score 0 and draw 1, so the searches skip it then.  A
    score or draw of ``-0.0`` is reported as ``+0.0``.
    """
    if j == 0:
        return StochasticThreshold(0.0, 1.0)
    row = order[j - 1]
    return StochasticThreshold(float(scores[row]) + 0.0, float(draws[row]) + 0.0)


def _open_groups(spec: CmmSpec, rows, pos, reach0: bool) -> np.ndarray:
    """Indices of the tie groups whose corner comes within the slack of the best cut.

    ``rows`` and ``pos`` are ``_score_cuts``' counts at prefix 0 and at
    each cut.  Prefix 0 (only when ``reach0``), the cuts and the corners
    are evaluated in one call, by the sweep's expression, so a cut's value
    has the sweep's bits.  Group g's corner labels all of its negatives 0
    and all of its positives 1.  Each corner bounds its group's last cut
    and group 0's bounds prefix 0, so the group ending at the best cut
    (group 0 for prefix 0) is open, and every cut of a closed group lies
    below the best one.  A one-row group has no prefix inside it, but it
    opens too when its corner reaches the best cut, because the winning
    row is read from the sorted rows.
    """
    m, n, npos = rows.size, int(rows[-1]), int(pos[-1])
    corner_j = rows[1:] - (pos[1:] - pos[:-1])
    j, cum_pos = np.concatenate((rows, corner_j)), np.concatenate((pos, pos[:-1]))
    vals = _values(spec, j, cum_pos, n, npos)
    cuts, corners = vals[:m], vals[m:]
    if not reach0:
        cuts[0] = -np.inf
    return np.flatnonzero(corners + _CORNER_SLACK >= cuts.max())


def optimize_threshold(samples, spec: CmmSpec) -> ThresholdSearchResult:
    """Exactly maximize the measure over all stochastic thresholds.

    Every sample must carry its stored uniform draw.  Ties in the measure
    break toward the smallest reachable prefix index.  The returned (t, p)
    is the (score, draw) pair of the last excluded sample, and reproduces
    the winning classification.  Only the rows of the open tie groups
    named in the module docstring are sorted.
    """
    scores, labels, draws = as_sample_arrays(samples, require_draws=True)
    u, rows, pos = _score_cuts(scores, labels)
    n, npos = scores.size, int(pos[-1])
    # No threshold reaches prefix 0 when a row has score 0 and draw 1.
    reach0 = not (u[0] == 0.0 and np.any(draws[scores == 0.0] == 1.0))
    open_groups = _open_groups(spec, rows, pos, reach0)
    first, last = open_groups[0], open_groups[-1]
    lo, hi = int(rows[first]), int(rows[last + 1])
    # The rows of groups first..last, in row order, so that their sweep
    # order is the full one's between prefixes lo and hi.
    run = np.flatnonzero((scores >= u[first]) & (scores <= u[last]))
    g = np.searchsorted(u[first : last + 1], scores[run])
    order, repeat = _sweep_order(g, draws[run])
    order = run[order]
    # Labels are gathered through the order once; scores and draws only at
    # the winning prefix.
    cum_pos = np.zeros(hi - lo + 1, dtype=np.int64)
    np.cumsum(labels[order], out=cum_pos[1:])
    cum_pos += pos[first]
    vals = _values(spec, np.arange(lo, hi + 1), cum_pos, n, npos)
    if repeat is not None:
        vals[1:-1][repeat] = -np.inf
    if lo == 0 and not reach0:
        vals[0] = -np.inf
    k = int(np.argmax(vals))
    return ThresholdSearchResult(
        threshold=_prefix_threshold(k, scores, draws, order),
        metric_value=float(vals[k]),
        classification_prefix_index=lo + k,
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
    u, rows, pos = _score_cuts(scores, labels)
    vals = _values(spec, rows, pos, scores.size, int(pos[-1]))
    if not u[0] > 0.0:  # prefix 0 needs every score above t = 0
        vals[0] = -np.inf
    i = int(np.argmax(vals))
    return ThresholdSearchResult(
        threshold=StochasticThreshold(float(u[i - 1]) if i else 0.0, 0.0),
        metric_value=float(vals[i]),
        classification_prefix_index=int(rows[i]),
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
    values = [v for pc in eta._pieces_or_atom() for v in (pc.v_lo, pc.v_hi)]
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
