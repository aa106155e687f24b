"""Exact threshold search for confusion-matrix measures.

On a finite sample the only classifications a stochastic threshold can
produce are the "prefixes" of the sample sorted by (score ascending, draw
descending): prefix j labels the first j sorted samples 0 and the rest 1.
A prefix that ends between two rows with the same (score, draw) pair is
not one of them, since the rule labels both rows alike; the searches skip
it.
:func:`_sweep_order` is that sort; a cumulative positive count over it
gives the confusion cells of a prefix as integer counts divided by n.  The
stochastic sweep reads every prefix, the deterministic search only the
cuts between distinct scores: O(n log n) and *exactly* optimal, with no
grid.  The sweep order comes from unstable argsorts and a key that is
exact unless two keys collide (then ``np.lexsort`` decides).  The cuts
need no order at all: the counts at each distinct score come from a value
sort (``metrics._score_cuts``), which no order inside a tie group can
change, and :func:`_cut_values` evaluates them for both searches.  A
quadratic brute-force twin sorts on its own and re-materializes every
prefix from scratch, so it is an independent oracle that evaluates
measures on bit-identical cells and must agree exactly.

The corner bound.  Every prefix whose last row lies in the tie group of
distinct score g differs from the cut before the group only in how the
group's rows are labeled.  Labeling the rest of the group's negatives 0
and its positives 1 moves false-positive mass to true negatives and
false-negative mass to true positives, and reaches the group's *corner*:
all of its negatives labeled 0, none of its positives.  Every registered
measure is monotone under that error correction (the measure contract in
:mod:`.metrics`; the float parameters the code uses keep it), so the
corner's exact value bounds every such prefix, the group's last cut
included, and group 0's corner also bounds prefix 0.  From
``_PRUNE_MIN_ROWS`` rows on the sweep therefore evaluates the cuts and,
in one vectorized call, the corners (both from counts, with the sweep's
expression); it sorts only the rows from the first group whose corner
plus ``_CORNER_SLACK`` reaches the best reachable cut value to the last
such group, and evaluates their prefixes.  The group that holds the first
maximum is in that range, so the result is the full sweep's bit for bit,
and the winning (t, p) is read from the winning prefix's actual last row.
On a tie-heavy sample with 1/100 score steps that range holds a fifth to
a quarter of the rows.  Below ``_PRUNE_MIN_ROWS`` rows the extra numpy
calls cost more than the full sort saves, and every group counts as open.

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


#: Rows from which :func:`optimize_threshold` sorts only the open tie groups.
#: The measured per-call crossover on exp1's and exp2's tuning samples lies
#: between 2,154 rows (full sort faster) and 3,594 rows (pruned faster).
_PRUNE_MIN_ROWS = 3_000

#: Above twice the rounding error of any measure value (module docstring).
_CORNER_SLACK = 2.0**-20


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


def _sweep_order(scores: np.ndarray, draws: np.ndarray):
    """(order, repeat): a sample's sweep order and the prefixes no threshold makes.

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

    ``order`` is that permutation of the input rows.  ``repeat[i]`` tells
    that sorted row i + 1 has the (score, draw) pair of row i, so that no
    threshold produces prefix i + 1.  Equal pairs have equal keys, so only
    the lexsort fallback can hold one; otherwise ``repeat`` is ``None``.
    """
    order = np.argsort(scores)
    by_key = _key_order(scores[order], draws[order])
    if by_key is not None:
        # A permutation inside tie groups, composed with the score order.
        return order[by_key], None
    order = np.lexsort((-draws, scores))
    s, z = scores[order], draws[order]
    return order, (s[1:] == s[:-1]) & (z[1:] == z[:-1])


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


def _cut_values(scores: np.ndarray, labels: np.ndarray, spec: CmmSpec):
    """(u, rows, pos, vals) at prefix 0 and at the cut after each distinct score.

    ``u`` is ``_score_cuts``' distinct scores; ``rows`` and ``pos`` hold
    0 for prefix 0 and then the rows and positives at or below each
    ``u[g]``; ``vals`` is the measure there, by the sweep's expression on
    the same integers, so a cut's value has the sweep's bits.
    """
    u, rows_le, pos_le = _score_cuts(scores, labels)
    rows, pos = np.append(0, rows_le), np.append(0, pos_le)
    vals = np.asarray(_cmm_values(spec, *_cells(rows, pos, scores.size, int(pos[-1]))))
    return u, rows, pos, vals


def _open_groups(spec: CmmSpec, rows, pos, best: float) -> np.ndarray:
    """Indices of the tie groups whose corner comes within the slack of ``best``.

    Group g holds sorted rows ``rows[g]`` to ``rows[g + 1]`` (``_cut_values``);
    its corner labels all of its negatives 0 and all of its positives 1.  A
    one-row group has no prefix inside it, but it opens too when its corner
    (its last cut if the row is negative, else the cut before it) reaches
    ``best``, because the winning row is read from the sorted rows.
    """
    n, npos = int(rows[-1]), int(pos[-1])
    corner_j = rows[1:] - (pos[1:] - pos[:-1])
    corner = np.asarray(_cmm_values(spec, *_cells(corner_j, pos[:-1], n, npos)))
    return np.flatnonzero(corner + _CORNER_SLACK >= best)


def optimize_threshold(samples, spec: CmmSpec) -> ThresholdSearchResult:
    """Exactly maximize the measure over all stochastic thresholds.

    Every sample must carry its stored uniform draw.  Ties in the measure
    break toward the smallest reachable prefix index.  The returned (t, p)
    is the (score, draw) pair of the last excluded sample, and reproduces
    the winning classification.  Only the rows of the open tie groups
    named in the module docstring are sorted, and below
    ``_PRUNE_MIN_ROWS`` rows every group counts as open; the result is the
    same bit for bit.
    """
    scores, labels, draws = as_sample_arrays(samples, require_draws=True)
    n = scores.size
    # The input rows of the sorted run between prefixes lo and hi, and the
    # positives before it.
    run, lo, hi, pos_lo, npos = slice(None), 0, n, 0, None
    if n >= _PRUNE_MIN_ROWS:
        u, rows, pos, vals = _cut_values(scores, labels, spec)
        if u[0] == 0.0 and np.any(draws[scores == 0.0] == 1.0):
            vals[0] = -np.inf  # no threshold reaches prefix 0
        # Each group's corner bounds its last cut and group 0's bounds prefix 0,
        # so the group ending at the best cut (group 0 for prefix 0) is open,
        # and every cut of a closed group lies below the best one.
        open_groups = _open_groups(spec, rows, pos, vals.max())
        first, last = open_groups[0], open_groups[-1]
        lo, hi, pos_lo = int(rows[first]), int(rows[last + 1]), int(pos[first])
        npos = int(pos[-1])
        # The rows of groups first..last, in row order, so that their sweep
        # order is the full one's between prefixes lo and hi.
        run = np.flatnonzero((scores >= u[first]) & (scores <= u[last]))
    order, repeat = _sweep_order(scores[run], draws[run])
    if hi - lo < n:  # else the run is every row, in row order
        order = run[order]
    # Labels are gathered through the order once; scores and draws only at
    # the winning prefix.
    cum_pos = np.zeros(hi - lo + 1, dtype=np.int64)
    np.cumsum(labels[order], out=cum_pos[1:])
    if pos_lo:
        cum_pos += pos_lo
    npos = int(cum_pos[-1]) if npos is None else npos
    vals = np.asarray(_cmm_values(spec, *_cells(np.arange(lo, hi + 1), cum_pos, n, npos)))
    if repeat is not None:
        vals[1:-1][repeat] = -np.inf
    # The sweep order leads with the largest draw among the smallest scores,
    # and only a run that starts at prefix 0 holds a score of 0.
    if scores[order[0]] == 0.0 and draws[order[0]] == 1.0:
        vals[0] = -np.inf  # no threshold reaches prefix 0
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
    u, rows, _, vals = _cut_values(scores, labels, spec)
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
