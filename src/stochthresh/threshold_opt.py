"""Exact threshold search for confusion-matrix measures.

On a finite sample the only classifications a stochastic threshold can
produce are the "prefixes" of the sample sorted by (score ascending, draw
descending): prefix j labels the first j sorted samples 0 and the rest 1.
:class:`SortedSample` is that sort plus the cumulative positive count, and
gives the confusion cells at any prefix indices as integer counts divided
by n.  The stochastic sweep reads all n + 1 prefixes, the deterministic
search only the cuts between distinct scores: O(n log n) and *exactly*
optimal, with no grid.  A quadratic brute-force twin sorts on its own and
re-materializes every prefix from scratch, so it is an independent oracle
that evaluates measures on bit-identical cells and must agree exactly.
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
from .metrics import CmmSpec, ConfusionMatrix, _cmm_values, evaluate_cmm

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


class SortedSample:
    """A sample in sweep order with its cumulative positive count.

    Rows sort by score ascending, then draw descending, then original index
    — the order of ``np.lexsort((-draws, scores))`` — by two stable
    argsorts; a packed (score, draw) key could not separate draws closer
    than an ulp.  Without draws the order is one stable argsort by score.
    """

    def __init__(self, scores: np.ndarray, labels: np.ndarray, draws=None):
        if draws is None:
            order = np.argsort(scores, kind="stable")
        else:
            by_draw = np.argsort(-draws, kind="stable")
            order = by_draw[np.argsort(scores[by_draw], kind="stable")]
        self.scores = scores[order]
        self.draws = None if draws is None else draws[order]
        self.cum_pos = np.zeros(scores.size + 1, dtype=np.int64)
        np.cumsum(labels[order], out=self.cum_pos[1:])

    def cells(self, j: np.ndarray):
        """Confusion cells (tn, fp, fn, tp) at prefix indices j, as counts / n."""
        n = self.scores.size
        npos = int(self.cum_pos[-1])
        cum_pos = self.cum_pos[j]
        cum_neg = j - cum_pos
        return cum_neg / n, (n - npos - cum_neg) / n, cum_pos / n, (npos - cum_pos) / n

    def deterministic_candidates(self) -> np.ndarray:
        """Prefixes ``score > t`` alone realizes: 0 if every score is positive,
        each cut between distinct scores, and n (everything labeled 0).
        """
        s = self.scores
        return np.flatnonzero(np.concatenate(([s[0] > 0.0], s[1:] != s[:-1], [True])))


def _prefix_threshold(
    j: int, s: np.ndarray, z: np.ndarray | None
) -> StochasticThreshold:
    """Threshold reproducing prefix j on the sorted scores s and draws z.

    Prefix 0 (everything labeled 1) maps to t = 0 with p = 1 in the
    stochastic search — p = 0 could not re-admit a sample whose score is
    exactly 0 — and to (0, 0) in the deterministic search (``z`` is None),
    which only offers prefix 0 when all scores are positive.
    """
    if j == 0:
        return StochasticThreshold(0.0, 0.0 if z is None else 1.0)
    return StochasticThreshold(float(s[j - 1]), 0.0 if z is None else float(z[j - 1]))


def optimize_threshold(samples, spec: CmmSpec) -> ThresholdSearchResult:
    """Exactly maximize the measure over all stochastic thresholds.

    Every sample must carry its stored uniform draw.  Ties in the measure
    break toward the smallest prefix index.  The returned (t, p) is the
    (score, draw) pair of the last excluded sample, and reproduces the
    winning classification whenever no other sample shares that exact
    (score, draw) pair.
    """
    sample = SortedSample(*as_sample_arrays(samples, require_draws=True))
    cells = sample.cells(np.arange(sample.scores.size + 1))
    vals = np.asarray(_cmm_values(spec, *cells))
    best = int(np.argmax(vals))
    return ThresholdSearchResult(
        threshold=_prefix_threshold(best, sample.scores, sample.draws),
        metric_value=float(vals[best]),
        classification_prefix_index=best,
    )


def brute_force_threshold(samples, spec: CmmSpec) -> ThresholdSearchResult:
    """Quadratic oracle twin of :func:`optimize_threshold`.

    Sorts by its own ``np.lexsort``, materializes each prefix labeling and
    recomputes its confusion matrix from scratch — no cumulative counts —
    then evaluates the measure through the public scalar path (n <= 10^4).
    """
    scores, labels, draws = as_sample_arrays(samples, require_draws=True)
    n = scores.size
    if n > 10_000:
        raise ParameterDomainError(
            f"brute-force search is quadratic; n={n} exceeds 10000"
        )
    order = np.lexsort((-draws, scores))
    s, y, z = scores[order], labels[order], draws[order]
    best_j = -1
    best_val = -np.inf
    for j in range(n + 1):
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
        threshold=_prefix_threshold(best_j, s, z),
        metric_value=best_val,
        classification_prefix_index=best_j,
    )


def optimize_threshold_deterministic(samples, spec: CmmSpec) -> ThresholdSearchResult:
    """Exactly maximize over deterministic thresholds (p = 0) only.

    Candidates are the prefixes realizable by ``score > t`` alone: cuts at
    distinct-score group boundaries, the all-0 labeling, and the all-1
    labeling when every score is positive.  Same tie-breaking as the
    stochastic search; its value can never exceed the stochastic one.
    Draws, when given, are checked but not sorted on: the order inside a
    tie group cannot change the cells at a group boundary.
    """
    sample = SortedSample(*as_sample_arrays(samples)[:2])
    cand = sample.deterministic_candidates()
    vals = np.asarray(_cmm_values(spec, *sample.cells(cand)))
    i = int(np.argmax(vals))
    best = int(cand[i])
    return ThresholdSearchResult(
        threshold=_prefix_threshold(best, sample.scores, None),
        metric_value=float(vals[i]),
        classification_prefix_index=best,
    )


def _golden_section_max(fun, lo: float, hi: float, iters: int = 80):
    """Golden-section maximization of a unimodal scalar function."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    x = c if fc >= fd else d
    return x, max(fc, fd)


def optimize_population_threshold(
    eta: RegressionFunctionSpec,
    spec: CmmSpec,
    grid_t: int = 401,
    grid_p: int = 401,
) -> ThresholdSearchResult:
    """Maximize the population measure over (t, p) for a closed-form eta.

    Grid search over t and p, with the function's exact atom/plateau values
    injected into the t-candidates so tie-dependent optima are hit exactly,
    then one golden-section refinement pass in p at the best t.  Population
    cells come from closed-form integration, not sampling.
    """
    if grid_t < 2 or grid_p < 2:
        raise ParameterDomainError("population search grids need >= 2 points")
    extra_t: list[float] = []
    if eta.atom is not None:
        extra_t.append(float(eta.atom))
    for pc in eta.pieces:
        extra_t.extend((float(pc.v_lo), float(pc.v_hi)))
    t_cand = np.unique(np.concatenate((np.linspace(0.0, 1.0, grid_t), extra_t)))
    p_grid = np.linspace(0.0, 1.0, grid_p)

    best_t = best_p = 0.0
    best_val = -np.inf
    best_parts = None
    for t in t_cand:
        base, tie = population_confusion_parts(eta, float(t))
        tn = base[0] + p_grid * tie[0]
        fp = base[1] + p_grid * tie[1]
        fn = base[2] + p_grid * tie[2]
        tp = base[3] + p_grid * tie[3]
        vals = np.asarray(_cmm_values(spec, tn, fp, fn, tp))
        k = int(np.argmax(vals))
        if float(vals[k]) > best_val:
            best_val = float(vals[k])
            best_t = float(t)
            best_p = float(p_grid[k])
            best_parts = (base, tie)

    base, tie = best_parts
    if any(tie):

        def measure_at_p(p: float) -> float:
            cells = tuple(b + p * s for b, s in zip(base, tie))
            return float(_cmm_values(spec, *cells))

        h = 1.0 / (grid_p - 1)
        lo = max(0.0, best_p - h)
        hi = min(1.0, best_p + h)
        p_ref, val_ref = _golden_section_max(measure_at_p, lo, hi)
        if val_ref > best_val:
            best_val = val_ref
            best_p = float(p_ref)

    return ThresholdSearchResult(
        threshold=StochasticThreshold(best_t, best_p),
        metric_value=best_val,
        classification_prefix_index=None,
    )
