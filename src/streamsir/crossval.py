"""Bandwidth-exponent selection by one-pass predictive cross-validation.

For a candidate exponent alpha the stream is replayed once: just before
each post-warm-up observation is absorbed, the current fit predicts its
response, and the squared prediction errors accumulate.  Predictions with
no kernel support (always the very first streamed observation, whose log
is empty) are skipped and counted; a grid point whose skip fraction
exceeds 5 percent is flagged because its score then averages over
noticeably fewer terms than its neighbours.

select_alpha is the one entry point: the score and skip count of a
single exponent are .scores[0] and .skipped[0] of select_alpha(sample,
[alpha]).  A sample needs at least one row past the warm-up.

The logged projections u_k = theta_{k-1}' x_k do not depend on the
exponent, so the direction path runs once and one replay scores the whole
grid over the fixed (k, u_k, y_k).  It searches the candidate (query,
entry) pairs once, for the widest exponent's windows, and lists them
entry-major, so each query's pairs come in arrival order; each exponent
keeps the pairs inside its own windows and takes their sums with
linkreg._pair_sums, the rule evaluate uses.  The squared errors add up in
arrival order, so a score has the bits of evaluate then push over
direction_path's projections, and matches predict_next then stream_step
within 1e-12 (bit for bit where direction_path steps the recursion).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .engine import DirectionPath, default_warmup, direction_path
from .errors import InsufficientDataError
from .kernels import BandwidthSchedule, KernelSpec, epanechnikov
from .linkreg import _pair_sums
from .simulate import Sample

# Not called here: the per-layer tracer (perfbench/tracing.py) patches these
# names by module attribute, so they stay importable.
from .engine import init_stream, predict_next, stream_step  # noqa: F401

SKIP_FLAG_FRACTION = 0.05

# A chunk of _replay takes _REPLAY_CELLS // n queries, so its candidate pairs
# and their temporaries stay near 2 MB (32 queries at n = 2000).  It takes at
# least _MIN_QUERIES: each chunk searches all earlier entries and makes a few
# dozen numpy calls per exponent, which would outweigh tiny chunks' pairs.
_REPLAY_CELLS = 1 << 16
_MIN_QUERIES = 16
# Slack on the widest reach, in units of |u_j| + reach.  It covers the
# rounding of u_j - reach, of u_j + reach and of u_q - u_j (a unit roundoff
# or two each) with room to spare, so the search keeps every pair the exact
# test keeps, even where |u| is much larger than the reach.
_SLACK = 8 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class CvReport:
    """Cross-validation scores over an exponent grid.

    Attributes:
        grid: candidate exponents, in the order supplied.
        scores: accumulated squared prediction error per candidate.
        skipped: per candidate, predictions without kernel support.
        counted: per candidate, predictions that entered the score.
        flagged: per candidate, True when the skip fraction exceeds 5%.
        argmin_index: index into grid of the selected candidate.
        argmin_alpha: the selected exponent.
        n: total observations in the replayed sample.
        warmup_n: observations consumed by the warm-up.
    """

    grid: tuple[float, ...]
    scores: tuple[float, ...]
    skipped: tuple[int, ...]
    counted: tuple[int, ...]
    flagged: tuple[bool, ...]
    argmin_index: int
    argmin_alpha: float
    n: int
    warmup_n: int

    def to_dict(self) -> dict[str, Any]:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


def _candidates(u: np.ndarray, reach: np.ndarray, a: int, b: int) -> tuple[np.ndarray, ...]:
    """Pairs of a query q in [a, b) and an entry j < q within reach_j of it.

    A pair has u_j - reach_j <= u_q <= u_j + reach_j, with both edges
    rounded.  Returns (j, q - a, u_q - u_j), listed entry-major: sorted by
    j, so each query's pairs come in arrival order.  The chunk's u is sorted
    once, and two np.searchsorted calls give each entry's run of queries.
    """
    order = np.argsort(u[a:b])
    lo = np.searchsorted(u[a:b][order], u[: b - 1] - reach[: b - 1], "left")
    hi = np.searchsorted(u[a:b][order], u[: b - 1] + reach[: b - 1], "right")
    reps = hi - lo
    j = np.repeat(np.arange(b - 1), reps)
    q = order[np.arange(j.size) + np.repeat(lo - np.cumsum(reps) + reps, reps)]
    causal = np.flatnonzero(j < a + q)
    j, q = j.take(causal), q.take(causal)
    return j, q, u[a:b].take(q) - u.take(j)


def _replay(
    path: DirectionPath, grid: np.ndarray | list[float], kernel: KernelSpec | None = None
) -> list[tuple[float, int, int]]:
    """Score every exponent of grid over the path's projections.

    Returns one (score, skipped, counted) per grid entry, in grid order.
    Each streamed response is predicted from the entries before it, exactly
    as evaluate then push compute it.  The queries go in chunks of
    consecutive arrivals; _candidates lists each chunk's (query, entry)
    pairs within the widest exponent's reach, plus _SLACK, entry-major.
    Each distinct exponent, smallest first, keeps the pairs that pass its
    exact test |u_q - u_j| <= R h_j.  Its windows lie inside the previous
    exponent's, so it filters that exponent's pairs rather than the whole
    candidate list.  linkreg._pair_sums takes every query's sums from the
    kept pairs.  A zero denominator is skipped, as evaluate refuses it;
    np.add.accumulate adds the other squared errors in arrival order, with
    a running sum's bits.
    """
    if kernel is None:
        kernel = epanechnikov()
    u, y = path.projections, path.responses
    n = u.size
    k = np.arange(path.warmup_n + 1, path.warmup_n + 1 + n, dtype=np.int64)
    alphas, where = np.unique(np.asarray(grid, dtype=np.float64), return_inverse=True)
    h = np.stack([BandwidthSchedule(alpha=float(a)).h(k) for a in alphas])
    # Rounding in the power could, in principle, let a larger exponent's
    # window poke out of a smaller one's; such a level searches the chunk's
    # candidates again instead of filtering the previous level's pairs.
    nested = np.r_[False, np.all(h[1:] <= h[:-1], axis=1)]
    radius = kernel.support_radius
    reach = radius * h.max(axis=0)
    reach += (np.abs(u) + reach) * _SLACK
    num, den = np.empty_like(h), np.empty_like(h)
    step = max(_MIN_QUERIES, _REPLAY_CELLS // n)
    for a in range(0, n, step):
        b = min(a + step, n)
        for level, hl in enumerate(h):
            if not nested[level]:
                j, q, d = _candidates(u, reach, a, b)
            hs = hl.take(j)
            # Indices then take: twice as fast as four boolean-mask copies.
            inside = np.flatnonzero(np.abs(d) <= (hs if radius == 1.0 else radius * hs))
            j, q, d, hs = (x.take(inside) for x in (j, q, d, hs))
            num[level, a:b], den[level, a:b], _ = _pair_sums(kernel, q, d, hs, y.take(j), b - a)
    results = []
    for level_num, level_den in zip(num, den):
        ok = level_den > 0.0
        err = y[ok] - level_num[ok] / level_den[ok]
        counted = int(np.count_nonzero(ok))
        score = float(np.add.accumulate(err * err)[-1]) if counted else 0.0
        results.append((score, n - counted, counted))
    return [results[i] for i in where]


def select_alpha(
    sample: Sample,
    grid: np.ndarray | list[float],
    boundary: float | None = None,
    warmup: int | None = None,
    kernel: KernelSpec | None = None,
) -> CvReport:
    """Score every candidate exponent and select the minimizer.

    Ties break toward the smaller alpha value, and among equal values
    toward the earlier grid position, so the selection never depends on
    evaluation order.  Scoring runs in this process: one direction pass,
    then one kernel replay that scores every candidate.  boundary and warmup
    go to direction_path; None means the warm-up's median response and
    max(2 p, 30) rows.

    Raises:
        ValueError: empty grid or a candidate outside (0, 1).
        InsufficientDataError: the sample has no rows past the warm-up.
    """
    cand = [float(a) for a in np.asarray(grid, dtype=np.float64).ravel()]
    if not cand:
        raise ValueError("exponent grid must be non-empty")
    for a in cand:
        BandwidthSchedule(alpha=a)
    n0 = default_warmup(sample.p) if warmup is None else int(warmup)
    if sample.n <= n0:
        raise InsufficientDataError(
            f"sample has {sample.n} rows but scoring needs more than the warm-up ({n0})"
        )

    path = direction_path(sample, warmup=n0, boundary=boundary)
    results = _replay(path, cand, kernel)

    scores, skipped, counted = zip(*results)
    # skipped + counted is the streamed count, at least 1 past the warm-up.
    flagged = tuple(s / (s + c) > SKIP_FLAG_FRACTION for s, c in zip(skipped, counted))
    best = min(range(len(cand)), key=lambda i: (scores[i], cand[i], i))
    return CvReport(
        grid=tuple(cand),
        scores=scores,
        skipped=skipped,
        counted=counted,
        flagged=flagged,
        argmin_index=best,
        argmin_alpha=cand[best],
        n=sample.n,
        warmup_n=path.warmup_n,
    )
