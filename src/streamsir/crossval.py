"""Bandwidth-exponent selection by one-pass predictive cross-validation.

For a candidate exponent alpha the stream is replayed once: just before
each post-warm-up observation is absorbed, the current fit predicts its
response, and the squared prediction errors accumulate.  Predictions with
no kernel support (always the very first streamed observation, whose log
is empty) are skipped and counted; a grid point whose skip fraction
exceeds 5 percent is flagged because its score then averages over
noticeably fewer terms than its neighbours.

The logged projections u_k = theta_{k-1}' x_k do not depend on the
exponent, so the direction path runs once and every candidate replays only
the kernel sums over the fixed (k, u_k, y_k), a block of queries at a
time, then scores every query in one vectorized pass.  The sums come from
linkreg.window_sums, the rule evaluate uses, and the squared errors add up
in arrival order, so a score has the bits of evaluate then push over
direction_path's projections, and matches predict_next then stream_step
within 1e-12 (bit for bit where direction_path steps the recursion).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .engine import DirectionPath, _warmup_length, direction_path
from .errors import InsufficientDataError
from .kernels import BandwidthSchedule, KernelSpec, epanechnikov
from .linkreg import window_sums
from .moments import Slicer
from .simulate import Sample

# Not called here: the per-layer tracer (perfbench/tracing.py) patches these
# names by module attribute, so they stay importable.
from .engine import init_stream, predict_next, stream_step  # noqa: F401

SKIP_FLAG_FRACTION = 0.05

# Queries per block in _replay: each (block, n) temporary stays near 256 KB
# at n = 2000.
_QUERY_BLOCK = 16
# _BEFORE[r, c]: query i + r of a block sees block entry i + c (c < r).
_BEFORE = np.tri(_QUERY_BLOCK, k=-1, dtype=bool)


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


def _path(sample: Sample, slicer: Slicer | None, warmup: int | None) -> DirectionPath:
    """The one direction pass every candidate exponent shares."""
    n0 = _warmup_length(sample, warmup)
    if sample.n <= n0:
        raise InsufficientDataError(
            f"sample has {sample.n} rows but scoring needs more than the warm-up ({n0})"
        )
    boundary = slicer.boundary if slicer is not None else None
    return direction_path(sample, warmup=n0, boundary=boundary)


def _replay(
    path: DirectionPath, alpha: float, kernel: KernelSpec | None = None
) -> tuple[float, int, int]:
    """Score one exponent over the path's projections; returns (score, skipped, counted).

    Each streamed response is predicted from the entries before it, exactly
    as evaluate then push compute it.  A block of queries [i, b) shares one
    difference matrix against u[:b], masked to each query's supported
    predecessors, and linkreg.window_sums takes every query's sums.  A zero
    denominator is skipped, as evaluate refuses it; np.add.accumulate adds
    the other squared errors in arrival order, with a running sum's bits.
    """
    if kernel is None:
        kernel = epanechnikov()
    u, y = path.projections, path.responses
    n = u.size
    first = path.warmup_n + 1
    h = BandwidthSchedule(alpha=alpha).h(np.arange(first, first + n, dtype=np.int64))
    reach = kernel.support_radius * h
    num = np.empty(n)
    den = np.empty(n)
    for i in range(0, n, _QUERY_BLOCK):
        b = min(i + _QUERY_BLOCK, n)
        d = u[i:b, None] - u[None, :b]
        inside = np.abs(d) <= reach[:b]
        inside[:, i:] &= _BEFORE[: b - i, : b - i]
        num[i:b], den[i:b], _ = window_sums(kernel, d, inside, h[:b], y[:b])
    ok = den > 0.0
    err = y[ok] - num[ok] / den[ok]
    counted = int(np.count_nonzero(ok))
    score = float(np.add.accumulate(err * err)[-1]) if counted else 0.0
    return score, n - counted, counted


def cv_score(
    sample: Sample,
    alpha: float,
    slicer: Slicer | None = None,
    warmup: int | None = None,
    kernel: KernelSpec | None = None,
) -> tuple[float, int]:
    """Predictive squared-error score of one exponent on one sample.

    Returns (score, skipped): the accumulated squared error over supported
    predictions, and the number of post-warm-up observations whose
    prediction had no kernel support and therefore did not enter the score.
    """
    score, skipped, _ = _replay(_path(sample, slicer, warmup), alpha, kernel)
    return score, skipped


def select_alpha(
    sample: Sample,
    grid: np.ndarray | list[float],
    slicer: Slicer | None = None,
    warmup: int | None = None,
    kernel: KernelSpec | None = None,
) -> CvReport:
    """Score every candidate exponent and select the minimizer.

    Ties break toward the smaller alpha value, and among equal values
    toward the earlier grid position, so the selection never depends on
    evaluation order.  Scoring runs in this process: one direction pass,
    then the blocked kernel replay of each candidate.

    Raises:
        ValueError: empty grid or a candidate outside (0, 1).
    """
    cand = [float(a) for a in np.asarray(grid, dtype=np.float64).ravel()]
    if not cand:
        raise ValueError("exponent grid must be non-empty")
    for a in cand:
        if not (0.0 < a < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {a!r}")

    path = _path(sample, slicer, warmup)
    results = [_replay(path, a, kernel) for a in cand]

    scores, skipped, counted = zip(*results)
    streamed = [s + c for s, c in zip(skipped, counted)]
    flagged = tuple(
        (s / t if t > 0 else 1.0) > SKIP_FLAG_FRACTION for s, t in zip(skipped, streamed)
    )
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
