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
the kernel log over the fixed (k, u_k, y_k).  Candidate replays are
independent, so they can run in a process pool; the report is assembled in
grid order either way and is identical for serial and parallel runs.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from .engine import DirectionPath, _warmup_length, direction_path
from .errors import InsufficientDataError, NoSupportError
from .kernels import BandwidthSchedule, KernelSpec, epanechnikov
from .linkreg import ProjectionLog, evaluate
from .moments import Slicer
from .simulate import Sample

# Not called here: the per-layer tracer (perfbench/tracing.py) patches these
# names by module attribute, so they stay importable.
from .engine import init_stream, predict_next, stream_step  # noqa: F401

SKIP_FLAG_FRACTION = 0.05


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
        return {
            "grid": list(self.grid),
            "scores": list(self.scores),
            "skipped": list(self.skipped),
            "counted": list(self.counted),
            "flagged": list(self.flagged),
            "argmin_index": self.argmin_index,
            "argmin_alpha": self.argmin_alpha,
            "n": self.n,
            "warmup_n": self.warmup_n,
        }


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

    Each streamed response is predicted from the log of the entries before
    it, then pushed: exactly what predict_next then stream_step compute.
    """
    if kernel is None:
        kernel = epanechnikov()
    log = ProjectionLog(kernel, BandwidthSchedule(alpha=alpha), first_index=path.warmup_n + 1)
    score = 0.0
    skipped = 0
    counted = 0
    for u, y in zip(path.projections.tolist(), path.responses.tolist()):
        try:
            pred = evaluate(log, u)
        except NoSupportError:
            skipped += 1
        else:
            err = y - pred
            score += err * err
            counted += 1
        log.push(u, y)
    return score, skipped, counted


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


def _grid_task(args: tuple[DirectionPath, float, KernelSpec | None]) -> tuple[float, int, int]:
    return _replay(*args)


def select_alpha(
    sample: Sample,
    grid: np.ndarray | list[float],
    slicer: Slicer | None = None,
    warmup: int | None = None,
    kernel: KernelSpec | None = None,
    workers: int = 1,
) -> CvReport:
    """Score every candidate exponent and select the minimizer.

    Ties break toward the smaller alpha value, and among equal values
    toward the earlier grid position, so the selection never depends on
    evaluation order.  With workers > 1 the kernel goes to the worker
    processes, so it must pickle; both built-in kernels do.

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
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_grid_task, [(path, a, kernel) for a in cand]))
    else:
        results = [_replay(path, a, kernel) for a in cand]

    scores = tuple(r[0] for r in results)
    skipped = tuple(r[1] for r in results)
    counted = tuple(r[2] for r in results)
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
