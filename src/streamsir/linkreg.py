"""Recursive kernel regression of the response on the estimated index.

Each observation k contributes a weight profile frozen at arrival time:
W_k(u) = K((u - u_k) / h_k) / h_k, where u_k is the projection of the k-th
covariate on the direction estimate available *before* that observation was
absorbed, and h_k = k ** (-alpha).  The regression estimate at u is then
sum_k W_k(u) y_k / sum_k W_k(u) over everything logged so far.  Because
old terms never change, appending is O(1) per observation and the estimate
at any point can be formed on demand from the log, which keeps
(k, u_k, y_k) with precomputed h_k.

_pair_sums holds the one summation rule behind every estimate read from
the log: each sum is the sequential left-to-right float64 sum, from 0.0,
of the entries whose window covers the point, in arrival order.  The rule
does not depend on how many points one call takes or how their pairs were
found, and every reader calls it directly.  evaluate and _folded_curve
gather the in-window pairs of a dense difference block: evaluate for one
point over the whole log, _folded_curve for many points over one block of
entries at a time, carrying each point's sums from block to block.  So the
sums are a fold over the log, as the estimator is a recursion: curve
(predict, the study checkpoints) folds a log it holds, and `fit` folds
its log back from a temporary file, a block at a time.  Either way a
value equals evaluate at that point bit for bit.  The cross-validation
replay finds its pairs by a sorted search.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import NonFiniteInputError, NoSupportError
from .kernels import BandwidthSchedule, KernelSpec

_INITIAL_CAPACITY = 64
# Entries per bandwidth block when many entries are written at once.
_H_BLOCK = 1 << 14

# curve meets the log a block of at most _POINT_CELLS entries at a time, and
# _folded_curve takes _POINT_CELLS // m points of an m-entry block, and at
# least one.  So a difference block holds at most _POINT_CELLS (point,
# entry) cells, and each of its float temporaries takes 8 bytes a cell:
# 512 KiB at 2**16 cells.
_POINT_CELLS = 1 << 16


def _non_finite_entry(k: int, u: float, y: float) -> NonFiniteInputError:
    return NonFiniteInputError(f"log entry k = {k} is not finite: u = {u!r}, y = {y!r}")


class ProjectionLog:
    """Append-only record of projected observations with frozen bandwidths.

    push, extend and from_entries refuse a NaN or infinite projection or
    response with NonFiniteInputError, naming the first such entry, before
    writing anything: one would make every estimate near it NaN or infinite.

    Attributes:
        kernel: weight-generating kernel, shared by every entry.
        schedule: bandwidth schedule; entry k gets h_k = k ** (-alpha).
        next_index: arrival index the next append will receive.
    """

    def __init__(
        self, kernel: KernelSpec, schedule: BandwidthSchedule, first_index: int = 1
    ) -> None:
        if first_index < 1:
            raise ValueError("first_index must be >= 1")
        self.kernel = kernel
        self.schedule = schedule
        self.next_index = int(first_index)
        self._size = 0
        self._k = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._u = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._y = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._h = np.empty(_INITIAL_CAPACITY, dtype=np.float64)

    def __len__(self) -> int:
        return self._size

    @property
    def indices(self) -> np.ndarray:
        return self._k[: self._size]

    @property
    def projections(self) -> np.ndarray:
        return self._u[: self._size]

    @property
    def responses(self) -> np.ndarray:
        return self._y[: self._size]

    @property
    def bandwidths(self) -> np.ndarray:
        return self._h[: self._size]

    def _reserve(self, extra: int) -> None:
        need = self._size + extra
        if need <= self._k.size:
            return
        cap = max(2 * self._k.size, need)
        for name in ("_k", "_u", "_y", "_h"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[: self._size] = old[: self._size]
            setattr(self, name, new)

    def push(self, u: float, y: float) -> int:
        """Record one projected observation; returns its arrival index."""
        if not (math.isfinite(u) and math.isfinite(y)):
            raise _non_finite_entry(self.next_index, u, y)
        i = self._size
        if i == self._k.size:
            self._reserve(1)
        k = self.next_index
        self._k[i] = k
        self._u[i] = u
        self._y[i] = y
        self._h[i] = self.schedule.h(k)
        self._size = i + 1
        self.next_index = k + 1
        return k

    def _write(self, indices: np.ndarray, projections: np.ndarray, responses: np.ndarray) -> None:
        m = indices.size
        if m == 0:
            return
        bad = ~(np.isfinite(projections) & np.isfinite(responses))
        if bad.any():
            i = int(np.argmax(bad))
            raise _non_finite_entry(int(indices[i]), float(projections[i]), float(responses[i]))
        self._reserve(m)
        rows = slice(self._size, self._size + m)
        self._k[rows] = indices
        self._u[rows] = projections
        self._y[rows] = responses
        # The vectorized power gives the same bits as the scalar one push
        # uses.  It takes _H_BLOCK entries at a time, so that its float
        # temporaries do not grow with the entries written.
        for a in range(rows.start, rows.stop, _H_BLOCK):
            block = slice(a, min(a + _H_BLOCK, rows.stop))
            self._h[block] = self.schedule.h(self._k[block])
        self._size += m
        self.next_index = int(indices[-1]) + 1

    def extend(self, projections: np.ndarray, responses: np.ndarray) -> None:
        """Push many entries at once; they get consecutive indices from next_index."""
        projections = np.asarray(projections, dtype=np.float64)
        responses = np.asarray(responses, dtype=np.float64)
        if projections.ndim != 1 or projections.shape != responses.shape:
            raise ValueError("projections and responses must be 1-d with identical shapes")
        first = self.next_index
        self._write(
            np.arange(first, first + projections.size, dtype=np.int64), projections, responses
        )

    @classmethod
    def from_entries(
        cls,
        kernel: KernelSpec,
        schedule: BandwidthSchedule,
        indices: np.ndarray,
        projections: np.ndarray,
        responses: np.ndarray,
    ) -> "ProjectionLog":
        """Rebuild a log from stored (k, u, y) rows, e.g. after CSV ingest."""
        indices = np.asarray(indices, dtype=np.int64)
        projections = np.asarray(projections, dtype=np.float64)
        responses = np.asarray(responses, dtype=np.float64)
        if indices.ndim != 1 or not (indices.shape == projections.shape == responses.shape):
            raise ValueError("entry arrays must be 1-d with identical shapes")
        if indices.size > 0 and (not np.all(np.diff(indices) > 0) or indices[0] < 1):
            raise ValueError("entry indices must be strictly increasing and >= 1")
        first = int(indices[0]) if indices.size > 0 else 1
        log = cls(kernel, schedule, first_index=first)
        log._write(indices, projections, responses)
        return log


def append(log: ProjectionLog, x_new: np.ndarray, y_new: float, theta_prev: np.ndarray) -> None:
    """Log one observation, projected on theta_prev.

    theta_prev is the direction estimate from before this observation: each
    logged u_k must be the prediction-time projection, or the streaming
    estimate would peek at its own input.
    """
    log.push(float(theta_prev @ x_new), float(y_new))


def _pair_sums(
    kernel: KernelSpec, row: np.ndarray, d: np.ndarray, h: np.ndarray, y: np.ndarray,
    rows: int, count: bool = False, carry: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-row kernel sums over gathered (row, d, h, y) pairs: the one summation rule.

    Each pair is one entry a row sees, with its difference d = x_r - u_j,
    bandwidth h_j and response y_j; a row's pairs must come in arrival
    order, while pairs of different rows may interleave.  w = K(d / h) / h,
    and one bincount per sum gives each row the sequential left-to-right
    float64 sums of its pairs, from 0.0.  That rule fixes the bits of every
    estimate taken from the log, however the pairs were found.  carry, the
    (numerator, denominator) of the entries before these, goes ahead of
    them as one pair per row, so the sums continue where those left off:
    0.0 plus a carried sum is that sum, and a sum from 0.0 is never -0.0.

    Returns (numerator, denominator, contributing), each of shape (rows,);
    contributing counts the pairs with a positive weight (kernels are
    non-negative, so those are the non-zero ones), and is None unless count
    is set.  A row's denominator is 0 when it has no pair, or when its
    pairs sit only on window edges where K vanishes.
    """
    w = np.asarray(kernel.eval(d / h)) / h
    contributing = np.bincount(row[w != 0.0], minlength=rows) if count else None
    wy = w * y
    if carry is not None:
        row = np.concatenate((np.arange(rows), row))
        wy, w = np.concatenate((carry[0], wy)), np.concatenate((carry[1], w))
    num = np.bincount(row, weights=wy, minlength=rows)
    den = np.bincount(row, weights=w, minlength=rows)
    return num, den, contributing


def _folded_curve(
    kernel: KernelSpec, points: np.ndarray, blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """curve's (estimates, denominators, contributing) of a log given as (u, h, y) entry blocks.

    Each block continues every point's sums over the blocks before it.  A
    point's in-window pairs are gathered row-major from a difference block
    of _POINT_CELLS // len(u) points and at least one, so they sit in
    arrival order, and _pair_sums carries the sums on over them.  So a log
    folded block by block, whatever the blocks, gives each point the bits
    of one _pair_sums call over the whole log: the bits of evaluate.
    """
    num, den = np.zeros(points.size), np.zeros(points.size)
    count = np.zeros(points.size, dtype=np.int64)
    radius = kernel.support_radius
    for u, h, y in blocks:
        reach = h if radius == 1.0 else radius * h
        step = max(1, _POINT_CELLS // u.size)
        for a in range(0, points.size, step):
            rows = slice(a, a + step)
            x = points[rows]
            # |x - u| overwrites the differences, and each pair's own x - u
            # is taken again: the same bits, and one block-sized float array.
            gap = x[:, None] - u
            idx = np.flatnonzero(np.abs(gap, out=gap) <= reach)
            row = idx // u.size
            col = idx - row * u.size
            num[rows], den[rows], seen = _pair_sums(
                kernel, row, x[row] - u[col], h[col], y[col], x.size, count=True,
                carry=(num[rows], den[rows]),
            )
            count[rows] += seen
    return np.divide(num, den, out=np.full(points.size, np.nan), where=den > 0.0), den, count


def curve(
    kernel: KernelSpec, points: np.ndarray, u: np.ndarray, h: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The estimate of the log (u_k, h_k, y_k) at many points, with evaluate's bits.

    Each point's sums are _pair_sums over the entries whose window covers
    it (|x - u_k| <= R h_k), in arrival order: _folded_curve folds the log
    in _POINT_CELLS entries at a time, each block continuing the sums of
    the blocks before it.  A difference block holds at most _POINT_CELLS
    (point, entry) cells, so what grows with the log is the in-window pairs
    of one block alone.

    Returns (estimates, denominators, contributing), each of shape
    (points,): NaN estimates where the denominator is <= 0, which an empty
    log gives everywhere, with zero denominators and counts.

    Raises:
        NonFiniteInputError: a point is NaN or infinite.
    """
    points = np.asarray(points, dtype=np.float64)
    bad = ~np.isfinite(points)
    if bad.any():
        raise NonFiniteInputError(f"evaluation point must be finite, got {points[bad][0]!r}")
    cut = [slice(b, b + _POINT_CELLS) for b in range(0, u.size, _POINT_CELLS)]
    return _folded_curve(kernel, points, ((u[c], h[c], y[c]) for c in cut))


def evaluate(log: ProjectionLog, x: float) -> float:
    """Regression estimate at projection value x from the current log.

    The sums are _pair_sums over the entries whose window covers x
    (|x - u_k| <= R h_k), in arrival order.  The result is a convex
    combination of logged responses, so it lies in [min y_k, max y_k] over
    the entries with positive weight.

    The checks run in this order, before the log is read: x is finite,
    then the log is not empty.  The log's arrays are read once, in place.

    Raises:
        NonFiniteInputError: x is NaN or infinite.
        NoSupportError: no entry's kernel window covers x (also raised for
            an empty log); carries the nearest logged projection if any.
    """
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteInputError(f"evaluation point must be finite, got {x!r}")
    m = log._size
    if m == 0:
        raise NoSupportError("projection log is empty", nearest_u=None)
    u = log._u[:m]
    h = log._h[:m]
    d = x - u
    # R h is h itself when R = 1 (Epanechnikov): skip that O(m) product.
    radius = log.kernel.support_radius
    idx = (np.abs(d) <= (h if radius == 1.0 else radius * h)).nonzero()[0]
    num, den, _ = _pair_sums(
        log.kernel, np.zeros(idx.size, np.intp), d[idx], h[idx], log._y[idx], 1
    )
    if den[0] <= 0.0:
        raise NoSupportError(
            f"no kernel support at {x!r}", nearest_u=float(u[np.argmin(np.abs(d))])
        )
    return float(num[0] / den[0])


def theoretical_std(
    sigma: float, kernel: KernelSpec, alpha: float, density_at_x: float
) -> float:
    """Asymptotic standard deviation of the centered, sqrt(n h_n)-scaled estimate.

    Equals sqrt(sigma^2 nu2 / ((1 + alpha) g(x))) where g is the design
    density of the projected covariate at the evaluation point.

    Raises:
        ValueError: sigma negative, alpha outside (0, 1), or density not
            strictly positive.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not (density_at_x > 0.0):
        raise ValueError("density_at_x must be strictly positive")
    return float(np.sqrt(sigma * sigma * kernel.nu2 / ((1.0 + alpha) * density_at_x)))
