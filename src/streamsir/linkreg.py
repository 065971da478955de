"""Recursive kernel regression of the response on the estimated index.

Each observation k contributes a weight profile frozen at arrival time:
W_k(u) = K((u - u_k) / h_k) / h_k, where u_k is the projection of the k-th
covariate on the direction estimate available *before* that observation was
absorbed, and h_k = k ** (-alpha).  The regression estimate at u is then
sum_k W_k(u) y_k / sum_k W_k(u) over everything logged so far.  Because
old terms never change, appending is O(1) per observation (plus the fixed
grid refresh) and the estimate at any point can be formed on demand from
the log.

The log keeps (k, u_k, y_k) with precomputed h_k; a GridAccumulator
maintains running numerator and denominator sums on a fixed abscissa grid
so the whole curve is available at any time without rescanning the log.
Both take entries one at a time or as arrays, with the same bits either
way.

window_sums holds the one summation rule behind every estimate read from
the log (evaluate, the cross-validation replay, the study checkpoints):
the sums run over the entries whose window covers the point, gathered in
arrival order.  The grid sums every entry in a running total instead, so
it agrees with them to rounding, not exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteInputError, NoSupportError
from .kernels import BandwidthSchedule, KernelSpec

_INITIAL_CAPACITY = 64

# Entries per block when a grid absorbs an array: 1024 entries on a
# 121-point grid keep each temporary near 1 MB.
_GRID_CHUNK = 1024


def _running_total(total: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """total + terms[0] + terms[1] + ..., added strictly left to right per column."""
    return np.cumsum(np.vstack((total, terms)), axis=0)[-1].copy()


class ProjectionLog:
    """Append-only record of projected observations with frozen bandwidths.

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
        if self._size == self._k.size:
            self._reserve(1)
        k = self.next_index
        i = self._size
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
        self._reserve(m)
        rows = slice(self._size, self._size + m)
        self._k[rows] = indices
        self._u[rows] = projections
        self._y[rows] = responses
        # The vectorized power gives the same bits as the scalar one push uses.
        self._h[rows] = self.schedule.h(indices)
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


@dataclass
class GridAccumulator:
    """Running numerator/denominator sums of the estimate on a fixed grid.

    Attributes:
        points: evaluation abscissas, shape (m,), strictly increasing.
        numerator: sum of W_k(x_j) y_k per point.
        denominator: sum of W_k(x_j) per point.
        contributing: number of entries with a strictly positive weight at
            each point.
        n_entries: observations absorbed so far.
    """

    points: np.ndarray
    numerator: np.ndarray = field(init=False)
    denominator: np.ndarray = field(init=False)
    contributing: np.ndarray = field(init=False)
    n_entries: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("grid points must form a non-empty 1-d array")
        if pts.size > 1 and not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid points must be strictly increasing")
        self.points = pts
        self.numerator = np.zeros(pts.size, dtype=np.float64)
        self.denominator = np.zeros(pts.size, dtype=np.float64)
        self.contributing = np.zeros(pts.size, dtype=np.int64)

    def absorb(
        self,
        kernel: KernelSpec,
        u: float | np.ndarray,
        y: float | np.ndarray,
        h: float | np.ndarray,
    ) -> None:
        """Add the weight profiles of one or more entries to every grid point.

        The sums run through the entries in order (a cumulative sum along
        the entry axis, seeded with the running totals), so absorbing an
        array gives the same bits as absorbing its entries one at a time.
        Entries go in chunks to bound the temporary (chunk, m) arrays.
        """
        u, y, h = (np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (u, y, h))
        for a in range(0, u.size, _GRID_CHUNK):
            rows = slice(a, a + _GRID_CHUNK)
            hc = h[rows, None]
            w = np.asarray(kernel.eval((self.points - u[rows, None]) / hc)) / hc
            self.numerator = _running_total(self.numerator, w * y[rows, None])
            self.denominator = _running_total(self.denominator, w)
            self.contributing += np.count_nonzero(w > 0.0, axis=0)
            self.n_entries += w.shape[0]

    def estimates(self) -> np.ndarray:
        """Current estimate per point; NaN where no weight has arrived."""
        out = np.full(self.points.size, np.nan, dtype=np.float64)
        ok = self.denominator > 0.0
        out[ok] = self.numerator[ok] / self.denominator[ok]
        return out


def append(
    log: ProjectionLog,
    grid: GridAccumulator | None,
    x_new: np.ndarray,
    y_new: float,
    theta_prev: np.ndarray,
) -> None:
    """Absorb one observation into the log (and grid, when present).

    The projection uses theta_prev, the direction estimate from before this
    observation: each logged u_k must be the prediction-time projection, or
    the streaming estimate would peek at its own input.
    """
    u = float(np.asarray(theta_prev, dtype=np.float64) @ np.asarray(x_new, dtype=np.float64))
    y = float(y_new)
    k = log.push(u, y)
    if grid is not None:
        grid.absorb(log.kernel, u, y, float(log.schedule.h(k)))


def window_sums(
    kernel: KernelSpec, d: np.ndarray, inside: np.ndarray, h: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row kernel sums over the marked entries of a difference block.

    d[r, j] = x_r - u_j has shape (rows, width), and inside marks the
    entries each row sees; h and y hold the width entries' bandwidths and
    responses.  The marked pairs are gathered row-major, so each row's
    entries sit contiguous and in arrival order; w = K(d / h_j) / h_j, and
    each row's two sums are ndarray.sum over its own slice.  That rule
    fixes the bits of every estimate taken from the log.

    Returns (numerator, denominator), each of shape (rows,).  A row's
    denominator is 0 when no entry is marked, or when it sits only on
    window edges where K vanishes.
    """
    rows, width = d.shape
    idx = np.flatnonzero(inside)
    col = idx % width if rows > 1 else idx
    hs = h[col]
    w = np.asarray(kernel.eval(d.ravel()[idx] / hs)) / hs
    wy = w * y[col]
    if rows == 1:
        return wy.sum(keepdims=True), w.sum(keepdims=True)
    bounds = [0, *np.searchsorted(idx, np.arange(1, rows + 1) * width).tolist()]
    num = np.empty(rows)
    den = np.empty(rows)
    for r, (a, b) in enumerate(zip(bounds, bounds[1:])):
        num[r] = wy[a:b].sum()
        den[r] = w[a:b].sum()
    return num, den


def evaluate(log: ProjectionLog, x: float) -> float:
    """Regression estimate at projection value x from the current log.

    The sums are window_sums over the entries whose window covers x
    (|x - u_k| <= R h_k).  The result is a convex combination of logged
    responses, so it lies in [min y_k, max y_k] over the entries with
    positive weight.

    Raises:
        NonFiniteInputError: x is NaN or infinite.
        NoSupportError: no entry's kernel window covers x (also raised for
            an empty log); carries the nearest logged projection if any.
    """
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteInputError(f"evaluation point must be finite, got {x!r}")
    if len(log) == 0:
        raise NoSupportError("projection log is empty", nearest_u=None)
    u = log.projections
    h = log.bandwidths
    d = (x - u)[None, :]
    # R h is h itself when R = 1 (Epanechnikov): skip that O(m) product.
    radius = log.kernel.support_radius
    inside = np.abs(d) <= (h if radius == 1.0 else radius * h)
    num, den = window_sums(log.kernel, d, inside, h, log.responses)
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
