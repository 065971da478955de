"""Streaming first and second moments with a rank-one inverse update.

MomentState holds everything the direction estimator needs after n
observations: the running covariate mean, the inverse of the biased
(1/n-normalized) sample covariance, and per-slice response-conditional
covariate means.  It is plain data.  batch_moments computes it directly
from a batch, which is the warm-up and the ground truth; the recursion in
sir.advance moves it one observation at a time, in place, with a
Sherman-Morrison style rank-one correction of the inverse,

    inv_new = (n / (n - 1)) * (inv - (w w') / (n + rho)),

where n is the count after the update, w = inv @ (x - mean_old) and
rho = (x - mean_old)' inv (x - mean_old).  The identity is exact in real
arithmetic, so any drift between the maintained inverse and the true inverse
is pure floating-point accumulation.  The maintained inverse stays exactly
symmetric: the warm-up inverse is symmetrized, and each update subtracts the
bit-symmetric matrix w w' / (n + rho) and rescales.

Slices partition responses into "low" (slice 1, y <= boundary) and "high"
(slice 2, y > boundary).  The boundary is chosen once, before streaming
starts, and stays fixed; each arriving observation updates exactly one
slice mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySliceError,
    InsufficientDataError,
    NonFiniteInputError,
    SingularMatrixError,
)
from .simulate import Sample

# Smallest acceptable ratio of extreme singular values before the batch
# covariance is declared unusable.
SINGULARITY_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Slicer:
    """Fixed two-slice partition of the response line at a boundary."""

    boundary: float

    def slice_of(self, y: float) -> int:
        """Slice index of a response: 1 if y <= boundary else 2."""
        return 1 if y <= self.boundary else 2

    def slices_of(self, ys: np.ndarray) -> np.ndarray:
        """Vectorized slice_of."""
        return np.where(np.asarray(ys) <= self.boundary, 1, 2)


@dataclass
class MomentState:
    """Running moments after n observations.

    Attributes:
        n: number of observations absorbed.
        mean: covariate mean, shape (p,).
        inv_cov: inverse of the biased sample covariance, shape (p, p).
        slice_counts: observations per slice, shape (2,), dtype int64.
        slice_means: covariate mean within each slice, shape (2, p); a slice
            that is still empty holds zeros.
    """

    n: int
    mean: np.ndarray
    inv_cov: np.ndarray
    slice_counts: np.ndarray
    slice_means: np.ndarray

    def copy(self) -> "MomentState":
        """An independent copy: every array is copied."""
        return MomentState(
            n=self.n,
            mean=self.mean.copy(),
            inv_cov=self.inv_cov.copy(),
            slice_counts=self.slice_counts.copy(),
            slice_means=self.slice_means.copy(),
        )


def batch_moments(sample: Sample, slicer: Slicer) -> MomentState:
    """Compute moments of a full batch directly.

    This is the warm-up path and the ground truth that the recursive path
    must reproduce.  The covariance uses the biased 1/n normalization.

    Raises:
        NonFiniteInputError: a covariate or response is NaN or infinite.
        InsufficientDataError: fewer than p + 2 observations.
        SingularMatrixError: covariance singular value ratio below tolerance.
        EmptySliceError: a slice received no observations.
    """
    xs, ys = sample.covariates, sample.responses
    require_finite_rows(xs, ys)
    n, p = xs.shape
    if n < p + 2:
        raise InsufficientDataError(f"need at least p + 2 = {p + 2} observations, got {n}")
    mean = xs.mean(axis=0)
    centered = xs - mean
    cov = (centered.T @ centered) / n
    svals = np.linalg.svd(cov, compute_uv=False)
    ratio = float(svals[-1] / svals[0]) if svals[0] > 0.0 else 0.0
    if ratio < SINGULARITY_TOLERANCE:
        raise SingularMatrixError(
            f"covariance is numerically singular (singular value ratio {ratio:.3e})",
            ratio=ratio,
        )
    inv_cov = np.linalg.inv(cov)
    inv_cov = 0.5 * (inv_cov + inv_cov.T)

    labels = slicer.slices_of(ys)
    counts = np.array([int(np.sum(labels == 1)), int(np.sum(labels == 2))], dtype=np.int64)
    for h in (1, 2):
        if counts[h - 1] == 0:
            raise EmptySliceError(f"slice {h} is empty at boundary {slicer.boundary!r}", h)
    slice_means = np.vstack([xs[labels == 1].mean(axis=0), xs[labels == 2].mean(axis=0)])
    return MomentState(
        n=n,
        mean=mean,
        inv_cov=inv_cov,
        slice_counts=counts,
        slice_means=slice_means,
    )


def finite_covariates(x: np.ndarray) -> np.ndarray:
    """x as a float64 array, refusing NaN and infinite entries.

    A row is first screened by the Python sum of its entries, which no NaN
    or infinite entry leaves finite and which raises no floating-point
    warning; the entrywise check runs only when that sum is not finite,
    which an overflowing sum of finite entries also gives.

    Raises:
        NonFiniteInputError: some entry of x is NaN or infinite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1 and math.isfinite(sum(x.tolist())):
        return x
    if not np.isfinite(x).all():
        raise NonFiniteInputError(f"covariate vector holds NaN or inf: {x!r}")
    return x


def finite_response(y: float) -> float:
    """y as a float, refusing NaN and infinity.

    Raises:
        NonFiniteInputError: y is NaN or infinite.
    """
    y = float(y)
    if not math.isfinite(y):
        raise NonFiniteInputError(f"response {y!r} is not finite")
    return y


def require_finite_rows(xs: np.ndarray, ys: np.ndarray, first: int = 0) -> None:
    """Check a whole batch at once; the error names the first bad row (0-based).

    The batch's rows are numbered from first, so a block of a longer
    stream names the row by its place in the stream.

    Raises:
        NonFiniteInputError: some covariate or response is NaN or infinite.
    """
    if np.isfinite(xs).all() and np.isfinite(ys).all():
        return
    bad = ~(np.isfinite(xs).all(axis=1) & np.isfinite(ys))
    if bad.any():
        row = first + int(np.argmax(bad))
        raise NonFiniteInputError(f"row {row} holds a NaN or infinite value")
