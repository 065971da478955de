"""Streaming first and second moments with a rank-one inverse update.

This module maintains, one observation at a time, everything the direction
estimator needs: the running covariate mean, the inverse of the biased
(1/n-normalized) sample covariance, and per-slice response-conditional
covariate means.  The inverse covariance is never recomputed from scratch
after warm-up; it advances by a Sherman-Morrison style rank-one correction,

    inv_new = (n / (n - 1)) * (inv - (w w') / (n + rho)),

where n is the count after the update, w = inv @ (x - mean_old) and
rho = (x - mean_old)' inv (x - mean_old).  The identity is exact in real
arithmetic, so any drift between the maintained inverse and the true inverse
is pure floating-point accumulation.  The maintained inverse stays exactly
symmetric: the warm-up inverse is symmetrized, and each update subtracts the
bit-symmetric matrix w w' / (n + rho) and rescales.

MomentState is mutable: the recursion advances it in place
(rank_one_terms, absorb_covariate, absorb_slice).  observe is the
functional API over the same steps; it works on a copy and never modifies
the state it is given.

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
    NumericalBreakdownError,
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

    @property
    def p(self) -> int:
        return self.mean.size

    def centered_slice_diff(self) -> np.ndarray:
        """(z_1 - z_2) where z_h is the centered slice mean.

        The overall-mean terms cancel in the difference, so this is simply
        slice_means[0] - slice_means[1].
        """
        return self.slice_means[0] - self.slice_means[1]

    def copy(self) -> "MomentState":
        """An independent copy: every array is copied."""
        return MomentState(
            n=self.n,
            mean=self.mean.copy(),
            inv_cov=self.inv_cov.copy(),
            slice_counts=self.slice_counts.copy(),
            slice_means=self.slice_means.copy(),
        )

    def rank_one_terms(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """phi = x - mean, w = inv @ phi and the update denominator n + rho.

        Changes nothing, so a breakdown leaves the moments as they were.

        Raises:
            NumericalBreakdownError: the denominator is not positive, which
                cannot happen in exact arithmetic once the covariance is
                positive definite.
        """
        n_new = self.n + 1
        phi = x - self.mean
        w = self.inv_cov @ phi
        denom = n_new + float(phi @ w)
        if denom <= 0.0:
            raise NumericalBreakdownError(
                f"rank-one update denominator {denom!r} is not positive at n = {n_new}"
            )
        return phi, w, denom

    def absorb_covariate(self, phi: np.ndarray, w: np.ndarray, denom: float) -> None:
        """Rank-one step of the mean and inverse covariance, from rank_one_terms."""
        n_new = self.n + 1
        self.inv_cov -= w[:, None] * w / denom
        self.inv_cov *= n_new / (n_new - 1.0)
        self.mean += phi / n_new
        self.n = n_new

    def absorb_slice(self, i: int, step: np.ndarray) -> None:
        """Count one more row in slice i (0-based); step = x - slice_means[i].

        The overall count n is not advanced here; absorb_covariate owns it.
        """
        c_old = int(self.slice_counts[i])
        self.slice_means[i] += step / (c_old + 1)
        self.slice_counts[i] = c_old + 1


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

    Raises:
        NonFiniteInputError: some entry of x is NaN or infinite.
    """
    x = np.asarray(x, dtype=np.float64)
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


def require_finite_rows(xs: np.ndarray, ys: np.ndarray) -> None:
    """Check a whole batch at once; the error names the first bad row (0-based).

    Raises:
        NonFiniteInputError: some covariate or response is NaN or infinite.
    """
    bad = ~(np.isfinite(xs).all(axis=1) & np.isfinite(ys))
    if bad.any():
        row = int(np.argmax(bad))
        raise NonFiniteInputError(f"row {row} holds a NaN or infinite value")


def observe(state: MomentState, x: np.ndarray, y: float, slicer: Slicer) -> MomentState:
    """Absorb one full observation: rank-one moment update plus slice update.

    Raises:
        NonFiniteInputError: x or y holds NaN or inf; nothing is absorbed.
        NumericalBreakdownError: the update denominator n + rho is not
            positive, which cannot happen in exact arithmetic once the
            covariance is positive definite.
    """
    x, y = finite_covariates(x), finite_response(y)
    m = state.copy()
    i = slicer.slice_of(y) - 1
    step = x - m.slice_means[i]
    m.absorb_covariate(*m.rank_one_terms(x))
    m.absorb_slice(i, step)
    return m
