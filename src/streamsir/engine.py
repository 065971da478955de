"""Sequential engine: direction path, then projections, then kernel sums.

The estimator runs in two stages over one stream.

1. Direction path.  A batch warm-up over the first n0 observations fixes
   the slice boundary (median of the warm-up responses unless overridden)
   and seeds the inverse covariance and the direction estimate.  Each later
   observation k is first projected on the estimate from the previous step,
   u_k = theta_{k-1}' x_k, and then advances theta by the closed-form
   recursion.  The bandwidth exponent does not enter this stage.
2. Kernel sums.  The recursive Nadaraya-Watson estimate runs over the
   frozen log (k, u_k, y_k) with h_k = k ** (-alpha).  The log starts at
   arrival index n0 + 1, so bandwidths line up with global observation
   counts.  Everything the estimate needs is in the log: linkreg.evaluate
   reads it at one point and linkreg.curve at many.

The ordering is the whole point: the logged projection and any prediction
made for the new point depend only on data seen strictly before it.

direction_path runs stage 1 once over a whole sample, stepping one
direction state in place, and returns the projections; run_stream and
cross-validation build their logs and scores from them.
direction_paths runs stage 1 over R samples of equal length at once, on
stacked (R, ...) arrays, with the same bits per sample as direction_path;
the Monte Carlo studies use it for their replications.  init_stream,
stream_step and predict_next are the per-arrival API over the same
recursion step: stream_step advances the StreamState it is given in place
and returns that same object.  run_stream(sample, alpha, kernel, warmup,
boundary) always returns a StreamState; use direction_path(...,
checkpoints=) for direction snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, NonFiniteInputError, NumericalBreakdownError
from .kernels import BandwidthSchedule, KernelSpec, epanechnikov
from .linkreg import ProjectionLog, append, evaluate
from .moments import (
    MomentState,
    Slicer,
    finite_covariates,
    finite_response,
    require_finite_rows,
)
from .sir import SirState, advance, step_terms, warm_start
from .simulate import Sample

# Not called here: the per-layer tracer (perfbench/tracing.py) patches this
# name by module attribute, so it stays importable.
from .sir import recursive_step  # noqa: F401

DEFAULT_ALPHA = 0.35


def default_warmup(p: int) -> int:
    """Default warm-up length max(2 p, 30)."""
    return max(2 * p, 30)


def _warmup_length(sample: Sample, warmup: int | None) -> int:
    """The warm-up length to use on a sample; the default is max(2 p, 30).

    Raises:
        InsufficientDataError: the sample is shorter than the warm-up.
    """
    n0 = default_warmup(sample.p) if warmup is None else int(warmup)
    if sample.n < n0:
        raise InsufficientDataError(f"sample has {sample.n} rows but warm-up needs {n0}")
    return n0


@dataclass
class StreamState:
    """Everything the engine carries between observations; stream_step steps it in place.

    Attributes:
        sir: direction estimate plus running moments.
        log: projection log for the regression estimate.
        slicer: frozen slice boundary.
        warmup_n: number of observations absorbed in the batch warm-up.
    """

    sir: SirState
    log: ProjectionLog
    slicer: Slicer
    warmup_n: int

    @property
    def n(self) -> int:
        """Observations absorbed so far, warm-up included."""
        return self.sir.moments.n

    @property
    def theta_hat(self) -> np.ndarray:
        return self.sir.theta_hat


@dataclass(frozen=True)
class DirectionPath:
    """Stage 1 over one sample: what the kernel stage needs, and the final direction.

    Attributes:
        sir: direction estimate and moments after the last row.
        slicer: frozen slice boundary.
        warmup_n: rows absorbed by the batch warm-up.
        projections: u_k = theta_{k-1}' x_k for k = warmup_n + 1, ..., n.
        responses: y_k for the same k.
        snapshots: theta_hat after n observations, for each requested
            checkpoint n that the path reaches.
    """

    sir: SirState
    slicer: Slicer
    warmup_n: int
    projections: np.ndarray
    responses: np.ndarray
    snapshots: dict[int, np.ndarray]


def direction_path(
    sample: Sample,
    warmup: int | None = None,
    boundary: float | None = None,
    checkpoints: tuple[int, ...] = (),
) -> DirectionPath:
    """Run the direction recursion once over a sample, in arrival order.

    Gives the same bits as init_stream followed by one stream_step per row:
    both step one direction state in place with sir.advance.

    Raises:
        NonFiniteInputError: some row holds NaN or inf (checked once, up front).
        InsufficientDataError: the sample is shorter than the warm-up.
    """
    n0 = _warmup_length(sample, warmup)
    xs, ys = sample.covariates, sample.responses
    require_finite_rows(xs, ys)
    sir, slicer = _warm_up(sample.head(n0), boundary)
    moments, theta = sir.moments, sir.theta_hat

    want = {int(c) for c in checkpoints}
    snapshots: dict[int, np.ndarray] = {}
    if n0 in want:
        snapshots[n0] = theta.copy()
    xs, ys = xs[n0:], ys[n0:]
    u = np.empty(ys.size, dtype=np.float64)
    for j, i in enumerate((slicer.slices_of(ys) - 1).tolist()):
        x = xs[j]
        u[j] = theta @ x
        # The warm-up leaves both slices non-empty, so only the rank-one
        # check of step_terms can fail here.
        advance(sir, x, i, moments.rank_one_terms(x))
        if moments.n in want:
            snapshots[moments.n] = theta.copy()
    return DirectionPath(
        sir=sir,
        slicer=slicer,
        warmup_n=n0,
        projections=u,
        responses=ys,
        snapshots=snapshots,
    )


def direction_paths(
    samples: Sequence[Sample],
    warmup: int | None = None,
    checkpoints: tuple[int, ...] = (),
) -> list[DirectionPath]:
    """Run the direction recursion over R samples of equal length, all at once.

    Path r equals direction_path(samples[r], warmup, checkpoints=checkpoints)
    bit for bit.  The R states are held as stacked arrays: theta and the
    mean (R, p), the inverse (R, p, p), the slice means (R, 2, p) and the
    slice counts (R, 2).  Each step runs the operations of rank_one_terms,
    sir.advance, absorb_covariate and absorb_slice one for one: matrix-vector
    and dot products go through stacked matmuls (one BLAS call per
    replication, the same call direction_path makes), the receiving slice is
    gathered per replication, and the scalars become (R,) arrays combined
    in the same order.  All samples share the count n, so the n-only
    factors stay scalars.

    Raises:
        ValueError: no samples, or samples of different shapes.
        NonFiniteInputError: some row holds NaN or inf; checked for every
            sample before any stepping, and the message names the sample.
        InsufficientDataError: the samples are shorter than the warm-up.
        NumericalBreakdownError: a rank-one denominator is not positive; the
            message names the replication and n.
    """
    if not samples:
        raise ValueError("direction_paths needs at least one sample")
    shape = samples[0].covariates.shape
    for r, sample in enumerate(samples):
        if sample.covariates.shape != shape:
            raise ValueError(
                f"sample {r} has shape {sample.covariates.shape}, sample 0 has {shape}"
            )
        try:
            require_finite_rows(sample.covariates, sample.responses)
        except NonFiniteInputError as exc:
            raise NonFiniteInputError(f"sample {r}: {exc}") from None
    n0 = _warmup_length(samples[0], warmup)
    sirs, slicers = zip(*(_warm_up(sample.head(n0), None) for sample in samples))

    theta = np.stack([sir.theta_hat for sir in sirs])
    mean = np.stack([sir.moments.mean for sir in sirs])
    inv = np.stack([sir.moments.inv_cov for sir in sirs])
    means = np.stack([sir.moments.slice_means for sir in sirs])
    counts = np.stack([sir.moments.slice_counts for sir in sirs])
    # Step-major copies, so each step reads contiguous (R, p) and (R,) rows.
    xs = np.stack([sample.covariates[n0:] for sample in samples], axis=1)
    slices = np.stack(
        [slicer.slices_of(sample.responses[n0:]) - 1 for sample, slicer in zip(samples, slicers)],
        axis=1,
    )
    signs = np.where(slices == 0, -1.0, 1.0)
    reps = np.arange(len(samples))

    want = {int(c) for c in checkpoints}
    snapshots: dict[int, np.ndarray] = {}
    if n0 in want:
        snapshots[n0] = theta.copy()
    u = np.empty((xs.shape[0], len(samples)), dtype=np.float64)
    n = n0
    for j in range(xs.shape[0]):
        x, i = xs[j], slices[j]
        u[j] = (theta[:, None, :] @ x[:, :, None])[:, 0, 0]
        n_new = n + 1
        # rank_one_terms
        phi = x - mean
        w = (inv @ phi[:, :, None])[:, :, 0]
        denom = n_new + (phi[:, None, :] @ w[:, :, None])[:, 0, 0]
        bad = denom <= 0.0
        if bad.any():
            r = int(np.argmax(bad))
            raise NumericalBreakdownError(
                f"rank-one update denominator {float(denom[r])!r} is not positive "
                f"at n = {n_new} in replication {r}"
            )
        # sir.advance
        c_new = counts[reps, i] + 1
        phi_h = x - means[reps, i]
        v = (inv @ phi_h[:, :, None])[:, :, 0]
        cross = (w[:, None, :] @ phi_h[:, :, None])[:, 0, 0]
        theta -= ((phi[:, None, :] @ theta[:, :, None])[:, 0, 0] / denom)[:, None] * w
        theta *= n_new / (n_new - 1.0)
        v -= (cross / denom)[:, None] * w
        v *= (signs[j] * n_new / (c_new * (n_new - 1.0)))[:, None]
        theta -= v
        # absorb_covariate, absorb_slice
        inv -= w[:, :, None] * w[:, None, :] / denom[:, None, None]
        inv *= n_new / (n_new - 1.0)
        mean += phi / n_new
        means[reps, i] += phi_h / c_new[:, None]
        counts[reps, i] = c_new
        n = n_new
        if n in want:
            snapshots[n] = theta.copy()

    return [
        DirectionPath(
            sir=SirState(
                moments=MomentState(
                    n=n,
                    mean=mean[r].copy(),
                    inv_cov=inv[r].copy(),
                    slice_counts=counts[r].copy(),
                    slice_means=means[r].copy(),
                ),
                theta_hat=theta[r].copy(),
            ),
            slicer=slicers[r],
            warmup_n=n0,
            projections=u[:, r].copy(),
            responses=sample.responses[n0:],
            snapshots={k: snap[r].copy() for k, snap in snapshots.items()},
        )
        for r, sample in enumerate(samples)
    ]


def _warm_up(head: Sample, boundary: float | None) -> tuple[SirState, Slicer]:
    """Batch warm-up over the first rows; the boundary defaults to their median response.

    Raises:
        InsufficientDataError: the warm-up is empty (checked before the median,
            which would warn on no responses); batch_moments refuses fewer
            than p + 2 rows.
    """
    if head.n == 0:
        raise InsufficientDataError("the warm-up is empty: it needs at least p + 2 rows")
    if boundary is None:
        boundary = float(np.median(head.responses))
    slicer = Slicer(boundary=boundary)
    return warm_start(head, slicer), slicer


def _stream_state(
    sir: SirState, slicer: Slicer, n0: int, alpha: float, kernel: KernelSpec | None
) -> StreamState:
    """Engine state with an empty log after n0 observations."""
    if kernel is None:
        kernel = epanechnikov()
    log = ProjectionLog(kernel, BandwidthSchedule(alpha=alpha), first_index=n0 + 1)
    return StreamState(sir=sir, log=log, slicer=slicer, warmup_n=n0)


def init_stream(
    warmup_sample: Sample,
    alpha: float = DEFAULT_ALPHA,
    kernel: KernelSpec | None = None,
    boundary: float | None = None,
) -> StreamState:
    """Batch warm-up over an entire sample; streaming continues after it.

    Parameters
    ----------
    warmup_sample : Sample
        The first n0 observations.  n0 must be at least p + 2.
    alpha : float
        Bandwidth exponent for the regression log.
    kernel : KernelSpec, optional
        Defaults to the parabolic kernel.
    boundary : float, optional
        Slice boundary; defaults to the median of the warm-up responses.
    """
    sir, slicer = _warm_up(warmup_sample, boundary)
    return _stream_state(sir, slicer, warmup_sample.n, alpha, kernel)


def predict_next(state: StreamState, x: np.ndarray) -> float:
    """Predict the response of a not-yet-absorbed covariate vector.

    Projects on the current direction estimate and evaluates the current
    log, exactly the quantities a later stream_step(state, x, y) would use.

    Raises:
        NonFiniteInputError: x holds NaN or inf.
        NoSupportError: the projection falls outside all kernel windows.
    """
    u = float(state.theta_hat @ finite_covariates(x))
    return evaluate(state.log, u)


def stream_step(state: StreamState, x: np.ndarray, y: float) -> StreamState:
    """Absorb one observation in place: log it on the previous direction, then advance.

    Returns the state it was given, so `state = stream_step(state, x, y)`
    reads as a step.  Every check (NonFiniteInputError, EmptySliceError,
    NumericalBreakdownError) runs before anything changes, so a call that
    raises leaves the direction, the moments and the log as they were.
    """
    x, y = finite_covariates(x), finite_response(y)
    sir = state.sir
    terms = step_terms(sir, x)
    append(state.log, x, y, sir.theta_hat)
    advance(sir, x, state.slicer.slice_of(y) - 1, terms)
    return state


def run_stream(
    sample: Sample,
    alpha: float = DEFAULT_ALPHA,
    kernel: KernelSpec | None = None,
    warmup: int | None = None,
    boundary: float | None = None,
) -> StreamState:
    """Run the full pipeline over a sample in arrival order.

    Same result, bit for bit, as init_stream followed by one stream_step
    per row: the direction path runs first, then the log is filled from
    its projections in one vectorized pass.

    Parameters
    ----------
    sample : Sample
        All observations; the first `warmup` rows seed the batch warm-up.
    warmup : int, optional
        Defaults to max(2 p, 30).  Must leave at least one streamed row if
        the sample is longer than the warm-up.

    For theta_hat snapshots along the way, use direction_path(...,
    checkpoints=).

    Raises:
        NonFiniteInputError: some row holds NaN or inf.
        InsufficientDataError: the sample is shorter than the warm-up.
    """
    path = direction_path(sample, warmup=warmup, boundary=boundary)
    state = _stream_state(path.sir, path.slicer, path.warmup_n, alpha, kernel)
    state.log.extend(path.projections, path.responses)
    return state
