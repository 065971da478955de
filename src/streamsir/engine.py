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

The recursive estimate after k rows equals the batch SIR estimate on those
k rows, so stage 1 has two forms.  direction_path runs it once over a
sample from running totals, the centred scatter k Sigma_k among them, a
chunk of rows and one batched solve at a time, and returns the
projections; run_stream, cross-validation and the scatter study build
their logs and scores from them.  It matches the recursion within 1e-12
(u_k scaled by |theta| |x_k|), and steps the recursion itself above
_PREFIX_MAX_P covariates.  It is a fold over row blocks: a Sample is one
block, and a re-iterable source of blocks, such as a CSV file read by
io.SampleBlocks, is re-cut into the same chunks, and a source gives the
bits of the Sample of its rows.  The fold itself, _path_fold, hands each
chunk's projections and responses on as it is made: direction_path keeps
them, and `fit` (io._FitLog) writes them to a temporary file, so `fit`
holds neither its input nor its log.  The prefix form never refuses a
stream: where it fails (a prefix covariance that is ill-conditioned, not
positive definite, not finite or singular) it hands back, what was handed
on is dropped, the source is read again from the top, and the recursion
reruns from the kept warm-up state, so only the recursion's own checks
refuse a stream.
direction_paths runs the recursion over R samples of equal length at once,
on stacked (R, ...) arrays, with the bits of init_stream then stream_step
per sample; the other Monte Carlo studies use it for their replications.
It takes Samples or block sources that know their length, such as
simulate.DrawBlocks, cuts each through _rows as direction_path does, and
reads them _STEP_CHUNK rows at a time into one step-major buffer, so
beyond the projections and responses it returns its memory does not grow
with n, and a source is never held whole.  Its slice counts depend only
on the slice labels, so they and the factors built from them are
computed for a whole chunk before its steps, and each step writes its
stacked products into buffers allocated once.
init_stream, stream_step and predict_next are the per-arrival API over the same
recursion step: stream_step advances the StreamState it is given in place
and returns that same object.  run_stream(source, alpha, kernel, warmup,
boundary) always returns a StreamState; use direction_path(...,
checkpoints=) for direction snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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
from .sir import SirState, advance, direction_from_moments, rank_one_terms, step_terms, warm_start
from .simulate import Sample

# Not called here: the per-layer tracer (perfbench/tracing.py) patches this
# name by module attribute, so it stays importable.
from .sir import recursive_step  # noqa: F401

DEFAULT_ALPHA = 0.35

# A re-iterable source of (covariates, responses) row blocks, such as
# io.SampleBlocks: each iteration yields the rows again from the first.
Blocks = Iterable[tuple[np.ndarray, np.ndarray]]
# What _path_fold hands each chunk of stage 1 to: take(start, u, y).
_Take = Callable[[int, np.ndarray, np.ndarray], None]


# direction_path takes the prefix form only up to this many covariates.
# Measured at n = 20000 and 30000 (one BLAS thread, pinned core, best of 3):
# the prefix form takes 0.54 s against 1.12 s for the recursion at p = 25,
# 0.71-0.88 s against 0.81-1.28 s at p = 30, and ties at p = 35
# (1.12 s against 1.12 s), because its batched solves grow as p^3.
_PREFIX_MAX_P = 30
# ... and only while the condition number of the covariance at every chunk
# start (the first is the warm-up's) and at the end is at most this; past
# it, the recursion reruns from the warm-up.  Measured with this hand-back
# off, on warm-ups of a given condition number at p = 10, n = 20000, seeds
# 70-77: the largest gap |u_prefix - u_recursion| / (|theta| |x|) is
# 2.4e-14 at condition number 1e2, 1.6e-13 at 1e4, 3.1e-13 at 2e4 and
# 2.4e-13 at 5e4, against the 1e-12 bound of the recursion.  Most of the
# gap is the recursion's drift: on four sampled prefixes per seed the
# prefix form's u is at most 1.9e-14 from batch_sir at 1e4, the
# recursion's 3.8e-14.  The cap stays at 2e4, well below the 9.9e4 of the
# outlier stream that tests/test_engine.py sends to the recursion.
_PREFIX_MAX_COND = 2e4
# Rows per chunk of direction_path, whatever blocks its source yields; the
# chunk is the prefix form's block.  Block sizes from 128 to 1024 time
# within noise of each other at p = 10, 20 and 30.
_PREFIX_BLOCK = 512
# Rows per chunk of direction_paths, which stacks the R samples' rows into
# one (chunk, R, p) buffer at a time.  At R = 40, n = 2000, p = 10 (one
# pinned core, one BLAS thread, best of 7) chunks of 32 and 512 rows were
# no faster: 0.124-0.141 s and 0.127-0.152 s against 0.113-0.121 s.
_STEP_CHUNK = 128


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
    source: Sample | Blocks,
    warmup: int | None = None,
    boundary: float | None = None,
    checkpoints: tuple[int, ...] = (),
) -> DirectionPath:
    """Run stage 1 once over a sample, or a source of row blocks, in arrival order.

    source is a Sample, which is one block, or a re-iterable source of
    (covariates, responses) row blocks, such as io.SampleBlocks.  The rows
    are folded in as they come (_rows): the first warmup rows seed the
    batch warm-up, and the rest arrive in _PREFIX_BLOCK-row chunks however
    the source cuts its blocks, so a source is never held whole.  This is
    _path_fold, keeping every chunk's projections and responses.

    The recursive estimate after k rows is the batch SIR estimate on those
    k rows, so the projections come from prefix totals (_prefix_pass),
    within 1e-12 of the recursion once scaled by |theta| |x_k|.  Above
    _PREFIX_MAX_P covariates the recursion steps the chunks instead, and
    gives the same bits as init_stream followed by one stream_step per row.
    Where the prefix form hands back (see _prefix_pass), the source is read
    again from the top, and the recursion steps from the kept warm-up state
    over the rows after the warm-up.  So direction_path accepts exactly the
    samples that the per-arrival loop accepts, refuses the others with the
    loop's error, and gives a source the bits of the Sample of its rows.

    Raises:
        NonFiniteInputError: some row holds NaN or inf.  A Sample is checked
            once, up front; a source a block at a time, as it is read.
        InsufficientDataError: the sample is shorter than the warm-up.
        SingularMatrixError, EmptySliceError: the warm-up's, from batch_moments.
        NumericalBreakdownError: a rank-one denominator of the recursion is
            not finite and positive.
        TypeError: source is an iterator, which cannot be read again.
        Whatever a source raises while it is read, such as CsvFormatError.
    """
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    sir, slicer, n0, snapshots = _path_fold(
        source, warmup, boundary, checkpoints, lambda _, u, y: kept.append((u, y)), kept.clear
    )
    return DirectionPath(
        sir, slicer, n0, _joined([u for u, _ in kept]), _joined([y for _, y in kept]), snapshots
    )


def _path_fold(
    source: Sample | Blocks, warmup: int | None, boundary: float | None,
    checkpoints: tuple[int, ...], take: _Take, restart: Callable[[], None],
) -> tuple[SirState, Slicer, int, dict[int, np.ndarray]]:
    """direction_path's stage 1, handing each chunk to take as it is made.

    take(start, u, y) gets the projections and responses of rows start + 1,
    ..., start + len(u), in arrival order, and the fold keeps no reference
    to them.  Where the prefix form hands back, restart() drops every chunk
    taken so far, and the recursion's chunks follow from the first row
    after the warm-up.  So once this returns, take has had each row after
    the warm-up once, with direction_path's bits; if it raises, take may
    have had any prefix.

    Returns (sir, slicer, warm-up length, snapshots); raises as
    direction_path.
    """
    if isinstance(source, Sample):
        # A short sample is refused before its rows are checked.
        _warmup_length(source, warmup)
    elif iter(source) is source:
        raise TypeError("direction_path reads its source again to hand back: pass a re-iterable")
    source = _blocks(source)
    rows = _rows(source, warmup)
    head = Sample(*next(rows))
    sir, slicer = _warm_up(head, boundary)
    want = {int(c) for c in checkpoints}
    path = None
    if head.p <= _PREFIX_MAX_P:
        path = _prefix_pass(head, rows, sir.moments, slicer, want, take)
        if path is None:
            # The hand-back: read the source again, past the warm-up rows.
            restart()
            rows = _rows(source, head.n)
            next(rows)
    if path is None:
        path = _recursion_pass(rows, sir, slicer, want, take)
    return path[0], slicer, head.n, path[1]


def _joined(chunks: list[np.ndarray]) -> np.ndarray:
    """1-d chunks as one new array; an empty float array for no chunk."""
    return np.concatenate(chunks) if chunks else np.empty(0)


def _rows(
    source: Blocks, warmup: int | None, chunk: int = _PREFIX_BLOCK
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """source's rows as (covariates, responses) chunks: the warm-up rows, then `chunk` rows each.

    The chunks are re-cut across the source's blocks, and only the last may
    be shorter.  Each block is checked for finite values as it arrives, its
    rows numbered from the start of the source.  A chunk's responses are
    always a copy, so a kept chunk pins no block, and once a block's rows
    are all handed out no frame here holds it.

    Raises:
        NonFiniteInputError: some row holds NaN or inf.
        InsufficientDataError: the source ends within the warm-up.
    """
    size = n0 = left = None
    seen = 0
    for xs, ys in source:
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        require_finite_rows(xs, ys, first=seen)
        seen += ys.shape[0]
        if size is None:
            size = n0 = max(default_warmup(xs.shape[1]) if warmup is None else int(warmup), 0)
        elif left is not None:
            xs, ys = np.concatenate((left[0], xs)), np.concatenate((left[1], ys))
        a = 0
        while ys.shape[0] - a >= size:
            yield xs[a : a + size], ys[a : a + size].copy()
            a, size = a + size, chunk
        left = (xs[a:], ys[a:]) if a < ys.shape[0] else None
        del xs, ys
    if size is None:
        raise InsufficientDataError("the source holds no rows")
    if seen < n0:
        raise InsufficientDataError(f"sample has {seen} rows but warm-up needs {n0}")
    if left is not None:
        yield left[0], left[1].copy()


def _recursion_pass(
    chunks: Blocks, sir: SirState, slicer: Slicer, want: set[int], take: _Take
) -> tuple[SirState, dict[int, np.ndarray]]:
    """Step sir in place over the chunks of rows after the warm-up, handing each to take.

    Returns (sir, snapshots).
    """
    moments, theta = sir.moments, sir.theta_hat
    snapshots = {moments.n: theta.copy()} if moments.n in want else {}
    for xs, ys in chunks:
        u = np.empty(xs.shape[0], dtype=np.float64)
        for j, i in enumerate((slicer.slices_of(ys) - 1).tolist()):
            x = xs[j]
            u[j] = theta @ x
            # The warm-up leaves both slices non-empty, so only the rank-one
            # check of step_terms can fail here.
            advance(sir, x, i, rank_one_terms(moments, x))
            if moments.n in want:
                snapshots[moments.n] = theta.copy()
        take(moments.n - u.size, u, ys)
    return sir, snapshots


def _prefix_pass(
    head: Sample,
    chunks: Iterable[tuple[np.ndarray, np.ndarray]],
    warm: MomentState,
    slicer: Slicer,
    want: set[int],
    take: _Take,
) -> tuple[SirState, dict[int, np.ndarray]] | None:
    """Stage 1 from prefix totals, a chunk of rows at a time, handing each to take.

    Returns (sir, snapshots).  head holds the warm-up rows, warm their
    moments, and chunks the rows after them.

    Rows are centred on the warm-up mean m0, c_i = x_i - m0.  Before row
    k + 1 the pass carries four totals over the first k rows: the centred
    scatter A_k = k Sigma_k, the row sum r_k = sum c_i, and the row sum t_k
    and count l_k of slice 1 (slice 2 sums to r_k - t_k).  Row k + 1 adds
    (k / (k + 1)) d d' to A, with d = c_{k+1} - r_k / k (Welford's update).
    Then z_1 - z_2 = t_k / l_k - (r_k - t_k) / (k - l_k) and
    theta_k = Sigma_k^{-1} (z_1 - z_2) = A_k^{-1} k (z_1 - z_2).  A chunk
    forms the totals for all its rows by cumulative sums, then takes theta
    from one batched np.linalg.solve, and only (A, r, t, l) carry into the
    next chunk.  theta_k projects row k + 1 and is the snapshot at k; the
    returned state is read off the end totals.

    Never raises: it returns None, for the recursion to rerun from the
    warm-up and decide, when no row follows the warm-up, as soon as A at a
    chunk start or at the end fails _well_conditioned, some A_k in a chunk
    is not finite, or the batched solve finds some A_k singular.  A only
    grows by positive semi-definite terms, so in exact arithmetic the
    chunk-start check covers the chunk; in floating point a far-out row can
    still overflow A or leave it singular, which the last two checks catch.
    """
    n0, p = head.n, head.p
    m0 = warm.mean
    centred = head.covariates - m0
    # Row 0: the sum of all rows; row 1: of the rows in slice 1.
    sums = np.stack(
        (centred.sum(axis=0), centred[slicer.slices_of(head.responses) == 1].sum(axis=0))
    )
    scatter = centred.T @ centred - np.outer(sums[0], sums[0]) / n0
    low = int(warm.slice_counts[0])

    snapshots = {}
    prefix = None
    a = n0
    for xs, ys in chunks:
        if not _well_conditioned(scatter):
            return None
        b = a + xs.shape[0]
        if prefix is None:
            # Every chunk but the last is as long as the first.
            prefix = np.empty((b - a + 1, p, p))
        c, in_low = xs - m0, slicer.slices_of(ys) == 1
        # Entry j of each running total is the total over rows < a + j; the
        # last entry carries into the next chunk.  Summing a chunk apart
        # from the carried totals keeps each running sum short.
        rows = np.zeros((b - a + 1, 2, p))
        rows[1:, 0] = c
        rows[1:, 1][in_low] = c[in_low]
        totals = np.cumsum(rows, axis=0)
        totals += sums
        lows = low + np.concatenate(([0], np.cumsum(in_low)))
        r, t, l = totals[:-1, 0], totals[:-1, 1], lows[:-1, None]
        k = np.arange(a, b, dtype=np.float64)[:, None]
        # sqrt(k / (k + 1)) d, so that A gains (k / (k + 1)) d d'.
        d = (c - r / k) * np.sqrt(k / (k + 1.0))
        scatters = prefix[: b - a + 1]
        scatters[0] = 0.0
        np.multiply(d[:, :, None], d[:, None, :], out=scatters[1:])
        np.cumsum(scatters, axis=0, out=scatters)
        scatters += scatter
        if not np.isfinite(scatters).all():
            return None
        diff = t / l - (r - t) / (k - l)
        try:
            theta = np.linalg.solve(scatters[:-1], (k * diff)[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            return None
        for m in want.intersection(range(a, b)):
            snapshots[m] = theta[m - a].copy()
        scatter, sums, low = scatters[-1].copy(), totals[-1].copy(), int(lows[-1])
        # Hold only the buffer and theta while take works.
        del c, rows, totals, r, t, d, diff
        take(a, np.einsum("kj,kj->k", theta, xs), ys)
        a = b

    n = a
    if n == n0 or not _well_conditioned(scatter):
        return None
    inv_cov = np.linalg.inv(scatter / n)
    counts = np.array([low, n - low], dtype=np.int64)
    slice_sums = np.stack((sums[1], sums[0] - sums[1]))
    moments = MomentState(
        n=n,
        mean=m0 + sums[0] / n,
        inv_cov=0.5 * (inv_cov + inv_cov.T),
        slice_counts=counts,
        slice_means=m0 + slice_sums / counts[:, None],
    )
    sir = SirState(moments=moments, theta_hat=direction_from_moments(moments))
    if n in want:
        snapshots[n] = sir.theta_hat.copy()
    return sir, snapshots


def _well_conditioned(centred: np.ndarray) -> bool:
    """Whether centred = A_n = n Sigma_n is positive definite, within _PREFIX_MAX_COND.

    True when the smallest eigenvalue is positive and the condition number
    is at most _PREFIX_MAX_COND.  False, never an error, for a matrix that
    is not finite or whose eigenvalues do not converge: the prefix form
    then hands back to the recursion.
    """
    try:
        eig = np.linalg.eigvalsh(centred) if np.isfinite(centred).all() else None
    except np.linalg.LinAlgError:
        return False
    return eig is not None and bool(0.0 < eig[0] and eig[-1] <= _PREFIX_MAX_COND * eig[0])


def direction_paths(
    sources: Sequence[Sample | Blocks],
    warmup: int | None = None,
    checkpoints: tuple[int, ...] = (),
) -> list[DirectionPath]:
    """Run the direction recursion over R samples of equal length, all at once.

    Each source is a Sample, or a re-iterable source of (covariates,
    responses) row blocks whose len() is its row count, such as
    simulate.DrawBlocks.  Path r equals init_stream on the warm-up of
    source r followed by one stream_step per row, bit for bit;
    direction_path gives that too where it steps the recursion, and
    otherwise matches it within 1e-12.  The R states are held as stacked
    arrays: theta and the mean (R, p), the inverse (R, p, p) and the slice
    means (R, 2, p).

    Each source is cut by _rows, as direction_path cuts its source: the
    warm-up rows, then _STEP_CHUNK rows at a time.  A chunk of every source
    is copied into one step-major (chunk, R, p) buffer, so each step reads
    a contiguous (R, p) row, and the responses into an (R, n - n0) array.
    So beyond that array and the (R, n - n0) projections the memory held
    does not grow with n: a source is read a chunk at a time and never
    held whole.  Path r's projections and responses are row r of those
    arrays, not copies.  The slice counts follow from the slice labels
    alone, so _step_factors forms a chunk's before its steps, as
    cumulative sums on slice 1's count carried over from the chunk before
    (the warm-up's for the first), and with them each step's count
    factors: the receiving slice's post-step count c + 1, the (R,) scale
    sign * n / ((c + 1) (n - 1)) and n / (n - 1) (all samples share n).
    The final counts are read off the carried count, and the steps never
    touch a count.

    Each step runs the operations of sir.rank_one_terms and sir.advance
    one for one, in the same order, writing every intermediate into a
    buffer allocated once ((R, p) vectors, (R, 1, 1) scalars, the (R, p, p)
    w w' / (n + rho), multiplied first and then divided).  Matrix-vector
    and dot products are stacked matmuls of the per-arrival shapes, so each
    replication makes the same BLAS call as sir.advance: (p, p) @ (p, 1)
    is a gemv and (1, p) @ (p, 1) a dot; merging the two gemvs into one
    (p, p) @ (p, 2) product would be a gemm, whose bits can differ.  The
    receiving slice's mean is gathered once per step as a row of the slice
    means viewed as (2 R, p), and m_old + phi_h / (c + 1) is written back.

    Raises:
        ValueError: no samples, or samples of different lengths or numbers
            of covariates, or a source that does not hold len() rows.
        NonFiniteInputError: some row holds NaN or inf, and the message
            names the sample.  A Sample is checked whole before any
            stepping; a source a block at a time, as it is read.
        InsufficientDataError: the samples are shorter than the warm-up.
        NumericalBreakdownError: a rank-one denominator is not finite and
            positive; the message names the replication and n.
        TypeError: a source has no len().
    """
    if not sources:
        raise ValueError("direction_paths needs at least one sample")
    lengths = [source.n if isinstance(source, Sample) else len(source) for source in sources]
    for r, length in enumerate(lengths):
        if length != lengths[0]:
            raise ValueError(f"sample {r} has {length} rows, sample 0 has {lengths[0]}")
    length = lengths[0]
    readers = [_rows(_blocks(source), warmup, _STEP_CHUNK) for source in sources]
    heads = [Sample(*_next_rows(rows, r)) for r, rows in enumerate(readers)]
    for r, head in enumerate(heads):
        if head.p != heads[0].p:
            raise ValueError(f"sample {r} has {head.p} covariates, sample 0 has {heads[0].p}")
    n0, reps, p = heads[0].n, len(heads), heads[0].p
    sirs, slicers = zip(*(_warm_up(head, None) for head in heads))
    del heads

    theta = np.stack([sir.theta_hat for sir in sirs])
    mean = np.stack([sir.moments.mean for sir in sirs])
    inv = np.stack([sir.moments.inv_cov for sir in sirs])
    means = np.stack([sir.moments.slice_means for sir in sirs])
    # Slice 1's running count, carried from chunk to chunk.
    low = np.array([sir.moments.slice_counts[0] for sir in sirs], dtype=np.float64)
    bounds = np.array([slicer.boundary for slicer in slicers])
    steps = length - n0

    # One buffer per intermediate, with fixed row (R, 1, p) and column
    # (R, p, 1) views for the stacked products.
    flat_means = means.reshape(2 * reps, p)
    phi, phi_h, w, v, m_old, tmp = np.empty((6, reps, p))
    phi_row, phi_col, phi_h_col = phi[:, None, :], phi[:, :, None], phi_h[:, :, None]
    w_row, w_col, v_col = w[:, None, :], w[:, :, None], v[:, :, None]
    theta_row, theta_col = theta[:, None, :], theta[:, :, None]
    denom, along, cross = np.empty((3, reps, 1, 1))
    denom_flat, along_r, cross_r = denom.reshape(reps), along[:, :, 0], cross[:, :, 0]
    outer = np.empty((reps, p, p))
    # A chunk of rows, step-major, so each step reads a contiguous (R, p) row.
    chunk = np.empty((min(_STEP_CHUNK, steps), reps, p))
    u, y = np.empty((2, reps, steps))

    want = {int(c) for c in checkpoints}
    snapshots: dict[int, np.ndarray] = {}
    if n0 in want:
        snapshots[n0] = theta.copy()
    n = n0
    for a in range(n0, length, _STEP_CHUNK):
        b = min(a + _STEP_CHUNK, length)
        xs, ys = chunk[: b - a], y[:, a - n0 : b - n0]
        for r, rows in enumerate(readers):
            xs[:, r], ys[r] = _next_rows(rows, r, b - a)
        # Slicer.slices_of - 1 for every sample at once, step-major: 0 at or
        # below the sample's boundary, 1 above it.
        slices = np.where(np.ascontiguousarray(ys.T) <= bounds, 0, 1)
        c_new, scale, grow, low = _step_factors(slices, low, a)
        # Each row's receiving slice as a row of the slice means viewed as (2 R, p).
        rows_at = np.add(slices, 2 * np.arange(reps), out=slices)
        x_col = xs[:, :, :, None]
        u_out = u.T[a - n0 : b - n0, :, None, None]
        for j in range(b - a):
            x, at, g = xs[j], rows_at[j], grow[j]
            np.matmul(theta_row, x_col[j], out=u_out[j])
            n += 1
            # sir.rank_one_terms
            np.subtract(x, mean, out=phi)
            np.matmul(inv, phi_col, out=w_col)
            np.matmul(phi_row, w_col, out=denom)
            denom += n
            if not (np.minimum.reduce(denom_flat) > 0.0 and np.maximum.reduce(denom_flat) < np.inf):
                r = int(np.argmin((denom_flat > 0.0) & (denom_flat < np.inf)))
                raise NumericalBreakdownError(
                    f"rank-one update denominator {float(denom_flat[r])!r} is not finite and "
                    f"positive at n = {n} in replication {r}"
                )
            # sir.advance: theta, then the moments
            flat_means.take(at, axis=0, out=m_old)
            np.subtract(x, m_old, out=phi_h)
            np.matmul(inv, phi_h_col, out=v_col)
            np.matmul(w_row, phi_h_col, out=cross)
            np.matmul(phi_row, theta_col, out=along)
            along /= denom
            theta -= np.multiply(along_r, w, out=tmp)
            theta *= g
            cross /= denom
            v -= np.multiply(cross_r, w, out=tmp)
            v *= scale[j]
            theta -= v
            np.multiply(w_col, w_row, out=outer)
            outer /= denom
            inv -= outer
            inv *= g
            mean += np.divide(phi, n, out=tmp)
            np.divide(phi_h, c_new[j], out=tmp)
            flat_means[at] = np.add(m_old, tmp, out=m_old)
            if n in want:
                snapshots[n] = theta.copy()
    for r, rows in enumerate(readers):
        if next(rows, None) is not None:
            raise ValueError(f"sample {r} does not hold as many rows as its len()")
    counts = np.stack((low, n - low), axis=1).astype(np.int64)

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
            projections=u[r],
            responses=y[r],
            snapshots={k: snap[r].copy() for k, snap in snapshots.items()},
        )
        for r in range(reps)
    ]


def _blocks(source: Sample | Blocks) -> Blocks:
    """A Sample as a source of one block; a source as it is."""
    return ((source.covariates, source.responses),) if isinstance(source, Sample) else source


def _next_rows(
    rows: Iterator[tuple[np.ndarray, np.ndarray]], r: int, count: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The next chunk of sample r's rows, of count rows if count is given; errors name sample r.

    Raises:
        NonFiniteInputError: the chunk's block holds NaN or inf.
        ValueError: the chunk is not count rows long, or the source has
            ended: its len() is not its row count.
    """
    try:
        chunk = next(rows)
    except NonFiniteInputError as exc:
        raise NonFiniteInputError(f"sample {r}: {exc}") from None
    except StopIteration:
        chunk = None
    if chunk is None or count not in (None, chunk[1].shape[0]):
        raise ValueError(f"sample {r} does not hold as many rows as its len()")
    return chunk


def _step_factors(
    slices: np.ndarray, low: np.ndarray, start: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The count-only factors of a chunk of steps of direction_paths, read off the slice labels.

    slices holds the (T, R) 0-based slices of T streamed rows, the first of
    which arrives after start rows, and low the (R,) count of slice 1
    before it.  Writing n for a step's post-step count and c + 1 for the post-step
    count of its receiving slice, returns c + 1 as a (T, R, 1) float array,
    the (T, R, 1) scale sign * n / ((c + 1) (n - 1)) of sir.advance, the
    (T,) factors n / (n - 1) and slice 1's count after the chunk, each
    formed by the operations sir.advance applies, so with the same bits.
    The counts are whole numbers held exactly as floats, so chunking the
    steps changes no bit.
    """
    in_low = slices == 0
    n = np.arange(start + 1, start + slices.shape[0] + 1)[:, None]
    # Slice 1's count after each step; slice 2 holds the rest of the n rows.
    # Each row's receiving slice count goes in place of slice 1's where the
    # row went to slice 2.
    c_new = np.cumsum(in_low, axis=0, dtype=np.float64)
    c_new += low
    low = c_new[-1].copy()
    np.subtract(n, c_new, out=c_new, where=~in_low)
    scale = np.where(in_low, -1.0, 1.0)
    scale *= n
    scale /= c_new * (n - 1.0)
    return c_new[:, :, None], scale[:, :, None], n[:, 0] / (n[:, 0] - 1.0), low


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
    x is checked first (moments.finite_covariates), then projected; a
    wrongly shaped x raises numpy's error at the projection.  evaluate's
    own checks follow.  Nothing changes either way.

    Raises:
        NonFiniteInputError: x holds NaN or inf.
        NoSupportError: the projection falls outside all kernel windows.
    """
    return evaluate(state.log, float(state.sir.theta_hat @ finite_covariates(x)))


def stream_step(state: StreamState, x: np.ndarray, y: float) -> StreamState:
    """Absorb one observation in place: log it on the previous direction, then advance.

    Returns the state it was given, so `state = stream_step(state, x, y)`
    reads as a step.  Every check runs before anything changes, so a call
    that raises leaves the direction, the moments and the log as they
    were.  They run in this order: x is finite, then y (NonFiniteInputError,
    so a bad x wins over a bad y); both slices are non-empty
    (EmptySliceError); the rank-one denominator is finite and positive
    (NumericalBreakdownError, where a wrongly shaped x raises numpy's
    error); the projection is finite (the log's NonFiniteInputError).
    """
    x, y = finite_covariates(x), finite_response(y)
    sir = state.sir
    terms = step_terms(sir, x)
    append(state.log, x, y, sir.theta_hat)
    advance(sir, x, state.slicer.slice_of(y) - 1, terms)
    return state


def run_stream(
    source: Sample | Blocks,
    alpha: float = DEFAULT_ALPHA,
    kernel: KernelSpec | None = None,
    warmup: int | None = None,
    boundary: float | None = None,
) -> StreamState:
    """Run the full pipeline over a sample, or a source of row blocks, in arrival order.

    The direction path runs first, then the log is filled from its
    projections in one vectorized pass.  The log's k, h and y, the counts
    and the slicer equal those of init_stream followed by one stream_step
    per row; u_k, theta and the moments match them within 1e-12, and
    bit for bit where direction_path steps the recursion.

    Parameters
    ----------
    source : Sample or re-iterable of (covariates, responses) row blocks
        All observations; the first `warmup` rows seed the batch warm-up.
        A source, such as io.SampleBlocks, is folded in a chunk of rows at
        a time and never held whole (see direction_path).
    warmup : int, optional
        Defaults to max(2 p, 30).  Must leave at least one streamed row if
        the sample is longer than the warm-up.

    For theta_hat snapshots along the way, use direction_path(...,
    checkpoints=).

    Raises:
        NonFiniteInputError: some row holds NaN or inf (a Sample is checked
            once, up front).
        InsufficientDataError: the sample is shorter than the warm-up.
        SingularMatrixError, EmptySliceError, NumericalBreakdownError: as
            direction_path, so exactly where the per-arrival loop raises.
    """
    path = direction_path(source, warmup=warmup, boundary=boundary)
    state = _stream_state(path.sir, path.slicer, path.warmup_n, alpha, kernel)
    state.log.extend(path.projections, path.responses)
    return state
