import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsir import (
    BandwidthSchedule,
    InsufficientDataError,
    NoSupportError,
    NonFiniteInputError,
    NumericalBreakdownError,
    ProjectionLog,
    Sample,
    Slicer,
    StreamSirError,
    append,
    batch_moments,
    batch_sir,
    curve,
    default_warmup,
    direction_path,
    direction_paths,
    draw,
    epanechnikov,
    evaluate,
    init_stream,
    predict_next,
    reference_model,
    run_stream,
    select_alpha,
    stream_step,
    tabulated_kernel,
    warm_start,
)
from streamsir.sir import recursive_step
from streamsir.simulate import DrawBlocks
from streamsir import engine
from streamsir.io import SampleBlocks, read_sample_csv, write_sample_csv


def test_default_warmup():
    assert default_warmup(4) == 30
    assert default_warmup(15) == 30
    assert default_warmup(20) == 40


def test_init_freezes_median_boundary():
    sample = draw(reference_model(p=4), 30, 1)
    state = init_stream(sample)
    assert state.slicer.boundary == float(np.median(sample.responses))
    assert state.warmup_n == 30
    assert state.n == 30
    assert len(state.log) == 0


def test_init_honors_boundary_override():
    sample = draw(reference_model(p=4), 30, 1)
    state = init_stream(sample, boundary=0.25)
    assert state.slicer.boundary == 0.25


def test_init_needs_enough_rows():
    sample = draw(reference_model(p=10), 11, 1)
    with pytest.raises(InsufficientDataError):
        init_stream(sample)


def test_log_indices_continue_the_global_count():
    model = reference_model(p=4)
    sample = draw(model, 35, 2)
    state = init_stream(sample.head(30), alpha=0.4)
    for i in range(30, 35):
        state = stream_step(state, sample.covariates[i], float(sample.responses[i]))
    assert np.array_equal(state.log.indices, [31, 32, 33, 34, 35])
    assert state.log.bandwidths[0] == pytest.approx(31.0 ** -0.4, rel=1e-15)


def test_projection_uses_the_pre_update_direction():
    model = reference_model(p=4)
    sample = draw(model, 32, 3)
    state = init_stream(sample.head(30))
    theta_before = state.theta_hat.copy()
    x = sample.covariates[30]
    state = stream_step(state, x, float(sample.responses[30]))
    assert state.log.projections[0] == float(theta_before @ x)
    assert not np.array_equal(state.theta_hat, theta_before)


def test_first_streamed_prediction_has_no_support():
    sample = draw(reference_model(p=4), 31, 4)
    state = init_stream(sample.head(30))
    with pytest.raises(NoSupportError):
        predict_next(state, sample.covariates[30])


def test_engine_equals_manual_composition():
    model = reference_model(p=5)
    sample = draw(model, 60, 6)
    n0 = 30
    state = init_stream(sample.head(n0), alpha=0.35)

    slicer = Slicer(boundary=float(np.median(sample.responses[:n0])))
    sir = warm_start(sample.head(n0), slicer)
    log = ProjectionLog(epanechnikov(), BandwidthSchedule(alpha=0.35), first_index=n0 + 1)
    for i in range(n0, 60):
        x, y = sample.covariates[i], float(sample.responses[i])
        state = stream_step(state, x, y)
        append(log, x, y, sir.theta_hat)
        sir = recursive_step(sir, x, y, slicer)
    assert np.array_equal(state.theta_hat, sir.theta_hat)
    assert np.array_equal(state.log.projections, log.projections)


def test_run_stream_checkpoints_and_determinism():
    model = reference_model(p=4)
    sample = draw(model, 120, 7)
    state1 = run_stream(sample)
    snaps = direction_path(sample, checkpoints=(30, 60, 120)).snapshots
    assert sorted(snaps) == [30, 60, 120]
    assert np.array_equal(snaps[120], state1.theta_hat)
    state2 = run_stream(sample)
    assert np.array_equal(state1.theta_hat, state2.theta_hat)
    assert state1.n == 120


def test_run_stream_matches_batch_at_the_end():
    model = reference_model(p=4)
    sample = draw(model, 200, 8)
    state = run_stream(sample)
    batch = batch_sir(sample, state.slicer)
    rel = np.max(np.abs(state.theta_hat - batch)) / np.max(np.abs(batch))
    assert rel <= 1e-8


def test_run_stream_rejects_short_samples():
    sample = draw(reference_model(p=4), 20, 9)
    with pytest.raises(InsufficientDataError):
        run_stream(sample)  # default warm-up is 30


def _engine_arrays(state):
    """Every array and count the engine carries, for exact comparison."""
    m = state.sir.moments
    out = {
        "theta": state.theta_hat,
        "inv_cov": m.inv_cov,
        "mean": m.mean,
        "slice_means": m.slice_means,
        "slice_counts": m.slice_counts,
        "n": m.n,
        "log_k": state.log.indices,
        "log_u": state.log.projections,
        "log_h": state.log.bandwidths,
        "log_y": state.log.responses,
        "next_index": state.log.next_index,
    }
    return {k: np.copy(v) for k, v in out.items()}


def _assert_same_arrays(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key]), key


def _conditioned(sample, n0, cond, seed=0):
    """The sample mapped so that the covariance of its first n0 rows has condition number cond.

    x -> T' x keeps a single-index model (with direction T^{-1} beta), so
    the responses stay as they are.
    """
    p = sample.p
    chol = np.linalg.cholesky(np.cov(sample.covariates[:n0], rowvar=False, bias=True))
    scales = np.logspace(0.0, 0.5 * np.log10(cond), p)
    rotation, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, p)))
    t = np.linalg.inv(chol).T @ np.diag(scales) @ rotation
    return Sample(covariates=sample.covariates @ t, responses=sample.responses)


def _max_rel(got, want):
    """Largest entrywise difference relative to the largest entry of want."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _u_gap(got, want, xs, theta):
    """Largest |u_got - u_want| / (|theta| |x_k|) over the logged rows."""
    scale = np.linalg.norm(theta) * np.linalg.norm(xs, axis=1)
    return float(np.max(np.abs(got - want) / scale))


# Aim 3's bound for a fast path against the recursion.
_AIM3 = 1e-12
_EXACT_KEYS = ("slice_counts", "n", "log_k", "log_h", "log_y", "next_index")


def _assert_within_aim3(fast, slow, xs):
    """fast matches slow: counts and the log's k/h/y exactly, floats within _AIM3."""
    got, want = _engine_arrays(fast), _engine_arrays(slow)
    assert got.keys() == want.keys()
    for key in _EXACT_KEYS:
        assert np.array_equal(got[key], want[key]), key
    assert _u_gap(got["log_u"], want["log_u"], xs, want["theta"]) <= _AIM3
    for key in ("theta", "inv_cov", "mean", "slice_means"):
        assert _max_rel(got[key], want[key]) <= _AIM3, key


_TABLE_XS = np.linspace(-1.0, 1.0, 4001)
_TABLE = tabulated_kernel(_TABLE_XS, 0.75 * (1.0 - _TABLE_XS * _TABLE_XS))


@pytest.mark.parametrize(
    "p, kernel, boundary, cond",
    [
        pytest.param(4, None, None, None, id="4-None-None"),
        pytest.param(10, None, None, None, id="10-None-None"),
        pytest.param(10, _TABLE, 0.2, None, id="10-kernel2-0.2"),
        # These two take the recursion, so the bits must match.
        pytest.param(engine._PREFIX_MAX_P + 1, None, None, None, id="above-crossover"),
        pytest.param(10, None, None, 1e6, id="ill-conditioned"),
    ],
)
def test_run_stream_equals_the_per_arrival_loop_bit_for_bit(p, kernel, boundary, cond):
    n, n0 = 1100 + default_warmup(p), default_warmup(p)
    sample = draw(reference_model(p=p), n, 40 + p)
    if cond is not None:
        sample = _conditioned(sample, n0, cond)
    checkpoints = (n0, n0 + 1, 500, n0 + 1024, n)
    recursion = p > engine._PREFIX_MAX_P or cond is not None

    fast = run_stream(sample, alpha=0.3, kernel=kernel, boundary=boundary)
    snaps = direction_path(sample, boundary=boundary, checkpoints=checkpoints).snapshots

    slow = init_stream(sample.head(n0), alpha=0.3, kernel=kernel, boundary=boundary)
    want_snaps = {n0: slow.theta_hat.copy()}
    for i in range(n0, n):
        slow = stream_step(slow, sample.covariates[i], float(sample.responses[i]))
        if slow.n in checkpoints:
            want_snaps[slow.n] = slow.theta_hat.copy()

    if recursion:
        _assert_same_arrays(_engine_arrays(fast), _engine_arrays(slow))
    else:
        _assert_within_aim3(fast, slow, sample.covariates[n0:])
    assert sorted(snaps) == sorted(want_snaps)
    for k in want_snaps:
        if recursion:
            assert np.array_equal(snaps[k], want_snaps[k]), k
        else:
            assert _max_rel(snaps[k], want_snaps[k]) <= _AIM3, k
    assert fast.slicer == slow.slicer and fast.warmup_n == slow.warmup_n


def _recursion_path(sample, checkpoints=(), warmup=None):
    """The per-arrival recursion as a DirectionPath: init_stream on the first
    warmup rows (default_warmup by default), then one stream_step per row."""
    n0 = default_warmup(sample.p) if warmup is None else warmup
    state = init_stream(sample.head(n0))
    snapshots = {n0: state.theta_hat.copy()} if n0 in checkpoints else {}
    for i in range(n0, sample.n):
        state = stream_step(state, sample.covariates[i], float(sample.responses[i]))
        if state.n in checkpoints:
            snapshots[state.n] = state.theta_hat.copy()
    return engine.DirectionPath(
        sir=state.sir,
        slicer=state.slicer,
        warmup_n=n0,
        projections=state.log.projections,
        responses=state.log.responses,
        snapshots=snapshots,
    )


def _prefix_form_runs(sample, warmup=None):
    """Whether the prefix form takes the sample, rather than handing it back."""
    rows = engine._rows(((sample.covariates, sample.responses),), warmup)
    head = Sample(*next(rows))
    sir, slicer = engine._warm_up(head, None)
    return engine._prefix_pass(head, rows, sir.moments, slicer, set(), lambda *_: None) is not None


@pytest.mark.parametrize("cond", [1e2, 1e4])
def test_prefix_form_stays_within_aim3_of_the_recursion(cond):
    p, n = 10, 4000
    # At 1e4 the condition number is fixed on the whole sample: fixed on the
    # warm-up alone, a later block start passes _PREFIX_MAX_COND and the
    # recursion would run in place of the prefix form.  A 30-row warm-up of
    # that sample can itself sit near or above the 2e4 cap, so that case
    # warms up on 200 rows, whose covariance is close to the whole sample's.
    n0 = default_warmup(p) if cond <= 1e2 else 200
    rows = n0 if cond <= 1e2 else n
    sample = _conditioned(draw(reference_model(p=p), n, 70), rows, cond)
    assert _prefix_form_runs(sample, n0)
    prefixes = tuple(int(k) for k in np.linspace(n0 + 1, n - 1, 4))
    fast = direction_path(sample, warmup=n0, checkpoints=prefixes)
    slow = _recursion_path(sample, checkpoints=prefixes, warmup=n0)
    theta = slow.sir.theta_hat
    assert _u_gap(fast.projections, slow.projections, sample.covariates[n0:], theta) <= _AIM3
    if cond <= 1e2:
        # At 1e4 the entries of theta and the inverse differ by about
        # cond * eps relative to the largest one, in both forms alike.
        assert _max_rel(fast.sir.theta_hat, theta) <= _AIM3
        assert _max_rel(fast.sir.moments.inv_cov, slow.sir.moments.inv_cov) <= _AIM3
    for k in prefixes:
        # Against batch SIR on the first k rows, projecting row k + 1: the
        # prefix form is no farther off than the recursion, up to 64 ulp.
        batch, x = batch_sir(sample.head(k), fast.slicer), sample.covariates[k]
        scale = np.linalg.norm(batch) * np.linalg.norm(x)
        fast_off = abs((fast.snapshots[k] - batch) @ x) / scale
        slow_off = abs((slow.snapshots[k] - batch) @ x) / scale
        assert fast_off <= max(slow_off, 64 * np.finfo(float).eps), k


def _broadcast_product(einsum):
    """np.einsum, but the prefix form's scatter increments made by the broadcast product."""
    def product(spec, *operands, **kwargs):
        if spec != "ki,kj->kij":
            return einsum(spec, *operands, **kwargs)
        d, _ = operands
        return np.multiply(d[:, :, None], d[:, None, :], **kwargs)

    return product


@pytest.mark.parametrize("seed", range(4))
def test_prefix_scatter_increments_keep_the_bits_of_the_broadcast_product(seed):
    # einsum writes 0 + d_i d_j, +0.0 where the product is -0.0; the running
    # sums from +0.0, as _prefix_pass forms them, must not tell the two apart.
    rng = np.random.default_rng(seed)
    p = 6
    d = rng.standard_normal((engine._PREFIX_BLOCK, p))
    d[rng.random(d.shape) < 0.3] = 0.0
    d[rng.random(d.shape) < 0.3] = -0.0
    d[40:60] = d[39]
    d[100:110] = 0.0
    d[110:120] = -0.0
    start = rng.standard_normal((p, p))
    start = start @ start.T
    sums, steps = [], []
    for form in (np.einsum, _broadcast_product(np.einsum)):
        scatters = np.empty((d.shape[0] + 1, p, p))
        scatters[0] = 0.0
        form("ki,kj->kij", d, d, out=scatters[1:])
        steps.append(scatters[1:].copy())
        np.cumsum(scatters, axis=0, out=scatters)
        sums.append(scatters.copy())
        scatters += start
        sums.append(scatters)
    # The increments do differ, in the sign of zeros only.
    assert not np.array_equal(steps[0].view(np.int64), steps[1].view(np.int64))
    assert np.array_equal(steps[0], steps[1])
    assert np.array_equal(sums[0].view(np.int64), sums[2].view(np.int64))
    assert np.array_equal(sums[1].view(np.int64), sums[3].view(np.int64))


def test_rows_at_the_warm_up_mean_keep_the_prefix_form_on_the_recursion(monkeypatch):
    # Warm-up rows in pairs m + v, m - v of integers centre to an exact zero
    # sum, and later rows that equal the warm-up mean m in some coordinates
    # centre to exact zeros there, so the scatter increments hold zeros of
    # both signs.  Some later rows are m itself, and some repeat.
    p, n0, n = 4, 30, 1600
    rng = np.random.default_rng(74)
    m = np.array([1.0, -2.0, 3.0, 0.0])
    v = rng.integers(-5, 6, (n0 // 2, p)).astype(np.float64)
    xs = np.empty((n, p))
    xs[:n0] = np.concatenate((m + v, m - v))
    xs[n0:] = m
    xs[n0:, 1::2] += rng.standard_normal((n - n0, p // 2))
    xs[n0::7] = m
    xs[n0 + 300 : n0 + 340] = xs[n0 + 299]
    sample = Sample(xs, xs[:, 1] + 0.5 * rng.standard_normal(n))
    sir, _ = engine._warm_up(sample.head(n0), None)
    assert np.array_equal(sir.moments.mean, m)
    assert _prefix_form_runs(sample, n0)
    checkpoints = (n0 + 1, 700, n - 1)
    fast = direction_path(sample, warmup=n0, checkpoints=checkpoints)
    slow = _recursion_path(sample, checkpoints=checkpoints, warmup=n0)
    theta = slow.sir.theta_hat
    assert _u_gap(fast.projections, slow.projections, sample.covariates[n0:], theta) <= _AIM3
    assert _max_rel(fast.sir.theta_hat, theta) <= _AIM3
    assert _max_rel(fast.sir.moments.inv_cov, slow.sir.moments.inv_cov) <= _AIM3
    for k in checkpoints:
        assert _max_rel(fast.snapshots[k], slow.snapshots[k]) <= _AIM3, k
    # The broadcast product gives every bit the einsum increments give.
    monkeypatch.setattr(np, "einsum", _broadcast_product(np.einsum))
    product = direction_path(sample, warmup=n0, checkpoints=checkpoints)
    for got, want in [*zip(_path_arrays(fast).values(), _path_arrays(product).values()),
                      *((fast.snapshots[k], product.snapshots[k]) for k in checkpoints)]:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("where", ["warm-up", "block-start", "end"])
def test_an_ill_conditioned_prefix_takes_the_recursion_bit_for_bit(where):
    # One outlier row makes the later prefix covariances ill-conditioned:
    # row 100 at 2000 times its size gives condition number 9.9e4 at the
    # block start n = 542 but 8.6e3 at the end, n = 5000; row 1400 at 10^4
    # times its size is seen only by the end totals of a 1500-row sample.
    p = 10
    n = 5000 if where == "block-start" else 1500
    sample = draw(reference_model(p=p), n, 71)
    if where == "warm-up":
        sample = _conditioned(sample, default_warmup(p), 1e6)
    elif where == "block-start":
        sample.covariates[100] *= 2000.0
    else:
        sample.covariates[1400] *= 1e4
    _assert_same_arrays(
        _path_arrays(direction_path(sample, checkpoints=(500, n))),
        _path_arrays(_recursion_path(sample, checkpoints=(500, n))),
    )


def test_a_long_prefix_stream_stays_on_batch_sir():
    # 2 * 10**5 rows at p = 10: the inverse and the projections stay within
    # aim 3's bound of a batch computation on the same rows.
    sample = draw(reference_model(p=10), 200_000, 72)
    prefixes = (40_000, 90_000, 150_000, 199_999)
    path = direction_path(sample, checkpoints=prefixes)
    for k in prefixes:
        batch, x = batch_sir(sample.head(k), path.slicer), sample.covariates[k]
        u = path.projections[k - path.warmup_n]
        assert abs(u - batch @ x) <= _AIM3 * np.linalg.norm(batch) * np.linalg.norm(x), k
        assert _max_rel(path.snapshots[k], batch) <= _AIM3, k
    whole = batch_moments(sample, path.slicer)
    assert _max_rel(path.sir.moments.inv_cov, whole.inv_cov) <= _AIM3
    assert _max_rel(path.sir.theta_hat, batch_sir(sample, path.slicer)) <= _AIM3


@pytest.mark.parametrize("seed", [3, 4])
def test_the_recursion_stays_on_the_batch_moments_over_20000_rows(seed):
    # direction_paths steps the Sherman-Morrison recursion on every row; its
    # own drift after 2 * 10**4 steps at p = 10 is within aim 3's bound of one
    # batch computation on the same rows (measured 5e-15 to 8e-15 for the
    # inverse and 1.7e-14 to 1.9e-14 for theta_hat, relative in the 2-norm).
    sample = draw(reference_model(p=10), 20_000, seed)
    (path,) = direction_paths([sample])
    whole = batch_moments(sample, path.slicer)
    for got, want in ((path.sir.moments.inv_cov, whole.inv_cov),
                      (path.sir.theta_hat, batch_sir(sample, path.slicer))):
        assert np.linalg.norm(got - want) <= _AIM3 * np.linalg.norm(want)


def _per_arrival_loop(sample):
    """init_stream on the default warm-up, then one stream_step per row."""
    n0 = default_warmup(sample.p)
    state = init_stream(sample.head(n0))
    for i in range(n0, sample.n):
        stream_step(state, sample.covariates[i], float(sample.responses[i]))
    return state


def _outcome(call):
    """(state, None) if call returns, else (None, (class, message)) of its StreamSirError."""
    try:
        return call(), None
    except StreamSirError as exc:
        return None, (type(exc), str(exc))


def test_an_overflowing_row_is_refused_by_the_recursion():
    # A row whose cross-product overflows leaves no finite prefix covariance
    # after it, so the prefix form hands back; the recursion then refuses
    # that row, with the per-arrival loop's message, rather than log NaN.
    sample = draw(reference_model(p=4), 200, 73)
    sample.covariates[100, 1] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalBreakdownError, match="n = 101") as refused:
            direction_path(sample)
        assert _outcome(lambda: _per_arrival_loop(sample))[1] == (refused.type, str(refused.value))
        sample.covariates[100, 1] = 0.0
        sample.covariates[199, 1] = 1e200  # the last row: only the end totals see it
        with pytest.raises(NumericalBreakdownError, match="n = 200") as refused:
            direction_path(sample)
        assert _outcome(lambda: _per_arrival_loop(sample))[1] == (refused.type, str(refused.value))


def _overflowing(p):
    """A sample whose row 101 makes rho, and so the rank-one denominator, overflow to inf."""
    sample = draw(reference_model(p=p), 200, 1)
    sample.covariates[100, 1] = 1e200
    return sample


def test_an_infinite_rank_one_denominator_is_refused():
    # An infinite denominator would turn the inverse to NaN; every form of
    # the recursion must refuse it, and direction_path, whose prefix form
    # hands the sample back, refuses it with the per-arrival loop's message.
    sample, wide = _overflowing(4), _overflowing(engine._PREFIX_MAX_P + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalBreakdownError, match="n = 101") as refused:
            direction_path(sample)
        assert _outcome(lambda: _per_arrival_loop(sample))[1] == (refused.type, str(refused.value))
        with pytest.raises(NumericalBreakdownError, match="n = 101 in replication 1"):
            direction_paths([draw(reference_model(p=4), 200, 2), sample])
        with pytest.raises(NumericalBreakdownError, match="inf is not finite and positive at n = 101"):
            direction_path(wide)  # above _PREFIX_MAX_P: the recursion
        state = init_stream(sample.head(30))
        for i in range(30, 100):
            stream_step(state, sample.covariates[i], float(sample.responses[i]))
        before = _engine_arrays(state)
        with pytest.raises(NumericalBreakdownError, match="n = 101"):
            stream_step(state, sample.covariates[100], float(sample.responses[100]))
    _assert_same_arrays(_engine_arrays(state), before)


_HARD_N = 1100  # past two prefix block starts, 542 and 1054, at p = 4 and 10


def _transformed(sample, kind, arg):
    """The sample under one of the transforms that _HARD_STREAMS draws."""
    xs, ys = sample.covariates.copy(), sample.responses.copy()
    if kind == "outlier":
        row, log_m = arg
        xs[row] *= 10.0**log_m
    elif kind == "scale":
        xs *= arg
    elif kind == "shift":
        xs += 1e8
    elif kind == "equal columns":
        xs[200:, 1] = xs[200:, 0]
    elif kind == "constant column":
        xs[:, 0] = 1.0
    else:  # all-equal responses
        ys[:] = 0.5
    return Sample(covariates=xs, responses=ys)


_HARD_STREAMS = st.one_of(
    # One outlier row, anywhere, multiplied by a log-uniform 1e4 .. 1e12.
    st.tuples(st.just("outlier"), st.tuples(st.integers(0, _HARD_N - 1), st.floats(4.0, 12.0))),
    st.tuples(st.just("scale"), st.sampled_from([1e-150, 1e-8, 3.0, 1e8, 1e150])),
    st.sampled_from(["shift", "equal columns", "constant column", "equal responses"]).map(
        lambda kind: (kind, None)
    ),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.sampled_from([4, 10]), seed=st.integers(0, 2**16), stream=_HARD_STREAMS)
def test_run_stream_refuses_exactly_what_the_per_arrival_loop_refuses(p, seed, stream):
    # The prefix form never refuses: it hands back to the recursion, whose
    # own checks refuse a stream, so run_stream and the loop draw one line.
    kind, arg = stream
    base = draw(reference_model(p=p), _HARD_N, seed)
    sample = _transformed(base, kind, arg)
    fast, fast_error = _outcome(lambda: run_stream(sample))
    slow, slow_error = _outcome(lambda: _per_arrival_loop(sample))
    assert fast_error == slow_error
    if slow_error is not None:
        return
    if not _prefix_form_runs(sample):
        _assert_same_arrays(_engine_arrays(fast), _engine_arrays(slow))
    elif kind != "shift":
        # Shifted by 1e8, the two forms sit about 1e-7 apart (and as far
        # from batch_sir), past aim 3's bound; no other stream here does.
        _assert_within_aim3(fast, slow, sample.covariates[default_warmup(p) :])
    if kind == "scale":
        # theta for c x is theta / c, in both forms.
        for run in (run_stream, _per_arrival_loop):
            theta, scaled = run(base).theta_hat, run(sample).theta_hat
            assert _max_rel(scaled * arg, theta) <= _AIM3


@pytest.mark.parametrize("m", [1e4, 1e8, 1e9, 1e10, 1e11, 1e12])
def test_one_outlier_row_is_taken_or_refused_as_the_per_arrival_loop_does(m):
    # Row 1500 times m: the loop takes the stream up to 1e10 and refuses it
    # at 1e11 and 1e12 (a negative rank-one denominator).  run_stream and
    # select_alpha, whose prefix form hands such a stream back, do the same.
    sample = draw(reference_model(p=10), 3000, 3)
    sample.covariates[1500] *= m
    fast, fast_error = _outcome(lambda: run_stream(sample))
    slow, slow_error = _outcome(lambda: _per_arrival_loop(sample))
    assert fast_error == slow_error
    assert (slow_error is None) == (m <= 1e10)
    if slow_error is None:
        _assert_same_arrays(_engine_arrays(fast), _engine_arrays(slow))
        select_alpha(sample, [0.35])
    else:
        with pytest.raises(slow_error[0]) as refused:
            select_alpha(sample, [0.35])
        assert str(refused.value) == slow_error[1]


def test_direction_path_needs_no_kernel_and_matches_run_stream():
    sample = draw(reference_model(p=6), 400, 13)
    path = direction_path(sample, checkpoints=(100, 400))
    state = run_stream(sample)
    assert path.warmup_n == state.warmup_n == 30
    assert np.array_equal(path.projections, state.log.projections)
    assert np.array_equal(path.responses, sample.responses[30:])
    assert np.array_equal(path.sir.theta_hat, state.theta_hat)
    assert np.array_equal(path.snapshots[400], state.theta_hat)
    assert sorted(path.snapshots) == [100, 400]


_BAD_VALUES = st.sampled_from([np.nan, np.inf, -np.inf])
_GUARD_SAMPLE = draw(reference_model(p=4), 60, 17)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    arrival=st.integers(30, 59),
    target=st.integers(-1, 3),  # -1: the response, else that covariate
    bad=_BAD_VALUES,
)
def test_non_finite_arrival_is_refused_without_touching_state(arrival, target, bad):
    sample = _GUARD_SAMPLE
    state = init_stream(sample.head(30))
    for i in range(30, arrival):
        state = stream_step(state, sample.covariates[i], float(sample.responses[i]))
    x, y = sample.covariates[arrival].copy(), float(sample.responses[arrival])
    if target < 0:
        y = bad
    else:
        x[target] = bad
    before = _engine_arrays(state)
    sir_before = state.sir

    with pytest.raises(NonFiniteInputError):
        stream_step(state, x, y)
    with pytest.raises(NonFiniteInputError):
        recursive_step(state.sir, x, y, state.slicer)
    if target >= 0:
        with pytest.raises(NonFiniteInputError):
            predict_next(state, x)

    assert state.sir is sir_before
    _assert_same_arrays(_engine_arrays(state), before)
    # The stream carries on from the untouched state.
    good = stream_step(state, sample.covariates[arrival], float(sample.responses[arrival]))
    assert np.all(np.isfinite(good.theta_hat))


def test_predict_next_matches_log_evaluation():
    # At every arrival, with either kernel, the prediction is evaluate and
    # the curve of the log as it stood before that arrival, bit for bit,
    # and the loop ends on direction_paths' state.
    sample = draw(reference_model(p=10), 2000, 12)
    n0 = default_warmup(10)
    batched = _path_arrays(direction_paths([sample])[0])
    for kernel in (epanechnikov(), _TABLE):
        state = init_stream(sample.head(n0), kernel=kernel)
        predicted = np.full(sample.n - n0, np.nan)
        points = np.empty(sample.n - n0)
        for j, i in enumerate(range(n0, sample.n)):
            x = sample.covariates[i]
            points[j] = float(state.theta_hat @ x)
            try:
                predicted[j] = predict_next(state, x)
            except NoSupportError:
                pass
            else:
                assert predicted[j] == evaluate(state.log, points[j])
            state = stream_step(state, x, float(sample.responses[i]))
        log = state.log
        want = np.array([
            curve(kernel, points[j : j + 1], log.projections[:j], log.bandwidths[:j],
                  log.responses[:j])[0][0]
            for j in range(points.size)
        ])
        assert np.isfinite(predicted).sum() > 1900
        assert np.array_equal(predicted.view(np.int64), want.view(np.int64)), kernel.name
        assert np.array_equal(points.view(np.int64), log.projections.view(np.int64))
        got = _path_arrays(engine.DirectionPath(
            sir=state.sir, slicer=state.slicer, warmup_n=n0, projections=log.projections,
            responses=log.responses, snapshots={},
        ))
        assert got.keys() == batched.keys()
        for key in batched:
            assert np.array_equal(np.asarray(got[key]).view(np.int64),
                                  np.asarray(batched[key]).view(np.int64)), key


_GOOD_Y = float(_GUARD_SAMPLE.responses[45])


def _bad_row(at, value, y=_GOOD_Y):
    """A refusal case for a row whose entry `at` is value: both calls refuse x."""
    x = _GUARD_SAMPLE.covariates[45].copy()
    x[at] = value
    refusal = (NonFiniteInputError, f"covariate vector holds NaN or inf: {x!r}")
    return x, y, refusal, refusal, []


# (x, y, predict_next's refusal, stream_step's refusal, stream_step's
# warnings).  A refusal is (type, message), with message None for numpy's
# own errors, and "predict" for a NoSupportError at the projection; a None
# refusal is a call not made, since predict_next takes no response.
_REFUSALS = {
    "nan": _bad_row(1, np.nan),
    "+inf": _bad_row(0, np.inf),
    "-inf": _bad_row(3, -np.inf),
    "y": (_GUARD_SAMPLE.covariates[45], np.nan, None,
          (NonFiniteInputError, "response nan is not finite"), []),
    "x and y": _bad_row(2, np.inf, y=-np.inf),
    "5 at p = 4": (np.ones(5), _GOOD_Y, (ValueError, None), (ValueError, None), []),
    "shape (4, 1)": (np.ones((4, 1)), _GOOD_Y, (TypeError, None), (TypeError, None), []),
    "overflow": (1e306 * np.ones(4), _GOOD_Y, (NoSupportError, "predict"),
                 (NumericalBreakdownError,
                  "rank-one update denominator inf is not finite and positive at n = 41"),
                 []),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_per_arrival_refusals_keep_their_type_message_order_and_warnings(case):
    x, y, predict_refusal, step_refusal, step_warnings = _REFUSALS[case]
    calls = [(lambda state: predict_next(state, x), predict_refusal, []),
             (lambda state: stream_step(state, x, y), step_refusal, step_warnings)]
    for call, refusal, expected_warnings in calls:
        if refusal is None:
            continue
        state = init_stream(_GUARD_SAMPLE.head(30))
        for i in range(30, 40):
            stream_step(state, _GUARD_SAMPLE.covariates[i], float(_GUARD_SAMPLE.responses[i]))
        before = _engine_arrays(state)
        kind, message = refusal
        if message == "predict":
            message = f"no kernel support at {float(state.theta_hat @ x)!r}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(kind) as refused:
                call(state)
        assert refused.type is kind
        if message is not None:
            assert str(refused.value) == message
        assert [(w.category, str(w.message)) for w in caught] == expected_warnings
        _assert_same_arrays(_engine_arrays(state), before)


def test_the_per_arrival_api_reads_and_writes_the_log_through_engine_names(monkeypatch):
    # perfbench/tracing.py times linkreg.evaluate and linkreg.append by
    # patching these two engine attributes, so each arrival must call them.
    calls = {"evaluate": 0, "append": 0}

    def counted(name):
        fn = getattr(engine, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(engine, name, counted(name))
    sample = draw(reference_model(p=10), 80, 31)
    state = init_stream(sample.head(30))
    for i in range(30, 80):
        x = sample.covariates[i]
        try:
            predict_next(state, x)
        except NoSupportError:
            pass
        state = stream_step(state, x, float(sample.responses[i]))
    assert calls == {"evaluate": 50, "append": 50}


@pytest.mark.parametrize("row", [3, 45])
def test_batch_entry_points_reject_a_non_finite_row(row):
    sample = draw(reference_model(p=4), 80, 21)
    sample.covariates[row, 2] = np.nan
    for call in (
        lambda: run_stream(sample),
        lambda: direction_path(sample),
        lambda: select_alpha(sample, [0.3]),
    ):
        with pytest.raises(NonFiniteInputError, match=f"row {row}"):
            call()
    if row < 30:
        with pytest.raises(NonFiniteInputError):
            init_stream(sample.head(30))


def test_stream_step_advances_the_given_state_in_place():
    sample = draw(reference_model(p=4), 40, 23)
    state = init_stream(sample.head(30))
    sir, log = state.sir, state.log
    for i in range(30, 40):
        assert stream_step(state, sample.covariates[i], float(sample.responses[i])) is state
    assert state.sir is sir and state.log is log
    assert state.n == 40 and len(state.log) == 10


def test_breakdown_in_stream_step_leaves_everything_unchanged():
    # A non-positive-definite inverse pushes the rank-one denominator
    # n + rho below zero for a far-out x; nothing may move before the refusal.
    sample = draw(reference_model(p=4), 40, 24)
    state = init_stream(sample.head(30))
    for i in range(30, 35):
        state = stream_step(state, sample.covariates[i], float(sample.responses[i]))
    state.sir.moments.inv_cov[...] = -np.eye(4)
    x = state.sir.moments.mean + np.array([100.0, 0.0, 0.0, 0.0])
    before = _engine_arrays(state)

    with pytest.raises(NumericalBreakdownError):
        stream_step(state, x, 0.5)
    with pytest.raises(NumericalBreakdownError):
        recursive_step(state.sir, x, 0.5, state.slicer)
    _assert_same_arrays(_engine_arrays(state), before)


def test_functional_steps_never_modify_their_input():
    sample = draw(reference_model(p=5), 40, 25)
    state = init_stream(sample.head(30))
    sir, slicer = state.sir, state.slicer
    before = _engine_arrays(state)
    for i in range(30, 40):
        x, y = sample.covariates[i], float(sample.responses[i])
        stepped = recursive_step(sir, x, y, slicer)
        _assert_same_arrays(_engine_arrays(state), before)
        assert not np.shares_memory(stepped.theta_hat, sir.theta_hat)
        for name in ("mean", "inv_cov", "slice_counts", "slice_means"):
            assert not np.shares_memory(getattr(stepped.moments, name), getattr(sir.moments, name))


@pytest.mark.parametrize("p", [10, 50])
def test_maintained_inverse_stays_bit_symmetric(p):
    n0 = default_warmup(p)
    sample = draw(reference_model(p=p), n0 + 2100, 26 + p)
    inv = direction_path(sample).sir.moments.inv_cov
    assert np.array_equal(inv, inv.T)


def test_an_empty_warm_up_is_refused_without_a_warning():
    sample = draw(reference_model(p=4), 60, 27)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: init_stream(sample.head(0)),
            lambda: run_stream(sample, warmup=0),
            lambda: direction_path(sample, warmup=0),
            lambda: direction_paths([sample, sample], warmup=0),
        ):
            with pytest.raises(InsufficientDataError, match="empty"):
                call()


def _path_arrays(path):
    """Every array and count of a DirectionPath, for exact comparison."""
    m = path.sir.moments
    out = {
        "theta": path.sir.theta_hat,
        "inv_cov": m.inv_cov,
        "mean": m.mean,
        "slice_means": m.slice_means,
        "slice_counts": m.slice_counts,
        "n": m.n,
        "projections": path.projections,
        "responses": path.responses,
        "warmup_n": path.warmup_n,
        "boundary": path.slicer.boundary,
        "snapshot_sizes": sorted(path.snapshots),
    }
    out.update({f"snapshot_{k}": v for k, v in path.snapshots.items()})
    return {k: np.copy(v) for k, v in out.items()}


@pytest.mark.parametrize("p", [4, 10])
@pytest.mark.parametrize("reps", [1, 7, 40])
def test_direction_paths_equal_per_sample_paths_bit_for_bit(p, reps):
    # The reference is the init_stream / stream_step loop: direction_path
    # may take the prefix form, direction_paths always steps the recursion.
    n0 = default_warmup(p)
    n = n0 + 1100
    samples = [draw(reference_model(p=p), n, 300 + r) for r in range(reps)]
    checkpoints = (n0, n0 + 1, 500, n0 + 1024, n)
    batched = direction_paths(samples, checkpoints=checkpoints)
    assert len(batched) == reps
    for sample, path in zip(samples, batched):
        alone = _recursion_path(sample, checkpoints=checkpoints)
        _assert_same_arrays(_path_arrays(path), _path_arrays(alone))
        assert path.projections.flags.c_contiguous


def test_a_replication_does_not_depend_on_its_batch():
    samples = [draw(reference_model(p=6), 400, 40 + r) for r in range(7)]
    third = direction_paths(samples, checkpoints=(100, 400))[2]
    alone = direction_paths(samples[2:3], checkpoints=(100, 400))[0]
    _assert_same_arrays(_path_arrays(third), _path_arrays(alone))


def test_direction_paths_need_samples_of_one_shape():
    model = reference_model(p=4)
    with pytest.raises(ValueError, match="sample 1"):
        direction_paths([draw(model, 100, 1), draw(model, 101, 2)])
    with pytest.raises(ValueError, match="sample 2"):
        direction_paths([draw(model, 100, 1), draw(model, 100, 2), draw(reference_model(p=5), 100, 3)])
    with pytest.raises(ValueError, match="at least one"):
        direction_paths([])


def test_direction_paths_name_the_replication_that_breaks_down(monkeypatch):
    # A non-positive-definite inverse in replication 2 only, and a far-out
    # first streamed row there, push its rank-one denominator below zero.
    samples = [draw(reference_model(p=4), 60, 50 + r) for r in range(4)]
    samples[2].covariates[30] = 100.0
    warm_up = engine._warm_up

    def broken_warm_up(head, boundary):
        sir, slicer = warm_up(head, boundary)
        if head.covariates.base is samples[2].covariates:
            sir.moments.inv_cov[...] = -np.eye(4)
        return sir, slicer

    monkeypatch.setattr(engine, "_warm_up", broken_warm_up)
    with pytest.raises(NumericalBreakdownError, match=r"n = 31 in replication 2"):
        direction_paths(samples)


def test_direction_paths_refuse_a_non_finite_sample_before_stepping(monkeypatch):
    samples = [draw(reference_model(p=4), 60, 60 + r) for r in range(5)]
    samples[3].responses[59] = np.nan
    warm_ups = []
    monkeypatch.setattr(engine, "_warm_up", lambda *args: warm_ups.append(args))
    with pytest.raises(NonFiniteInputError, match="sample 3: row 59"):
        direction_paths(samples)
    assert warm_ups == []


def _assert_each_path_equals_the_loop(samples, checkpoints):
    """direction_paths equals the init_stream / stream_step loop on every sample, bit for bit."""
    paths = direction_paths(samples, checkpoints=checkpoints)
    assert len(paths) == len(samples)
    for sample, path in zip(samples, paths):
        alone = _recursion_path(sample, checkpoints=checkpoints)
        _assert_same_arrays(_path_arrays(path), _path_arrays(alone))
    return paths


def test_direction_paths_over_samples_no_longer_than_the_warm_up():
    # No streamed row: the cumulative slice counts are empty, so the counts,
    # the moments and the checkpoint at n0 are the warm-up's.
    n0 = default_warmup(4)
    samples = [draw(reference_model(p=4), n0, 90 + r) for r in range(3)]
    for path in _assert_each_path_equals_the_loop(samples, (n0,)):
        assert path.projections.shape == (0,) and sorted(path.snapshots) == [n0]


def test_direction_paths_where_every_streamed_row_lands_in_one_slice():
    # Replication 0 streams only into slice 1 and replication 1 only into
    # slice 2 (responses beyond every warm-up response, so past the median
    # boundary); replication 2 streams into both.
    n0, n = default_warmup(4), default_warmup(4) + 300
    samples = [draw(reference_model(p=4), n, 95 + r) for r in range(3)]
    for sample, h in zip(samples, (0, 1)):
        head = sample.responses[:n0]
        sample.responses[n0:] = head.min() - 1.0 if h == 0 else head.max() + 1.0
    paths = _assert_each_path_equals_the_loop(samples, (n0, n0 + 1, 200, n))
    for sample, path, h in zip(samples, paths, (0, 1)):
        warm = init_stream(sample.head(n0)).sir.moments.slice_counts
        assert path.sir.moments.slice_counts[h] == warm[h] + (n - n0)
        assert path.sir.moments.slice_counts[1 - h] == warm[1 - h]


def test_direction_paths_at_the_rate_study_shape():
    # The study workload's call: 40 replications of 2000 rows at p = 10,
    # with snapshots at the four checkpoint sizes.
    sizes = (250, 500, 1000, 2000)
    samples = [draw(reference_model(p=10), sizes[-1], 11 ^ r) for r in range(40)]
    _assert_each_path_equals_the_loop(samples, sizes)


_CHUNK = engine._STEP_CHUNK


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("steps", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
def test_direction_paths_across_chunk_edges(reps, steps):
    # The rows are stepped _STEP_CHUNK at a time, with slice 1's count
    # carried from chunk to chunk; checkpoints sit at n0, on the chunk
    # boundaries and at n.
    n0 = default_warmup(4)
    n = n0 + steps
    samples = [draw(reference_model(p=4), n, 70 + r) for r in range(reps)]
    checkpoints = (n0, n0 + _CHUNK - 1, n0 + _CHUNK, n0 + 2 * _CHUNK, n)
    for sample, path in zip(samples, _assert_each_path_equals_the_loop(samples, checkpoints)):
        assert path.projections.shape == (steps,)
        assert sorted(path.snapshots) == sorted(c for c in set(checkpoints) if c <= n)
        labels = path.slicer.slices_of(sample.responses) - 1
        assert np.array_equal(path.sir.moments.slice_counts, np.bincount(labels, minlength=2))


def test_direction_paths_memory_does_not_grow_with_the_stream():
    # Beyond the (R, n - n0) projections and responses it returns, the pass
    # holds one chunk of rows and the stacked states: at the rate-study
    # shape its own traced peak stays small, and flat from n = 2000 to
    # n = 8000.
    def own_peak_mib(n):
        samples = [draw(reference_model(p=10), n, 11 ^ r) for r in range(40)]
        tracemalloc.start()
        try:
            paths = direction_paths(samples, checkpoints=(250, 500, 1000, 2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(path.projections.nbytes + path.responses.nbytes for path in paths)
        return (peak - returned) / 2**20

    short, long = own_peak_mib(2000), own_peak_mib(8000)
    assert short < 3.0
    assert long - short < 1.0


def test_a_later_breakdown_names_its_replication_and_n_without_a_warning(monkeypatch):
    # Replication 2 warms up with a small negative definite inverse.  Its
    # denominators n + rho stay positive over ordinary rows, past the
    # checkpoint at 100; a far-out row 150 then drives n + rho below zero.
    # Nothing overflows, so no step before the refusal warns.
    samples = [draw(reference_model(p=4), 200, 80 + r) for r in range(4)]
    samples[2].covariates[150] = 1e4
    warm_up = engine._warm_up

    def broken_warm_up(head, boundary):
        sir, slicer = warm_up(head, boundary)
        if head.covariates.base is samples[2].covariates:
            sir.moments.inv_cov[...] = -1e-6 * np.eye(4)
        return sir, slicer

    monkeypatch.setattr(engine, "_warm_up", broken_warm_up)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalBreakdownError, match=r"at n = 151 in replication 2$"):
            direction_paths(samples, checkpoints=(100, 200))
        # The per-arrival loop refuses the same row of that sample.
        with pytest.raises(NumericalBreakdownError, match=r"at n = 151$"):
            _recursion_path(samples[2], checkpoints=(100, 200))


class _Blocks:
    """A sample re-cut into row blocks of the given sizes, cycled; counts its reads."""

    def __init__(self, sample, sizes):
        self.sample, self.sizes, self.reads = sample, sizes, 0

    def __iter__(self):
        self.reads += 1
        a, i = 0, 0
        while a < self.sample.n:
            b = a + self.sizes[i % len(self.sizes)]
            yield self.sample.covariates[a:b], self.sample.responses[a:b]
            a, i = b, i + 1


_CHUNK_ROWS = engine._PREFIX_BLOCK


@pytest.mark.parametrize(
    "p, n, warmup, outlier, reads",
    [
        pytest.param(10, 3000, None, None, 1, id="prefix"),
        pytest.param(40, 700, None, None, 1, id="recursion-p40"),
        # The prefix form hands back, and the source is read a second time.
        pytest.param(10, 3000, None, 1e9, 2, id="hands-back"),
        # The warm-up spans two blocks of the file reader's size.
        pytest.param(10, 3000, 1500, None, 1, id="warmup-1500"),
        pytest.param(10, 30 + 2 * _CHUNK_ROWS + 1, None, None, 1, id="one-past-a-chunk"),
        # No streamed row: the prefix form hands back, and the warm-up stands.
        pytest.param(10, 30, None, None, 2, id="warm-up-only"),
    ],
)
@pytest.mark.parametrize("sizes", [(1023, 1024), (1, 37, 700)], ids=["reader", "ragged"])
def test_a_block_source_gives_the_bits_of_its_sample(p, n, warmup, outlier, reads, sizes):
    sample = draw(reference_model(p=p), n, 3)
    if outlier is not None:
        sample.covariates[1500] *= outlier
    n0 = default_warmup(p) if warmup is None else warmup
    checkpoints = (n0, n0 + 1, n0 + _CHUNK_ROWS, n0 + _CHUNK_ROWS + 1, 1500, n)
    blocks = _Blocks(sample, sizes)
    got = direction_path(blocks, warmup=warmup, checkpoints=checkpoints)
    assert blocks.reads == reads
    want = direction_path(sample, warmup=warmup, checkpoints=checkpoints)
    _assert_same_arrays(_path_arrays(got), _path_arrays(want))
    _assert_same_arrays(
        _engine_arrays(run_stream(blocks, alpha=0.3, warmup=warmup)),
        _engine_arrays(run_stream(sample, alpha=0.3, warmup=warmup)),
    )


def test_a_block_source_keeps_copies_of_its_responses():
    # Views would pin every block the source yields.
    sample = draw(reference_model(p=4), 1100, 5)
    path = direction_path(_Blocks(sample, (100,)))
    assert path.responses.base is None and path.projections.base is None
    assert not np.shares_memory(path.responses, sample.responses)


def test_a_block_source_is_refused_as_its_sample_is():
    sample = draw(reference_model(p=4), 600, 6)
    short = sample.head(20)
    with pytest.raises(InsufficientDataError) as want:
        run_stream(short)
    with pytest.raises(InsufficientDataError) as got:
        run_stream(_Blocks(short, (7,)))
    assert str(got.value) == str(want.value) == "sample has 20 rows but warm-up needs 30"
    # A short sample's rows are checked before its length, as its blocks' are
    # and as init_stream checks its warm-up.
    short = Sample(short.covariates.copy(), short.responses)
    short.covariates[5, 1] = np.nan
    refusals = []
    for call in (lambda: run_stream(short), lambda: run_stream(_Blocks(short, (7,))),
                 lambda: init_stream(short)):
        with pytest.raises(NonFiniteInputError) as refused:
            call()
        refusals.append(str(refused.value))
    assert refusals[0] == refusals[1] == refusals[2] and refusals[0].startswith("row 5 ")
    # A block is checked as it arrives, its rows numbered from the source's first.
    sample.covariates[450, 2] = np.inf
    with pytest.raises(NonFiniteInputError, match="^row 450 holds"):
        run_stream(_Blocks(sample, (100,)))
    with pytest.raises(InsufficientDataError, match="no rows"):
        run_stream(())
    # The hand-back reads the source again, so a one-shot iterator is refused.
    with pytest.raises(TypeError, match="re-iterable"):
        run_stream(iter(_Blocks(sample, (100,))))



class _SizedBlocks(_Blocks):
    """_Blocks with a len(), as direction_paths needs; it may state a wrong length."""

    def __init__(self, sample, sizes, length=None):
        super().__init__(sample, sizes)
        self.length = sample.n if length is None else length

    def __len__(self):
        return self.length


def test_direction_paths_over_block_sources_give_the_bits_of_their_samples():
    # Draw sources with and without a warm-up head block, ragged sources and
    # Samples in one call: each path has the bits of its sample's path.
    model, n0 = reference_model(p=10), default_warmup(10)
    n = n0 + 2 * _CHUNK + 7
    samples = [draw(model, n, 20 + r) for r in range(5)]
    sources = [
        DrawBlocks(model, n, 20, head=n0),
        DrawBlocks(model, n, 21, rows=16),
        _SizedBlocks(samples[2], (1, 37, 700)),
        samples[3],
        _SizedBlocks(samples[4], (n0 + _CHUNK,)),
    ]
    checkpoints = (n0, n0 + 1, n0 + _CHUNK, n)
    want = direction_paths(samples, checkpoints=checkpoints)
    got = direction_paths(sources, checkpoints=checkpoints)
    for a, b in zip(got, want):
        _assert_same_arrays(_path_arrays(a), _path_arrays(b))
    assert [source.reads for source in sources if isinstance(source, _Blocks)] == [1, 1]


def test_direction_paths_refuse_a_source_of_the_wrong_length_or_with_a_bad_row():
    sample = draw(reference_model(p=4), 600, 6)
    other = draw(reference_model(p=4), 600, 7)
    with pytest.raises(ValueError, match="sample 1 has 599 rows, sample 0 has 600"):
        direction_paths([sample, _SizedBlocks(other.head(599), (100,))])
    # A source whose len() is not its row count, short or long.
    for rows, length in ((598, 599), (600, 599), (599, 598), (599, 600)):
        with pytest.raises(ValueError, match="sample 1 does not hold as many rows as its len()"):
            direction_paths([sample.head(length), _SizedBlocks(other.head(rows), (100,), length)])
    with pytest.raises(TypeError):
        direction_paths([sample, _Blocks(other, (100,))])
    # A source's block is checked as it is read, its rows numbered from its first.
    other.covariates[450, 2] = np.inf
    with pytest.raises(NonFiniteInputError, match="^sample 1: row 450 holds"):
        direction_paths([sample, _SizedBlocks(other, (100,))])

def test_run_stream_over_a_csv_holds_no_more_than_the_log_and_projections(tmp_path):
    # Folding the file's blocks into stage 1, run_stream's traced peak sits
    # where it fills the log: the path's projections and responses, the
    # log's k, u, y and h, and extend's index range, 7 floats a row.  So it
    # grows with n by less than 6 floats a row plus 1 MiB.  Reading the
    # sample whole first holds its blocks and their concatenation, 22 floats
    # a row at p = 10, and fails the same check.
    def peak(path, read):
        tracemalloc.start()
        try:
            run_stream(read(path))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sizes, paths = (20000, 80000), []
    for n in sizes:
        paths.append(tmp_path / f"{n}.csv")
        write_sample_csv(draw(reference_model(p=10), n, 9), paths[-1])
    # Untraced first runs, so that no one-time allocation counts.
    for read in (SampleBlocks, read_sample_csv):
        run_stream(read(paths[0]))
    bound = 6 * 8 * (sizes[1] - sizes[0]) + 2**20
    streamed = [peak(path, SampleBlocks) for path in paths]
    whole = [peak(path, read_sample_csv) for path in paths]
    assert streamed[1] - streamed[0] <= bound, streamed
    assert whole[1] - whole[0] > bound, whole
