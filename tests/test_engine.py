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
    Slicer,
    append,
    batch_sir,
    cv_score,
    default_warmup,
    direction_path,
    direction_paths,
    draw,
    epanechnikov,
    evaluate,
    init_stream,
    observe,
    predict_next,
    recursive_step,
    reference_model,
    run_stream,
    select_alpha,
    stream_step,
    tabulated_kernel,
    warm_start,
)
from streamsir import engine
from streamsir.linkreg import _GRID_CHUNK


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
        append(log, None, x, y, sir.theta_hat)
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


def test_grid_points_accumulate_during_run():
    model = reference_model(p=4)
    sample = draw(model, 150, 11)
    state = run_stream(sample, grid_points=np.linspace(-2.0, 2.0, 9))
    assert state.grid is not None
    assert state.grid.n_entries == 150 - 30
    est = state.grid.estimates()
    assert np.any(~np.isnan(est))


def test_predict_next_matches_log_evaluation():
    model = reference_model(p=4)
    sample = draw(model, 80, 12)
    state = init_stream(sample.head(30))
    for i in range(30, 79):
        state = stream_step(state, sample.covariates[i], float(sample.responses[i]))
    x = sample.covariates[79]
    u = float(state.theta_hat @ x)
    assert predict_next(state, x) == evaluate(state.log, u)


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
    if state.grid is not None:
        out["grid_numerator"] = state.grid.numerator
        out["grid_denominator"] = state.grid.denominator
        out["grid_contributing"] = state.grid.contributing
        out["grid_entries"] = state.grid.n_entries
    return {k: np.copy(v) for k, v in out.items()}


def _assert_same_arrays(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key]), key


_TABLE_XS = np.linspace(-1.0, 1.0, 4001)


@pytest.mark.parametrize(
    "p, kernel, boundary",
    [
        (4, None, None),
        (10, None, None),
        (10, tabulated_kernel(_TABLE_XS, 0.75 * (1.0 - _TABLE_XS * _TABLE_XS)), 0.2),
    ],
)
def test_run_stream_equals_the_per_arrival_loop_bit_for_bit(p, kernel, boundary):
    # More than one grid chunk of streamed rows: the grid absorbs the log
    # in two chunks.
    n, n0 = 1100 + default_warmup(p), default_warmup(p)
    assert n - n0 > _GRID_CHUNK
    sample = draw(reference_model(p=p), n, 40 + p)
    grid_points = np.linspace(-3.0, 3.0, 121)
    checkpoints = (n0, n0 + 1, 500, n0 + _GRID_CHUNK, n)

    fast = run_stream(
        sample, alpha=0.3, kernel=kernel, boundary=boundary, grid_points=grid_points
    )
    snaps = direction_path(sample, boundary=boundary, checkpoints=checkpoints).snapshots

    slow = init_stream(
        sample.head(n0), alpha=0.3, kernel=kernel, boundary=boundary, grid_points=grid_points
    )
    want_snaps = {n0: slow.theta_hat.copy()}
    for i in range(n0, n):
        slow = stream_step(slow, sample.covariates[i], float(sample.responses[i]))
        if slow.n in checkpoints:
            want_snaps[slow.n] = slow.theta_hat.copy()

    _assert_same_arrays(_engine_arrays(fast), _engine_arrays(slow))
    assert sorted(snaps) == sorted(want_snaps)
    for k in want_snaps:
        assert np.array_equal(snaps[k], want_snaps[k]), k
    assert fast.slicer == slow.slicer and fast.warmup_n == slow.warmup_n


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
    with_grid=st.booleans(),
)
def test_non_finite_arrival_is_refused_without_touching_state(arrival, target, bad, with_grid):
    sample = _GUARD_SAMPLE
    grid = np.linspace(-2.0, 2.0, 7) if with_grid else None
    state = init_stream(sample.head(30), grid_points=grid)
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
    with pytest.raises(NonFiniteInputError):
        observe(state.sir.moments, x, y, state.slicer)
    if target >= 0:
        with pytest.raises(NonFiniteInputError):
            predict_next(state, x)

    assert state.sir is sir_before
    _assert_same_arrays(_engine_arrays(state), before)
    # The stream carries on from the untouched state.
    good = stream_step(state, sample.covariates[arrival], float(sample.responses[arrival]))
    assert np.all(np.isfinite(good.theta_hat))


@pytest.mark.parametrize("row", [3, 45])
def test_batch_entry_points_reject_a_non_finite_row(row):
    sample = draw(reference_model(p=4), 80, 21)
    sample.covariates[row, 2] = np.nan
    for call in (
        lambda: run_stream(sample),
        lambda: direction_path(sample),
        lambda: select_alpha(sample, [0.3]),
        lambda: cv_score(sample, 0.3),
    ):
        with pytest.raises(NonFiniteInputError, match=f"row {row}"):
            call()
    if row < 30:
        with pytest.raises(NonFiniteInputError):
            init_stream(sample.head(30))


def test_stream_step_advances_the_given_state_in_place():
    sample = draw(reference_model(p=4), 40, 23)
    state = init_stream(sample.head(30), grid_points=np.linspace(-2.0, 2.0, 5))
    sir, log, grid = state.sir, state.log, state.grid
    for i in range(30, 40):
        assert stream_step(state, sample.covariates[i], float(sample.responses[i])) is state
    assert state.sir is sir and state.log is log and state.grid is grid
    assert state.n == 40 and len(state.log) == 10 and state.grid.n_entries == 10


def test_breakdown_in_stream_step_leaves_everything_unchanged():
    # A non-positive-definite inverse pushes the rank-one denominator
    # n + rho below zero for a far-out x; nothing may move before the refusal.
    sample = draw(reference_model(p=4), 40, 24)
    state = init_stream(sample.head(30), grid_points=np.linspace(-2.0, 2.0, 5))
    for i in range(30, 35):
        state = stream_step(state, sample.covariates[i], float(sample.responses[i]))
    state.sir.moments.inv_cov[...] = -np.eye(4)
    x = state.sir.moments.mean + np.array([100.0, 0.0, 0.0, 0.0])
    before = _engine_arrays(state)

    with pytest.raises(NumericalBreakdownError):
        stream_step(state, x, 0.5)
    with pytest.raises(NumericalBreakdownError):
        recursive_step(state.sir, x, 0.5, state.slicer)
    with pytest.raises(NumericalBreakdownError):
        observe(state.sir.moments, x, 0.5, state.slicer)
    _assert_same_arrays(_engine_arrays(state), before)


def test_functional_steps_never_modify_their_input():
    sample = draw(reference_model(p=5), 40, 25)
    state = init_stream(sample.head(30))
    sir, slicer = state.sir, state.slicer
    before = _engine_arrays(state)
    for i in range(30, 40):
        x, y = sample.covariates[i], float(sample.responses[i])
        stepped = recursive_step(sir, x, y, slicer)
        outputs = (
            stepped.moments,
            observe(sir.moments, x, y, slicer),
        )
        _assert_same_arrays(_engine_arrays(state), before)
        assert not np.shares_memory(stepped.theta_hat, sir.theta_hat)
        for out in outputs:
            for name in ("mean", "inv_cov", "slice_counts", "slice_means"):
                assert not np.shares_memory(getattr(out, name), getattr(sir.moments, name))


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
    n0 = default_warmup(p)
    n = n0 + 1100
    samples = [draw(reference_model(p=p), n, 300 + r) for r in range(reps)]
    checkpoints = (n0, n0 + 1, 500, n0 + _GRID_CHUNK, n)
    batched = direction_paths(samples, checkpoints=checkpoints)
    assert len(batched) == reps
    for sample, path in zip(samples, batched):
        alone = direction_path(sample, checkpoints=checkpoints)
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
