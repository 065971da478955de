import concurrent.futures
import math
from dataclasses import replace

import numpy as np
import pytest

from streamsir import (
    BandwidthSchedule,
    EmptySliceError,
    InsufficientDataError,
    NoSupportError,
    ProjectionLog,
    SingleIndexModel,
    Slicer,
    direction_path,
    draw,
    epanechnikov,
    evaluate,
    init_stream,
    predict_next,
    reference_model,
    select_alpha,
    stream_step,
    tabulated_kernel,
)
from streamsir import crossval
from streamsir.crossval import _replay


def _sample(n=160, p=4, seed=0):
    return draw(reference_model(p=p), n, seed)


def test_constant_responses_cannot_be_sliced():
    # A constant link with zero noise makes every response equal, so no
    # boundary can fill both slices and the warm-up refuses loudly.  The
    # predictions themselves would all be exact (see the constant-response
    # evaluation test); it is the direction machinery that has nothing to
    # work with.
    model = SingleIndexModel(
        direction=np.array([1.0, 0.0, 0.0, 0.0]),
        link=lambda v: np.full_like(np.asarray(v, dtype=np.float64), 2.5),
        noise_std=0.0,
    )
    sample = draw(model, 80, 1)
    assert np.all(sample.responses == 2.5)
    with pytest.raises(EmptySliceError):
        select_alpha(sample, [0.35])


def test_score_is_deterministic():
    sample = _sample()
    a = select_alpha(sample, [0.35])
    b = select_alpha(sample, [0.35])
    assert (a.scores[0], a.skipped[0]) == (b.scores[0], b.skipped[0])
    assert isinstance(a.scores[0], float) and isinstance(a.skipped[0], int)


def test_score_requires_more_than_warmup():
    sample = _sample(n=30)
    with pytest.raises(InsufficientDataError):
        select_alpha(sample, [0.35])  # default warm-up is 30 rows


@pytest.mark.parametrize("warmup", [None, 40])
@pytest.mark.parametrize("short", [1, 0])
def test_a_short_sample_gets_one_message(warmup, short):
    # One row short of the warm-up, or exactly as long: both have nothing
    # to score, and both are told the sample needs more than the warm-up.
    n0 = 30 if warmup is None else warmup
    sample = _sample(n=n0 - short)
    want = f"sample has {n0 - short} rows but scoring needs more than the warm-up ({n0})"
    with pytest.raises(InsufficientDataError) as info:
        select_alpha(sample, [0.35], warmup=warmup)
    assert str(info.value) == want


def test_singleton_grid():
    report = select_alpha(_sample(), [0.35])
    assert report.argmin_alpha == 0.35
    assert report.argmin_index == 0
    assert len(report.scores) == 1


def test_duplicate_grid_keeps_first_minimal_entry():
    sample = _sample()
    report = select_alpha(sample, [0.5, 0.3, 0.3, 0.4])
    # Identical alphas replay identically, so positions 1 and 2 tie and
    # the earlier one must win regardless of evaluation order.
    assert report.scores[1] == report.scores[2]
    if min(report.scores) == report.scores[1]:
        assert report.argmin_index == 1


def test_skip_accounting_is_exact():
    sample = _sample(n=200, seed=3)
    report = select_alpha(sample, [0.15, 0.35, 0.55], warmup=30)
    for skipped, counted in zip(report.skipped, report.counted):
        assert skipped + counted == sample.n - 30
    assert report.warmup_n == 30
    assert report.n == sample.n


def test_flagging_threshold():
    sample = _sample(n=200, seed=3)
    report = select_alpha(sample, [0.15, 0.35], warmup=30)
    for i, flagged in enumerate(report.flagged):
        frac = report.skipped[i] / (sample.n - 30)
        assert flagged == (frac > 0.05)


def test_grid_validation():
    sample = _sample()
    with pytest.raises(ValueError, match="non-empty"):
        select_alpha(sample, [])
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\), got 1.2$"):
        select_alpha(sample, [0.3, 1.2])


def test_custom_slicer_changes_the_replay():
    sample = _sample(n=150, seed=6)
    default = select_alpha(sample, [0.35])
    shifted = select_alpha(sample, [0.35], boundary=1.0)
    assert default.scores != shifted.scores


def test_report_round_trips_to_dict():
    report = select_alpha(_sample(), [0.3, 0.4])
    doc = report.to_dict()
    assert doc["grid"] == [0.3, 0.4]
    assert doc["argmin_alpha"] == report.argmin_alpha
    assert len(doc["scores"]) == 2


def _replay_one_exponent(sample, alpha, kernel, boundary, n0):
    """Reference score: a full init_stream / predict_next / stream_step pass."""
    state = init_stream(sample.head(n0), alpha=alpha, kernel=kernel, boundary=boundary)
    score, skipped, counted = 0.0, 0, 0
    for i in range(n0, sample.n):
        x, y = sample.covariates[i], float(sample.responses[i])
        try:
            pred = predict_next(state, x)
        except NoSupportError:
            skipped += 1
        else:
            score += (y - pred) * (y - pred)
            counted += 1
        state = stream_step(state, x, y)
    return score, skipped, counted


_XS = np.linspace(-1.0, 1.0, 4001)


@pytest.mark.parametrize(
    "kernel, slicer",
    [
        (None, None),
        (None, Slicer(boundary=0.1)),
        (tabulated_kernel(_XS, 0.75 * (1.0 - _XS * _XS)), None),
    ],
)
def test_shared_path_scores_equal_per_exponent_replays(kernel, slicer):
    # Bit for bit against evaluate-then-push over direction_path's
    # projections; within aim 3's 1e-12 of the per-arrival replay, whose
    # projections come from the recursion rather than prefix totals.
    sample = _sample(n=400, p=5, seed=8)
    grid = [0.1, 0.3, 0.55]
    boundary = None if slicer is None else slicer.boundary
    report = select_alpha(sample, grid, boundary=boundary, kernel=kernel)
    path = direction_path(sample, warmup=30, boundary=boundary)
    log_kernel = epanechnikov() if kernel is None else kernel
    exact = [_replay_by_evaluate(path, a, log_kernel) for a in grid]
    assert report.scores == tuple(w[0] for w in exact)
    assert report.skipped == tuple(w[1] for w in exact)
    assert report.counted == tuple(w[2] for w in exact)
    one = select_alpha(sample, [0.3], boundary=boundary, kernel=kernel)
    assert (one.scores[0], one.skipped[0]) == exact[1][:2]

    want = [_replay_one_exponent(sample, a, kernel, boundary, 30) for a in grid]
    for got, w in zip(report.scores, want):
        assert abs(got - w[0]) <= 1e-12 * w[0]
    assert report.skipped == tuple(w[1] for w in want)
    assert report.counted == tuple(w[2] for w in want)
    assert sum(report.skipped) > 0


def _dense_cv(projections, responses, alpha, n0):
    """Reference scores: each y_i predicted from a dense exact sum over j < i."""
    h = (n0 + 1.0 + np.arange(projections.size)) ** -alpha
    score, skipped = [], 0
    for i in range(projections.size):
        t = (projections[i] - projections[:i]) / h[:i]
        w = np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t * t), 0.0) / h[:i]
        den = math.fsum(w)
        if den == 0.0:
            skipped += 1
        else:
            score.append((responses[i] - math.fsum(w * responses[:i]) / den) ** 2)
    return math.fsum(score), skipped


def test_scores_match_a_dense_one_step_ahead_reference():
    sample = _sample(n=400, p=5, seed=21)
    grid = [0.1, 0.3, 0.55]
    report = select_alpha(sample, grid)
    path = direction_path(sample, warmup=report.warmup_n)
    for j, alpha in enumerate(grid):
        want, skipped = _dense_cv(path.projections, path.responses, alpha, report.warmup_n)
        assert report.skipped[j] == skipped, alpha
        assert abs(report.scores[j] - want) <= 1e-12 * want, alpha
    assert sum(report.skipped) > 0


def _replay_by_evaluate(path, alpha, kernel):
    """The per-arrival replay: evaluate on a ProjectionLog, then push."""
    log = ProjectionLog(kernel, BandwidthSchedule(alpha=alpha), first_index=path.warmup_n + 1)
    score, skipped, counted = 0.0, 0, 0
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


# Parabolic kernel stretched to [-2, 2]: support_radius 2.
_WIDE = tabulated_kernel(2.0 * _XS, 0.375 * (1.0 - _XS * _XS))


@pytest.mark.parametrize("kernel", [epanechnikov(), _WIDE], ids=["epanechnikov", "wide"])
@pytest.mark.parametrize("alpha", [0.05, 0.95])
@pytest.mark.parametrize("streamed", [1, 15, 16, 17, 33])
def test_blocked_replay_equals_evaluate_then_push(kernel, alpha, streamed):
    # Short streams, down to one query: each is a single chunk.
    path = direction_path(_sample(n=30 + streamed, p=4, seed=streamed), warmup=30)
    assert path.projections.size == streamed
    assert _replay(path, [alpha], kernel)[0] == _replay_by_evaluate(path, alpha, kernel)


@pytest.mark.parametrize("kernel", [epanechnikov(), _WIDE], ids=["epanechnikov", "wide"])
def test_replay_skips_a_query_on_a_window_edge(kernel):
    path = direction_path(_sample(n=60, p=4, seed=2), warmup=30)
    h0 = BandwidthSchedule(alpha=0.35).h(31)
    edge = kernel.support_radius * h0
    # The second query sits exactly on the first entry's window edge, where
    # K vanishes, so its only weight is 0; the later queries lie inside.
    u = np.array([0.0, edge, 0.25 * edge, -0.5 * edge, 0.5 * edge])
    t = edge / h0
    assert t == kernel.support_radius and kernel.eval(np.array([t]))[0] == 0.0
    path = replace(path, projections=u, responses=np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    got = _replay(path, [0.35], kernel)[0]
    assert got == _replay_by_evaluate(path, 0.35, kernel)
    assert got[1:] == (2, 3)  # skipped: the empty log and the edge query


_KERNELS = pytest.mark.parametrize(
    "kernel", [epanechnikov(), _WIDE], ids=["epanechnikov", "wide"]
)


def _assert_grid_replay_is_exact(path, grid, kernel):
    """One whole-grid _replay equals an evaluate-then-push replay per exponent."""
    got = _replay(path, grid, kernel)
    assert got == [_replay_by_evaluate(path, a, kernel) for a in grid]
    return got


@_KERNELS
def test_an_unsorted_grid_with_a_duplicate_replays_exactly(kernel):
    path = direction_path(_sample(n=330, p=4, seed=4), warmup=30)
    got = _assert_grid_replay_is_exact(path, [0.5, 0.1, 0.35, 0.1], kernel)
    assert got[1] == got[3]


@_KERNELS
def test_projections_with_many_exact_ties_replay_exactly(kernel):
    path = direction_path(_sample(n=330, p=4, seed=5), warmup=30)
    # Quarter steps: under 40 distinct values over 300 queries.
    path = replace(path, projections=np.round(4.0 * path.projections) / 4.0)
    assert np.unique(path.projections).size < 40
    _assert_grid_replay_is_exact(path, [0.1, 0.3, 0.6], kernel)


@_KERNELS
def test_a_narrow_window_edge_inside_the_widest_window_replays_exactly(kernel):
    path = direction_path(_sample(n=60, p=4, seed=2), warmup=30)
    edge = kernel.support_radius * BandwidthSchedule(alpha=0.35).h(31)
    # The second query sits exactly on the first entry's alpha = 0.35 edge,
    # where K vanishes, but well inside its alpha = 0.1 window.
    u = np.array([0.0, edge, 0.25 * edge, -0.5 * edge, 0.5 * edge])
    path = replace(path, projections=u, responses=np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    wide, narrow = _assert_grid_replay_is_exact(path, [0.1, 0.35], kernel)
    assert narrow[1:] == (2, 3)  # skipped: the empty log and the edge query
    assert wide[1:] == (1, 4)


@_KERNELS
@pytest.mark.parametrize("streamed", [31, 32, 33, 65])
def test_replay_across_chunk_edges_is_exact(monkeypatch, kernel, streamed):
    # 32 cells per streamed query make every chunk exactly 32 queries.
    monkeypatch.setattr(crossval, "_REPLAY_CELLS", 32 * streamed)
    path = direction_path(_sample(n=30 + streamed, p=4, seed=streamed), warmup=30)
    _assert_grid_replay_is_exact(path, [0.05, 0.35, 0.95], kernel)


@_KERNELS
def test_projections_far_from_zero_replay_exactly(kernel):
    path = direction_path(_sample(n=330, p=4, seed=6), warmup=30)
    path = replace(path, projections=path.projections + 1e6)
    _assert_grid_replay_is_exact(path, [0.1, 0.35, 0.6], kernel)


def test_a_window_edge_that_rounding_moves_is_still_searched():
    # With R = 1.5 and h = 6 ** -0.5, R h / h rounds to just below 1.5.  The
    # two projections have opposite signs, so u_q - u_j rounds down onto
    # R h exactly while u_j + R h rounds below u_q: only the search's slack
    # finds this pair, and its weight is positive, so the query counts.
    kernel = tabulated_kernel(1.5 * _XS, 0.5 * (1.0 - _XS * _XS))
    path = direction_path(_sample(n=40, p=4, seed=2), warmup=30)
    u = np.array([-0.313425454959475, 0.29894698073631953])
    path = replace(path, warmup_n=5, projections=u, responses=np.array([1.0, 2.0]))
    h = BandwidthSchedule(alpha=0.5).h(6)
    reach = kernel.support_radius * h
    assert u[1] - u[0] == reach and u[1] > u[0] + reach
    assert kernel.eval(np.array([reach / h]))[0] > 0.0
    got = _assert_grid_replay_is_exact(path, [0.5], kernel)
    assert got[0][1:] == (1, 1)


@_KERNELS
def test_windows_that_are_not_nested_still_replay_exactly(monkeypatch, kernel):
    # Widen every third alpha = 0.3 window past the alpha = 0.2 one, as a
    # rounding slip in the power could in principle do, for the log and the
    # replay alike: the larger exponent must search its own candidates.
    plain = BandwidthSchedule.h

    def skewed(self, k):
        out = plain(self, k)
        return out * np.where(np.asarray(k) % 3 == 0, 3.0, 1.0) if self.alpha == 0.3 else out

    monkeypatch.setattr(BandwidthSchedule, "h", skewed)
    path = direction_path(_sample(n=330, p=4, seed=7), warmup=30)
    got = _assert_grid_replay_is_exact(path, [0.2, 0.3], kernel)
    assert got[0] != got[1]


def test_no_process_pool_is_started(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("select_alpha started a process pool")

    # Patching the class itself also catches a name bound at import time.
    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", refuse)
    sample = _sample(n=140, seed=5)
    grid = [0.25, 0.45]
    assert select_alpha(sample, grid).grid == tuple(grid)
