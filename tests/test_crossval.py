import math

import numpy as np
import pytest

from streamsir import (
    EmptySliceError,
    InsufficientDataError,
    NoSupportError,
    Sample,
    SingleIndexModel,
    Slicer,
    cv_score,
    direction_path,
    draw,
    init_stream,
    predict_next,
    reference_model,
    select_alpha,
    stream_step,
    tabulated_kernel,
)


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
        cv_score(sample, 0.35)


def test_score_is_deterministic():
    sample = _sample()
    a = cv_score(sample, 0.35)
    b = cv_score(sample, 0.35)
    assert a == b
    assert isinstance(a[0], float) and isinstance(a[1], int)


def test_score_requires_more_than_warmup():
    sample = _sample(n=30)
    with pytest.raises(InsufficientDataError):
        cv_score(sample, 0.35)  # default warm-up is 30 rows


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
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        select_alpha(sample, [0.3, 1.2])


def test_parallel_matches_serial():
    sample = _sample(n=140, seed=5)
    serial = select_alpha(sample, [0.25, 0.45], workers=1)
    parallel = select_alpha(sample, [0.25, 0.45], workers=2)
    assert serial.scores == parallel.scores
    assert serial.skipped == parallel.skipped
    assert serial.argmin_index == parallel.argmin_index


def test_custom_slicer_changes_the_replay():
    sample = _sample(n=150, seed=6)
    default = select_alpha(sample, [0.35])
    shifted = select_alpha(sample, [0.35], slicer=Slicer(boundary=1.0))
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
    "kernel, workers, slicer",
    [
        (None, 1, None),
        (None, 2, Slicer(boundary=0.1)),
        (tabulated_kernel(_XS, 0.75 * (1.0 - _XS * _XS)), 1, None),
        (tabulated_kernel(_XS, 0.75 * (1.0 - _XS * _XS)), 2, None),
    ],
)
def test_shared_path_scores_equal_per_exponent_replays(kernel, workers, slicer):
    sample = _sample(n=400, p=5, seed=8)
    grid = [0.1, 0.3, 0.55]
    report = select_alpha(sample, grid, slicer=slicer, kernel=kernel, workers=workers)
    boundary = None if slicer is None else slicer.boundary
    want = [_replay_one_exponent(sample, a, kernel, boundary, 30) for a in grid]
    assert report.scores == tuple(w[0] for w in want)
    assert report.skipped == tuple(w[1] for w in want)
    assert report.counted == tuple(w[2] for w in want)
    assert sum(report.skipped) > 0
    assert cv_score(sample, 0.3, slicer=slicer, kernel=kernel) == want[1][:2]


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
