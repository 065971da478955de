import numpy as np
import pytest

from streamsir import (
    EmptySliceError,
    InsufficientDataError,
    MomentState,
    NumericalBreakdownError,
    Sample,
    SingularMatrixError,
    SirState,
    Slicer,
    batch_moments,
    direction_from_moments,
)
from streamsir.sir import recursive_step
from conftest import stepped_moments


def _random_sample(n, p, seed, spread=2.0):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, p))
    ys = rng.standard_normal(n) * spread
    return Sample(xs, ys)


def test_slicer_boundary_is_inclusive_on_the_low_side():
    s = Slicer(boundary=1.5)
    assert s.slice_of(1.5) == 1
    assert s.slice_of(1.5000001) == 2
    assert np.array_equal(s.slices_of(np.array([0.0, 1.5, 2.0])), [1, 1, 2])


def test_hand_computed_univariate_inverse():
    # p = 1, x = 1, 2, 3: mean 2, biased variance ((-1)^2 + 0 + 1^2)/3 = 2/3,
    # inverse 1.5.
    sample = Sample(np.array([[1.0], [2.0], [3.0]]), np.array([0.0, 1.0, 2.0]))
    state = batch_moments(sample, Slicer(boundary=0.5))
    assert state.n == 3
    assert state.mean[0] == pytest.approx(2.0, rel=1e-15)
    assert state.inv_cov[0, 0] == pytest.approx(1.5, rel=1e-12)


def test_identical_rows_are_singular():
    xs = np.ones((8, 3))
    ys = np.linspace(-1.0, 1.0, 8)
    with pytest.raises(SingularMatrixError) as exc:
        batch_moments(Sample(xs, ys), Slicer(boundary=0.0))
    assert exc.value.ratio < 1e-10


def test_empty_slice_is_an_error():
    sample = _random_sample(20, 2, 0)
    with pytest.raises(EmptySliceError) as exc:
        batch_moments(sample, Slicer(boundary=1e9))
    assert exc.value.slice_index == 2


def test_too_few_rows():
    sample = _random_sample(4, 3, 1)
    with pytest.raises(InsufficientDataError):
        batch_moments(sample, Slicer(boundary=0.0))


def test_one_riccati_step_equals_direct_inverse():
    # Warm up on 5 rows at p = 2, absorb a sixth, and compare against the
    # matrix inverse of the 6-row batch covariance.
    sample = _random_sample(6, 2, 7)
    slicer = Slicer(boundary=0.0)
    state = batch_moments(sample.head(5), slicer)
    stepped = stepped_moments(state, sample.covariates[5], float(sample.responses[5]), slicer)

    xs = sample.covariates
    mean = xs.mean(axis=0)
    centered = xs - mean
    direct = np.linalg.inv(centered.T @ centered / 6)
    assert np.max(np.abs(stepped.inv_cov - direct)) <= 1e-10
    assert np.max(np.abs(stepped.mean - mean)) <= 1e-12


def test_update_at_the_mean_is_pure_rescaling():
    sample = _random_sample(12, 3, 3)
    slicer = Slicer(boundary=0.0)
    state = batch_moments(sample, slicer)
    stepped = stepped_moments(state, state.mean.copy(), 1.0, slicer)
    n_new = state.n + 1
    # phi = 0 kills the rank-one term, so the inverse scales exactly.
    assert np.array_equal(stepped.inv_cov, (n_new / (n_new - 1.0)) * state.inv_cov)
    assert np.array_equal(stepped.mean, state.mean)


def test_chain_of_updates_tracks_direct_inversion():
    # 500-observation stream at p = 10; after warm-up, every prefix's
    # maintained inverse must invert the batch covariance of that prefix.
    n, p, n0 = 500, 10, 30
    sample = _random_sample(n, p, 17)
    slicer = Slicer(boundary=0.0)
    state = batch_moments(sample.head(n0), slicer)
    xs = sample.covariates
    worst = 0.0
    for i in range(n0, n):
        state = stepped_moments(state, xs[i], float(sample.responses[i]), slicer)
        prefix = xs[: i + 1]
        centered = prefix - prefix.mean(axis=0)
        cov = centered.T @ centered / (i + 1)
        err = np.max(np.abs(state.inv_cov @ cov - np.eye(p)))
        worst = max(worst, err)
    assert worst <= 1e-8


def test_single_slice_stream_keeps_exact_mean():
    # Values 1, 2, 3 make every intermediate division exact in binary
    # floating point, so the recursive slice mean equals the batch mean
    # bit for bit; the untouched slice keeps its one row.
    p = 2
    rows = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    state = MomentState(
        n=2,
        mean=np.zeros(p),
        inv_cov=np.eye(p),
        slice_counts=np.array([1, 1], dtype=np.int64),
        slice_means=np.zeros((2, p)),
    )
    state.slice_means[0] = rows[0]
    sir = SirState(state, direction_from_moments(state))
    for row in rows[1:]:
        sir = recursive_step(sir, row, -1.0, Slicer(boundary=0.0))
    assert np.array_equal(sir.moments.slice_means[0], rows.mean(axis=0))
    assert sir.moments.slice_counts[0] == 3
    assert sir.moments.slice_counts[1] == 1


def test_mixed_stream_slice_means_match_batch():
    n, p, n0 = 200, 3, 20
    sample = _random_sample(n, p, 23)
    slicer = Slicer(boundary=float(np.median(sample.responses[:n0])))
    state = batch_moments(sample.head(n0), slicer)
    for i in range(n0, n):
        state = stepped_moments(state, sample.covariates[i], float(sample.responses[i]), slicer)
    batch = batch_moments(sample, slicer)
    assert np.array_equal(state.slice_counts, batch.slice_counts)
    rel = np.max(
        np.abs(state.slice_means - batch.slice_means) / np.maximum(np.abs(batch.slice_means), 1e-12)
    )
    assert rel <= 1e-12


def test_centered_slice_means_balance():
    # n1 (m1 - mean) + n2 (m2 - mean) telescopes to zero regardless of the
    # slicing, because both sides sum the same covariate rows.
    n, p, n0 = 150, 4, 25
    sample = _random_sample(n, p, 31)
    slicer = Slicer(boundary=0.3)
    state = batch_moments(sample.head(n0), slicer)
    for i in range(n0, n):
        state = stepped_moments(state, sample.covariates[i], float(sample.responses[i]), slicer)
        n1, n2 = (int(c) for c in state.slice_counts)
        balance = n1 * (state.slice_means[0] - state.mean) + n2 * (
            state.slice_means[1] - state.mean
        )
        assert np.max(np.abs(balance)) <= 1e-10
        assert n1 + n2 == state.n


def test_denominator_breakdown_is_loud():
    # A non-positive-definite inverse can push the update denominator
    # below zero; the update must refuse rather than divide through.
    p = 2
    state = MomentState(
        n=1,
        mean=np.zeros(p),
        inv_cov=-np.eye(p),
        slice_counts=np.array([1, 1], dtype=np.int64),
        slice_means=np.zeros((2, p)),
    )
    with pytest.raises(NumericalBreakdownError):
        stepped_moments(state, np.array([4.0, 0.0]), -1.0, Slicer(boundary=0.0))
