import numpy as np
import pytest
from scipy import stats as sps

from streamsir import (
    EmptySliceError,
    MomentState,
    Sample,
    SirState,
    Slicer,
    batch_sir,
    direction_distance,
    draw,
    recursive_step,
    reference_model,
    warm_start,
)


def _median_slicer(sample, n0):
    return Slicer(boundary=float(np.median(sample.responses[:n0])))


def test_direction_distance_identity():
    theta = np.array([1.0, 2.0, -1.0])
    assert direction_distance(theta, theta) == 0.0


def test_direction_distance_ignores_scale_and_sign():
    theta = np.array([0.3, -0.7, 2.0])
    assert direction_distance(theta, -2.0 * theta) == 0.0


def test_direction_distance_orthogonal():
    assert direction_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_direction_distance_rejects_zero_vectors():
    with pytest.raises(ValueError):
        direction_distance(np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        direction_distance(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_batch_direction_recovers_the_index():
    model = reference_model(p=10)
    sample = draw(model, 1000, 0)
    slicer = _median_slicer(sample, sample.n)
    theta = batch_sir(sample, slicer)
    # Squared cosine at least 0.95 equals distance at most 0.05.
    assert direction_distance(theta, model.direction) <= 0.05


def test_batch_direction_minimal_sample():
    # n = p + 2 is the precondition boundary; a generic draw at that size
    # is invertible and the median boundary fills both slices.
    rng = np.random.default_rng(5)
    p = 3
    xs = rng.standard_normal((p + 2, p))
    ys = rng.standard_normal(p + 2)
    theta = batch_sir(Sample(xs, ys), Slicer(boundary=float(np.median(ys))))
    assert theta.shape == (p,)
    assert np.all(np.isfinite(theta))


def test_pure_noise_cosine_concentrates_at_one_over_p():
    # Responses independent of covariates: the estimated direction carries
    # no signal, and its squared cosine against a fixed axis averages 1/p.
    p, reps, n = 5, 200, 100
    rng = np.random.default_rng(99)
    axis = np.eye(p)[0]
    cos2 = []
    for _ in range(reps):
        xs = rng.standard_normal((n, p))
        ys = rng.standard_normal(n)
        theta = batch_sir(Sample(xs, ys), Slicer(boundary=float(np.median(ys))))
        cos2.append(1.0 - direction_distance(theta, axis))
    assert abs(float(np.mean(cos2)) - 1.0 / p) <= 0.05


def test_recursive_stream_matches_batch_on_every_prefix():
    model = reference_model(p=10)
    n, n0 = 300, 30
    sample = draw(model, n, 8)
    slicer = _median_slicer(sample, n0)
    state = warm_start(sample.head(n0), slicer)
    for i in range(n0, n):
        state = recursive_step(state, sample.covariates[i], float(sample.responses[i]), slicer)
        batch = batch_sir(sample.head(i + 1), slicer)
        rel = np.max(np.abs(state.theta_hat - batch)) / np.max(np.abs(batch))
        assert rel <= 1e-8


def test_step_at_the_joint_mean_is_pure_rescaling():
    # x equal to both the overall mean and the receiving slice mean makes
    # every correction term vanish, leaving the n/(n-1) rescaling.
    p = 3
    mean = np.array([0.5, -1.0, 2.0])
    moments = MomentState(
        n=4,
        mean=mean,
        inv_cov=np.diag([1.0, 2.0, 0.5]),
        slice_counts=np.array([2, 2], dtype=np.int64),
        slice_means=np.vstack([mean, mean]),
    )
    theta = np.array([1.0, -2.0, 3.0])
    state = SirState(moments=moments, theta_hat=theta)
    stepped = recursive_step(state, mean.copy(), -1.0, Slicer(boundary=0.0))
    assert np.array_equal(stepped.theta_hat, (5.0 / 4.0) * theta)


def test_step_refuses_while_a_slice_is_empty():
    p = 2
    moments = MomentState(
        n=3,
        mean=np.zeros(p),
        inv_cov=np.eye(p),
        slice_counts=np.array([0, 3], dtype=np.int64),
        slice_means=np.zeros((2, p)),
    )
    state = SirState(moments=moments, theta_hat=np.ones(p))
    with pytest.raises(EmptySliceError) as exc:
        recursive_step(state, np.ones(p), 1.0, Slicer(boundary=0.0))
    assert exc.value.slice_index == 1


def test_normalized_error_decreases_with_sample_size():
    # Signed, normalized estimates drift toward the true direction on
    # average as n grows.
    model = reference_model(p=10)
    errors = {500: [], 2000: []}
    for rep in range(100):
        sample = draw(model, 2000, 1000 + rep)
        for n in errors:
            head = sample.head(n)
            slicer = _median_slicer(head, n)
            theta = batch_sir(head, slicer)
            unit = theta / np.linalg.norm(theta)
            if float(unit @ model.direction) < 0.0:
                unit = -unit
            errors[n].append(float(np.linalg.norm(unit - model.direction)))
    assert np.mean(errors[2000]) < np.mean(errors[500])


def test_scale_equivariance():
    sample = draw(reference_model(p=6), 400, 21)
    slicer = _median_slicer(sample, sample.n)
    c = 3.0
    theta = batch_sir(sample, slicer)
    theta_scaled = batch_sir(Sample(c * sample.covariates, sample.responses), slicer)
    assert direction_distance(theta, theta_scaled) <= 1e-8
    assert np.max(np.abs(theta_scaled - theta / c)) <= 1e-8 * np.max(np.abs(theta))


def test_coordinatewise_root_n_normality_shape():
    # Across replications each coordinate of sqrt(n) (theta_hat - c theta),
    # with c the Monte Carlo mean scale, should look Gaussian: skewness
    # and excess kurtosis inside loose gates at n = 1000, N = 200.
    model = reference_model(p=10)
    n, n0, reps = 1000, 30, 200
    thetas = np.empty((reps, model.p))
    for rep in range(reps):
        sample = draw(model, n, rep)
        slicer = _median_slicer(sample, n0)
        state = warm_start(sample.head(n0), slicer)
        for i in range(n0, n):
            state = recursive_step(
                state, sample.covariates[i], float(sample.responses[i]), slicer
            )
        thetas[rep] = state.theta_hat
    c = float(np.mean(thetas @ model.direction))
    centered = np.sqrt(n) * (thetas - c * model.direction)
    skew = sps.skew(centered, axis=0)
    kurt = sps.kurtosis(centered, axis=0, fisher=True)
    assert np.max(np.abs(skew)) < 0.4
    assert np.max(np.abs(kurt)) < 1.0
