import math

import numpy as np
import pytest

from streamsir import Sample, SingleIndexModel, draw, reference_link, reference_model
from streamsir.simulate import DrawBlocks


def test_link_at_zero():
    assert reference_link(0.0) == 0.0


def test_link_at_one():
    # Oracle: direct evaluation of v * exp(3 v / 4) at v = 1.
    assert reference_link(1.0) == pytest.approx(math.exp(0.75), rel=1e-15)


def test_link_vectorized():
    v = np.array([-1.0, 0.0, 2.0])
    out = reference_link(v)
    assert out.shape == (3,)
    assert out[1] == 0.0
    assert out[2] == pytest.approx(2.0 * math.exp(1.5), rel=1e-15)


def test_reference_model_direction():
    m = reference_model(p=10)
    expected = np.zeros(10)
    expected[:4] = np.array([1.0, 2.0, -2.0, -1.0]) / np.sqrt(10.0)
    assert np.array_equal(m.direction, expected)
    assert np.linalg.norm(m.direction) == pytest.approx(1.0, abs=1e-12)


def test_reference_model_needs_room_for_loadings():
    with pytest.raises(ValueError):
        reference_model(p=3)


def test_direction_must_be_unit():
    with pytest.raises(ValueError, match="unit norm"):
        SingleIndexModel(direction=np.array([1.0, 1.0]))


def test_negative_noise_rejected():
    theta = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="non-negative"):
        SingleIndexModel(direction=theta, noise_std=-0.5)


@pytest.mark.parametrize("noise_std", [np.nan, np.inf])
def test_non_finite_noise_rejected(noise_std):
    with pytest.raises(ValueError, match="must be finite"):
        SingleIndexModel(direction=np.array([1.0, 0.0]), noise_std=noise_std)
    with pytest.raises(ValueError, match="must be finite"):
        reference_model(p=4, noise_std=noise_std)


def test_models_compare_by_value():
    a = reference_model(p=10)
    assert a == reference_model(p=10) and not a != reference_model(p=10)
    theta = a.direction.copy()
    for other in (
        reference_model(p=11),
        reference_model(p=10, noise_std=2.0),
        SingleIndexModel(direction=theta[::-1]),
        SingleIndexModel(direction=theta, link=lambda v: reference_link(v)),
        SingleIndexModel(direction=theta, covariate_mean=np.zeros(10)),
        SingleIndexModel(direction=theta, covariate_cov=np.eye(10)),
    ):
        assert a != other and other != a and not a == other
    # Arrays compare by value; None equals only None.
    with_moments = dict(direction=theta, covariate_mean=np.ones(10), covariate_cov=2.0 * np.eye(10))
    assert SingleIndexModel(**with_moments) == SingleIndexModel(
        **{k: v.copy() for k, v in with_moments.items()}
    )
    assert a.__eq__(theta) is NotImplemented
    with pytest.raises(TypeError, match="SingleIndexModel"):
        hash(a)


def test_draw_deterministic():
    m = reference_model(p=10)
    a = draw(m, 5, 42)
    b = draw(m, 5, 42)
    assert np.array_equal(a.covariates, b.covariates)
    assert np.array_equal(a.responses, b.responses)


def test_noiseless_responses_exact():
    m = reference_model(p=6, noise_std=0.0)
    s = draw(m, 50, 3)
    expected = reference_link(s.covariates @ m.direction)
    assert np.array_equal(s.responses, expected)


def test_projection_law_of_large_numbers():
    # theta' X ~ N(0, 1) because the direction is unit and the covariance
    # identity, so the empirical mean and variance pin down near (0, 1).
    m = reference_model(p=10)
    s = draw(m, 100_000, 11)
    u = s.covariates @ m.direction
    assert abs(float(np.mean(u))) <= 0.02
    assert abs(float(np.var(u)) - 1.0) <= 0.05


def test_projected_moments_with_general_covariance():
    theta = np.array([0.6, 0.8])
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    mean = np.array([1.0, -1.0])
    m = SingleIndexModel(direction=theta, covariate_mean=mean, covariate_cov=cov)
    assert m.projected_variance() == pytest.approx(float(theta @ cov @ theta), rel=1e-15)
    assert m.projected_mean() == pytest.approx(float(theta @ mean), rel=1e-15)
    s = draw(m, 40_000, 5)
    u = s.covariates @ theta
    assert float(np.mean(u)) == pytest.approx(m.projected_mean(), abs=0.05)
    assert float(np.var(u)) == pytest.approx(m.projected_variance(), rel=0.05)


def test_sample_shape_validation():
    with pytest.raises(ValueError):
        Sample(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        Sample(np.zeros((3, 2)), np.zeros(4))


def test_sample_head():
    s = Sample(np.arange(12.0).reshape(6, 2), np.arange(6.0))
    h = s.head(2)
    assert h.n == 2 and h.p == 2
    assert np.array_equal(h.covariates, s.covariates[:2])
    assert np.array_equal(h.responses, s.responses[:2])


def test_draw_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        draw(reference_model(), 0, 1)


def _whole_draw(model, n, seed):
    """draw's formula on the whole sample: every covariate, then the noise, from one generator."""
    rng = np.random.default_rng(seed)
    if model.covariate_cov is None:
        xs = rng.standard_normal((n, model.p))
        if model.covariate_mean is not None:
            xs = xs + model.covariate_mean
    else:
        mean = model.covariate_mean if model.covariate_mean is not None else np.zeros(model.p)
        xs = rng.multivariate_normal(mean, model.covariate_cov, size=n, method="cholesky")
    noise = rng.standard_normal(n) if model.noise_std > 0.0 else np.zeros(n)
    ys = np.asarray(model.link(xs @ model.direction), dtype=np.float64)
    return xs, ys + model.noise_std * noise


def _general_model(cov):
    theta = np.zeros(6)
    theta[:2] = (0.6, -0.8)
    mean = np.linspace(-1.0, 1.5, 6)
    return SingleIndexModel(direction=theta, covariate_mean=mean, covariate_cov=cov)


def _covariance():
    a = np.random.default_rng(12).standard_normal((6, 6))
    return a @ a.T + 0.5 * np.eye(6)


_MODELS = {
    "reference": lambda: reference_model(p=10),
    "noiseless": lambda: reference_model(p=10, noise_std=0.0),
    "mean": lambda: _general_model(None),
    "cov-and-mean": lambda: _general_model(_covariance()),
}


def _same_bits(a, b):
    """Equal float64 bits, so that -0.0 differs from 0.0 and NaN equals its own pattern."""
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.int64), np.ascontiguousarray(b).view(np.int64)
    )


@pytest.mark.parametrize("n", [1, 2, 17, 128, 129, 130, 257, 2001])
@pytest.mark.parametrize("name", list(_MODELS))
def test_a_draw_source_gives_the_bits_of_draw(name, n):
    # The noise of a read of more than one block comes from a second
    # generator that skips the n p covariate normals, so each block has
    # draw's bits; draw, one block, keeps the bits of the whole formula.
    model = _MODELS[name]()
    sample = draw(model, n, 7)
    xs, ys = _whole_draw(model, n, 7)
    assert _same_bits(sample.covariates, xs) and _same_bits(sample.responses, ys)
    for rows in (16, 128):
        source = DrawBlocks(model, n, 7, rows=rows)
        assert len(source) == n
        first, second = list(source), list(source)
        # No block has one row unless n is 1: numpy would form its
        # projection as a dot product, whose bits can differ.
        assert all(y.shape[0] > 1 for _, y in first) or n == 1
        assert [y.shape[0] for _, y in first[:-1]] == [rows] * (len(first) - 1)
        assert _same_bits(np.concatenate([x for x, _ in first]), sample.covariates)
        assert _same_bits(np.concatenate([y for _, y in first]), sample.responses)
        # A second iteration draws the same blocks again.
        assert len(first) == len(second)
        for (x1, y1), (x2, y2) in zip(first, second):
            assert _same_bits(x1, x2) and _same_bits(y1, y2)


@pytest.mark.parametrize("n", [30, 31, 32, 159, 2001])
def test_a_draw_source_can_cut_a_head_block(n):
    # A head of 30 rows, the default warm-up at p = 10, then 128-row blocks;
    # a head below 2 rows cuts nothing.
    model = reference_model(p=10)
    sample = draw(model, n, 3)
    for head in (0, 1, 30):
        blocks = list(DrawBlocks(model, n, 3, head=head))
        sizes = [y.shape[0] for _, y in blocks]
        assert sum(sizes) == n and min(sizes) > 1
        if head == 30 and n > 31:
            assert sizes[0] == 30
        assert _same_bits(np.concatenate([x for x, _ in blocks]), sample.covariates)
        assert _same_bits(np.concatenate([y for _, y in blocks]), sample.responses)


def test_a_draw_source_refuses_what_draw_refuses():
    # A covariance that is not positive definite raises what
    # multivariate_normal(method="cholesky") raised inside draw.
    cov = _covariance()
    cov[0, 1] = cov[1, 0] = 10.0 * np.sqrt(cov[0, 0] * cov[1, 1])
    model = _general_model(cov)
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.random.default_rng(0).multivariate_normal(
            model.covariate_mean, cov, size=300, method="cholesky"
        )
    with pytest.raises(np.linalg.LinAlgError) as got:
        draw(model, 300, 0)
    assert str(got.value) == str(want.value)
    source = DrawBlocks(model, 300, 0, rows=16)
    with pytest.raises(np.linalg.LinAlgError) as got:
        next(iter(source))
    assert str(got.value) == str(want.value)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be positive"):
            DrawBlocks(reference_model(), n, 1)
    with pytest.raises(ValueError, match="at least 2 rows"):
        DrawBlocks(reference_model(), 10, 1, rows=1)
