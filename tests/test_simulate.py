import math

import numpy as np
import pytest

from streamsir import Sample, SingleIndexModel, draw, reference_link, reference_model


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
