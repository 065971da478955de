"""Synthetic data generation for single-index regression experiments.

The data model is Y = f(theta' X) + eps with a fixed unit direction theta,
a scalar link f, and independent Gaussian noise.  Covariates default to
standard normal but an arbitrary mean vector and covariance matrix are
accepted.  The reference test bed used throughout the Monte Carlo studies
combines the link f(v) = v * exp(3 v / 4) with the direction proportional
to (1, 2, -2, -1, 0, ..., 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def reference_link(v: np.ndarray | float) -> np.ndarray | float:
    """Link function v * exp(3 v / 4) used by the reference model."""
    v = np.asarray(v, dtype=np.float64)
    out = v * np.exp(0.75 * v)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Sample:
    """A finite batch of (covariate, response) pairs, in arrival order.

    Attributes:
        covariates: array of shape (n, p), one observation per row.
        responses: array of shape (n,).
    """

    covariates: np.ndarray
    responses: np.ndarray

    def __post_init__(self) -> None:
        xs = np.ascontiguousarray(np.asarray(self.covariates, dtype=np.float64))
        ys = np.ascontiguousarray(np.asarray(self.responses, dtype=np.float64))
        if xs.ndim != 2:
            raise ValueError("covariates must be a 2-d array")
        if ys.ndim != 1:
            raise ValueError("responses must be a 1-d array")
        if xs.shape[0] != ys.shape[0]:
            raise ValueError(
                f"covariate rows ({xs.shape[0]}) and responses ({ys.shape[0]}) disagree"
            )
        object.__setattr__(self, "covariates", xs)
        object.__setattr__(self, "responses", ys)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    def head(self, n: int) -> "Sample":
        """First n observations as a new Sample."""
        return Sample(self.covariates[:n], self.responses[:n])


@dataclass(frozen=True, eq=False)
class SingleIndexModel:
    """Population description of a single-index regression.

    Models compare by value: the arrays with np.array_equal (a None field
    equals only None), link by identity and noise_std with ==.  The arrays
    are mutable, so a model is unhashable.

    Attributes:
        direction: unit vector theta of length p.
        link: vectorized scalar function f.
        noise_std: standard deviation of the additive Gaussian noise.
        covariate_mean: mean of the covariate vector; None means zero.
        covariate_cov: covariance of the covariate vector; None means identity.
    """

    direction: np.ndarray
    link: Callable[[np.ndarray], np.ndarray] = reference_link
    noise_std: float = 1.0
    covariate_mean: np.ndarray | None = None
    covariate_cov: np.ndarray | None = None

    def __post_init__(self) -> None:
        theta = np.asarray(self.direction, dtype=np.float64)
        if theta.ndim != 1 or theta.size == 0:
            raise ValueError("direction must be a non-empty 1-d vector")
        norm = float(np.linalg.norm(theta))
        # Identification is only up to scale, so a unit direction is required
        # rather than silently renormalizing what the caller provided.
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"direction must have unit norm, got {norm!r}")
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be finite and non-negative, got {self.noise_std!r}")
        object.__setattr__(self, "direction", theta)
        if self.covariate_mean is not None:
            m = np.asarray(self.covariate_mean, dtype=np.float64)
            if m.shape != theta.shape:
                raise ValueError("covariate_mean length must match direction")
            object.__setattr__(self, "covariate_mean", m)
        if self.covariate_cov is not None:
            c = np.asarray(self.covariate_cov, dtype=np.float64)
            if c.shape != (theta.size, theta.size):
                raise ValueError("covariate_cov must be p x p")
            object.__setattr__(self, "covariate_cov", c)

    __hash__ = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SingleIndexModel):
            return NotImplemented
        arrays = ("direction", "covariate_mean", "covariate_cov")
        return (
            self.link is other.link
            and self.noise_std == other.noise_std
            and all(_same_array(getattr(self, a), getattr(other, a)) for a in arrays)
        )

    @property
    def p(self) -> int:
        return self.direction.size

    def projected_variance(self) -> float:
        """Variance of theta' X under the model's covariate law."""
        if self.covariate_cov is None:
            return float(self.direction @ self.direction)
        return float(self.direction @ self.covariate_cov @ self.direction)

    def projected_mean(self) -> float:
        """Mean of theta' X under the model's covariate law."""
        if self.covariate_mean is None:
            return 0.0
        return float(self.direction @ self.covariate_mean)


def _same_array(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    """np.array_equal, where None equals only None."""
    return a is b if a is None or b is None else bool(np.array_equal(a, b))


def reference_model(p: int = 10, noise_std: float = 1.0) -> SingleIndexModel:
    """Reference test bed: theta ~ (1, 2, -2, -1, 0, ...) / sqrt(10), f(v) = v exp(3v/4).

    Parameters
    ----------
    p : int
        Covariate dimension, at least 4 so the four loaded coordinates fit.
    noise_std : float
        Noise standard deviation, 1.0 in the canonical configuration.
    """
    if p < 4:
        raise ValueError("reference model needs p >= 4")
    theta = np.zeros(p, dtype=np.float64)
    theta[:4] = (1.0, 2.0, -2.0, -1.0)
    theta /= np.sqrt(10.0)
    return SingleIndexModel(direction=theta, link=reference_link, noise_std=noise_std)


def draw(model: SingleIndexModel, n: int, seed: int) -> Sample:
    """Draw n observations from the model.

    The draw order is fixed (all covariates first, then the noise vector) so
    a given (model, n, seed) triple reproduces the identical sample bit for
    bit.  Draws with different n are unrelated streams; to study nested
    sample sizes, draw once at the largest n and slice with Sample.head.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    p = model.p
    if model.covariate_cov is None:
        xs = rng.standard_normal((n, p))
        if model.covariate_mean is not None:
            xs = xs + model.covariate_mean
    else:
        mean = model.covariate_mean if model.covariate_mean is not None else np.zeros(p)
        xs = rng.multivariate_normal(mean, model.covariate_cov, size=n, method="cholesky")
    noise = rng.standard_normal(n) if model.noise_std > 0.0 else np.zeros(n)
    ys = np.asarray(model.link(xs @ model.direction), dtype=np.float64)
    ys = ys + model.noise_std * noise
    return Sample(xs, ys)
