"""Synthetic data generation for single-index regression experiments.

The data model is Y = f(theta' X) + eps with a fixed unit direction theta,
a scalar link f, and independent Gaussian noise.  Covariates default to
standard normal but an arbitrary mean vector and covariance matrix are
accepted.  The reference test bed used throughout the Monte Carlo studies
combines the link f(v) = v * exp(3 v / 4) with the direction proportional
to (1, 2, -2, -1, 0, ..., 0).

A draw is a block source: DrawBlocks yields the rows of draw(model, n,
seed) as (covariates, responses) blocks, and draw reads it as one block,
so one formula makes every sample.  The Monte Carlo studies hand such
sources to engine.direction_paths, which steps them a chunk of rows at a
time, so no study holds its replications' samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

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


# Rows per block of a DrawBlocks read, as many as engine.direction_paths
# steps per chunk (_STEP_CHUNK): a live source pins about one block.  At
# the rate study's shape (40 replications of 2000 rows, p = 10), 256-row
# blocks timed within noise of these and raised the traced peak of
# studies._run_checkpoint_study from 2.7 to 3.1 MiB.
_DRAW_BLOCK = 128
# Normals drawn at a time while the noise generator skips the covariates.
_SKIP_BLOCK = 8192


@dataclass(frozen=True)
class DrawBlocks:
    """The rows of draw(model, n, seed) as (covariates, responses) blocks of about `rows` rows.

    Each iteration draws the rows again from the first, one block at a
    time, so the sample is never held whole.  The first block holds head
    rows, or `rows` rows for a head below 2; the others `rows` rows, except
    the last, which holds the rest.  A last row that would sit alone joins
    the block before it, so no block has one row unless n is 1: numpy
    forms a one-row block's covariates @ direction as a dot, not a
    matrix-vector product, and its bits can differ.  A reader that takes a
    warm-up of head rows and then `rows` rows at a time, as
    engine.direction_paths does, finds each chunk within one block.

    The draw order is draw's: all n p covariate normals, then the n noise
    normals, from one generator seeded with seed.  A read of one block,
    which is draw, takes both from that generator.  A read of more than
    one block takes each block's covariates from it, and its noise from a
    second generator, seeded the same, that first draws and discards the
    n p covariate normals; so every block holds draw's bits for its rows.
    The len() of a source is n.

    Raises:
        ValueError: n is not positive, or rows is less than 2 (at
            construction).
        numpy.linalg.LinAlgError: covariate_cov is not positive definite
            (when it is iterated).
    """

    model: SingleIndexModel
    n: int
    seed: int
    rows: int = _DRAW_BLOCK
    head: int = 0

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.rows < 2:
            raise ValueError("a block needs at least 2 rows")

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        model, n, rows = self.model, self.n, self.rows
        # The covariance's Cholesky factor, as multivariate_normal(method="cholesky") takes it.
        factor = None if model.covariate_cov is None else np.linalg.cholesky(model.covariate_cov)
        rng = np.random.default_rng(self.seed)
        edges = [0, *range(self.head, n, rows)] if self.head >= 2 else list(range(0, n, rows))
        if n - edges[-1] == 1 and n > 1:
            edges.pop()
        edges.append(n)
        noise = rng
        if len(edges) > 2 and model.noise_std > 0.0:
            noise = _skipped(self.seed, n * model.p)
        for a, b in zip(edges, edges[1:]):
            # Yielded unbound, so that no frame here pins a block.
            yield _block(model, factor, rng, noise, b - a)


def _skipped(seed: int, count: int) -> np.random.Generator:
    """A generator seeded with seed, past its first count standard normals."""
    rng = np.random.default_rng(seed)
    scratch = np.empty(min(count, _SKIP_BLOCK))
    for a in range(0, count, _SKIP_BLOCK):
        rng.standard_normal(out=scratch[: min(_SKIP_BLOCK, count - a)])
    return rng


def _block(
    model: SingleIndexModel,
    factor: np.ndarray | None,
    rng: np.random.Generator,
    noise: np.random.Generator,
    rows: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The next rows of a draw: covariates from rng, then noise from noise."""
    xs = rng.standard_normal((rows, model.p))
    if factor is not None:
        # multivariate_normal's transform, with its zero mean for None.
        mean = model.covariate_mean if model.covariate_mean is not None else np.zeros(model.p)
        xs = xs @ factor.T + mean
    elif model.covariate_mean is not None:
        xs = xs + model.covariate_mean
    eps = noise.standard_normal(rows) if model.noise_std > 0.0 else np.zeros(rows)
    ys = np.asarray(model.link(xs @ model.direction), dtype=np.float64)
    return xs, ys + model.noise_std * eps


def draw(model: SingleIndexModel, n: int, seed: int) -> Sample:
    """Draw n observations from the model: DrawBlocks read as one block.

    The draw order is fixed (all covariates first, then the noise vector) so
    a given (model, n, seed) triple reproduces the identical sample bit for
    bit.  Draws with different n are unrelated streams; to study nested
    sample sizes, draw once at the largest n and slice with Sample.head.

    Raises:
        ValueError: n is not positive.
        numpy.linalg.LinAlgError: covariate_cov is not positive definite.
    """
    (block,) = DrawBlocks(model, n, seed, rows=max(n, 2))
    return Sample(*block)
