"""Recursive sliced-inverse-regression estimate of the index direction.

The target direction is identified only up to a nonzero scalar, so the
estimator tracks theta_hat = inv_cov @ (z_1 - z_2), where z_h is the
centered covariate mean of response slice h.  After a batch warm-up the
estimate advances by a closed-form recursion that combines the rank-one
inverse-covariance correction with the single slice-mean move caused by the
arriving observation; the recursion reproduces the batch estimate exactly
in real arithmetic, which the test suite checks to floating-point accuracy.

Proximity between directions is measured scale- and sign-invariantly by
1 - cos^2(angle), which is zero iff the two vectors are collinear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySliceError
from .moments import (
    MomentState,
    Slicer,
    batch_moments,
    finite_covariates,
    finite_response,
)
from .simulate import Sample


@dataclass
class SirState:
    """Direction estimate bundled with the moment state that produced it.

    advance steps both in place; recursive_step is the copying form.

    Attributes:
        moments: running moments after n observations.
        theta_hat: current direction estimate, shape (p,); not normalized,
            since the target is only identified up to scale.
    """

    moments: MomentState
    theta_hat: np.ndarray


def direction_from_moments(moments: MomentState) -> np.ndarray:
    """theta_hat = inv_cov @ (z_1 - z_2) read off a moment state."""
    return moments.inv_cov @ moments.centered_slice_diff()


def batch_sir(sample: Sample, slicer: Slicer) -> np.ndarray:
    """One-shot direction estimate from a full batch.

    Ground truth for the recursive path; shares all failure modes of
    batch_moments.
    """
    return direction_from_moments(batch_moments(sample, slicer))


def warm_start(sample: Sample, slicer: Slicer) -> SirState:
    """Initialize the recursion from a batch over the warm-up sample."""
    moments = batch_moments(sample, slicer)
    return SirState(moments=moments, theta_hat=direction_from_moments(moments))


def step_terms(state: SirState, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Run every check of a step on x and return the rank-one terms for advance.

    Changes nothing, so a step that would fail raises before anything moves.

    Raises:
        EmptySliceError: a slice count is still zero, so the slice-mean
            difference that the recursion corrects is not yet defined.
        NumericalBreakdownError: the rank-one denominator n + rho is not
            positive.
    """
    counts = state.moments.slice_counts
    if int(counts[0]) <= 0 or int(counts[1]) <= 0:
        h_empty = 1 if int(counts[0]) <= 0 else 2
        raise EmptySliceError(
            f"cannot step the recursion while slice {h_empty} is empty", h_empty
        )
    return state.moments.rank_one_terms(x)


def advance(
    state: SirState, x: np.ndarray, i: int, terms: tuple[np.ndarray, np.ndarray, float]
) -> None:
    """Advance theta and the moments by one observation, in place.

    x is a finite float64 vector, i the 0-based slice of its response and
    terms = (phi, w, n + rho) from step_terms (or rank_one_terms) on the
    same state, taken before the step so that a failure raises while
    nothing has changed.  Writing inv for the pre-update inverse covariance,
    phi = x - mean_old, w = inv @ phi, rho = phi' w, n for the post-update
    count, h = i + 1 for the receiving slice with pre-update count c, and
    phi_h = x - slice_mean_h, the update is

        theta_new = (n / (n - 1)) * (theta - (phi' theta) w / (n + rho))
                    - sign(h) * n / ((c + 1) (n - 1))
                      * (inv @ phi_h - (w' phi_h) w / (n + rho)),

    with sign(1) = -1 and sign(2) = +1: mass entering the low slice pushes
    the slice-mean difference up, mass entering the high slice pulls it down.
    The w and phi_h also drive the moment update, so inv @ phi is formed
    once per step.
    """
    phi, w, denom = terms
    m, theta = state.moments, state.theta_hat
    n_new = m.n + 1
    c_old = int(m.slice_counts[i])
    phi_h = x - m.slice_means[i]
    v = m.inv_cov @ phi_h
    # w' phi_h equals phi' inv phi_h by symmetry of the maintained inverse.
    cross = float(w @ phi_h)
    sign = -1.0 if i == 0 else 1.0

    theta -= (float(phi @ theta) / denom) * w
    theta *= n_new / (n_new - 1.0)
    v -= (cross / denom) * w
    v *= sign * n_new / ((c_old + 1) * (n_new - 1.0))
    theta -= v

    m.absorb_covariate(phi, w, denom)
    m.absorb_slice(i, phi_h)


def recursive_step(state: SirState, x: np.ndarray, y: float, slicer: Slicer) -> SirState:
    """Advance the direction estimate by one observation (see advance).

    Works on a copy, so the given state is never modified.

    Raises:
        NonFiniteInputError: x or y holds NaN or inf.
        EmptySliceError, NumericalBreakdownError: as step_terms.
    """
    x, y = finite_covariates(x), finite_response(y)
    terms = step_terms(state, x)
    new = SirState(moments=state.moments.copy(), theta_hat=state.theta_hat.copy())
    advance(new, x, slicer.slice_of(y) - 1, terms)
    return new


def direction_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Scale- and sign-invariant distance 1 - cos^2(a, b), in [0, 1].

    Raises:
        ValueError: either vector is zero (the angle is undefined).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("vectors must have the same shape")
    aa = float(a @ a)
    bb = float(b @ b)
    if aa == 0.0 or bb == 0.0:
        raise ValueError("direction_distance is undefined for a zero vector")
    cos2 = (float(a @ b) ** 2) / (aa * bb)
    # cos^2 can exceed 1 by a few ulp for collinear inputs.
    return float(min(1.0, max(0.0, 1.0 - cos2)))
