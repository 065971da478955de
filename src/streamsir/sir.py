"""Recursive sliced-inverse-regression estimate of the index direction.

The target direction is identified only up to a nonzero scalar, so the
estimator tracks theta_hat = inv_cov @ (z_1 - z_2), where z_h is the
centered covariate mean of response slice h.  After a batch warm-up the
estimate advances by a closed-form recursion that combines the rank-one
inverse-covariance correction with the single slice-mean move caused by the
arriving observation; the recursion reproduces the batch estimate exactly
in real arithmetic, which the test suite checks to floating-point accuracy.

This module owns the whole step.  rank_one_terms forms the terms of the
rank-one correction and step_terms adds the slice check; both change
nothing, so a step that would fail raises before anything moves.  advance
then moves theta and every field of the MomentState in place, and
recursive_step is its copying form.

Proximity between directions is measured scale- and sign-invariantly by
1 - cos^2(angle), which is zero iff the two vectors are collinear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySliceError, NumericalBreakdownError
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
    return moments.inv_cov @ (moments.slice_means[0] - moments.slice_means[1])


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


def rank_one_terms(moments: MomentState, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """phi = x - mean, w = inv @ phi and the update denominator n + rho.

    Changes nothing, so a breakdown leaves the moments as they were.

    Raises:
        NumericalBreakdownError: the denominator is not finite and
            positive.  It is positive in exact arithmetic once the
            covariance is positive definite; an infinite one, from a row
            whose rho overflows, would turn the inverse to NaN.
    """
    n_new = moments.n + 1
    phi = x - moments.mean
    w = moments.inv_cov @ phi
    denom = n_new + float(phi @ w)
    if not 0.0 < denom < math.inf:
        raise NumericalBreakdownError(
            f"rank-one update denominator {denom!r} is not finite and positive at n = {n_new}"
        )
    return phi, w, denom


def step_terms(state: SirState, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Run every check of a step on x and return the rank-one terms for advance.

    Changes nothing, so a step that would fail raises before anything moves.

    Raises:
        EmptySliceError: a slice count is still zero, so the slice-mean
            difference that the recursion corrects is not yet defined.
        NumericalBreakdownError: the rank-one denominator n + rho is not
            finite and positive.
    """
    low, high = state.moments.slice_counts.tolist()
    if low <= 0 or high <= 0:
        h_empty = 1 if low <= 0 else 2
        raise EmptySliceError(
            f"cannot step the recursion while slice {h_empty} is empty", h_empty
        )
    return rank_one_terms(state.moments, x)


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
    once per step: the inverse takes the rank-one correction

        inv_new = (n / (n - 1)) * (inv - w w' / (n + rho)),

    then mean_new = mean + phi / n, and the receiving slice's mean moves by
    phi_h / (c + 1) as its count becomes c + 1.
    """
    phi, w, denom = terms
    m, theta = state.moments, state.theta_hat
    n_new = m.n + 1
    grow = n_new / (n_new - 1.0)
    c_new = m.slice_counts.item(i) + 1
    phi_h = x - m.slice_means[i]
    v = m.inv_cov @ phi_h
    # w' phi_h equals phi' inv phi_h by symmetry of the maintained inverse.
    cross = float(w @ phi_h)
    sign = -1.0 if i == 0 else 1.0

    theta -= (float(phi @ theta) / denom) * w
    theta *= grow
    v -= (cross / denom) * w
    v *= sign * n_new / (c_new * (n_new - 1.0))
    theta -= v

    m.inv_cov -= w[:, None] * w / denom
    m.inv_cov *= grow
    m.mean += phi / n_new
    m.n = n_new
    m.slice_means[i] += phi_h / c_new
    m.slice_counts[i] = c_new


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
