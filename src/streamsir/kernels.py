"""Kernel specifications and the vanishing-bandwidth schedule.

A kernel here is a compactly supported, symmetric, non-negative density on
the real line.  The weight given to a logged observation k when predicting
at projection u is K((u - u_k) / h_k) / h_k with the per-observation
bandwidth h_k = k ** (-alpha) frozen at arrival time; this is what makes
the regression estimate updatable without revisiting old observations.

Two derived moments of the kernel feed the asymptotic formulas:
nu2 = integral of K^2 (variance constant) and tau2 = (1/2) integral of
x^2 K(x) dx (bias constant).  For the built-in parabolic kernel both are
known in closed form; tabulated kernels get them by quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def _epanechnikov_eval(u: np.ndarray | float) -> np.ndarray | float:
    u = np.asarray(u, dtype=np.float64)
    # 1 - u^2 < 0 exactly when |u| > 1 (and is -inf at +-inf), and fmax
    # maps NaN to 0.0, so this is the clipped parabola with no mask.
    out = np.fmax(0.75 * (1.0 - u * u), 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class KernelSpec:
    """A compactly supported kernel and its derived constants.

    Attributes:
        name: short identifier used in reports.
        eval: vectorized density; exactly zero outside [-radius, radius].
        support_radius: half-width of the support.
        nu2: integral of K squared.
        tau2: half the second moment of K.
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    nu2: float
    tau2: float


def epanechnikov() -> KernelSpec:
    """Parabolic kernel (3/4)(1 - u^2) on [-1, 1].

    nu2 = 3/5 and tau2 = 1/10 exactly.
    """
    return KernelSpec(
        name="epanechnikov",
        eval=_epanechnikov_eval,
        support_radius=1.0,
        nu2=0.6,
        tau2=0.1,
    )


def tabulated_kernel(xs: np.ndarray, values: np.ndarray, name: str = "tabulated") -> KernelSpec:
    """Build a kernel from (abscissa, value) pairs by linear interpolation.

    The table must hold finite entries and describe a symmetric
    non-negative density: values at -x and x agree to 1e-6, the trapezoid
    integral is 1 within 1e-6, and the endpoints are zero so the
    interpolant is continuous at the support edge.
    nu2 and tau2 are computed by trapezoid quadrature on a dense refinement
    of the table, which is deterministic across runs.

    Raises:
        ValueError: the table violates any of the above.
    """
    xs = np.asarray(xs, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != values.shape or xs.size < 3:
        raise ValueError("kernel table needs matching 1-d arrays of length >= 3")
    if not (np.isfinite(xs).all() and np.isfinite(values).all()):
        raise ValueError("kernel table abscissas and values must be finite")
    if not np.all(np.diff(xs) > 0.0):
        raise ValueError("kernel table abscissas must be strictly increasing")
    if np.any(values < 0.0):
        raise ValueError("kernel table values must be non-negative")
    if values[0] != 0.0 or values[-1] != 0.0:
        raise ValueError("kernel table must fall to zero at both ends")
    radius = float(max(abs(xs[0]), abs(xs[-1])))

    def evaluator(u: np.ndarray | float) -> np.ndarray | float:
        """Linear interpolant of the table, zero outside its range."""
        out = np.interp(np.asarray(u, dtype=np.float64), xs, values, left=0.0, right=0.0)
        return float(out) if out.ndim == 0 else out

    probe = np.linspace(0.0, radius, 513)
    asym = np.max(np.abs(np.asarray(evaluator(probe)) - np.asarray(evaluator(-probe))))
    if asym > 1e-6:
        raise ValueError(f"kernel table is asymmetric (max deviation {asym:.3e})")
    dense = np.linspace(-radius, radius, 20001)
    k = np.asarray(evaluator(dense))
    mass = float(np.trapezoid(k, dense))
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"kernel table mass {mass!r} is not 1 within 1e-6")
    nu2 = float(np.trapezoid(k * k, dense))
    tau2 = float(0.5 * np.trapezoid(dense * dense * k, dense))
    return KernelSpec(name=name, eval=evaluator, support_radius=radius, nu2=nu2, tau2=tau2)


@dataclass(frozen=True)
class BandwidthSchedule:
    """Deterministic bandwidth sequence h_k = k ** (-alpha).

    alpha must lie in (0, 1): the bandwidth has to shrink, but slowly
    enough that the cumulated window widths still diverge.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")

    def h(self, k: np.ndarray | int) -> np.ndarray | float:
        """Bandwidth at arrival index k >= 1 (vectorized over k)."""
        k = np.asarray(k, dtype=np.float64)
        out = k ** (-self.alpha)
        return float(out) if out.ndim == 0 else out
