import sys
from pathlib import Path

# This checkout's src goes last on sys.path, before the package is first
# imported: a plain `pytest` finds it, while a PYTHONPATH the caller sets
# (another checkout's src, say) is searched first and so decides which code
# the tests check.
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from streamsir import (
    SirState,
    StudyConfig,
    convergence_study,
    direction_from_moments,
    reference_model,
)
from streamsir.sir import recursive_step

import _acceptance_report


@pytest.fixture(scope="session")
def model_m():
    """Reference model at the canonical dimension."""
    return reference_model(p=10)


@pytest.fixture(scope="session")
def acceptance_convergence(model_m):
    """The shared direction/curve convergence study at acceptance scale.

    One hundred replications streamed to n = 2000 with checkpoints; both
    the direction-recovery and the link-consistency criteria read off this
    single run, as do the bracket checks in the study tests.
    """
    config = StudyConfig(
        model=model_m,
        sizes=(200, 500, 1000, 2000),
        n_reps=100,
        alpha=0.35,
        seed=0,
    )
    return convergence_study(config)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_report.RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_report.lines():
            terminalreporter.write_line(line)


def central_point_indices(model, eval_points):
    """Indices of evaluation points with a true projection in [-1, 1]."""
    u = eval_points @ model.direction
    return np.flatnonzero(np.abs(u) <= 1.0)


def most_central(model, points, count):
    """Indices of the points whose true projections sit nearest the design center."""
    u = points @ model.direction
    order = np.argsort(np.abs(u - model.projected_mean()), kind="stable")
    return order[:count]


def stepped_moments(moments, x, y, slicer):
    """The moments after one recursion step on (x, y); the given state is not modified."""
    sir = SirState(moments, direction_from_moments(moments))
    return recursive_step(sir, x, y, slicer).moments
