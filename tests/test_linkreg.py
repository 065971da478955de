import math

import numpy as np
import pytest
from scipy import stats as sps

from streamsir import (
    BandwidthSchedule,
    GridAccumulator,
    NonFiniteInputError,
    NoSupportError,
    ProjectionLog,
    append,
    draw,
    epanechnikov,
    evaluate,
    reference_link,
    reference_model,
    tabulated_kernel,
    theoretical_std,
)


def _fresh_log(alpha=0.35, first_index=1):
    return ProjectionLog(epanechnikov(), BandwidthSchedule(alpha=alpha), first_index=first_index)


def test_single_entry_returns_its_response_exactly():
    log = _fresh_log()
    grid = GridAccumulator(points=np.array([0.25]))
    append(log, grid, np.array([0.5]), 7.0, np.array([0.5]))  # u = 0.25, h_1 = 1
    assert evaluate(log, 0.25) == 7.0
    assert grid.estimates()[0] == 7.0
    assert grid.contributing[0] == 1


def test_entry_outside_every_window_leaves_grid_unchanged():
    log = _fresh_log(alpha=0.5)
    grid = GridAccumulator(points=np.array([-1.0, 0.0, 1.0]))
    # Projection 50 with h_1 = 1: no grid point within the support radius.
    append(log, grid, np.array([50.0]), 3.0, np.array([1.0]))
    assert np.array_equal(grid.numerator, np.zeros(3))
    assert np.array_equal(grid.denominator, np.zeros(3))
    assert np.array_equal(grid.contributing, np.zeros(3, dtype=np.int64))
    assert grid.n_entries == 1


def test_constant_responses_evaluate_to_the_constant():
    rng = np.random.default_rng(4)
    log = _fresh_log()
    for u in rng.uniform(-1.0, 1.0, size=60):
        log.push(float(u), 5.5)
    assert evaluate(log, 0.0) == pytest.approx(5.5, rel=1e-13)


def test_empty_log_has_no_support():
    with pytest.raises(NoSupportError) as exc:
        evaluate(_fresh_log(), 0.0)
    assert exc.value.nearest_u is None


def test_far_point_has_no_support_and_reports_nearest():
    log = _fresh_log(alpha=0.4)
    log.push(0.0, 1.0)
    log.push(0.3, 2.0)
    with pytest.raises(NoSupportError) as exc:
        evaluate(log, 10.0)
    assert exc.value.nearest_u == 0.3


def test_denominator_tracks_the_projected_density():
    # The averaged weight mass at x estimates the design density of the
    # projection: phi(0) about 0.3989 after 1000 entries within 0.15
    # absolute, and within 10 percent at -1, 0, 1 by n = 5000.  A single
    # stream's mass still fluctuates by about 0.02 at that size, so the
    # 10-percent band is checked on an average over independent streams.
    model = reference_model(p=10)
    points = np.array([-1.0, 0.0, 1.0])
    streams = 5
    masses = np.zeros((streams, points.size))
    for s in range(streams):
        sample = draw(model, 5000, 140 + s)
        log = _fresh_log(alpha=0.35)
        grid = GridAccumulator(points=points)
        for i in range(sample.n):
            append(log, grid, sample.covariates[i], float(sample.responses[i]), model.direction)
            if s == 0 and grid.n_entries == 1000:
                assert abs(grid.denominator[1] / 1000.0 - sps.norm.pdf(0.0)) <= 0.15
        masses[s] = grid.denominator / 5000.0
    target = sps.norm.pdf(points)
    assert np.all(np.abs(masses.mean(axis=0) - target) <= 0.1 * target)


def test_curve_estimate_near_truth_with_known_direction():
    # Feeding the true direction isolates the regression error; at the
    # design center the estimate should sit within 0.15 of f(0) = 0 in at
    # least 90 percent of replications.
    model = reference_model(p=10)
    hits = 0
    reps = 100
    for rep in range(reps):
        sample = draw(model, 2000, 500 + rep)
        log = _fresh_log(alpha=0.35)
        u = sample.covariates @ model.direction
        for k in range(sample.n):
            log.push(float(u[k]), float(sample.responses[k]))
        if abs(evaluate(log, 0.0) - reference_link(0.0)) <= 0.15:
            hits += 1
    assert hits >= 90


def test_grid_matches_log_evaluation():
    model = reference_model(p=4)
    sample = draw(model, 300, 9)
    log = _fresh_log(alpha=0.35)
    points = np.linspace(-2.0, 2.0, 21)
    grid = GridAccumulator(points=points)
    for i in range(sample.n):
        append(log, grid, sample.covariates[i], float(sample.responses[i]), model.direction)
    est = grid.estimates()
    for j, x in enumerate(points):
        if np.isnan(est[j]):
            with pytest.raises(NoSupportError):
                evaluate(log, float(x))
        else:
            direct = evaluate(log, float(x))
            assert abs(est[j] - direct) <= 1e-12 * max(1.0, abs(direct))


def test_log_growth_and_bandwidths():
    sched = BandwidthSchedule(alpha=0.4)
    log = ProjectionLog(epanechnikov(), sched, first_index=31)
    for i in range(200):  # crosses the initial capacity twice
        log.push(float(i), float(-i))
    assert len(log) == 200
    assert log.indices[0] == 31
    assert log.indices[-1] == 230
    assert np.array_equal(log.bandwidths, sched.h(log.indices))
    assert log.next_index == 231


def test_from_entries_round_trip_and_validation():
    sched = BandwidthSchedule(alpha=0.35)
    kernel = epanechnikov()
    log = ProjectionLog.from_entries(
        kernel, sched, np.array([3, 5, 8]), np.array([0.1, -0.2, 0.4]), np.array([1.0, 2.0, 3.0])
    )
    assert np.array_equal(log.indices, [3, 5, 8])
    assert np.array_equal(log.bandwidths, sched.h(np.array([3, 5, 8])))
    with pytest.raises(ValueError, match="strictly increasing"):
        ProjectionLog.from_entries(
            kernel, sched, np.array([3, 3]), np.zeros(2), np.zeros(2)
        )
    with pytest.raises(ValueError, match="identical shapes"):
        ProjectionLog.from_entries(kernel, sched, np.array([1]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match=">= 1"):
        ProjectionLog.from_entries(kernel, sched, np.array([0, 1]), np.zeros(2), np.zeros(2))


def test_grid_accumulator_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        GridAccumulator(points=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="non-empty"):
        GridAccumulator(points=np.array([]))


def test_estimates_nan_where_nothing_arrived():
    grid = GridAccumulator(points=np.array([0.0, 100.0]))
    grid.absorb(epanechnikov(), 0.0, 2.0, 1.0)
    est = grid.estimates()
    assert est[0] == 2.0
    assert np.isnan(est[1])


def test_theoretical_std_noiseless_is_zero():
    assert theoretical_std(0.0, epanechnikov(), 0.35, 0.4) == 0.0


def test_theoretical_std_reference_value():
    # sqrt(0.6 / (1.35 * phi(0))), phi(0) = 0.3989...
    value = theoretical_std(1.0, epanechnikov(), 0.35, float(sps.norm.pdf(0.0)))
    assert value == pytest.approx(1.0555, abs=2e-4)


def test_theoretical_std_linear_in_sigma():
    k = epanechnikov()
    one = theoretical_std(1.0, k, 0.35, 0.25)
    assert theoretical_std(2.0, k, 0.35, 0.25) == pytest.approx(2.0 * one, rel=1e-15)


def test_theoretical_std_validation():
    k = epanechnikov()
    with pytest.raises(ValueError, match="non-negative"):
        theoretical_std(-1.0, k, 0.35, 0.4)
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        theoretical_std(1.0, k, 1.5, 0.4)
    with pytest.raises(ValueError, match="strictly positive"):
        theoretical_std(1.0, k, 0.35, 0.0)


def test_vectorized_bandwidths_equal_the_scalar_schedule():
    # from_entries and extend compute h_k = k ** -alpha over an array; push
    # and the per-step grid use the scalar schedule.  The two must agree bit
    # for bit, or a vectorized log would differ from a streamed one.
    ks = np.arange(1, 30001)
    for alpha in np.round(np.arange(0.1, 0.5001, 0.05), 10):
        sched = BandwidthSchedule(alpha=float(alpha))
        log = ProjectionLog.from_entries(
            epanechnikov(), sched, ks, np.zeros(ks.size), np.zeros(ks.size)
        )
        scalar = np.array([sched.h(int(k)) for k in ks])
        assert np.array_equal(log.bandwidths, scalar), alpha
        assert log.next_index == 30001


def test_extend_equals_pushing_one_at_a_time():
    rng = np.random.default_rng(4)
    u, y = rng.standard_normal(300), rng.standard_normal(300)
    pushed = _fresh_log(first_index=31)
    for a, b in zip(u, y):
        pushed.push(float(a), float(b))
    extended = _fresh_log(first_index=31)
    extended.extend(u[:100], y[:100])
    extended.extend(u[100:], y[100:])
    for name in ("indices", "projections", "responses", "bandwidths"):
        assert np.array_equal(getattr(extended, name), getattr(pushed, name)), name
    assert extended.next_index == pushed.next_index == 331
    with pytest.raises(ValueError, match="identical shapes"):
        extended.extend(u[:2], y[:3])


def test_grid_absorbs_an_array_as_it_absorbs_entries_one_by_one():
    # 2500 entries span three chunks; the sums must keep the entry order.
    rng = np.random.default_rng(5)
    u, y = rng.standard_normal(2500), rng.standard_normal(2500)
    h = BandwidthSchedule(alpha=0.3).h(np.arange(1, 2501))
    points = np.linspace(-3.0, 3.0, 61)
    one_by_one = GridAccumulator(points=points)
    for a, b, c in zip(u, y, h):
        one_by_one.absorb(epanechnikov(), float(a), float(b), float(c))
    batched = GridAccumulator(points=points)
    batched.absorb(epanechnikov(), u, y, h)
    for name in ("numerator", "denominator", "contributing", "n_entries"):
        assert np.array_equal(getattr(batched, name), getattr(one_by_one, name)), name


_TABLE_XS = np.linspace(-1.5, 1.5, 301)
_TABLE_KS = np.maximum(0.0, 1.0 - np.abs(_TABLE_XS) / 1.5) / 1.5  # triangle on [-1.5, 1.5]
_TABLE = tabulated_kernel(_TABLE_XS, _TABLE_KS)


def _dense_weights(kernel, log, x):
    """Every entry's weight K((x - u_k) / h_k) / h_k, written out per kernel."""
    t = (x - log.projections) / log.bandwidths
    if kernel is _TABLE:
        k = np.interp(t, _TABLE_XS, _TABLE_KS, left=0.0, right=0.0)
    else:
        k = np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t * t), 0.0)
    return k / log.bandwidths


@pytest.mark.parametrize("kernel", [epanechnikov(), _TABLE], ids=["epanechnikov", "tabulated"])
@pytest.mark.parametrize("size", [1, 2, 9, 130, 1024, 5000])
def test_evaluate_matches_a_dense_exact_sum(kernel, size):
    rng = np.random.default_rng(size)
    alpha = float(rng.uniform(0.1, 0.5))
    log = ProjectionLog(kernel, BandwidthSchedule(alpha=alpha), first_index=int(rng.integers(1, 50)))
    log.extend(rng.standard_normal(size), rng.standard_normal(size) + 0.5)
    queries = np.concatenate(
        (log.projections[:10], rng.uniform(-3.0, 3.0, 20), [12.0 + 3.0 * kernel.support_radius])
    )
    supported = 0
    for x in queries.tolist():
        w = _dense_weights(kernel, log, x)
        den = math.fsum(w)
        if den == 0.0:
            with pytest.raises(NoSupportError):
                evaluate(log, x)
            continue
        want = math.fsum(w * log.responses) / den
        # Summation error is relative to sum w |y|, not to a cancelled sum w y.
        scale = math.fsum(w * np.abs(log.responses)) / den
        assert abs(evaluate(log, x) - want) <= 1e-12 * scale, x
        supported += 1
    assert supported >= min(size, 10)


@pytest.mark.parametrize("kernel", [epanechnikov(), _TABLE], ids=["epanechnikov", "tabulated"])
def test_evaluate_is_the_gathered_sum_in_arrival_order(kernel):
    # The rule that fixes evaluate's bits: gather the entries with
    # |x - u_k| <= R h_k in arrival order, then take ndarray.sum ratios.
    rng = np.random.default_rng(17)
    log = ProjectionLog(kernel, BandwidthSchedule(alpha=0.3), first_index=31)
    log.extend(rng.standard_normal(3000), rng.standard_normal(3000))
    u, h, y = log.projections, log.bandwidths, log.responses
    for x in rng.uniform(-2.0, 2.0, 25).tolist():
        idx = np.flatnonzero(np.abs(x - u) <= kernel.support_radius * h)
        w = np.asarray(kernel.eval((x - u[idx]) / h[idx])) / h[idx]
        assert evaluate(log, x) == float((w * y[idx]).sum() / w.sum()), x


@pytest.mark.parametrize("kernel", [epanechnikov(), _TABLE], ids=["epanechnikov", "tabulated"])
def test_window_edges_and_far_points_have_no_support(kernel):
    radius = kernel.support_radius
    log = ProjectionLog(kernel, BandwidthSchedule(alpha=0.4))
    with pytest.raises(NoSupportError) as exc:
        evaluate(log, 0.0)
    assert exc.value.nearest_u is None
    log.push(0.25, 3.0)  # h_1 = 1, and K vanishes at +-R
    for x in (0.25 + radius, 0.25 - radius, 40.0):
        with pytest.raises(NoSupportError) as exc:
            evaluate(log, x)
        assert exc.value.nearest_u == 0.25
    assert evaluate(log, 0.25 + radius / 2) == 3.0


def test_non_finite_points_are_refused_before_any_scan():
    log = _fresh_log()
    with pytest.raises(NonFiniteInputError):
        evaluate(log, float("nan"))
    log.push(0.0, 1.0)
    for x in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(NonFiniteInputError):
            evaluate(log, x)
