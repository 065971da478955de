import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from streamsir import (
    BandwidthSchedule,
    NonFiniteInputError,
    NoSupportError,
    ProjectionLog,
    append,
    curve,
    draw,
    epanechnikov,
    evaluate,
    reference_link,
    reference_model,
    tabulated_kernel,
    theoretical_std,
)
from streamsir import linkreg


def _fresh_log(alpha=0.35, first_index=1):
    return ProjectionLog(epanechnikov(), BandwidthSchedule(alpha=alpha), first_index=first_index)


def _curve(log, points):
    """curve over a whole log."""
    return curve(log.kernel, points, log.projections, log.bandwidths, log.responses)


def test_single_entry_returns_its_response_exactly():
    log = _fresh_log()
    append(log, np.array([0.5]), 7.0, np.array([0.5]))  # u = 0.25, h_1 = 1
    assert evaluate(log, 0.25) == 7.0
    est, _, count = _curve(log, [0.25])
    assert est[0] == 7.0
    assert count[0] == 1


def test_entry_outside_every_window_leaves_grid_unchanged():
    log = _fresh_log(alpha=0.5)
    # Projection 50 with h_1 = 1: no grid point within the support radius.
    append(log, np.array([50.0]), 3.0, np.array([1.0]))
    est, den, count = _curve(log, [-1.0, 0.0, 1.0])
    assert np.all(np.isnan(est))
    assert np.array_equal(den, np.zeros(3))
    assert np.array_equal(count, np.zeros(3, dtype=np.int64))


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
    kernel = epanechnikov()
    h = BandwidthSchedule(alpha=0.35).h(np.arange(1, 5001))
    for s in range(streams):
        sample = draw(model, 5000, 140 + s)
        u, y = sample.covariates @ model.direction, sample.responses
        if s == 0:
            den = curve(kernel, points, u[:1000], h[:1000], y[:1000])[1]
            assert abs(den[1] / 1000.0 - sps.norm.pdf(0.0)) <= 0.15
        masses[s] = curve(kernel, points, u, h, y)[1] / 5000.0
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
        log.extend(sample.covariates @ model.direction, sample.responses)
        if abs(_curve(log, [0.0])[0][0] - reference_link(0.0)) <= 0.15:
            hits += 1
    assert hits >= 90


def test_grid_matches_log_evaluation():
    model = reference_model(p=4)
    sample = draw(model, 300, 9)
    log = _fresh_log(alpha=0.35)
    points = np.linspace(-2.0, 2.0, 21)
    for i in range(sample.n):
        append(log, sample.covariates[i], float(sample.responses[i]), model.direction)
    est = _curve(log, points)[0]
    for j, x in enumerate(points):
        if np.isnan(est[j]):
            with pytest.raises(NoSupportError):
                evaluate(log, float(x))
        else:
            assert est[j] == evaluate(log, float(x))


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


def _log_arrays(log):
    return [a.copy() for a in (log.indices, log.projections, log.responses, log.bandwidths)]


@pytest.mark.parametrize(
    "u, y, first_bad",
    [
        ([0.0, np.nan, 0.1], [1.0, 2.0, np.inf], 1),
        ([0.0, 0.5, 0.1], [1.0, 2.0, -np.inf], 2),
        ([np.inf, 0.5, 0.1], [1.0, 2.0, 3.0], 0),
    ],
    ids=["nan-u", "-inf-y", "inf-u"],
)
def test_a_non_finite_entry_is_refused_before_anything_is_written(u, y, first_bad):
    u, y = np.array(u), np.array(y)
    with pytest.raises(NonFiniteInputError, match=f"k = {first_bad + 1} is not finite"):
        ProjectionLog.from_entries(
            epanechnikov(), BandwidthSchedule(alpha=0.35), np.array([1, 2, 3]), u, y
        )
    log = _fresh_log()
    log.push(0.2, 1.5)
    before = _log_arrays(log)
    # extend numbers the entries 2, 3, 4 and names the first bad one.
    with pytest.raises(NonFiniteInputError, match=f"k = {first_bad + 2} is not finite"):
        log.extend(u, y)
    with pytest.raises(NonFiniteInputError, match="k = 2 is not finite"):
        log.push(float(u[first_bad]), float(y[first_bad]))
    assert log.next_index == 2
    for got, want in zip(_log_arrays(log), before):
        assert np.array_equal(got, want)
    # The log still works: the refused entries never reached it.
    assert evaluate(log, 0.2) == 1.5


def test_estimates_nan_where_nothing_arrived():
    log = _fresh_log()
    log.push(0.0, 2.0)  # h_1 = 1
    est, den, count = _curve(log, [0.0, 100.0])
    assert est[0] == 2.0 and count[0] == 1
    assert np.isnan(est[1]) and den[1] == 0.0 and count[1] == 0


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
    # uses the scalar schedule.  The two must agree bit for bit, or a
    # vectorized log would differ from a streamed one.
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


_TABLE_XS = np.linspace(-1.5, 1.5, 301)
_TABLE_KS = np.maximum(0.0, 1.0 - np.abs(_TABLE_XS) / 1.5) / 1.5  # triangle on [-1.5, 1.5]
_TABLE = tabulated_kernel(_TABLE_XS, _TABLE_KS)


def _dense_kernel(kernel, t):
    """K(t), written out per kernel."""
    if kernel is _TABLE:
        return np.interp(t, _TABLE_XS, _TABLE_KS, left=0.0, right=0.0)
    return np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t * t), 0.0)


def _dense_weights(kernel, log, x):
    """Every entry's weight K((x - u_k) / h_k) / h_k."""
    return _dense_kernel(kernel, (x - log.projections) / log.bandwidths) / log.bandwidths


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


def _sequential_sum(values):
    """The left-to-right float64 sum from 0.0 (the builtin sum is
    compensated from Python 3.12 on, so it is not the reference)."""
    s = 0.0
    for v in values.tolist():
        s += v
    return s


@pytest.mark.parametrize("kernel", [epanechnikov(), _TABLE], ids=["epanechnikov", "tabulated"])
def test_evaluate_is_the_gathered_sum_in_arrival_order(kernel):
    # The rule that fixes evaluate's bits: gather the entries with
    # |x - u_k| <= R h_k in arrival order, then take the ratio of their
    # sequential sums.
    rng = np.random.default_rng(17)
    log = ProjectionLog(kernel, BandwidthSchedule(alpha=0.3), first_index=31)
    log.extend(rng.standard_normal(3000), rng.standard_normal(3000))
    u, h, y = log.projections, log.bandwidths, log.responses
    for x in rng.uniform(-2.0, 2.0, 25).tolist():
        idx = np.flatnonzero(np.abs(x - u) <= kernel.support_radius * h)
        w = np.asarray(kernel.eval((x - u[idx]) / h[idx])) / h[idx]
        assert evaluate(log, x) == _sequential_sum(w * y[idx]) / _sequential_sum(w), x


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


def _block_sums(kernel, d, inside, h, y, count=False):
    """linkreg._pair_sums over the marked cells of a difference block
    d[r, j] = x_r - u_j, gathered row-major as curve gathers them."""
    rows, width = d.shape
    idx = np.flatnonzero(inside)
    row = idx // width
    col = idx - row * width
    return linkreg._pair_sums(kernel, row, d.ravel()[idx], h[col], y[col], rows, count)


# The window sums of the next two tests are each row's kernel sums over the
# entries whose window it lies in, as _pair_sums takes them.
@pytest.mark.parametrize("kernel", [epanechnikov(), _TABLE], ids=["epanechnikov", "tabulated"])
def test_window_sums_match_a_dense_exact_sum_row_by_row(kernel):
    rng = np.random.default_rng(29)
    width = 600
    u = np.concatenate(([0.25], rng.standard_normal(width - 1)))
    y = rng.standard_normal(width) + 0.5
    h = BandwidthSchedule(alpha=0.3).h(np.arange(1, width + 1))  # h_1 = 1
    radius = kernel.support_radius
    # Row 0 lies outside every window; row 1 sees only entry 0, exactly on
    # its window edge, where K vanishes.
    xs = np.concatenate(([40.0, 0.25 + radius], rng.uniform(-2.5, 2.5, 30)))
    d = xs[:, None] - u
    inside = np.abs(d) <= radius * h
    inside[1] = False
    inside[1, 0] = True
    # A caller may mask more than the windows, as the CV replay's triangle does.
    inside[2:] &= rng.random((xs.size - 2, width)) < 0.7
    num, den, count = _block_sums(kernel, d, inside, h, y, count=True)
    assert num.shape == den.shape == count.shape == (xs.size,)
    assert not inside[0].any() and num[0] == den[0] == 0.0 and count[0] == 0
    assert num[1] == den[1] == 0.0 and count[1] == 0
    for r in range(2, xs.size):
        w = np.where(inside[r], _dense_kernel(kernel, d[r] / h) / h, 0.0)
        assert count[r] == np.count_nonzero(w > 0.0), r
        want_den = math.fsum(w)
        assert want_den > 0.0
        scale = math.fsum(w * np.abs(y)) / want_den
        assert abs(num[r] / den[r] - math.fsum(w * y) / want_den) <= 1e-12 * scale, r
        assert abs(den[r] - want_den) <= 1e-12 * want_den, r
    for r in range(xs.size):
        # A one-row block gives the same bits.
        one = _block_sums(kernel, d[r : r + 1], inside[r : r + 1], h, y, count=True)
        assert one[0][0] == num[r] and one[1][0] == den[r] and one[2][0] == count[r], r
        # Without count, the same sums and no count.
        bare = _block_sums(kernel, d[r : r + 1], inside[r : r + 1], h, y)
        assert bare[0][0] == num[r] and bare[1][0] == den[r] and bare[2] is None, r
    bare = _block_sums(kernel, d, inside, h, y)
    assert np.array_equal(bare[0], num) and np.array_equal(bare[1], den) and bare[2] is None


@pytest.mark.parametrize("kernel", [epanechnikov(), _TABLE], ids=["epanechnikov", "tabulated"])
@pytest.mark.parametrize("rows, width", [(2, 1), (3, 40), (16, 700), (57, 300)])
def test_window_sums_of_a_block_are_its_rows_one_by_one(kernel, rows, width):
    # Each row of a many-row block gets the sequential sums of its own
    # gathered entries, the bits of a one-row call on that row.
    rng = np.random.default_rng(rows * width)
    radius = kernel.support_radius
    u = np.concatenate(([0.25], rng.standard_normal(width - 1)))
    y = rng.standard_normal(width)
    h = BandwidthSchedule(alpha=0.3).h(np.arange(1, width + 1))  # h_1 = 1
    xs = rng.uniform(-2.5, 2.5, rows)
    xs[0] = 40.0  # an empty row
    xs[rows // 2] = 0.25 + radius  # sits on entry 0's window edge only
    d = xs[:, None] - u
    inside = (np.abs(d) <= radius * h) & (rng.random((rows, width)) < 0.8)
    inside[rows // 2] = False
    inside[rows // 2, 0] = True
    num, den, count = _block_sums(kernel, d, inside, h, y, count=True)
    assert num.shape == den.shape == count.shape == (rows,)
    for r in range(rows):
        idx = np.flatnonzero(inside[r])
        w = np.asarray(kernel.eval(d[r, idx] / h[idx])) / h[idx]
        assert num[r] == _sequential_sum(w * y[idx]) and den[r] == _sequential_sum(w), r
        assert count[r] == np.count_nonzero(w), r
        one = _block_sums(kernel, d[r : r + 1], inside[r : r + 1], h, y, count=True)
        assert one[0][0] == num[r] and one[1][0] == den[r] and one[2][0] == count[r], r
    for r in (0, rows // 2):
        assert num[r] == den[r] == 0.0 and count[r] == 0, r


def _curve_cases(kernel):
    """(label, log, points): an empty log, one entry seen from its window
    edges, and random logs; the 5000-entry log puts its points in chunks."""
    radius = kernel.support_radius
    schedule = BandwidthSchedule(alpha=0.3)
    empty = ProjectionLog(kernel, schedule)
    single = ProjectionLog(kernel, schedule)
    single.push(0.25, 3.0)  # h_1 = 1, so the window edges are 0.25 +- R
    yield "empty", empty, np.array([-1.0, 0.0, 0.25, 7.0])
    yield "single", single, np.array([0.25 - radius, 0.25, 0.25 + radius / 2, 0.25 + radius])
    for size, count in ((9, 40), (5000, 130)):
        rng = np.random.default_rng(size)
        log = ProjectionLog(kernel, schedule, first_index=31)
        log.extend(rng.standard_normal(size), rng.standard_normal(size) + 0.5)
        edge = log.projections[0] + radius * log.bandwidths[0]
        points = np.concatenate((rng.uniform(-3.0, 3.0, count), log.projections[:5], [edge, 40.0]))
        yield f"random-{size}", log, points


@pytest.mark.parametrize("kernel", [epanechnikov(), _TABLE], ids=["epanechnikov", "tabulated"])
def test_curve_equals_evaluate_and_a_dense_exact_sum(kernel):
    chunked = False
    for label, log, points in _curve_cases(kernel):
        est, den, count = _curve(log, points)
        assert est.shape == den.shape == count.shape == points.shape, label
        chunked |= len(log) > 0 and linkreg._POINT_CELLS // len(log) < points.size
        supported = 0
        for j, x in enumerate(points.tolist()):
            w = _dense_weights(kernel, log, x)
            want_den = math.fsum(w)
            assert count[j] == np.count_nonzero(w > 0.0), (label, x)
            if want_den == 0.0:
                assert np.isnan(est[j]) and den[j] == 0.0, (label, x)
                with pytest.raises(NoSupportError):
                    evaluate(log, x)
                continue
            assert est[j] == evaluate(log, x), (label, x)
            scale = math.fsum(w * np.abs(log.responses)) / want_den
            assert abs(est[j] - math.fsum(w * log.responses) / want_den) <= 1e-12 * scale
            assert abs(den[j] - want_den) <= 1e-12 * want_den, (label, x)
            supported += 1
        if label == "single":
            # Both window edges get weight 0: only the two inner points count.
            assert supported == 2 and est[1] == est[2] == 3.0
        elif label != "empty":
            assert supported >= 5, label
    assert chunked


def test_curve_chunks_keep_the_bits(monkeypatch):
    # Chunks of one point, as a log past _POINT_CELLS entries takes, and
    # any other chunking give the same arrays.
    rng = np.random.default_rng(8)
    log = _fresh_log(alpha=0.3)
    log.extend(rng.standard_normal(500), rng.standard_normal(500))
    points = rng.uniform(-2.5, 2.5, 23)
    whole = _curve(log, points)
    for cells in (1, 3 * 500, 7 * 500, 22 * 500):
        monkeypatch.setattr(linkreg, "_POINT_CELLS", cells)
        for got, want in zip(_curve(log, points), whole):
            assert np.array_equal(got, want, equal_nan=True), cells


def test_curve_refuses_non_finite_points():
    log = _fresh_log()
    log.push(0.0, 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteInputError):
            _curve(log, [0.0, bad])
    with pytest.raises(NonFiniteInputError):
        _curve(_fresh_log(), [np.nan])


def _long_log(size, seed):
    """A log past _POINT_CELLS entries: standard normal projections and responses."""
    rng = np.random.default_rng(seed)
    log = _fresh_log(first_index=31)
    log.extend(rng.standard_normal(size), rng.standard_normal(size) + 0.5)
    return log


def test_curve_past_point_cells_has_evaluates_bits():
    # Past _POINT_CELLS entries each point meets the log a block at a time;
    # its pairs are still in arrival order, so it keeps evaluate's bits.
    log = _long_log(linkreg._POINT_CELLS + 5000, 33)
    u, h = log.projections, log.bandwidths
    points = np.concatenate((
        np.random.default_rng(34).uniform(-3.0, 3.0, 12),
        u[[0, linkreg._POINT_CELLS - 1, linkreg._POINT_CELLS, u.size - 1]],
        [u[-1] + h[-1], u[linkreg._POINT_CELLS] - h[linkreg._POINT_CELLS], 40.0],
    ))
    est, den, count = _curve(log, points)
    want = np.full(points.size, np.nan)
    for j, x in enumerate(points.tolist()):
        try:
            want[j] = evaluate(log, x)
        except NoSupportError:
            assert den[j] == 0.0 and count[j] == 0
    assert np.isnan(want).sum() == 1  # the far point
    assert np.array_equal(est.view(np.int64), want.view(np.int64))


def test_curve_past_point_cells_holds_one_block_and_the_in_window_pairs():
    # Each float temporary of a block takes 8 bytes a cell and its mask one:
    # 17 bytes a cell at _POINT_CELLS cells, whatever the log's length.
    # Beyond that only the in-window pairs grow, at a few dozen bytes each.
    log = _long_log(1 << 18, 35)
    u, h = log.projections, log.bandwidths
    points = np.array([-0.5, 0.0, 0.3])
    pairs = max(int(np.count_nonzero(np.abs(x - u) <= h)) for x in points.tolist())
    assert pairs > 1000
    tracemalloc.start()
    try:
        _curve(log, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * linkreg._POINT_CELLS + 128 * pairs + (64 << 10)
