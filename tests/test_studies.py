import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats as sps

from streamsir import (
    BandwidthSchedule,
    NoSupportError,
    ProjectionLog,
    SingleIndexModel,
    StudyConfig,
    convergence_study,
    direction_distance,
    direction_path,
    draw,
    draw_eval_points,
    epanechnikov,
    evaluate,
    normality_study,
    rate_study,
    reference_model,
    scatter_study,
)
from streamsir import studies
from streamsir.studies import (
    KS_CRIT_1PCT,
    _REP_BLOCK,
    _bootstrap_slopes,
    _excess_kurtosis,
    _ks_statistic,
    _quantile_block,
    _skewness,
    projected_density,
)

from _cli import child_env
from conftest import central_point_indices, most_central


@pytest.fixture(scope="module")
def desk_rate(model_m):
    config = StudyConfig(
        model=model_m,
        sizes=(200, 500, 1000, 2000),
        n_reps=100,
        alpha=0.3,
        seed=0,
    )
    return rate_study(config)


def test_eval_points_are_deterministic(model_m):
    a = draw_eval_points(model_m, 10)
    b = draw_eval_points(model_m, 10)
    assert np.array_equal(a, b)
    assert a.shape == (10, 10)
    # Six of the ten seeded points project inside the central band.
    u = a @ model_m.direction
    assert int(np.sum(np.abs(u) <= 1.0)) == 6


def test_most_central_ranks_by_distance_from_projected_mean():
    model = SingleIndexModel(
        direction=np.array([1.0, 0.0, 0.0, 0.0]),
        link=lambda v: np.asarray(v, dtype=np.float64),
        noise_std=1.0,
    )
    pts = np.zeros((3, 4))
    pts[:, 0] = [3.0, 0.1, -0.5]
    assert most_central(model, pts, 2).tolist() == [1, 2]
    assert most_central(model, pts, 3).tolist() == [1, 2, 0]


def test_projected_density_matches_normal_pdf(model_m):
    for t in (-1.5, 0.0, 0.7):
        assert projected_density(model_m, t) == pytest.approx(
            sps.norm.pdf(t), abs=1e-15
        )
    cov = np.diag([4.0, 1.0, 1.0, 1.0])
    model = SingleIndexModel(
        direction=np.array([1.0, 0.0, 0.0, 0.0]),
        link=lambda v: np.asarray(v, dtype=np.float64),
        noise_std=1.0,
        covariate_mean=np.array([2.0, 0.0, 0.0, 0.0]),
        covariate_cov=cov,
    )
    assert projected_density(model, 2.0) == pytest.approx(
        sps.norm.pdf(2.0, loc=2.0, scale=2.0), abs=1e-15
    )


def test_config_validation(model_m):
    with pytest.raises(ValueError, match="strictly increasing"):
        StudyConfig(model=model_m, sizes=(500, 500), n_reps=2)
    with pytest.raises(ValueError, match="n_reps"):
        StudyConfig(model=model_m, sizes=(500,), n_reps=0)
    with pytest.raises(ValueError, match="warm-up"):
        StudyConfig(model=model_m, sizes=(30,), n_reps=2, warmup=30)
    with pytest.raises(ValueError, match="non-empty"):
        StudyConfig(model=model_m, sizes=(), n_reps=2)
    # The exponent is checked by BandwidthSchedule, before the warm-up.
    for alpha in (0.0, 1.0, np.nan):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\), got "):
            StudyConfig(model=model_m, sizes=(30,), n_reps=2, warmup=30, alpha=alpha)


@pytest.mark.parametrize(
    "field, value",
    [
        ("sizes", (250.7, 500)),
        ("sizes", (np.float64(250.0), 500)),
        ("sizes", (True, 500)),
        ("n_reps", True),
        ("n_reps", 2.5),
        ("n_reps", "2"),
        ("seed", 2.5),
        ("seed", np.True_),
        ("warmup", 30.0),
    ],
)
def test_config_refuses_non_integers(model_m, field, value):
    # Refused, not coerced: int() would read 250.7 as 250 and True as one
    # replication, and a float seed fails only mid-run.
    kwargs = dict(model=model_m, sizes=(250, 500), n_reps=2, seed=0, warmup=None)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        StudyConfig(**kwargs)


def test_config_resolves_its_defaults_once(model_m):
    config = StudyConfig(model=model_m, sizes=(np.int64(250), np.int32(500)), n_reps=np.int64(2))
    assert config.sizes == (250, 500) and all(type(n) is int for n in config.sizes)
    assert config.warmup == 30
    assert np.array_equal(config.eval_points, draw_eval_points(model_m))
    given = StudyConfig(model=model_m, sizes=(250,), n_reps=1, seed=np.uint8(3), warmup=np.int64(40))
    assert given.warmup == 40 and type(given.warmup) is int


def test_configs_compare_by_value(model_m):
    kwargs = dict(model=model_m, sizes=(100,), n_reps=2)
    a = StudyConfig(**kwargs)
    assert a == StudyConfig(**kwargs) and not a != StudyConfig(**kwargs)
    nudged = a.eval_points.copy()
    nudged[3, 1] = np.nextafter(nudged[3, 1], np.inf)
    for other in (
        StudyConfig(**kwargs, eval_points=nudged),
        StudyConfig(**kwargs, eval_points=np.array([0.0, 0.5])),
        StudyConfig(**{**kwargs, "n_reps": 3}),
    ):
        assert a != other and not a == other
    assert a.__eq__(kwargs) is NotImplemented
    # Models compare by value too, so separately built ones match.
    assert a == StudyConfig(**{**kwargs, "model": reference_model(p=10)})
    assert a != StudyConfig(**{**kwargs, "model": reference_model(p=10, noise_std=0.5)})
    with pytest.raises(TypeError, match="StudyConfig"):
        hash(a)


def test_single_replication_quantiles_degenerate(model_m):
    config = StudyConfig(
        model=model_m,
        sizes=(120,),
        n_reps=1,
        seed=7,
        eval_points=np.array([0.0]),
        warmup=30,
    )
    result = convergence_study(config)
    block = result.summary["abs_error_quantiles"]["120"]["0"]
    assert block["count"] == 1
    assert block["q05"] == block["q50"] == block["q95"]


def test_median_error_at_zero_shrinks_with_n(model_m):
    config = StudyConfig(
        model=model_m,
        sizes=(200, 500, 1000, 2000),
        n_reps=100,
        seed=0,
        eval_points=np.array([0.0]),
    )
    result = convergence_study(config)
    medians = [
        result.summary["abs_error_quantiles"][str(n)]["0"]["q50"]
        for n in (200, 500, 1000, 2000)
    ]
    assert all(b <= a for a, b in zip(medians, medians[1:]))


def test_estimate_iqr_brackets_truth_at_central_points(
    model_m, acceptance_convergence
):
    # At the largest size the middle half of the replication estimates
    # should straddle the true link value at every central point.
    result = acceptance_convergence
    pts = np.asarray(result.summary["config"]["eval_points"])
    central = central_point_indices(model_m, pts)
    truths = result.summary["true_values"]
    t = result.table
    for i in central:
        ests = t["estimate"][(t["n"] == 2000) & (t["point"] == int(i)) & ~t["missing"]]
        q25, q75 = np.quantile(ests, [0.25, 0.75])
        assert q25 <= truths[int(i)] <= q75


def test_records_are_ordered_by_rep_then_size_then_point(model_m):
    config = StudyConfig(
        model=model_m,
        sizes=(100, 200),
        n_reps=3,
        seed=1,
        eval_points=np.array([0.0, 0.5]),
        warmup=30,
    )
    result = convergence_study(config)
    t = result.table
    keys = list(zip(t["rep"].tolist(), t["n"].tolist(), t["point"].tolist()))
    assert keys == sorted(keys)
    assert len(keys) == 3 * 2 * 2


def test_normality_small_run_structure(model_m):
    config = StudyConfig(
        model=model_m,
        sizes=(150,),
        n_reps=12,
        seed=0,
        eval_points=np.array([0.0, 0.5]),
        warmup=30,
    )
    result = normality_study(config)
    assert result.summary["n"] == 150
    assert result.summary["bandwidth_at_n"] == pytest.approx(150.0**-0.35)
    for key in ("0", "1"):
        block = result.summary["per_point"][key]
        assert block["count"] + block["missing"] == 12
        assert sum(block["histogram_counts"]) + block["histogram_outside"] == (
            block["count"]
        )
        assert block["theoretical_std"] > 0.0
    t = result.table
    assert np.isfinite(t["z"][~t["missing"]]).all()


def test_normality_rejects_degenerate_configs(model_m):
    noiseless = reference_model(p=10, noise_std=0.0)
    config = StudyConfig(model=noiseless, sizes=(500,), n_reps=5)
    with pytest.raises(ValueError, match="noise"):
        normality_study(config)
    config = StudyConfig(model=model_m, sizes=(500,), n_reps=5, alpha=0.3)
    with pytest.raises(ValueError, match="1/3"):
        normality_study(config)
    config = StudyConfig(model=model_m, sizes=(500, 1000), n_reps=5)
    with pytest.raises(ValueError, match="one sample size"):
        normality_study(config)


def test_rate_single_size_has_no_slope(model_m):
    config = StudyConfig(
        model=model_m,
        sizes=(200,),
        n_reps=4,
        seed=0,
        eval_points=np.array([0.0]),
        warmup=30,
    )
    result = rate_study(config)
    block = result.summary["slopes"]["0"]
    assert block["slope"] is None
    assert "at least two" in block["explanation"]
    assert result.summary["decade_spanned"] is False


def test_rate_slopes_are_negative_everywhere(desk_rate):
    for block in desk_rate.summary["slopes"].values():
        assert block["slope"] < 0.0


def test_rate_central_slopes_match_predicted_band(model_m, desk_rate):
    # With alpha = 0.3 the bandwidth bias term dominates, predicting a
    # log-log slope near -0.3; a wide band absorbs desk-scale noise.
    pts = np.asarray(desk_rate.summary["config"]["eval_points"])
    central = central_point_indices(model_m, pts)
    assert desk_rate.summary["reference_slope"] == pytest.approx(-0.3)
    for i in central:
        slope = desk_rate.summary["slopes"][str(int(i))]["slope"]
        assert -0.55 <= slope <= -0.1


def test_rate_bootstrap_interval_contains_point_estimate(desk_rate):
    for block in desk_rate.summary["slopes"].values():
        assert block["slope_ci_low"] <= block["slope"] <= block["slope_ci_high"]


def test_scatter_noiseless_points_lie_on_the_curve():
    model = reference_model(p=10, noise_std=0.0)
    config = StudyConfig(model=model, sizes=(1000,), n_reps=1, seed=3)
    result = scatter_study(config)
    u, y = result.table["u_true"], result.table["y"]
    # Vertical residual against the curve is identically zero: the noise
    # is off, so every response sits exactly on the link evaluated at the
    # true projection.
    assert np.array_equal(y, model.link(u))
    assert np.max(np.abs(y - model.link(u))) == 0.0


def test_scatter_direction_is_well_estimated(model_m):
    config = StudyConfig(model=model_m, sizes=(1000,), n_reps=1, seed=0)
    result = scatter_study(config)
    assert result.summary["direction_distance"] <= 0.05
    assert [a.size for a in result.table.values()] == [1000] * 4
    u_hat, u_true = result.table["u_hat"], result.table["u_true"]
    # Estimated projections track the true ones up to sign and the
    # direction error the gate above allows (cos^2 >= 0.95).
    corr = np.corrcoef(u_hat, u_true)[0, 1]
    assert abs(corr) > 0.97


def test_scatter_is_deterministic(model_m):
    config = StudyConfig(model=model_m, sizes=(400,), n_reps=1, seed=11)
    a = scatter_study(config)
    b = scatter_study(config)
    assert a == b


def test_study_results_compare_by_their_columns(model_m):
    config = StudyConfig(model=model_m, sizes=(400,), n_reps=1, seed=11)
    a, b = scatter_study(config), scatter_study(config)
    assert a == b and not a != b
    u_hat = b.table["u_hat"].copy()
    u_hat[17] = np.nextafter(u_hat[17], np.inf)
    c = studies.StudyResult(b.study, {**b.table, "u_hat": u_hat}, b.summary)
    assert a != c and not a == c
    # Column order is part of the result, and NaN cells compare equal.
    assert a != studies.StudyResult(a.study, dict(reversed(a.table.items())), a.summary)
    gaps = np.array([1.0, np.nan])
    with_gaps = studies.StudyResult("rate", {"v": gaps}, {})
    assert with_gaps == studies.StudyResult("rate", {"v": gaps.copy()}, {})


def test_replication_chunk_size_does_not_change_results(model_m, monkeypatch):
    # Each replication has the same bits whichever chunk it is stepped in:
    # four, seven and nine replications in chunks of one, three and 64.
    kwargs = dict(model=model_m, seed=5, eval_points=np.array([0.0, 0.5]), warmup=30)
    cases = (
        (convergence_study, dict(sizes=(100, 200), n_reps=4)),
        (rate_study, dict(sizes=(100, 200), n_reps=7)),
        (normality_study, dict(sizes=(200,), n_reps=9)),
    )
    for run, extra in cases:
        results = []
        for block in (1, 3, 64):
            monkeypatch.setattr(studies, "_REP_BLOCK", block)
            results.append(run(StudyConfig(**kwargs, **extra)))
        for other in results[1:]:
            assert other == results[0]


@pytest.mark.parametrize("n_reps", [1, 7, _REP_BLOCK, _REP_BLOCK + 1, 3 * _REP_BLOCK - 1])
@pytest.mark.parametrize("block", [1, 2, 3, _REP_BLOCK])
def test_replication_blocks_are_contiguous_bounded_and_near_equal(
    model_m, n_reps, block, monkeypatch
):
    # direction_paths gets the replications in order, at most _REP_BLOCK per
    # call, in ceil(n_reps / _REP_BLOCK) calls: plain chunks, the last one
    # holding the remainder.
    calls = []
    real = studies.direction_paths

    def recorder(sources, **kwargs):
        calls.append([np.concatenate([xs for xs, _ in source]) for source in sources])
        return real(sources, **kwargs)

    monkeypatch.setattr(studies, "_REP_BLOCK", block)
    monkeypatch.setattr(studies, "direction_paths", recorder)
    config = StudyConfig(model=model_m, sizes=(40,), n_reps=n_reps, seed=5, warmup=30)
    est, dd, _, _ = studies._run_checkpoint_study(config)
    assert est.shape[0] == dd.shape[0] == n_reps
    assert len(calls) == math.ceil(n_reps / block)
    assert [len(c) for c in calls[:-1]] == [block] * (len(calls) - 1)
    passed = [x for c in calls for x in c]
    assert len(passed) == n_reps
    for rep, x in enumerate(passed):
        assert np.array_equal(x, draw(model_m, 40, 5 ^ rep).covariates)


def test_a_two_block_study_holds_one_block_at_a_time(model_m, monkeypatch):
    # Each block's paths are released before the next block is read, so a
    # study of two blocks peaks where a study of one does.
    monkeypatch.setattr(studies, "_REP_BLOCK", 16)

    def peak(n_reps):
        config = StudyConfig(model=model_m, sizes=(250, 1000), n_reps=n_reps, seed=11)
        tracemalloc.start()
        try:
            studies._run_checkpoint_study(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # leaves first-call allocations out of the comparison
    assert peak(32) <= 1.1 * peak(16)



def test_a_checkpoint_study_holds_no_replications_sample(model_m):
    # The replications are read from draw sources a chunk of rows at a time.
    # At the rate study's benchmark shape (40 replications to n = 2000) the
    # traced peak is at most half of the 8.24 MiB it reached while it held
    # every replication's drawn sample, and from n = 2000 to n = 8000 it
    # grows by no more than the projections and responses it keeps, plus
    # 1 MiB.
    def peak(sizes, n_reps=40):
        config = StudyConfig(model=model_m, sizes=sizes, n_reps=n_reps, seed=11)
        tracemalloc.start()
        try:
            studies._run_checkpoint_study(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak((250, 500), n_reps=1)  # leaves first-call allocations out of the comparison
    short = peak((250, 500, 1000, 2000))
    long = peak((250, 500, 1000, 2000, 8000))
    assert short <= 8.24 / 2 * 2**20, short / 2**20
    assert long - short <= 40 * (8000 - 2000) * 2 * 8 + 2**20, (long - short) / 2**20

def test_ks_critical_value_equals_scipy():
    assert KS_CRIT_1PCT == float(sps.kstwobign.ppf(0.99))


def test_importing_the_package_does_not_import_a_process_pool():
    code = (
        "import sys, streamsir, streamsir.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_importing_the_package_does_not_import_scipy():
    # Beyond the imports, the child runs projected_density and a normality study.
    code = (
        "import sys, numpy as np, streamsir.cli\n"
        "from streamsir import StudyConfig, normality_study, reference_model\n"
        "from streamsir.studies import projected_density\n"
        "model = reference_model(p=10)\n"
        "projected_density(model, 0.3)\n"
        "config = StudyConfig(model=model, sizes=(200,), n_reps=8, alpha=0.4,\n"
        "                     eval_points=np.array([0.0, 0.5]))\n"
        "print('ks_statistic' in normality_study(config).summary['per_point']['0'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["True", "[]"]


@pytest.mark.parametrize("m", [8, 9, 40, 200])
def test_normality_statistics_match_scipy(m):
    # Skewness and kurtosis keep scipy's bits; the KS statistic's normal CDF
    # uses libm's erf, not scipy's, so it gets a relative bound.
    rng = np.random.default_rng(m)
    samples = (
        rng.standard_normal(m),
        1.5 + 2.0 * rng.standard_normal(m),
        rng.exponential(size=m) - 1.0,
        rng.standard_t(3, size=m),
    )
    for z in samples:
        assert _skewness(z) == float(sps.skew(z))
        assert _excess_kurtosis(z) == float(sps.kurtosis(z, fisher=True))
        ks = float(sps.kstest(z, "norm").statistic)
        assert abs(_ks_statistic(z) - ks) <= 1e-14 * ks


def _reference_slope(log_n, medians):
    """The per-resample slope the rate study used to fit: None without two
    non-missing sizes or with a non-positive median."""
    ok = ~np.isnan(medians)
    if int(ok.sum()) < 2 or np.any(medians[ok] <= 0.0):
        return None
    return float(np.polyfit(log_n[ok], np.log(medians[ok]), 1)[0])


def _reference_bootstrap(errors, log_n, count, rng):
    """One resample at a time over a (size, rep) error table, in resample order."""
    n_reps = errors.shape[1]
    boot = []
    for _ in range(count):
        pick = rng.integers(0, n_reps, size=n_reps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            s = _reference_slope(log_n, np.nanmedian(errors[:, pick], axis=1))
        if s is not None:
            boot.append(s)
    return boot


def _error_table(case, n_reps):
    """A synthetic (size, rep) error table over four sizes."""
    rng = np.random.default_rng([n_reps, len(case)])
    errors = rng.gamma(2.0, 0.1, size=(4, n_reps)) / np.array([[1.0], [1.5], [2.0], [3.0]])
    if case == "all-missing size":
        errors[1] = np.nan
    elif case == "missing in some resamples":
        errors[2, : max(1, n_reps - 3)] = np.nan
        errors[0, : max(1, n_reps - 2)] = np.nan
    elif case == "zero medians":
        errors[3, : n_reps // 2 + 1] = 0.0
    elif case == "fewer than two sizes":
        errors[:3] = np.nan
    return errors


@pytest.mark.parametrize("n_reps", [1, 7, 40])
@pytest.mark.parametrize(
    "case",
    ["complete", "all-missing size", "missing in some resamples", "zero medians", "fewer than two sizes"],
)
def test_bootstrap_equals_the_per_resample_loop(case, n_reps):
    errors = _error_table(case, n_reps)
    log_n = np.log(np.array([32.0, 250.0, 1000.0, 2000.0]))
    rng_loop, rng_block = np.random.default_rng(99), np.random.default_rng(99)
    expected = _reference_bootstrap(errors, log_n, 200, rng_loop)
    got = _bootstrap_slopes(errors.T, log_n, 200, rng_block)
    assert got.tolist() == expected
    assert rng_block.bit_generator.state == rng_loop.bit_generator.state
    if case == "fewer than two sizes":
        assert expected == []


def test_sort_median_of_a_small_table():
    # Three valid entries, none, two, and four equal ones.
    a = np.array([[1.0, np.nan, 3.0, 2.0], [np.nan] * 4, [4.0, 1.0, np.nan, np.nan], [5.0] * 4])
    got = studies._nanmedian(a, axis=1)
    assert np.array_equal(got, [2.0, np.nan, 2.5, 5.0], equal_nan=True)


@pytest.mark.parametrize(
    ("shape", "axis"),
    [((7, 6), 0), ((7, 6), 1), ((8, 9), 0), ((8, 9), 1), ((40, 4, 10), 0), ((200, 40, 4), 1)],
)
@pytest.mark.parametrize("valid_share", [1.0, 0.7, 0.2, 0.0])
def test_sort_median_equals_nanmedian_bit_for_bit(shape, axis, valid_share):
    # Odd and even axis lengths (so odd and even valid counts), NaN
    # scattered at random, and (at low shares) cells with no valid entry;
    # the (40, 4, 10) and (200, 40, 4) shapes are the rate study's
    # per-point and bootstrap medians.
    rng = np.random.default_rng([len(shape), axis, int(10 * valid_share)])
    a = rng.gamma(2.0, 0.1, size=shape)
    a[rng.random(shape) >= valid_share] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # np.nanmedian's all-NaN warning
        expected = np.nanmedian(a, axis=axis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = studies._nanmedian(a, axis=axis)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)


@pytest.fixture(scope="module")
def missing_heavy(model_m):
    """Sizes 32 and 40 leave most points without kernel support."""
    return StudyConfig(model=model_m, sizes=(32, 40, 2000), n_reps=7, seed=1)


def test_rate_study_warns_nothing_on_all_missing_cells(missing_heavy):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = rate_study(missing_heavy)
    assert any(v is None for b in result.summary["slopes"].values() for v in b["median_abs_error"])


def _tables_from_records(table, sizes, n_points, n_reps):
    """(size, point, rep) absolute errors, NaN where missing, and (size, rep)
    direction distances, read back from the record columns."""
    errors = np.full((len(sizes), n_points, n_reps), np.nan)
    dds = np.full((len(sizes), n_reps), np.nan)
    size_index = {int(s): i for i, s in enumerate(sizes)}
    i = np.array([size_index[n] for n in table["n"].tolist()])
    rep, point = table["rep"], table["point"]
    ok = ~table["missing"]
    errors[i[ok], point[ok], rep[ok]] = table["abs_error"][ok]
    first = point == 0
    dds[i[first], rep[first]] = table["direction_distance"][first]
    return errors, dds


def test_summaries_equal_those_rebuilt_from_the_records(missing_heavy):
    config = missing_heavy
    sizes, n_reps = config.sizes, config.n_reps
    log_n = np.log(np.asarray(sizes, dtype=np.float64))

    conv = convergence_study(config)
    errors, dds = _tables_from_records(conv.table, sizes, 10, n_reps)
    assert conv.summary["abs_error_quantiles"] == {
        str(n): {str(j): _quantile_block(errors[i, j]) for j in range(10)}
        for i, n in enumerate(sizes)
    }
    assert conv.summary["direction_distance_quantiles"] == {
        str(n): _quantile_block(dds[i]) for i, n in enumerate(sizes)
    }

    rate = rate_study(config)
    # Same records: only the study kind and the summary differ.
    assert rate == studies.StudyResult(rate.study, conv.table, rate.summary)
    rng = np.random.default_rng([config.seed, 0xB007])
    for j in range(10):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            med = np.nanmedian(errors[:, j, :], axis=1)
        slope = _reference_slope(log_n, med)
        block = rate.summary["slopes"][str(j)]
        assert block["median_abs_error"] == [None if np.isnan(v) else float(v) for v in med]
        assert block["slope"] == slope
        if slope is not None:
            boot = _reference_bootstrap(errors[:, j, :], log_n, studies._BOOTSTRAP, rng)
            ci = [float(v) for v in np.percentile(boot, [2.5, 97.5])] if boot else [None, None]
            assert [block["slope_ci_low"], block["slope_ci_high"]] == ci
    loglog = np.log(np.log(np.asarray(sizes, dtype=np.float64)))
    assert rate.summary["direction_envelope_q90"] == {
        str(n): float(np.percentile(dds[i] * float(n) / float(loglog[i]), 90.0))
        for i, n in enumerate(sizes)
    }

    t = conv.table
    missing, est = t["missing"], t["estimate"]
    assert missing.dtype == bool and 0 < np.count_nonzero(missing) < missing.size
    assert np.isnan(est[missing]).all() and np.isnan(t["abs_error"][missing]).all()
    assert est.dtype == np.float64 and not np.isnan(est[~missing]).any()
    assert np.array_equal(
        t["abs_error"][~missing], np.abs(est[~missing] - t["true_value"][~missing])
    )


def test_checkpoint_rows_runs_once_per_replication(model_m, monkeypatch):
    # The benchmark tracer times one replication as one _checkpoint_rows call.
    calls = []
    original = studies._checkpoint_rows

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(studies, "_checkpoint_rows", counted)
    config = StudyConfig(model=model_m, sizes=(100, 200), n_reps=5, seed=2, warmup=30)
    result = convergence_study(config)
    assert len(calls) == 5 and result.table["rep"].size == 5 * 2 * 10


def _checkpoint_rows_by_evaluate(path, model, sizes, alpha, eval_points):
    """The per-point loop _checkpoint_rows replaced: a log prefix, then evaluate."""
    schedule = BandwidthSchedule(alpha=alpha)
    log = ProjectionLog(epanechnikov(), schedule, first_index=path.warmup_n + 1)
    est = np.full((len(sizes), eval_points.shape[0]), np.nan)
    dd = np.empty(len(sizes))
    for i, n in enumerate(sizes):
        done, upto = len(log), n - path.warmup_n
        log.extend(path.projections[done:upto], path.responses[done:upto])
        theta = path.snapshots[n]
        dd[i] = direction_distance(theta, model.direction)
        u_hat = eval_points @ theta if eval_points.ndim == 2 else eval_points
        for j, u in enumerate(u_hat):
            try:
                est[i, j] = evaluate(log, float(u))
            except NoSupportError:
                pass
    return est, dd


@pytest.mark.parametrize("points", ["vectors", "projections"])
def test_checkpoint_rows_equal_evaluate_on_each_log_prefix(model_m, points):
    sizes = (32, 40, 2000)  # two and ten entries at the first checkpoints
    if points == "vectors":
        eval_points = draw_eval_points(model_m, 25)
    else:
        eval_points = np.linspace(-6.0, 6.0, 49)
    missing = 0
    for seed, alpha in ((3, 0.35), (4, 0.2), (5, 0.5)):
        path = direction_path(draw(model_m, sizes[-1], seed), warmup=30, checkpoints=sizes)
        config = StudyConfig(
            model=model_m, sizes=sizes, n_reps=1, alpha=alpha, eval_points=eval_points, warmup=30
        )
        got = studies._checkpoint_rows(path, config)
        want = _checkpoint_rows_by_evaluate(path, model_m, sizes, alpha, eval_points)
        assert np.array_equal(got[0], want[0], equal_nan=True)
        assert np.array_equal(got[1], want[1])
        missing += int(np.isnan(got[0]).sum())
    assert 0 < missing < 3 * got[0].size


def test_non_finite_eval_points_are_refused(model_m):
    # A NaN point would otherwise read as "no kernel support" at every checkpoint.
    for pts in (np.array([0.0, np.nan]), np.full((2, model_m.p), np.inf)):
        with pytest.raises(ValueError, match="finite"):
            StudyConfig(model=model_m, sizes=(100,), n_reps=1, eval_points=pts)
