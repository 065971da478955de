"""End-to-end acceptance gates for the streaming estimator.

Each test prints one PASS/FAIL line (also echoed in the terminal summary)
and asserts the stated tolerance, so a red line here is a real, reproducible
shortfall rather than a flaky threshold.
"""

import math
import time

import numpy as np
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import _acceptance_report
from _cli import run_cli
from conftest import central_point_indices, most_central, stepped_moments
from streamsir import (
    BandwidthSchedule,
    NoSupportError,
    ProjectionLog,
    Sample,
    Slicer,
    StudyConfig,
    batch_sir,
    curve,
    draw,
    draw_eval_points,
    epanechnikov,
    evaluate,
    normality_study,
    select_alpha,
    warm_start,
)
from streamsir.moments import batch_moments
from streamsir.sir import recursive_step
from streamsir.io import read_sample_csv, write_sample_csv


def _report(number, label, passed, detail):
    line = _acceptance_report.record(number, label, passed, detail)
    print(line)
    return line


# ---------------------------------------------------------------------------
# 1. Exact recursion equivalence on random streams
# ---------------------------------------------------------------------------


def _random_stream(index):
    p = (2, 5, 10)[index % 3]
    rng = np.random.default_rng(1000 + index)
    mixing = rng.normal(size=(p, p))
    x = rng.normal(size=(500, p)) @ mixing.T + rng.normal(size=p)
    y = rng.normal(size=500)
    return Sample(covariates=x, responses=y)


def test_c1_recursions_match_batch_on_every_prefix():
    start = time.perf_counter()
    warmup = 30
    worst_inv = worst_slice = worst_theta = 0.0
    for index in range(20):
        sample = _random_stream(index)
        x, y = sample.covariates, sample.responses
        slicer = Slicer(boundary=float(np.median(y[:warmup])))
        state = warm_start(sample.head(warmup), slicer)

        labels = slicer.slices_of(y)
        s1 = np.cumsum(x, axis=0)
        s2 = np.cumsum(x[:, :, None] * x[:, None, :], axis=0)
        in_slice1 = (labels == 1).astype(np.float64)
        c1 = np.cumsum(in_slice1)
        g1 = np.cumsum(x * in_slice1[:, None], axis=0)

        for k in range(warmup, 500):
            state = recursive_step(state, x[k], y[k], slicer)
            moments = state.moments
            n = k + 1
            mean = s1[k] / n
            cov = s2[k] / n - np.outer(mean, mean)
            worst_inv = max(
                worst_inv,
                float(np.max(np.abs(moments.inv_cov @ cov - np.eye(sample.p)))),
            )
            m1 = g1[k] / c1[k]
            m2 = (s1[k] - g1[k]) / (n - c1[k])
            batch_means = np.stack([m1, m2])
            worst_slice = max(
                worst_slice,
                float(
                    np.max(np.abs(moments.slice_means - batch_means))
                    / np.max(np.abs(batch_means))
                ),
            )
            theta_batch = np.linalg.solve(cov, m1 - m2)
            worst_theta = max(
                worst_theta,
                float(
                    np.max(np.abs(state.theta_hat - theta_batch))
                    / np.max(np.abs(theta_batch))
                ),
            )
    elapsed = time.perf_counter() - start
    passed = (
        worst_inv <= 1e-8
        and worst_slice <= 1e-12
        and worst_theta <= 1e-8
        and elapsed < 30.0
    )
    line = _report(
        1,
        "exact recursion equivalence",
        passed,
        f"max inverse residual {worst_inv:.2e} (<=1e-8), "
        f"slice-mean rel {worst_slice:.2e} (<=1e-12), "
        f"direction rel {worst_theta:.2e} (<=1e-8), {elapsed:.1f}s (<30s)",
    )
    assert passed, line


# ---------------------------------------------------------------------------
# 2. Kernel constants against adaptive quadrature
# ---------------------------------------------------------------------------


def test_c2_kernel_constants_match_quadrature():
    start = time.perf_counter()
    kernel = epanechnikov()
    k = lambda t: 0.75 * max(1.0 - t * t, 0.0)
    mass, _ = scipy.integrate.quad(k, -1.0, 1.0)
    nu2, _ = scipy.integrate.quad(lambda t: k(t) ** 2, -1.0, 1.0)
    tau2, _ = scipy.integrate.quad(lambda t: 0.5 * t * t * k(t), -1.0, 1.0)
    elapsed = time.perf_counter() - start
    passed = (
        abs(kernel.nu2 - nu2) <= 1e-9
        and abs(kernel.tau2 - tau2) <= 1e-9
        and kernel.nu2 == 0.6
        and kernel.tau2 == 0.1
        and abs(mass - 1.0) <= 1e-6
        and elapsed < 1.0
    )
    line = _report(
        2,
        "kernel constants",
        passed,
        f"|nu2-quad| {abs(kernel.nu2 - nu2):.1e}, |tau2-quad| "
        f"{abs(kernel.tau2 - tau2):.1e} (<=1e-9), |mass-1| "
        f"{abs(mass - 1.0):.1e} (<=1e-6), {elapsed:.2f}s (<1s)",
    )
    assert passed, line


# ---------------------------------------------------------------------------
# 3. Direction recovery across sample sizes
# ---------------------------------------------------------------------------


def test_c3_direction_recovery(acceptance_convergence):
    start = time.perf_counter()
    quantiles = acceptance_convergence.summary["direction_distance_quantiles"]
    medians = {n: quantiles[str(n)]["q50"] for n in (500, 1000, 2000)}
    elapsed = time.perf_counter() - start
    ordered = medians[500] >= medians[1000] >= medians[2000]
    passed = medians[2000] <= 0.02 and ordered and elapsed < 120.0
    line = _report(
        3,
        "direction recovery",
        passed,
        "median distance "
        + ", ".join(f"n={n}: {medians[n]:.4f}" for n in (500, 1000, 2000))
        + f" (<=0.02 at 2000, non-increasing), {elapsed:.1f}s (<2min)",
    )
    assert passed, line


# ---------------------------------------------------------------------------
# 4. Link estimate consistency at central points
# ---------------------------------------------------------------------------


def test_c4_link_consistency(model_m, acceptance_convergence):
    start = time.perf_counter()
    result = acceptance_convergence
    pts = np.asarray(result.summary["config"]["eval_points"])
    central = set(int(i) for i in central_point_indices(model_m, pts))
    medians = {}
    t = result.table
    for n in (200, 500, 1000, 2000):
        keep = (t["n"] == n) & np.isin(t["point"], sorted(central)) & ~t["missing"]
        errs = t["abs_error"][keep]
        medians[n] = float(np.median(errs))
    elapsed = time.perf_counter() - start
    vals = [medians[n] for n in (200, 500, 1000, 2000)]
    ordered = all(b <= a for a, b in zip(vals, vals[1:]))
    passed = ordered and medians[2000] <= 0.25 and elapsed < 240.0
    line = _report(
        4,
        "link consistency",
        passed,
        "median |error| "
        + ", ".join(f"n={n}: {medians[n]:.4f}" for n in (200, 500, 1000, 2000))
        + f" (<=0.25 at 2000, non-increasing), {elapsed:.1f}s (<4min)",
    )
    assert passed, line


# ---------------------------------------------------------------------------
# 5. Cross-validation profile locates the predicted exponent range
# ---------------------------------------------------------------------------


def test_c5_cv_profile(model_m):
    start = time.perf_counter()
    grid = [round(0.10 + 0.05 * k, 10) for k in range(1, 10)]
    hits = 0
    for rep in range(50):
        sample = draw(model_m, 1000, seed=0 ^ rep)
        report = select_alpha(sample, grid)
        if 0.25 <= report.argmin_alpha <= 0.45:
            hits += 1
    elapsed = time.perf_counter() - start
    passed = hits >= 30 and elapsed < 300.0
    line = _report(
        5,
        "cv profile",
        passed,
        f"argmin in [0.25, 0.45] in {hits}/50 replications (needs >=30), "
        f"{elapsed:.1f}s (<5min)",
    )
    assert passed, line


# ---------------------------------------------------------------------------
# 6. Asymptotic normality of the standardized link error
# ---------------------------------------------------------------------------


def test_c6_asymptotic_normality(model_m):
    start = time.perf_counter()
    pts = draw_eval_points(model_m, 10)
    pick = most_central(model_m, pts, 2)
    config = StudyConfig(
        model=model_m,
        sizes=(1000,),
        n_reps=200,
        alpha=0.35,
        seed=0,
        eval_points=pts[pick],
    )
    result = normality_study(config)
    elapsed = time.perf_counter() - start
    checks = []
    details = []
    for key in ("0", "1"):
        block = result.summary["per_point"][key]
        ok = (
            abs(block["mean"]) <= 0.3
            and 0.75 <= block["std"] <= 1.25
            and abs(block["skewness"]) <= 0.4
            and abs(block["excess_kurtosis"]) <= 1.0
            and not block["ks_rejected_1pct"]
        )
        checks.append(ok)
        details.append(
            f"point {key}: mean {block['mean']:.3f}, std {block['std']:.3f}, "
            f"skew {block['skewness']:.3f}, exkurt {block['excess_kurtosis']:.3f}, "
            f"ks {block['ks_scaled']:.2f} vs {block['ks_critical_scaled_1pct']:.3f}"
        )
    passed = all(checks) and elapsed < 240.0
    line = _report(
        6,
        "asymptotic normality",
        passed,
        "; ".join(details) + f"; {elapsed:.1f}s (<4min)",
    )
    assert passed, line


# ---------------------------------------------------------------------------
# 7. Property-based invariants, six suites of >= 200 cases
# ---------------------------------------------------------------------------


def test_c7_property_invariants(tmp_path_factory):
    start = time.perf_counter()
    prop_settings = settings(max_examples=200, deadline=None, derandomize=True)
    scratch = tmp_path_factory.mktemp("roundtrip")
    kernel = epanechnikov()
    schedule = BandwidthSchedule(alpha=0.35)

    finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)

    @prop_settings
    @given(
        entries=st.lists(st.tuples(finite, finite), min_size=1, max_size=12),
        x=finite,
    )
    def convex_combination_bound(entries, x):
        log = ProjectionLog(kernel=kernel, schedule=schedule, first_index=1)
        for u, y in entries:
            log.push(u, y)
        ys = [y for _, y in entries]
        try:
            est = evaluate(log, x)
        except NoSupportError:
            return
        assert min(ys) - 1e-12 <= est <= max(ys) + 1e-12

    @prop_settings
    @given(data=st.data())
    def slice_count_conservation(data):
        p = data.draw(st.integers(2, 4))
        n_extra = data.draw(st.integers(1, 12))
        seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        n0 = p + 3
        x = rng.normal(size=(n0 + n_extra, p))
        y = rng.normal(size=n0 + n_extra)
        slicer = Slicer(boundary=float(np.median(y[:n0])))
        moments = batch_moments(
            Sample(covariates=x[:n0], responses=y[:n0]), slicer
        )
        for k in range(n0, n0 + n_extra):
            before = moments.slice_counts.copy()
            moments = stepped_moments(moments, x[k], y[k], slicer)
            assert int(moments.slice_counts.sum()) == k + 1
            assert np.all(moments.slice_counts >= before)

    @prop_settings
    @given(data=st.data())
    def innovation_energy_nonnegative(data):
        p = data.draw(st.integers(2, 4))
        seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        n0 = p + 3
        x = rng.normal(size=(n0 + 6, p))
        y = rng.normal(size=n0 + 6)
        slicer = Slicer(boundary=float(np.median(y[:n0])))
        moments = batch_moments(
            Sample(covariates=x[:n0], responses=y[:n0]), slicer
        )
        for k in range(n0, n0 + 6):
            phi = x[k] - moments.mean
            rho = float(phi @ (moments.inv_cov @ phi))
            assert rho >= -1e-9
            moments = stepped_moments(moments, x[k], y[k], slicer)

    @prop_settings
    @given(
        scale=st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False),
        seed=st.integers(0, 10_000),
    )
    def batch_direction_scale_equivariance(scale, seed):
        rng = np.random.default_rng(seed)
        p = 3
        x = rng.normal(size=(p + 12, p))
        y = rng.normal(size=p + 12)
        slicer = Slicer(boundary=float(np.median(y)))
        theta = batch_sir(Sample(covariates=x, responses=y), slicer)
        scaled = batch_sir(Sample(covariates=scale * x, responses=y), slicer)
        ref = np.max(np.abs(theta))
        assert np.max(np.abs(scaled * scale - theta)) <= 1e-8 * max(ref, 1.0)

    @prop_settings
    @given(
        entries=st.lists(st.tuples(finite, finite), min_size=1, max_size=10),
        points=st.lists(finite, min_size=1, max_size=6, unique=True),
    )
    def grid_matches_direct_evaluation(entries, points):
        grid = np.array(sorted(points))
        log = ProjectionLog(kernel=kernel, schedule=schedule, first_index=1)
        for u, y in entries:
            log.push(u, y)
        estimates = curve(kernel, grid, log.projections, log.bandwidths, log.responses)[0]
        for j, x in enumerate(grid):
            try:
                direct = evaluate(log, float(x))
            except NoSupportError:
                assert math.isnan(estimates[j])
                continue
            assert estimates[j] == direct

    @prop_settings
    @given(data=st.data())
    def csv_round_trip_exact(data):
        n = data.draw(st.integers(1, 8))
        p = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 100_000))
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=rng.uniform(1e-6, 1e6), size=(n, p))
        y = rng.normal(scale=rng.uniform(1e-6, 1e6), size=n)
        sample = Sample(covariates=x, responses=y)
        path = scratch / "roundtrip.csv"
        write_sample_csv(sample, path)
        back = read_sample_csv(path)
        assert np.array_equal(back.covariates, sample.covariates)
        assert np.array_equal(back.responses, sample.responses)

    suites = [
        convex_combination_bound,
        slice_count_conservation,
        innovation_energy_nonnegative,
        batch_direction_scale_equivariance,
        grid_matches_direct_evaluation,
        csv_round_trip_exact,
    ]
    failed = []
    for suite in suites:
        try:
            suite()
        except Exception as exc:  # noqa: BLE001 - report which suite broke
            failed.append(f"{suite.__name__}: {type(exc).__name__}")
    elapsed = time.perf_counter() - start
    passed = not failed and elapsed < 60.0
    line = _report(
        7,
        "property invariants",
        passed,
        (
            f"6 suites x 200 cases, {elapsed:.1f}s (<1min)"
            if not failed
            else "; ".join(failed) + f"; {elapsed:.1f}s"
        ),
    )
    assert passed, line


# ---------------------------------------------------------------------------
# 8. Byte-identical artifacts on re-run
# ---------------------------------------------------------------------------


def _run_cli(args, cwd):
    result = run_cli(args, cwd)
    assert result.returncode == 0, result.stderr
    return result


def _pipeline(root):
    root.mkdir()
    _run_cli(["simulate", "--n", "300", "--seed", "5"], root)
    _run_cli(["fit", "--input", "sample.csv", "--seed", "5"], root)
    _run_cli(
        ["predict", "--log", "projection_log.csv", "--at=-0.5,0,0.5"], root
    )
    _run_cli(
        [
            "cv", "--n", "200", "--seed", "5", "--grid-min", "0.3",
            "--grid-max", "0.4", "--grid-step", "0.05", "--out-dir", "cv",
        ],
        root,
    )
    for kind, extra in (
        ("scatter", ["--n", "150", "--reps", "1"]),
        ("convergence", ["--sizes", "100,150", "--reps", "2", "--eval-count", "2"]),
        ("normality", ["--n", "150", "--reps", "3", "--eval-count", "2"]),
        ("rate", ["--sizes", "100,150", "--reps", "2", "--eval-count", "2"]),
    ):
        _run_cli(
            ["study", "--kind", kind, "--seed", "5", "--out-dir", kind] + extra,
            root,
        )


def test_c8_cli_determinism(tmp_path):
    start = time.perf_counter()
    first = tmp_path / "first"
    second = tmp_path / "second"
    _pipeline(first)
    _pipeline(second)

    rel_paths = sorted(
        p.relative_to(first) for p in first.rglob("*") if p.is_file()
    )
    rel_other = sorted(
        p.relative_to(second) for p in second.rglob("*") if p.is_file()
    )
    mismatched = [
        str(rel)
        for rel in rel_paths
        if (first / rel).read_bytes() != (second / rel).read_bytes()
    ]
    elapsed = time.perf_counter() - start
    passed = rel_paths == rel_other and bool(rel_paths) and not mismatched
    line = _report(
        8,
        "byte-identical artifacts",
        passed,
        f"{len(rel_paths)} artifacts over 5 subcommands and 4 study kinds"
        + ("" if not mismatched else f"; mismatched: {mismatched}")
        + f"; {elapsed:.1f}s",
    )
    assert passed, line
