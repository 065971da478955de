"""Output checks, run outside the timed region.

Each checker takes parsed outputs and returns a list of failure messages;
an empty list means the output is correct.  The references are computed
here, independently of the code path that produced the output where the
package allows it:

* a direction estimate is compared with `batch_sir` on the same rows, at
  the tolerance of acceptance criterion C1 (maximum absolute difference
  over the largest reference component, at most 1e-8);
* grid estimates are compared with `evaluate` on the written projection log;
* cross-validation scores and skip counts are recomputed as direct
  one-step-ahead Nadaraya-Watson sums over one projection log, which does
  not depend on the exponent;
* a study's replication 0 is rerun alone through public calls and must
  equal its records exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from streamsir import (
    BandwidthSchedule,
    NoSupportError,
    ProjectionLog,
    Slicer,
    batch_sir,
    direction_distance,
    draw,
    draw_eval_points,
    epanechnikov,
    evaluate,
    init_stream,
    reference_model,
    run_stream,
    stream_step,
)

import workloads as wl

DIRECTION_TOL = 1e-8  # C1 in tests/test_acceptance.py
SUM_TOL = 1e-9


def _rel_max(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_direction(theta: np.ndarray, sample) -> list[str]:
    """theta_hat against the batch estimate on the same rows."""
    slicer = Slicer(boundary=float(np.median(sample.responses[: wl.WARMUP])))
    ref = batch_sir(sample, slicer)
    err = _rel_max(np.asarray(theta, dtype=np.float64), ref)
    if not err <= DIRECTION_TOL:
        return [f"theta_hat differs from batch_sir by {err:.3e} relative (> {DIRECTION_TOL:g})"]
    return []


def load_fit(out_dir: Path) -> dict:
    _, log_rows = read_csv(out_dir / "projection_log.csv")
    _, grid_rows = read_csv(out_dir / "grid_estimates.csv")
    return {
        "fit": json.loads((out_dir / "fit.json").read_text(encoding="utf-8")),
        "log": np.array(log_rows, dtype=np.float64).reshape(-1, 3),
        "grid": np.array(grid_rows, dtype=np.float64).reshape(-1, 4),
    }


def check_fit(out: dict, sample) -> list[str]:
    """fit.json against batch_sir; grid_estimates.csv against evaluate."""
    fit = out["fit"]
    failures = []
    if fit["n"] != sample.n or fit["warmup_n"] != wl.WARMUP:
        failures.append(f"fit.json reports n={fit['n']} warmup_n={fit['warmup_n']}")
    failures += check_direction(np.array(fit["theta_hat"]), sample)
    k, u, y = out["log"].T
    if k.size != sample.n - wl.WARMUP:
        failures.append(f"projection log has {k.size} rows, expected {sample.n - wl.WARMUP}")
        return failures
    log = ProjectionLog.from_entries(
        epanechnikov(), BandwidthSchedule(alpha=wl.ALPHA), k.astype(np.int64), u, y
    )
    x, f_hat = out["grid"][:, 0], out["grid"][:, 1]
    ref = np.full(x.size, np.nan)
    for j, xj in enumerate(x):
        try:
            ref[j] = evaluate(log, xj)
        except NoSupportError:
            pass
    if not np.array_equal(np.isnan(f_hat), np.isnan(ref)):
        failures.append("grid_estimates.csv supports different points than evaluate")
    elif np.any(~np.isnan(ref)):
        ok = ~np.isnan(ref)
        err = _rel_max(f_hat[ok], ref[ok])
        if not err <= SUM_TOL:
            failures.append(f"grid f_hat differs from evaluate by {err:.3e} relative (> {SUM_TOL:g})")
    return failures


def kernel_weights(x: np.ndarray, u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """W_j(x_i) = K((x_i - u_j) / h_j) / h_j, K(t) = 0.75 (1 - t^2) on |t| <= 1."""
    t = (x[:, None] - u[None, :]) / h[None, :]
    return np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t * t), 0.0) / h[None, :]


def direct_cv(sample, grid) -> tuple[np.ndarray, np.ndarray]:
    """Scores and skip counts from direct one-step-ahead kernel sums.

    The projections u_k = theta_{k-1}' x_k do not depend on the exponent, so
    one run_stream log serves every candidate.  For entry i the prediction
    is sum_{j<i} W_j(u_i) y_j / sum_{j<i} W_j(u_i) with
    W_j as in kernel_weights and h_j = k_j ** -alpha; entries with no
    positive weight are skipped.
    """
    log = run_stream(sample, warmup=wl.WARMUP).log
    k = log.indices.astype(np.float64)
    u, y = log.projections, log.responses
    m = u.size
    scores, skipped = [], []
    block = 256
    for alpha in grid:
        h = k ** (-float(alpha))
        score, skip = 0.0, 0
        for a in range(0, m, block):
            rows = slice(a, min(a + block, m))
            w = kernel_weights(u[rows], u, h)
            w[np.arange(a, rows.stop)[:, None] <= np.arange(m)[None, :]] = 0.0
            den = w.sum(axis=1)
            num = w @ y
            ok = den > 0.0
            skip += int(np.sum(~ok))
            score += float(np.sum((y[rows][ok] - num[ok] / den[ok]) ** 2))
        scores.append(score)
        skipped.append(skip)
    return np.array(scores), np.array(skipped)


def check_cv(doc: dict, sample) -> list[str]:
    """cv.json against direct kernel sums over one projection log."""
    failures = []
    if not np.allclose(doc["grid"], wl.CV_GRID, rtol=0, atol=1e-12):
        return [f"cv.json grid {doc['grid']} is not {wl.CV_GRID}"]
    if doc["n"] != sample.n or doc["warmup_n"] != wl.WARMUP:
        failures.append(f"cv.json reports n={doc['n']} warmup_n={doc['warmup_n']}")
    scores, skipped = direct_cv(sample, doc["grid"])
    got = np.asarray(doc["scores"], dtype=np.float64)
    err = np.abs(got - scores) / np.abs(scores)
    if not np.all(err <= SUM_TOL):
        failures.append(f"cv scores differ from direct sums by up to {np.max(err):.3e} relative")
    if list(doc["skipped"]) != skipped.tolist():
        failures.append(f"cv skip counts {doc['skipped']} != direct {skipped.tolist()}")
    streamed = sample.n - wl.WARMUP
    if [s + c for s, c in zip(doc["skipped"], doc["counted"])] != [streamed] * len(scores):
        failures.append("cv skipped + counted does not equal the streamed rows")
    if doc["argmin_index"] != int(np.argmin(got)):
        failures.append(f"cv argmin_index {doc['argmin_index']} is not the smallest score")
    return failures


def load_study(out_dir: Path) -> tuple[list[str], list[list[str]]]:
    return read_csv(out_dir / "records.csv")


RECORD_COLUMNS = [
    "rep", "n", "point", "u_true", "true_value", "estimate", "abs_error", "missing",
    "direction_distance",
]


def replication_rows(seed: int, rep: int = 0):
    """One replication of the rate study, rerun alone through public calls.

    Returns the rows as records.csv writes them (RECORD_COLUMNS order), the
    final engine state, the replication's sample and the evaluation points.
    """
    model = reference_model(p=wl.P)
    sample = draw(model, wl.STUDY_SIZES[-1], seed ^ rep)
    points = draw_eval_points(model, count=wl.STUDY_POINTS)
    u_true = points @ model.direction
    f_true = np.asarray(model.link(u_true), dtype=np.float64)
    state = init_stream(sample.head(wl.WARMUP), alpha=wl.ALPHA)
    xs, ys = sample.covariates, sample.responses
    fmt = "{:.17g}".format
    rows = []
    for i in range(wl.WARMUP, sample.n):
        state = stream_step(state, xs[i], float(ys[i]))
        if state.n not in wl.STUDY_SIZES:
            continue
        dd = direction_distance(state.theta_hat, model.direction)
        u_hat = points @ state.theta_hat
        for j in range(points.shape[0]):
            try:
                est = evaluate(state.log, float(u_hat[j]))
            except NoSupportError:
                est = None
            rows.append([
                str(rep), str(state.n), str(j), fmt(u_true[j]), fmt(f_true[j]),
                "" if est is None else fmt(est),
                "" if est is None else fmt(abs(est - float(f_true[j]))),
                str(int(est is None)), fmt(dd),
            ])
    return rows, state, sample, points


def check_study(records: tuple[list[str], list[list[str]]], seed: int) -> list[str]:
    """Record count, and replication 0 rerun alone equals its rows.

    The rerun's final direction is also held against batch_sir, and its
    estimates at the last checkpoint against direct kernel sums, so that the
    rows are right and not only reproducible.
    """
    header, rows = records
    failures = []
    if header != RECORD_COLUMNS:
        return [f"records.csv header is {header}, expected {RECORD_COLUMNS}"]
    expected = wl.STUDY_REPS * len(wl.STUDY_SIZES) * wl.STUDY_POINTS
    if len(rows) != expected:
        failures.append(f"records.csv has {len(rows)} rows, expected {expected}")
    mine = [r for r in rows if r[0] == "0"]
    rerun, state, sample, points = replication_rows(seed, 0)
    if mine != rerun:
        failures.append("replication 0 rerun alone differs from its records.csv rows")
    failures += check_direction(state.theta_hat, sample)
    log = state.log
    h = log.indices.astype(np.float64) ** (-wl.ALPHA)
    w = kernel_weights(points @ state.theta_hat, log.projections, h)
    den = w.sum(axis=1)
    last = [r for r in mine if r[1] == str(sample.n)]
    got = np.array([float(r[5]) if r[5] else np.nan for r in last])
    ref = np.where(den > 0.0, (w @ log.responses) / np.where(den > 0.0, den, 1.0), np.nan)
    if got.shape != ref.shape or not np.array_equal(np.isnan(got), np.isnan(ref)):
        failures.append("replication 0 estimates are missing where direct sums have support, or vice versa")
    elif np.any(~np.isnan(ref)):
        ok = ~np.isnan(ref)
        err = _rel_max(got[ok], ref[ok])
        if not err <= SUM_TOL:
            failures.append(f"replication 0 estimates differ from direct sums by {err:.3e} relative")
    return failures
