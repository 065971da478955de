"""Monte Carlo studies of the streaming estimator.

Four study kinds share one harness:

* scatter: one run, paired (true projection, response) and (estimated
  projection, response) columns for eyeballing the index recovery;
* convergence: error quantiles of the curve estimate and the direction
  distance across replications at increasing checkpoint sizes;
* normality: the centered, scaled curve error at fixed evaluation points
  across replications, with moment and goodness-of-fit summaries;
* rate: log-log slope of the median curve error against sample size, with
  a bootstrap confidence interval, plus an envelope statistic for the
  direction distance.

Replication r of a study with master seed s draws its data with seed
s XOR r, so replications are decoupled and any single one can be rerun in
isolation.  Evaluation points come from a dedicated seeded draw that is
independent of every replication seed.  All randomness flows through
these two rules, which makes every artifact byte-reproducible from
(config, seed); records.csv rows are emitted in (replication, checkpoint,
point) order and summary.json is written with sorted keys.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np
from scipy import stats as sps

from .engine import default_warmup, direction_path
from .errors import NoSupportError
from .kernels import BandwidthSchedule, epanechnikov
from .linkreg import ProjectionLog, evaluate, theoretical_std
from .sir import direction_distance
from .simulate import Sample, SingleIndexModel, draw
from .io import write_json, write_records_csv

# Not called here: the per-layer tracer (perfbench/tracing.py) patches these
# names by module attribute, so they stay importable.
from .engine import init_stream, stream_step  # noqa: F401

# Seed of the evaluation-point draw; fixed so every study run of a given
# model sees the same points regardless of the study's own master seed.
EVAL_POINT_SEED = 24301

HISTOGRAM_EDGES = np.linspace(-4.0, 4.0, 25)

# Asymptotic 1% critical value of sqrt(m) times the one-sample
# Kolmogorov-Smirnov statistic.
KS_CRIT_1PCT = float(sps.kstwobign.ppf(0.99))


def draw_eval_points(model: SingleIndexModel, count: int = 10, seed: int = EVAL_POINT_SEED) -> np.ndarray:
    """Fixed covariate vectors at which curve estimates are compared."""
    if count < 1:
        raise ValueError("need at least one evaluation point")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, model.p))
    if model.covariate_cov is not None:
        chol = np.linalg.cholesky(model.covariate_cov)
        pts = pts @ chol.T
    if model.covariate_mean is not None:
        pts = pts + model.covariate_mean
    return pts


def most_central(model: SingleIndexModel, points: np.ndarray, count: int) -> np.ndarray:
    """Indices of the points whose true projections sit nearest the design center."""
    u = points @ model.direction
    order = np.argsort(np.abs(u - model.projected_mean()), kind="stable")
    return order[:count]


def projected_density(model: SingleIndexModel, t: float) -> float:
    """Design density of the true projection theta' X at t.

    The projection of a Gaussian covariate vector is Gaussian with mean
    theta' mu and variance theta' Sigma theta, so the density is available
    in closed form for every supported covariate law.
    """
    s = float(np.sqrt(model.projected_variance()))
    if s <= 0.0:
        raise ValueError("projected variance must be positive")
    return float(sps.norm.pdf(t, loc=model.projected_mean(), scale=s))


@dataclass(frozen=True)
class StudyConfig:
    """Shared configuration of the Monte Carlo studies.

    Attributes:
        model: data-generating model.
        sizes: checkpoint sample sizes, strictly increasing; scatter and
            normality use only the last entry.
        n_reps: number of replications.
        alpha: bandwidth exponent of the curve estimate.
        seed: master seed; replication r uses seed XOR r.
        eval_points: explicit evaluation points, either an (m, p) array of
            covariate vectors or an (m,) array of projection values; None
            means a seeded default draw of 10 covariate vectors.
        warmup: warm-up length override; None means max(2 p, 30).
        workers: process count for replication-level parallelism.
        bootstrap: resample count for the rate study's slope interval.
    """

    model: SingleIndexModel
    sizes: tuple[int, ...]
    n_reps: int
    alpha: float = 0.35
    seed: int = 0
    eval_points: np.ndarray | None = None
    warmup: int | None = None
    workers: int = 1
    bootstrap: int = 200

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("sizes must be non-empty")
        sizes = tuple(int(s) for s in self.sizes)
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        object.__setattr__(self, "sizes", sizes)
        if self.n_reps < 1:
            raise ValueError("n_reps must be at least 1")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        n0 = self.warmup if self.warmup is not None else default_warmup(self.model.p)
        if sizes[0] <= n0:
            raise ValueError(
                f"smallest checkpoint {sizes[0]} must exceed the warm-up length {n0}"
            )
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.bootstrap < 1:
            raise ValueError("bootstrap must be at least 1")
        if self.eval_points is not None:
            pts = np.asarray(self.eval_points, dtype=np.float64)
            if pts.ndim == 2 and pts.shape[1] != self.model.p:
                raise ValueError("eval point vectors must have length p")
            if pts.ndim not in (1, 2) or pts.shape[0] == 0:
                raise ValueError("eval_points must be a non-empty 1-d or 2-d array")
            object.__setattr__(self, "eval_points", pts)

    def resolved_eval_points(self) -> np.ndarray:
        if self.eval_points is None:
            return draw_eval_points(self.model)
        return self.eval_points

    def resolved_warmup(self) -> int:
        return self.warmup if self.warmup is not None else default_warmup(self.model.p)


@dataclass(frozen=True)
class StudyResult:
    """Records plus summary of one study run.

    Attributes:
        study: study kind.
        columns: column order of the records.
        records: one dict per record row.
        summary: JSON-ready summary document.
    """

    study: str
    columns: tuple[str, ...]
    records: tuple[dict[str, Any], ...]
    summary: dict[str, Any]

    def write(self, out_dir: str | Path) -> tuple[Path, Path]:
        """Write records.csv and summary.json into out_dir."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        records_path = out / "records.csv"
        summary_path = out / "summary.json"
        write_records_csv(self.columns, self.records, records_path)
        write_json(self.summary, summary_path)
        return records_path, summary_path


def _config_echo(config: StudyConfig, eval_points: np.ndarray) -> dict[str, Any]:
    model = config.model
    echo: dict[str, Any] = {
        "p": model.p,
        "noise_std": float(model.noise_std),
        "direction": [float(v) for v in model.direction],
        "alpha": float(config.alpha),
        "seed": int(config.seed),
        "sizes": [int(s) for s in config.sizes],
        "n_reps": int(config.n_reps),
        "warmup": config.resolved_warmup(),
        "kernel": "epanechnikov",
    }
    if eval_points.ndim == 1:
        echo["eval_projections"] = [float(v) for v in eval_points]
    else:
        echo["eval_points"] = [[float(v) for v in row] for row in eval_points]
    return echo


def _point_truths(
    model: SingleIndexModel, eval_points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """True projections and true curve values of the evaluation points."""
    if eval_points.ndim == 1:
        u_true = eval_points.astype(np.float64)
    else:
        u_true = eval_points @ model.direction
    f_true = np.asarray(model.link(u_true), dtype=np.float64)
    return u_true, f_true


def _checkpoint_rows(
    args: tuple[SingleIndexModel, tuple[int, ...], float, int, int, np.ndarray, int],
) -> list[dict[str, Any]]:
    """One replication: one direction pass, then each checkpoint size.

    At checkpoint n the curve is evaluated over the log of entries k <= n
    with the direction snapshot at n.  Returns rows in (checkpoint, point)
    order.  Module-level so a process pool can pickle it.
    """
    model, sizes, alpha, warmup, rep, eval_points, master_seed = args
    rep_seed = master_seed ^ rep
    sample = draw(model, sizes[-1], rep_seed)
    u_true, f_true = _point_truths(model, eval_points)
    by_vector = eval_points.ndim == 2

    path = direction_path(sample, warmup=warmup, checkpoints=sizes)
    log = ProjectionLog(epanechnikov(), BandwidthSchedule(alpha=alpha), first_index=warmup + 1)
    rows: list[dict[str, Any]] = []
    for n in sizes:
        done, upto = len(log), n - warmup
        log.extend(path.projections[done:upto], path.responses[done:upto])
        theta = path.snapshots[n]
        dd = direction_distance(theta, model.direction)
        if by_vector:
            u_hat = eval_points @ theta
        else:
            u_hat = u_true
        for j in range(eval_points.shape[0]):
            try:
                est = evaluate(log, float(u_hat[j]))
            except NoSupportError:
                est = None
            rows.append(
                {
                    "rep": rep,
                    "n": n,
                    "point": j,
                    "u_true": float(u_true[j]),
                    "true_value": float(f_true[j]),
                    "estimate": est,
                    "abs_error": None if est is None else abs(est - float(f_true[j])),
                    "missing": est is None,
                    "direction_distance": dd,
                }
            )
    return rows


_CHECKPOINT_COLUMNS = (
    "rep",
    "n",
    "point",
    "u_true",
    "true_value",
    "estimate",
    "abs_error",
    "missing",
    "direction_distance",
)

_QUANTILES = (5.0, 25.0, 50.0, 75.0, 95.0)


def _map_replications(
    fn: Callable[[tuple], list[dict[str, Any]]],
    tasks: Sequence[tuple],
    workers: int,
) -> list[list[dict[str, Any]]]:
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _run_checkpoint_study(config: StudyConfig) -> tuple[tuple[dict[str, Any], ...], np.ndarray]:
    eval_points = config.resolved_eval_points()
    warmup = config.resolved_warmup()
    tasks = [
        (config.model, config.sizes, config.alpha, warmup, rep, eval_points, config.seed)
        for rep in range(config.n_reps)
    ]
    chunks = _map_replications(_checkpoint_rows, tasks, config.workers)
    records = tuple(row for chunk in chunks for row in chunk)
    return records, eval_points


def _abs_error_table(
    records: Sequence[dict[str, Any]], sizes: Sequence[int], n_points: int, n_reps: int
) -> np.ndarray:
    """(size, point, rep) array of absolute errors, NaN where missing."""
    table = np.full((len(sizes), n_points, n_reps), np.nan)
    size_index = {int(s): i for i, s in enumerate(sizes)}
    for row in records:
        if not row["missing"]:
            table[size_index[row["n"]], row["point"], row["rep"]] = row["abs_error"]
    return table


def _direction_table(
    records: Sequence[dict[str, Any]], sizes: Sequence[int], n_reps: int
) -> np.ndarray:
    """(size, rep) array of direction distances."""
    table = np.full((len(sizes), n_reps), np.nan)
    size_index = {int(s): i for i, s in enumerate(sizes)}
    for row in records:
        if row["point"] == 0:
            table[size_index[row["n"]], row["rep"]] = row["direction_distance"]
    return table


def _quantile_block(values: np.ndarray) -> dict[str, Any]:
    """Quantile summary of one cell; values may contain NaN for missing."""
    ok = values[~np.isnan(values)]
    block: dict[str, Any] = {"count": int(ok.size), "missing": int(values.size - ok.size)}
    if ok.size > 0:
        qs = np.percentile(ok, _QUANTILES)
        for q, v in zip(_QUANTILES, qs):
            block[f"q{int(q):02d}"] = float(v)
    else:
        for q in _QUANTILES:
            block[f"q{int(q):02d}"] = None
    return block


def convergence_study(config: StudyConfig) -> StudyResult:
    """Curve-error and direction-distance quantiles across checkpoints.

    Record count is n_reps * len(sizes) * n_points; rows with no kernel
    support at the evaluation point are kept and flagged missing.
    """
    records, eval_points = _run_checkpoint_study(config)
    n_points = eval_points.shape[0]
    errors = _abs_error_table(records, config.sizes, n_points, config.n_reps)
    dds = _direction_table(records, config.sizes, config.n_reps)
    u_true, f_true = _point_truths(config.model, eval_points)

    abs_error_summary = {}
    for i, n in enumerate(config.sizes):
        abs_error_summary[str(n)] = {
            str(j): _quantile_block(errors[i, j]) for j in range(n_points)
        }
    direction_summary = {
        str(n): _quantile_block(dds[i]) for i, n in enumerate(config.sizes)
    }
    summary = {
        "study": "convergence",
        "config": _config_echo(config, eval_points),
        "true_projections": [float(v) for v in u_true],
        "true_values": [float(v) for v in f_true],
        "abs_error_quantiles": abs_error_summary,
        "direction_distance_quantiles": direction_summary,
    }
    return StudyResult(
        study="convergence",
        columns=_CHECKPOINT_COLUMNS,
        records=records,
        summary=summary,
    )


def _slope(log_n: np.ndarray, medians: np.ndarray) -> float | None:
    """Least-squares slope of log median error against log n."""
    ok = ~np.isnan(medians)
    if int(ok.sum()) < 2:
        return None
    if np.any(medians[ok] <= 0.0):
        return None
    return float(np.polyfit(log_n[ok], np.log(medians[ok]), 1)[0])


def rate_study(config: StudyConfig) -> StudyResult:
    """Log-log error-rate slopes with bootstrap confidence intervals.

    With a single checkpoint size the slope is undefined and reported as
    missing, with an explanation in the summary.  The direction estimate
    gets an envelope statistic: the 90th percentile, per checkpoint, of
    n * distance / log(log n), which should stay bounded as n grows.

    The summary's reference_slope is the dominant predicted decay
    exponent for the curve error, -min(alpha, 1/2): the deterministic
    bandwidth term decays like n**-alpha while the stochastic term decays
    like n**-1/2 up to slowly varying factors, so whichever is slower
    sets the observable slope.
    """
    records, eval_points = _run_checkpoint_study(config)
    n_points = eval_points.shape[0]
    sizes = np.asarray(config.sizes, dtype=np.float64)
    errors = _abs_error_table(records, config.sizes, n_points, config.n_reps)
    dds = _direction_table(records, config.sizes, config.n_reps)
    u_true, f_true = _point_truths(config.model, eval_points)
    log_n = np.log(sizes)

    single_size = len(config.sizes) < 2
    decade_spanned = not single_size and config.sizes[-1] >= 10 * config.sizes[0]
    rng = np.random.default_rng([config.seed, 0xB007])

    slopes: dict[str, Any] = {}
    for j in range(n_points):
        med = np.nanmedian(errors[:, j, :], axis=1)
        point_slope = None if single_size else _slope(log_n, med)
        entry: dict[str, Any] = {
            "median_abs_error": [None if np.isnan(v) else float(v) for v in med],
            "slope": point_slope,
        }
        if point_slope is None:
            entry["slope_ci_low"] = None
            entry["slope_ci_high"] = None
            entry["explanation"] = (
                "slope undefined: need at least two checkpoint sizes with "
                "positive median errors"
            )
        else:
            boot = []
            for _ in range(config.bootstrap):
                pick = rng.integers(0, config.n_reps, size=config.n_reps)
                boot_med = np.nanmedian(errors[:, j, pick], axis=1)
                s = _slope(log_n, boot_med)
                if s is not None:
                    boot.append(s)
            if boot:
                lo, hi = np.percentile(boot, [2.5, 97.5])
                entry["slope_ci_low"] = float(lo)
                entry["slope_ci_high"] = float(hi)
            else:
                entry["slope_ci_low"] = None
                entry["slope_ci_high"] = None
        slopes[str(j)] = entry

    loglog = np.log(np.log(sizes))
    envelope = {}
    for i, n in enumerate(config.sizes):
        vals = dds[i][~np.isnan(dds[i])]
        envelope[str(int(n))] = (
            float(np.percentile(vals * float(sizes[i]) / float(loglog[i]), 90.0))
            if vals.size
            else None
        )

    summary = {
        "study": "rate",
        "config": _config_echo(config, eval_points),
        "true_projections": [float(v) for v in u_true],
        "true_values": [float(v) for v in f_true],
        "decade_spanned": bool(decade_spanned),
        "reference_slope": -min(config.alpha, 0.5),
        "slopes": slopes,
        "direction_envelope_q90": envelope,
    }
    return StudyResult(study="rate", columns=_CHECKPOINT_COLUMNS, records=records, summary=summary)


def normality_study(config: StudyConfig) -> StudyResult:
    """Distribution of the centered, scaled curve error at fixed points.

    For replication r and point x the statistic is

        z = sqrt(n h_n) (estimate - truth) / theoretical_std,

    with the design density of the true projection entering the reference
    standard deviation.  The summary reports, per point, the first four
    moments, a fixed-critical-value Kolmogorov-Smirnov test against the
    standard normal at the 1% level, and a histogram on [-4, 4].

    Raises:
        ValueError: noise_std is zero (the reference scale assumes
            sigma^2 > 0) or alpha is outside (1/3, 1), the regime in which
            the scaled error is asymptotically centered.
    """
    model = config.model
    if model.noise_std <= 0.0:
        raise ValueError("normality study requires sigma^2 > 0 (noise_std must be positive)")
    if not (1.0 / 3.0 < config.alpha < 1.0):
        raise ValueError(
            f"normality study requires alpha in (1/3, 1), got {config.alpha!r}"
        )
    if len(config.sizes) != 1:
        raise ValueError("normality study uses exactly one sample size")
    n = config.sizes[0]
    records, eval_points = _run_checkpoint_study(config)
    n_points = eval_points.shape[0]
    u_true, f_true = _point_truths(model, eval_points)
    h_n = float(n) ** (-config.alpha)
    scale = np.sqrt(n * h_n)
    kernel = epanechnikov()
    ref_std = np.array(
        [
            theoretical_std(model.noise_std, kernel, config.alpha, projected_density(model, float(u)))
            for u in u_true
        ]
    )

    rows = []
    zmat = np.full((n_points, config.n_reps), np.nan)
    for row in records:
        j, r = row["point"], row["rep"]
        z = None
        if not row["missing"]:
            z = float(scale * (row["estimate"] - row["true_value"]) / ref_std[j])
            zmat[j, r] = z
        rows.append(
            {
                "rep": r,
                "point": j,
                "u_true": row["u_true"],
                "true_value": row["true_value"],
                "estimate": row["estimate"],
                "z": z,
                "missing": row["missing"],
                "direction_distance": row["direction_distance"],
            }
        )

    per_point = {}
    for j in range(n_points):
        zs = zmat[j][~np.isnan(zmat[j])]
        m = int(zs.size)
        block: dict[str, Any] = {
            "count": m,
            "missing": int(config.n_reps - m),
            "theoretical_std": float(ref_std[j]),
            "density": projected_density(model, float(u_true[j])),
        }
        if m >= 8:
            counts, _ = np.histogram(zs, bins=HISTOGRAM_EDGES)
            ks = float(sps.kstest(zs, "norm").statistic)
            block.update(
                {
                    "mean": float(np.mean(zs)),
                    "std": float(np.std(zs, ddof=1)),
                    "skewness": float(sps.skew(zs)),
                    "excess_kurtosis": float(sps.kurtosis(zs, fisher=True)),
                    "ks_statistic": ks,
                    "ks_scaled": float(ks * np.sqrt(m)),
                    "ks_critical_scaled_1pct": KS_CRIT_1PCT,
                    "ks_rejected_1pct": bool(ks * np.sqrt(m) > KS_CRIT_1PCT),
                    "histogram_counts": [int(c) for c in counts],
                    "histogram_outside": int(m - counts.sum()),
                }
            )
        else:
            block["note"] = "too few non-missing replications for moment summaries"
        per_point[str(j)] = block

    summary = {
        "study": "normality",
        "config": _config_echo(config, eval_points),
        "n": int(n),
        "bandwidth_at_n": h_n,
        "true_projections": [float(v) for v in u_true],
        "true_values": [float(v) for v in f_true],
        "histogram_edges": [float(e) for e in HISTOGRAM_EDGES],
        "per_point": per_point,
    }
    columns = (
        "rep",
        "point",
        "u_true",
        "true_value",
        "estimate",
        "z",
        "missing",
        "direction_distance",
    )
    return StudyResult(study="normality", columns=columns, records=tuple(rows), summary=summary)


def scatter_study(config: StudyConfig) -> StudyResult:
    """One run: paired true-projection and estimated-projection scatters.

    Uses the final direction estimate for every estimated projection, so
    the two scatters differ only through the estimation error of the
    direction; with zero noise the true-projection scatter lies exactly on
    the curve.
    """
    n = config.sizes[-1]
    sample = draw(config.model, n, config.seed)
    path = direction_path(sample, warmup=config.resolved_warmup())
    theta = path.sir.theta_hat
    xs, ys = sample.covariates, sample.responses
    u_true = xs @ config.model.direction
    u_hat = xs @ theta
    records = tuple(
        {
            "k": i + 1,
            "u_true": float(u_true[i]),
            "u_hat": float(u_hat[i]),
            "y": float(ys[i]),
        }
        for i in range(n)
    )
    summary = {
        "study": "scatter",
        "config": _config_echo(config, config.resolved_eval_points()),
        "n": int(n),
        "boundary": float(path.slicer.boundary),
        "warmup_n": int(path.warmup_n),
        "theta_hat": [float(v) for v in theta],
        "direction_distance": direction_distance(theta, config.model.direction),
    }
    return StudyResult(
        study="scatter",
        columns=("k", "u_true", "u_hat", "y"),
        records=records,
        summary=summary,
    )
