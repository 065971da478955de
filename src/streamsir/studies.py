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
isolation.  The checkpoint studies step their replications in contiguous
blocks of at most _REP_BLOCK through one batched direction pass
(engine.direction_paths), which gives each replication the same bits as
running it alone; so the isolation holds bit for bit, and neither the
block layout nor the worker count changes any artifact.  Evaluation points
come from a dedicated seeded draw that is independent of every
replication seed.  All randomness flows through these two rules, which
makes every artifact byte-reproducible from (config, seed); records.csv
rows are emitted in (replication, checkpoint, point) order and
summary.json is written with sorted keys.

Inside the checkpoint studies the data stay in arrays: each replication
yields its (checkpoint, point) curve estimates, taken by
linkreg.window_sums over the entries up to the checkpoint and NaN where
no kernel window covers the point, and its per-checkpoint direction
distances; these stack into (replication, checkpoint, point) and
(replication, checkpoint) arrays, every summary is computed from them,
and the record dicts are built once, at the end, for StudyResult.records
and records.csv.
"""

from __future__ import annotations

import itertools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .engine import DirectionPath, default_warmup, direction_path, direction_paths
from .kernels import BandwidthSchedule, epanechnikov
from .linkreg import theoretical_std, window_sums
from .sir import direction_distance
from .simulate import Sample, SingleIndexModel, draw
from .io import write_json, write_records_csv

# Not called here: the per-layer tracer (perfbench/tracing.py) patches these
# names by module attribute, so they stay importable.
from .engine import init_stream, stream_step  # noqa: F401
from .linkreg import evaluate  # noqa: F401

# Seed of the evaluation-point draw; fixed so every study run of a given
# model sees the same points regardless of the study's own master seed.
EVAL_POINT_SEED = 24301

HISTOGRAM_EDGES = np.linspace(-4.0, 4.0, 25)

# Asymptotic 1% critical value of sqrt(m) times the one-sample
# Kolmogorov-Smirnov statistic: float(scipy.stats.kstwobign.ppf(0.99)),
# written out so that importing the package does not import scipy.
KS_CRIT_1PCT = 1.6276236115189502

# Most replications one direction_paths call steps together.  Its state is
# (block, p, p), so memory stays bounded whatever n_reps is.
_REP_BLOCK = 64

# Most (point, entry) cells one window_sums call in _checkpoint_rows takes,
# so its temporaries stay near 2 MB however many points a study asks for.
_POINT_CELLS = 1 << 18


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
    from scipy import stats as sps

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
        workers: process count; the replications are split into at least
            this many contiguous blocks, and results do not depend on it.
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
            if not np.isfinite(pts).all():
                raise ValueError("eval_points must be finite")
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


def _checkpoint_block(
    args: tuple[SingleIndexModel, tuple[int, ...], float, int, range, np.ndarray, int],
) -> tuple[np.ndarray, np.ndarray]:
    """A contiguous block of replications: one batched direction pass, then each one's estimates.

    Replication rep draws its own sample with seed master_seed XOR rep.
    Returns the (rep, size, point) estimates and the (rep, size) direction
    distances of the block.  Module-level so a process pool can pickle it.
    """
    model, sizes, alpha, warmup, reps, eval_points, master_seed = args
    samples = [draw(model, sizes[-1], master_seed ^ rep) for rep in reps]
    paths = direction_paths(samples, warmup=warmup, checkpoints=sizes)
    est, dd = zip(*(_checkpoint_rows(path, model, sizes, alpha, eval_points) for path in paths))
    return np.stack(est), np.stack(dd)


def _checkpoint_rows(
    path: DirectionPath,
    model: SingleIndexModel,
    sizes: tuple[int, ...],
    alpha: float,
    eval_points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One replication's curve estimates from its direction path, at each checkpoint size.

    At checkpoint n the curve is evaluated over the entries k <= n with the
    direction snapshot at n; linkreg.window_sums takes the sums, so each
    estimate has the bits of evaluate on that log.  Returns the
    (size, point) estimates, NaN where no kernel window covers the point,
    and the (size,) direction distances.
    """
    kernel = epanechnikov()
    u, y = path.projections, path.responses
    first = path.warmup_n + 1
    h = BandwidthSchedule(alpha=alpha).h(np.arange(first, first + u.size, dtype=np.int64))
    reach = kernel.support_radius * h
    est = np.full((len(sizes), eval_points.shape[0]), np.nan)
    dd = np.empty(len(sizes))
    for i, n in enumerate(sizes):
        m = n - path.warmup_n
        theta = path.snapshots[n]
        dd[i] = direction_distance(theta, model.direction)
        u_hat = eval_points @ theta if eval_points.ndim == 2 else eval_points
        step = max(1, _POINT_CELLS // m)
        for a in range(0, u_hat.size, step):
            d = u_hat[a : a + step, None] - u[None, :m]
            num, den = window_sums(kernel, d, np.abs(d) <= reach[:m], h[:m], y[:m])
            ok = den > 0.0
            est[i, a : a + step][ok] = num[ok] / den[ok]
    return est, dd


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


def _replication_blocks(n_reps: int, workers: int) -> list[range]:
    """Near-equal contiguous blocks of replications, each at most _REP_BLOCK long.

    There are max(workers, ceil(n_reps / _REP_BLOCK)) of them, so every
    worker gets one, but never more blocks than replications.
    """
    count = min(n_reps, max(workers, -(-n_reps // _REP_BLOCK)))
    bounds = [n_reps * b // count for b in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _run_checkpoint_study(config: StudyConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rep, size, point) estimates, (rep, size) direction distances and the evaluation points."""
    eval_points = config.resolved_eval_points()
    warmup = config.resolved_warmup()
    tasks = [
        (config.model, config.sizes, config.alpha, warmup, reps, eval_points, config.seed)
        for reps in _replication_blocks(config.n_reps, config.workers)
    ]
    if config.workers <= 1:
        chunks = [_checkpoint_block(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunks = list(pool.map(_checkpoint_block, tasks))
    est = np.concatenate([c[0] for c in chunks])
    dd = np.concatenate([c[1] for c in chunks])
    return est, dd, eval_points


def _records(
    columns: Sequence[str],
    sizes: Sequence[int],
    u_true: np.ndarray,
    f_true: np.ndarray,
    dd: np.ndarray,
    **cells: np.ndarray,
) -> tuple[dict[str, Any], ...]:
    """Record dicts with the given columns, in (replication, checkpoint, point) order.

    cells maps column names to (rep, size, point) arrays; cells["estimate"]
    is NaN exactly where the estimate is missing, and every cell there
    becomes None.
    """
    missing = np.isnan(cells["estimate"])
    values = {name: np.where(missing, None, a).tolist() for name, a in cells.items()}
    m, d, u, f = missing.tolist(), dd.tolist(), u_true.tolist(), f_true.tolist()
    rows = []
    for r, i, j in itertools.product(*map(range, missing.shape)):
        row = {
            "rep": r,
            "n": sizes[i],
            "point": j,
            "u_true": u[j],
            "true_value": f[j],
            "missing": m[r][i][j],
            "direction_distance": d[r][i],
        }
        row.update((name, v[r][i][j]) for name, v in values.items())
        rows.append({c: row[c] for c in columns})
    return tuple(rows)


def _nanmedian(a: np.ndarray, axis: int) -> np.ndarray:
    """np.nanmedian without numpy's warning for an all-missing cell.

    Such a cell's median is NaN and the summaries report it as null.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "All-NaN slice encountered", RuntimeWarning)
        return np.nanmedian(a, axis=axis)


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
    est, dd, eval_points = _run_checkpoint_study(config)
    u_true, f_true = _point_truths(config.model, eval_points)
    errors = np.abs(est - f_true)
    summary = {
        "study": "convergence",
        "config": _config_echo(config, eval_points),
        "true_projections": [float(v) for v in u_true],
        "true_values": [float(v) for v in f_true],
        "abs_error_quantiles": {
            str(n): {str(j): _quantile_block(errors[:, i, j]) for j in range(est.shape[2])}
            for i, n in enumerate(config.sizes)
        },
        "direction_distance_quantiles": {
            str(n): _quantile_block(dd[:, i]) for i, n in enumerate(config.sizes)
        },
    }
    records = _records(
        _CHECKPOINT_COLUMNS, config.sizes, u_true, f_true, dd, estimate=est, abs_error=errors
    )
    return StudyResult(
        study="convergence",
        columns=_CHECKPOINT_COLUMNS,
        records=records,
        summary=summary,
    )


def _slopes(log_n: np.ndarray, medians: np.ndarray) -> np.ndarray:
    """Least-squares slope of log median error against log n, per row of medians.

    A row with fewer than two non-missing sizes, or with a non-positive
    median, has no slope (NaN).  Rows that miss the same sizes share one
    np.polyfit call, which gives each row the bits of fitting it alone.
    """
    ok = ~np.isnan(medians)
    slopes = np.full(medians.shape[0], np.nan)
    fit = (ok.sum(axis=1) >= 2) & ~np.any(medians <= 0.0, axis=1)
    for mask in np.unique(ok[fit], axis=0):
        rows = np.flatnonzero(fit & np.all(ok == mask, axis=1))
        slopes[rows] = np.polyfit(log_n[mask], np.log(medians[rows][:, mask]).T, 1)[0]
    return slopes


def _bootstrap_slopes(
    errors: np.ndarray, log_n: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Slopes of count bootstrap resamples of the (rep, size) errors, in resample order.

    The resamples are drawn as one (count, n_reps) block of replication
    indices, which consumes rng exactly as count draws of n_reps each.
    Resamples without a slope are dropped.
    """
    n_reps = errors.shape[0]
    picks = rng.integers(0, n_reps, size=(count, n_reps))
    slopes = _slopes(log_n, _nanmedian(errors[picks], axis=1))
    return slopes[~np.isnan(slopes)]


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
    est, dd, eval_points = _run_checkpoint_study(config)
    u_true, f_true = _point_truths(config.model, eval_points)
    errors = np.abs(est - f_true)
    sizes = np.asarray(config.sizes, dtype=np.float64)
    log_n = np.log(sizes)

    decade_spanned = config.sizes[-1] >= 10 * config.sizes[0]
    rng = np.random.default_rng([config.seed, 0xB007])

    medians = _nanmedian(errors, axis=0)
    slopes: dict[str, Any] = {}
    for j, point_slope in enumerate(_slopes(log_n, medians.T).tolist()):
        entry: dict[str, Any] = {
            "median_abs_error": [None if np.isnan(v) else float(v) for v in medians[:, j]],
            "slope": None,
            "slope_ci_low": None,
            "slope_ci_high": None,
        }
        if math.isnan(point_slope):
            entry["explanation"] = (
                "slope undefined: need at least two checkpoint sizes with "
                "positive median errors"
            )
        else:
            entry["slope"] = point_slope
            boot = _bootstrap_slopes(errors[:, :, j], log_n, config.bootstrap, rng)
            if boot.size:
                lo, hi = np.percentile(boot, [2.5, 97.5])
                entry["slope_ci_low"] = float(lo)
                entry["slope_ci_high"] = float(hi)
        slopes[str(j)] = entry

    loglog = np.log(np.log(sizes))
    envelope = {
        str(n): float(np.percentile(dd[:, i] * sizes[i] / loglog[i], 90.0))
        for i, n in enumerate(config.sizes)
    }

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
    records = _records(
        _CHECKPOINT_COLUMNS, config.sizes, u_true, f_true, dd, estimate=est, abs_error=errors
    )
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
    est, dd, eval_points = _run_checkpoint_study(config)
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
    z = scale * (est - f_true) / ref_std

    from scipy import stats as sps

    per_point = {}
    for j in range(eval_points.shape[0]):
        zs = z[:, 0, j][~np.isnan(z[:, 0, j])]
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
    records = _records(columns, config.sizes, u_true, f_true, dd, estimate=est, z=z)
    return StudyResult(study="normality", columns=columns, records=records, summary=summary)


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
