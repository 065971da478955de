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
isolation.  The checkpoint studies step their replications in order,
_REP_BLOCK at a time, through one batched direction pass per chunk
(engine.direction_paths), which gives each replication the same bits as
running it alone; so the isolation holds bit for bit, and the chunk size
changes no artifact.  The pass reads each replication from a draw source
(simulate.DrawBlocks, with draw's bits) a chunk of rows at a time, so no
study holds its replications' samples, only their projections and
responses.  Replications run in this process.  Evaluation points
come from a dedicated seeded draw that is independent of every
replication seed.  All randomness flows through these two rules, which
makes every artifact byte-reproducible from (config, seed); records.csv
rows are emitted in (replication, checkpoint, point) order and
summary.json is written with sorted keys.

The three checkpoint studies (convergence, rate, normality) share one
pipeline and differ only in their summaries.  Inside it the data stay in
arrays: each replication yields its (checkpoint, point) curve estimates,
taken by linkreg.curve over the entries up to the checkpoint (NaN where
no kernel window covers the point), and its per-checkpoint direction
distances; these stack into (replication, checkpoint, point) and
(replication, checkpoint) arrays, every summary is computed from them,
and the records are those arrays flattened into one column per field:
StudyResult.table, which io writes as records.csv.  StudyResult and
StudyConfig compare by value, arrays included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from .engine import DEFAULT_ALPHA, DirectionPath, default_warmup, direction_path, direction_paths
from .kernels import BandwidthSchedule, epanechnikov
from .linkreg import curve, theoretical_std
from .sir import direction_distance
from .simulate import DrawBlocks, SingleIndexModel, draw
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
# written out because scipy is not a runtime dependency.
KS_CRIT_1PCT = 1.6276236115189502

# Most replications one direction_paths call steps together.  A block's
# paths are released before the next block is read, so the study holds
# one block's projections and responses at a time, whatever n_reps is.
_REP_BLOCK = 64

# Bootstrap resamples behind the rate study's slope interval.
_BOOTSTRAP = 200


def draw_eval_points(model: SingleIndexModel, count: int = 10) -> np.ndarray:
    """Fixed covariate vectors at which curve estimates are compared."""
    if count < 1:
        raise ValueError("need at least one evaluation point")
    rng = np.random.default_rng(EVAL_POINT_SEED)
    pts = rng.standard_normal((count, model.p))
    if model.covariate_cov is not None:
        chol = np.linalg.cholesky(model.covariate_cov)
        pts = pts @ chol.T
    if model.covariate_mean is not None:
        pts = pts + model.covariate_mean
    return pts


def projected_density(model: SingleIndexModel, t: float) -> float:
    """Design density of the true projection theta' X at t.

    The projection of a Gaussian covariate vector is Gaussian with mean
    theta' mu and variance theta' Sigma theta, so the density is available
    in closed form for every supported covariate law.
    """
    s = float(np.sqrt(model.projected_variance()))
    if s <= 0.0:
        raise ValueError("projected variance must be positive")
    x = (t - model.projected_mean()) / s
    return float(np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi) / s)


def _skewness(z: np.ndarray) -> float:
    """Sample skewness m3 / m2**1.5, with the bits of scipy.stats.skew(z)."""
    d = z - z.mean()
    m2 = np.mean(d * d)
    return float(np.mean(d * d * d) / m2**1.5)


def _excess_kurtosis(z: np.ndarray) -> float:
    """Sample excess kurtosis m4 / m2**2 - 3, with the bits of scipy.stats.kurtosis(z)."""
    d = z - z.mean()
    d2 = d * d
    return float(np.mean(d2 * d2) / np.mean(d2) ** 2 - 3.0)


def _ks_statistic(z: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance of the sample z from N(0, 1).

    The normal CDF takes the branches of scipy.special.ndtr: erf while
    |x| < sqrt(1/2), the erfc tail beyond.  libm's erf and erfc are not
    scipy's, so the statistic can differ from scipy.stats.kstest's in its
    last few bits.
    """
    cdf = []
    for x in (np.sort(z) * math.sqrt(0.5)).tolist():
        if abs(x) < math.sqrt(0.5):
            cdf.append(0.5 + 0.5 * math.erf(x))
        else:
            tail = 0.5 * math.erfc(abs(x))
            cdf.append(1.0 - tail if x > 0.0 else tail)
    c = np.array(cdf)
    m = c.size
    return float(max(np.max(np.arange(1.0, m + 1) / m - c), np.max(c - np.arange(0.0, m) / m)))


def _integer(value: Any, name: str) -> int:
    """value as an int; a bool, a float or any other non-integer raises ValueError."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class StudyConfig:
    """Shared configuration of the Monte Carlo studies, resolved once at construction.

    The integer fields must be integers (Python or numpy, not bool); a
    float or any other value is refused rather than truncated.  Each study
    runs its replications in this process, in chunks of _REP_BLOCK; the
    chunk size changes no result.

    Attributes:
        model: data-generating model.
        sizes: checkpoint sample sizes, strictly increasing; scatter and
            normality use only the last entry.
        n_reps: number of replications.
        alpha: bandwidth exponent of the curve estimate.
        seed: master seed; replication r uses seed XOR r.
        eval_points: evaluation points as float64, either an (m, p) array of
            covariate vectors or an (m,) array of projection values.  None
            is replaced by a seeded default draw of 10 covariate vectors.
        warmup: warm-up length.  None is replaced by max(2 p, 30).
    """

    model: SingleIndexModel
    sizes: tuple[int, ...]
    n_reps: int
    alpha: float = DEFAULT_ALPHA
    seed: int = 0
    eval_points: np.ndarray | None = None
    warmup: int | None = None

    def __post_init__(self) -> None:
        sizes = tuple(_integer(s, "sizes") for s in self.sizes)
        if not sizes:
            raise ValueError("sizes must be non-empty")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        if _integer(self.n_reps, "n_reps") < 1:
            raise ValueError("n_reps must be at least 1")
        _integer(self.seed, "seed")
        BandwidthSchedule(alpha=self.alpha)
        n0 = default_warmup(self.model.p) if self.warmup is None else _integer(self.warmup, "warmup")
        if sizes[0] <= n0:
            raise ValueError(
                f"smallest checkpoint {sizes[0]} must exceed the warm-up length {n0}"
            )
        if self.eval_points is None:
            pts = draw_eval_points(self.model)
        else:
            pts = np.asarray(self.eval_points, dtype=np.float64)
            if pts.ndim == 2 and pts.shape[1] != self.model.p:
                raise ValueError("eval point vectors must have length p")
            if pts.ndim not in (1, 2) or pts.shape[0] == 0:
                raise ValueError("eval_points must be a non-empty 1-d or 2-d array")
            if not np.isfinite(pts).all():
                raise ValueError("eval_points must be finite")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "warmup", n0)
        object.__setattr__(self, "eval_points", pts)

    __hash__ = None

    def __eq__(self, other: object) -> bool:
        """Equal fields, with eval_points compared by value; unhashable, as the model is."""
        if not isinstance(other, StudyConfig):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            if f.name == "eval_points"
            else getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self)
        )


@dataclass(frozen=True)
class StudyResult:
    """Records plus summary of one study run.

    Attributes:
        study: study kind.
        table: the records as columns: equal-length 1-d arrays keyed by
            column name, in records.csv's column order; a missing value is
            NaN.
        summary: JSON-ready summary document.
    """

    study: str
    table: dict[str, np.ndarray]
    summary: dict[str, Any]

    def __eq__(self, other: object) -> bool:
        """Same kind, summary and column order, and equal columns (NaN equals NaN)."""
        if not isinstance(other, StudyResult):
            return NotImplemented
        mine, theirs = self.table, other.table
        return (
            self.study == other.study
            and self.summary == other.summary
            and list(mine) == list(theirs)
            and all(np.array_equal(mine[k], theirs[k], equal_nan=True) for k in mine)
        )

    def write(self, out_dir: str | Path) -> tuple[Path, Path]:
        """Write records.csv and summary.json into out_dir."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        records_path = out / "records.csv"
        summary_path = out / "summary.json"
        write_records_csv(self.table, records_path)
        write_json(self.summary, summary_path)
        return records_path, summary_path


def _config_echo(config: StudyConfig) -> dict[str, Any]:
    model, pts = config.model, config.eval_points
    echo: dict[str, Any] = {
        "p": model.p,
        "noise_std": float(model.noise_std),
        "direction": [float(v) for v in model.direction],
        "alpha": float(config.alpha),
        "seed": int(config.seed),
        "sizes": [int(s) for s in config.sizes],
        "n_reps": int(config.n_reps),
        "warmup": config.warmup,
        "kernel": "epanechnikov",
    }
    if pts.ndim == 1:
        echo["eval_projections"] = [float(v) for v in pts]
    else:
        echo["eval_points"] = [[float(v) for v in row] for row in pts]
    return echo


def _checkpoint_rows(path: DirectionPath, config: StudyConfig) -> tuple[np.ndarray, np.ndarray]:
    """One replication's curve estimates from its direction path, at each checkpoint size.

    At checkpoint n the curve is evaluated over the entries k <= n with the
    direction snapshot at n; linkreg.curve takes the sums, so each estimate
    has the bits of evaluate on that log.  Returns the (size, point)
    estimates, NaN where no kernel window covers the point, and the (size,)
    direction distances.
    """
    kernel = epanechnikov()
    sizes, pts = config.sizes, config.eval_points
    u, y = path.projections, path.responses
    first = path.warmup_n + 1
    h = BandwidthSchedule(alpha=config.alpha).h(np.arange(first, first + u.size, dtype=np.int64))
    est = np.empty((len(sizes), pts.shape[0]))
    dd = np.empty(len(sizes))
    for i, n in enumerate(sizes):
        m = n - path.warmup_n
        theta = path.snapshots[n]
        dd[i] = direction_distance(theta, config.model.direction)
        u_hat = pts @ theta if pts.ndim == 2 else pts
        est[i] = curve(kernel, u_hat, u[:m], h[:m], y[:m])[0]
    return est, dd


_QUANTILES = (5.0, 25.0, 50.0, 75.0, 95.0)


def _run_checkpoint_study(
    config: StudyConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rep, size, point) estimates, (rep, size) direction distances, and the
    points' true projections and true curve values.

    Replication rep reads its rows from a DrawBlocks source with seed
    config.seed XOR rep, whose head block is the warm-up, so each chunk the
    pass reads lies within one block; the replications go through
    direction_paths in order, _REP_BLOCK at a time, and each block of
    paths is released before the next is read.
    """
    model, sizes, pts = config.model, config.sizes, config.eval_points
    rows = []
    for lo in range(0, config.n_reps, _REP_BLOCK):
        reps = range(lo, min(lo + _REP_BLOCK, config.n_reps))
        sources = [DrawBlocks(model, sizes[-1], config.seed ^ rep, head=config.warmup) for rep in reps]
        paths = direction_paths(sources, warmup=config.warmup, checkpoints=sizes)
        rows += [_checkpoint_rows(path, config) for path in paths]
        del paths
    est, dd = zip(*rows)
    u_true = pts if pts.ndim == 1 else pts @ model.direction
    f_true = np.asarray(model.link(u_true), dtype=np.float64)
    return np.stack(est), np.stack(dd), u_true, f_true


def _checkpoint_result(
    study: str,
    config: StudyConfig,
    u_true: np.ndarray,
    f_true: np.ndarray,
    dd: np.ndarray,
    summary: dict[str, Any],
    **cells: np.ndarray,
) -> StudyResult:
    """A checkpoint study's result: the shared summary keys plus summary, and the records.

    The records are columns flattened in (replication, checkpoint, point)
    order.  cells maps column names to (rep, size, point) arrays, each NaN
    exactly where cells["estimate"] is, that is where the estimate is
    missing; their columns come after true_value, in the order given.
    """
    missing = np.isnan(cells["estimate"])
    rep, i, j = np.indices(missing.shape).reshape(3, -1)
    table = {
        "rep": rep,
        "n": np.asarray(config.sizes, dtype=np.int64)[i],
        "point": j,
        "u_true": u_true[j],
        "true_value": f_true[j],
        **{name: a.ravel() for name, a in cells.items()},
        "missing": missing.ravel(),
        "direction_distance": dd[rep, i],
    }
    head = {
        "study": study,
        "config": _config_echo(config),
        "true_projections": [float(v) for v in u_true],
        "true_values": [float(v) for v in f_true],
    }
    return StudyResult(study=study, table=table, summary={**head, **summary})


def _nanmedian(a: np.ndarray, axis: int) -> np.ndarray:
    """The median of the non-NaN entries along axis, by one sort; NaN where there are none.

    The sort puts NaN last, so a cell's m valid entries come first.  The
    median is (lo + hi) / 2 over the entries at (m - 1) // 2 and m // 2
    (one entry, twice, when m is odd): the rule np.nanmedian applies, so
    the bits are its bits.  A cell with no valid entry reads two NaN and
    gives NaN, with no warning; the summaries report it as null.
    """
    ordered = np.sort(a, axis=axis)
    valid = np.count_nonzero(~np.isnan(a), axis=axis, keepdims=True)
    lo = np.take_along_axis(ordered, (valid - 1) // 2, axis=axis)
    hi = np.take_along_axis(ordered, valid // 2, axis=axis)
    return np.squeeze((lo + hi) / 2, axis=axis)


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
    est, dd, u_true, f_true = _run_checkpoint_study(config)
    errors = np.abs(est - f_true)
    summary = {
        "abs_error_quantiles": {
            str(n): {str(j): _quantile_block(errors[:, i, j]) for j in range(est.shape[2])}
            for i, n in enumerate(config.sizes)
        },
        "direction_distance_quantiles": {
            str(n): _quantile_block(dd[:, i]) for i, n in enumerate(config.sizes)
        },
    }
    return _checkpoint_result(
        "convergence", config, u_true, f_true, dd, summary, estimate=est, abs_error=errors
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
    est, dd, u_true, f_true = _run_checkpoint_study(config)
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
            boot = _bootstrap_slopes(errors[:, :, j], log_n, _BOOTSTRAP, rng)
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
        "decade_spanned": bool(decade_spanned),
        "reference_slope": -min(config.alpha, 0.5),
        "slopes": slopes,
        "direction_envelope_q90": envelope,
    }
    return _checkpoint_result(
        "rate", config, u_true, f_true, dd, summary, estimate=est, abs_error=errors
    )


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
    est, dd, u_true, f_true = _run_checkpoint_study(config)
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

    per_point = {}
    for j in range(u_true.size):
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
            ks = _ks_statistic(zs)
            block.update(
                {
                    "mean": float(np.mean(zs)),
                    "std": float(np.std(zs, ddof=1)),
                    "skewness": _skewness(zs),
                    "excess_kurtosis": _excess_kurtosis(zs),
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
        "n": int(n),
        "bandwidth_at_n": h_n,
        "histogram_edges": [float(e) for e in HISTOGRAM_EDGES],
        "per_point": per_point,
    }
    result = _checkpoint_result("normality", config, u_true, f_true, dd, summary, estimate=est, z=z)
    del result.table["n"]  # one size: n is in the summary
    return result


def scatter_study(config: StudyConfig) -> StudyResult:
    """One run: paired true-projection and estimated-projection scatters.

    Uses the final direction estimate for every estimated projection, so
    the two scatters differ only through the estimation error of the
    direction; with zero noise the true-projection scatter lies exactly on
    the curve.
    """
    n = config.sizes[-1]
    sample = draw(config.model, n, config.seed)
    path = direction_path(sample, warmup=config.warmup)
    theta = path.sir.theta_hat
    xs = sample.covariates
    table = {
        "k": np.arange(1, n + 1, dtype=np.int64),
        "u_true": xs @ config.model.direction,
        "u_hat": xs @ theta,
        "y": sample.responses,
    }
    summary = {
        "study": "scatter",
        "config": _config_echo(config),
        "n": int(n),
        "boundary": float(path.slicer.boundary),
        "warmup_n": int(path.warmup_n),
        "theta_hat": [float(v) for v in theta],
        "direction_distance": direction_distance(theta, config.model.direction),
    }
    return StudyResult(study="scatter", table=table, summary=summary)
