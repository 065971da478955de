"""Command-line front end.

Five subcommands cover the pipeline: `simulate` draws synthetic data,
`fit` runs the sequential engine over a CSV or a synthetic draw, `predict`
evaluates a saved projection log at new points, `cv` scores a grid of
bandwidth exponents, and `study` runs a Monte Carlo study.  Settings come
from a flat key=value config file (`--config`), individual flags override
file values, and the output directory resolves flag, then the
STREAMSIR_OUTDIR environment variable, then the config file, then the
current directory.

Exit status is 0 exactly when every requested artifact was written; any
engine error prints its class name and message on stderr and exits 1.
The output directory is created only once every check has passed, so a
refused run leaves none behind.
Usage errors exit 2 via the argument parser.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .config import EngineConfig, load_config
from .crossval import select_alpha
from .engine import run_stream
from .errors import NoSupportError, StreamSirError
from .kernels import KernelSpec, epanechnikov, tabulated_kernel, BandwidthSchedule
from .linkreg import evaluate
from .moments import Slicer
from .simulate import Sample, SingleIndexModel, draw, reference_model
from .studies import (
    StudyConfig,
    convergence_study,
    draw_eval_points,
    normality_study,
    rate_study,
    scatter_study,
)
from . import io

OUTDIR_ENV = "STREAMSIR_OUTDIR"

_MAX_CV_GRID = 10_000  # largest exponent grid `cv` builds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamsir",
        description="Streaming single-index regression and its Monte Carlo studies.",
        # Abbreviated long options are rejected: a prefix that happens to
        # match a different flag must not silently reconfigure a run.
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--out-dir", help="artifact output directory")
        sp.add_argument("--seed", type=int, help="random seed")

    def data_source(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--input", help="sample CSV to ingest instead of simulating")
        sp.add_argument("--model", help="synthetic model name (reference)")
        sp.add_argument("--n", type=int, help="synthetic sample size")
        sp.add_argument("--p", type=int, help="synthetic covariate dimension")
        sp.add_argument("--noise-std", type=float, help="synthetic noise level")

    def engine_opts(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--alpha", type=float, help="bandwidth exponent")
        sp.add_argument("--warmup", type=int, help="warm-up length")
        sp.add_argument("--boundary", type=float, help="slice boundary override")
        sp.add_argument("--kernel", help="kernel name (epanechnikov or tabulated)")
        sp.add_argument("--kernel-table", help="x,k CSV for the tabulated kernel")

    sp = sub.add_parser("simulate", allow_abbrev=False, help="draw a synthetic sample to sample.csv")
    common(sp)
    data_source(sp)

    sp = sub.add_parser("fit", allow_abbrev=False, help="run the sequential engine; write fit artifacts")
    common(sp)
    data_source(sp)
    engine_opts(sp)
    sp.add_argument("--grid-min", type=float, help="left end of the estimate grid")
    sp.add_argument("--grid-max", type=float, help="right end of the estimate grid")
    sp.add_argument("--grid-count", type=int, help="number of grid points")

    sp = sub.add_parser("predict", allow_abbrev=False, help="evaluate a saved projection log at points")
    common(sp)
    sp.add_argument("--log", required=True, help="projection log CSV written by fit")
    sp.add_argument("--at", required=True, help="comma-separated projection values")
    sp.add_argument("--alpha", type=float, help="bandwidth exponent used by the fit")
    sp.add_argument("--kernel", help="kernel name used by the fit")
    sp.add_argument("--kernel-table", help="x,k CSV for the tabulated kernel")

    sp = sub.add_parser("cv", allow_abbrev=False, help="score a grid of bandwidth exponents")
    common(sp)
    data_source(sp)
    sp.add_argument("--warmup", type=int, help="warm-up length")
    sp.add_argument("--grid-min", type=float, default=0.1, help="smallest exponent")
    sp.add_argument("--grid-max", type=float, default=0.6, help="largest exponent")
    sp.add_argument("--grid-step", type=float, default=0.025, help="grid spacing")
    sp.add_argument("--workers", type=int, default=1, help="kept for compatibility; runs serially")

    sp = sub.add_parser("study", allow_abbrev=False, help="run a Monte Carlo study")
    common(sp)
    sp.add_argument(
        "--kind",
        required=True,
        choices=("scatter", "convergence", "normality", "rate"),
        help="study kind",
    )
    sp.add_argument("--sizes", help="comma-separated checkpoint sizes")
    sp.add_argument("--reps", type=int, help="number of replications")
    sp.add_argument("--alpha", type=float, help="bandwidth exponent")
    sp.add_argument("--n", type=int, help="sample size for single-size studies")
    sp.add_argument("--p", type=int, help="model dimension")
    sp.add_argument("--noise-std", type=float, help="model noise level")
    sp.add_argument("--warmup", type=int, help="warm-up length")
    sp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes over contiguous replication blocks (results do not depend on it)",
    )
    sp.add_argument("--eval-count", type=int, default=10, help="number of evaluation points")
    return parser


def _resolve_out_dir(args: argparse.Namespace, cfg: EngineConfig) -> Path:
    """The output directory, created on the spot: call it only once every check has passed."""
    out = args.out_dir or os.environ.get(OUTDIR_ENV) or cfg.out_dir or "."
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StreamSirError(f"cannot create output directory {out!s}: {exc}") from None
    return path


def _engine_overrides(args: argparse.Namespace, exclude: tuple[str, ...] = ()) -> dict[str, Any]:
    """The config keys this subcommand has flags for; --out-dir resolves on its own."""
    take = [f.name for f in fields(EngineConfig) if f.name != "out_dir"]
    return {k: getattr(args, k) for k in take if k not in exclude and hasattr(args, k)}


def _load_kernel(cfg: EngineConfig) -> KernelSpec:
    if cfg.kernel == "epanechnikov":
        return epanechnikov()
    xs, ks = io.read_kernel_table_csv(cfg.kernel_table)
    try:
        return tabulated_kernel(xs, ks)
    except ValueError as exc:
        raise StreamSirError(f"invalid kernel table {cfg.kernel_table!s}: {exc}") from exc


def _model_from_config(cfg: EngineConfig) -> SingleIndexModel:
    return reference_model(p=cfg.p, noise_std=cfg.noise_std)


def _obtain_sample(cfg: EngineConfig) -> Sample:
    if cfg.input is not None:
        return io.read_sample_csv(cfg.input)
    return draw(_model_from_config(cfg), cfg.n, cfg.seed)


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _engine_overrides(args))
    sample = draw(_model_from_config(cfg), cfg.n, cfg.seed)
    out = _resolve_out_dir(args, cfg)
    io.write_sample_csv(sample, out / "sample.csv")
    print(out / "sample.csv")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _engine_overrides(args))
    sample = _obtain_sample(cfg)
    kernel = _load_kernel(cfg)
    state = run_stream(
        sample,
        alpha=cfg.alpha,
        kernel=kernel,
        warmup=cfg.warmup,
        boundary=cfg.boundary,
        grid_points=cfg.grid_points(),
    )
    out = _resolve_out_dir(args, cfg)
    io.write_json(
        {
            "n": int(state.n),
            "p": int(sample.p),
            "alpha": float(cfg.alpha),
            "kernel": kernel.name,
            "theta_hat": [float(v) for v in state.theta_hat],
            "slice_counts": [int(c) for c in state.sir.moments.slice_counts],
            "boundary": float(state.slicer.boundary),
            "warmup_n": int(state.warmup_n),
        },
        out / "fit.json",
    )
    io.write_projection_log_csv(state.log, out / "projection_log.csv")
    io.write_grid_csv(state.grid, out / "grid_estimates.csv")
    io.write_moment_state(state.sir.moments, state.slicer, out / "state.json")
    for name in ("fit.json", "projection_log.csv", "grid_estimates.csv", "state.json"):
        print(out / name)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    cfg = load_config(
        args.config,
        {
            "alpha": args.alpha,
            "kernel": args.kernel,
            "kernel_table": args.kernel_table,
            "seed": args.seed,
        },
    )
    kernel = _load_kernel(cfg)
    log = io.read_projection_log_csv(args.log, kernel, BandwidthSchedule(alpha=cfg.alpha))
    try:
        points = [float(tok) for tok in args.at.split(",") if tok.strip()]
    except ValueError:
        raise StreamSirError(f"--at must be comma-separated numbers, got {args.at!r}") from None
    if not points:
        raise StreamSirError("--at lists no points")
    lines = ["x,f_hat,supported"]
    for x in points:
        try:
            pred = evaluate(log, x)
            lines.append(f"{io.fmt(x)},{io.fmt(pred)},1")
        except NoSupportError:
            lines.append(f"{io.fmt(x)},,0")
    out = _resolve_out_dir(args, cfg)
    (out / "predictions.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(out / "predictions.csv")
    return 0


def _cmd_cv(args: argparse.Namespace) -> int:
    # --grid-min/--grid-max mean the exponent grid here, not the curve grid.
    cfg = load_config(args.config, _engine_overrides(args, exclude=("grid_min", "grid_max")))
    kernel = _load_kernel(cfg)
    if not all(math.isfinite(v) for v in (args.grid_min, args.grid_max, args.grid_step)):
        raise StreamSirError("--grid-min, --grid-max and --grid-step must be finite")
    if args.grid_step <= 0.0:
        raise StreamSirError("--grid-step must be positive")
    span = (args.grid_max - args.grid_min) / args.grid_step
    # Exactly round(span) + 1 > _MAX_CV_GRID, also for an infinite span.
    if not span < _MAX_CV_GRID - 0.5:
        raise StreamSirError(f"the exponent grid would hold more than {_MAX_CV_GRID} points")
    count = round(span)
    sample = _obtain_sample(cfg)
    # Rounding keeps accumulated steps on clean decimal values.
    grid = [round(args.grid_min + i * args.grid_step, 10) for i in range(count + 1)]
    grid = [a for a in grid if a <= args.grid_max + 1e-12]
    boundary = None if cfg.boundary is None else Slicer(boundary=cfg.boundary)
    try:
        report = select_alpha(
            sample, grid, slicer=boundary, warmup=cfg.warmup, kernel=kernel, workers=args.workers
        )
    except ValueError as exc:
        raise StreamSirError(str(exc)) from exc
    out = _resolve_out_dir(args, cfg)
    io.write_json(report.to_dict(), out / "cv.json")
    print(out / "cv.json")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _engine_overrides(args))
    if cfg.kernel != "epanechnikov":
        raise StreamSirError(f"study supports only the epanechnikov kernel, got {cfg.kernel!r}")
    model = _model_from_config(cfg)
    default_reps = {"scatter": 1, "convergence": 100, "normality": 200, "rate": 100}
    try:
        if args.sizes:
            sizes = tuple(int(tok) for tok in args.sizes.split(",") if tok.strip())
        else:
            sizes = (cfg.n,)
        study_cfg = StudyConfig(
            model=model,
            sizes=sizes,
            n_reps=args.reps if args.reps is not None else default_reps[args.kind],
            alpha=cfg.alpha,
            seed=cfg.seed,
            eval_points=None if args.eval_count == 10 else draw_eval_points(model, args.eval_count),
            warmup=cfg.warmup,
            workers=args.workers,
        )
        runner = {
            "scatter": scatter_study,
            "convergence": convergence_study,
            "normality": normality_study,
            "rate": rate_study,
        }[args.kind]
        result = runner(study_cfg)
    except ValueError as exc:
        raise StreamSirError(str(exc)) from exc
    records_path, summary_path = result.write(_resolve_out_dir(args, cfg))
    print(records_path)
    print(summary_path)
    return 0


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "fit": _cmd_fit,
        "predict": _cmd_predict,
        "cv": _cmd_cv,
        "study": _cmd_study,
    }
    try:
        return handlers[args.command](args)
    except StreamSirError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
