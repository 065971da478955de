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
Usage errors, such as a flag the subcommand does not take, print one line
and exit 2.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from pathlib import Path
from typing import NoReturn, Sequence

from .config import SETTINGS, EngineConfig, load_config
from .crossval import select_alpha
from .engine import _path_fold
from .errors import ConfigError, StreamSirError
from .kernels import KernelSpec, epanechnikov, tabulated_kernel, BandwidthSchedule
from .linkreg import curve
from .simulate import SingleIndexModel, draw, reference_model
from .studies import (
    StudyConfig,
    convergence_study,
    draw_eval_points,
    normality_study,
    rate_study,
    scatter_study,
)
from . import io

# Not called here: the per-layer tracer (perfbench/tracing.py) patches this
# name by module attribute, so it stays importable.
from .engine import run_stream  # noqa: F401

OUTDIR_ENV = "STREAMSIR_OUTDIR"

_MAX_CV_GRID = 10_000  # largest exponent grid `cv` builds


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line, like every other refusal."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="streamsir",
        description="Streaming single-index regression and its Monte Carlo studies.",
        # Abbreviated long options are rejected: a prefix that happens to
        # match a different flag must not silently reconfigure a run.
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (_, text, keys) in _COMMANDS.items():
        sp = parsers[name] = sub.add_parser(name, allow_abbrev=False, help=text)
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--out-dir", help=SETTINGS["out_dir"][1])
        for key in keys:
            kind, help_text = SETTINGS[key]
            sp.add_argument("--" + key.replace("_", "-"), type=kind, help=help_text)

    sp = parsers["predict"]
    sp.add_argument("--log", required=True, help="projection log CSV written by fit")
    sp.add_argument("--at", required=True, help="comma-separated projection values")

    # cv takes no curve grid, so --grid-min/--grid-max name its exponent grid.
    sp = parsers["cv"]
    sp.add_argument("--grid-min", type=float, default=0.1, help="smallest exponent")
    sp.add_argument("--grid-max", type=float, default=0.6, help="largest exponent")
    sp.add_argument("--grid-step", type=float, default=0.025, help="grid spacing")

    sp = parsers["study"]
    sp.add_argument(
        "--kind",
        required=True,
        choices=("scatter", "convergence", "normality", "rate"),
        help="study kind",
    )
    sp.add_argument("--sizes", help="comma-separated checkpoint sizes")
    sp.add_argument("--reps", type=int, help="number of replications")
    sp.add_argument("--eval-count", type=int, default=10, help="number of evaluation points")

    for name in ("cv", "study"):
        parsers[name].add_argument("--workers", type=int, default=1, help="accepted and ignored")
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


def _cmd_simulate(args: argparse.Namespace, cfg: EngineConfig) -> int:
    sample = draw(_model_from_config(cfg), cfg.n, cfg.seed)
    out = _resolve_out_dir(args, cfg)
    io.write_sample_csv(sample, out / "sample.csv")
    print(out / "sample.csv")
    return 0


def _cmd_fit(args: argparse.Namespace, cfg: EngineConfig) -> int:
    # A file is folded into stage 1 a block at a time, and a draw is held
    # only by stage 1; the log goes to a temporary file as it is made.  So
    # no sample and no log outlives a chunk, and nothing is written out
    # until stage 1 has succeeded.
    blocks = io.SampleBlocks(cfg.input) if cfg.input is not None else None
    with io._FitLog(cfg.alpha) as log:
        try:
            kernel = _load_kernel(cfg)
            sir, slicer, n0, _ = _path_fold(
                blocks or draw(_model_from_config(cfg), cfg.n, cfg.seed),
                cfg.warmup, cfg.boundary, (), log, log.restart,
            )
        except StreamSirError:
            # File errors win, as when the file was read before anything else:
            # parse the whole file, so that a malformed one raises its own error.
            for _ in blocks or ():
                pass
            raise
        if log.error is not None:
            raise log.error
        out = _resolve_out_dir(args, cfg)
        io.write_json(
            {
                "n": int(sir.moments.n),
                "p": int(sir.theta_hat.size),
                "alpha": float(cfg.alpha),
                "kernel": kernel.name,
                "theta_hat": [float(v) for v in sir.theta_hat],
                "slice_counts": [int(c) for c in sir.moments.slice_counts],
                "boundary": float(slicer.boundary),
                "warmup_n": int(n0),
            },
            out / "fit.json",
        )
        log.copy(out / "projection_log.csv")
        io.write_grid_csv(cfg.grid_points(), partial(log.curve, kernel), out / "grid_estimates.csv")
        io.write_moment_state(sir.moments, slicer, out / "state.json")
    for name in ("fit.json", "projection_log.csv", "grid_estimates.csv", "state.json"):
        print(out / name)
    return 0


def _cmd_predict(args: argparse.Namespace, cfg: EngineConfig) -> int:
    kernel = _load_kernel(cfg)
    log = io.read_projection_log_csv(args.log, kernel, BandwidthSchedule(alpha=cfg.alpha))
    try:
        points = [float(tok) for tok in args.at.split(",") if tok.strip()]
    except ValueError:
        raise StreamSirError(f"--at must be comma-separated numbers, got {args.at!r}") from None
    if not points:
        raise StreamSirError("--at lists no points")
    est, _, _ = curve(kernel, points, log.projections, log.bandwidths, log.responses)
    out = _resolve_out_dir(args, cfg)
    io.write_predictions_csv(points, est, out / "predictions.csv")
    print(out / "predictions.csv")
    return 0


def _cmd_cv(args: argparse.Namespace, cfg: EngineConfig) -> int:
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
    if cfg.input is not None:
        sample = io.read_sample_csv(cfg.input)
    else:
        sample = draw(_model_from_config(cfg), cfg.n, cfg.seed)
    # Rounding keeps accumulated steps on clean decimal values.
    grid = [round(args.grid_min + i * args.grid_step, 10) for i in range(count + 1)]
    grid = [a for a in grid if a <= args.grid_max + 1e-12]
    try:
        report = select_alpha(sample, grid, boundary=cfg.boundary, warmup=cfg.warmup, kernel=kernel)
    except ValueError as exc:
        raise StreamSirError(str(exc)) from exc
    out = _resolve_out_dir(args, cfg)
    io.write_json(report.to_dict(), out / "cv.json")
    print(out / "cv.json")
    return 0


def _cmd_study(args: argparse.Namespace, cfg: EngineConfig) -> int:
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
            eval_points=draw_eval_points(model, args.eval_count),
            warmup=cfg.warmup,
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


_SYNTHETIC = ("seed", "n", "p", "noise_std")

# name -> (handler, help, the settings it takes a flag for).  A subcommand
# whose settings lack `input` refuses one from its config file.
_COMMANDS = {
    "simulate": (_cmd_simulate, "draw a synthetic sample to sample.csv", _SYNTHETIC),
    "fit": (
        _cmd_fit,
        "run the sequential engine; write fit artifacts",
        ("input", *_SYNTHETIC, "alpha", "warmup", "boundary", "kernel", "kernel_table",
         "grid_min", "grid_max", "grid_count"),
    ),
    "predict": (
        _cmd_predict,
        "evaluate a saved projection log at points",
        ("alpha", "kernel", "kernel_table"),
    ),
    "cv": (_cmd_cv, "score a grid of bandwidth exponents", ("input", *_SYNTHETIC, "warmup")),
    "study": (_cmd_study, "run a Monte Carlo study", (*_SYNTHETIC, "alpha", "warmup")),
}


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    handler, _, keys = _COMMANDS[args.command]
    try:
        # cv and study parse --workers only so that existing command lines keep working.
        if getattr(args, "workers", 1) < 1:
            raise StreamSirError("workers must be at least 1")
        cfg = load_config(args.config, {key: getattr(args, key) for key in keys})
        if cfg.input is not None and "input" not in keys:
            raise ConfigError(f"{args.command} reads no input sample", key="input")
        return handler(args, cfg)
    except StreamSirError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
