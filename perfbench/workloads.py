"""The four workloads: their inputs, drawn from a seed, and one operation each.

Every workload uses the reference model at p = 10 and runs in one process
with one caller that waits for each result before issuing the next (a closed
loop), with `--workers 1` wherever the command line offers a pool.

* online: the per-arrival API.  Each arrival calls `predict_next` and then
  `stream_step` on a 20000-row stream, so log reads (`evaluate` over a log
  that grows to n) interleave with writes (append plus the rank-one update).
  An operation is one arrival; one pass over the stream is timed as a whole.
* fit: `streamsir fit` on a 30000-row CSV: CSV read, `run_stream` with the
  default 121-point grid, four artifact writes.  Writes only, no `evaluate`;
  the direction step dominates.
* cv: `streamsir cv` with 9 exponents (0.1 to 0.5, step 0.05) on a 2000-row
  CSV: O(n^2) `evaluate` reads plus 9 direction replays that do not depend
  on the exponent.
* study: `streamsir study --kind rate` with sizes 250,500,1000,2000 and 40
  replications: independent draw+stream+checkpoint replications, then the
  bootstrap summary, then the records.csv write.

An operation of fit, cv and study is one in-process `streamsir.cli.run` call.
"""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

import numpy as np

import streamsir.cli
from streamsir import NoSupportError, engine, simulate
from streamsir import io as sio

P = 10
WARMUP = 30  # the library default max(2 p, 30) at p = 10
ALPHA = 0.35  # the library default bandwidth exponent
ONLINE_N = 20000
FIT_N = 30000
CV_N = 2000
CV_GRID = [round(0.1 + 0.05 * i, 10) for i in range(9)]
STUDY_SIZES = (250, 500, 1000, 2000)
STUDY_REPS = 40
STUDY_POINTS = 10  # the command line's default evaluation-point count

NAMES = ("online", "fit", "cv", "study")


def make_inputs(workload: str, seed: int, work_dir: Path) -> dict:
    """Inputs of one workload; the same seed gives the same inputs."""
    model = simulate.reference_model(p=P)
    if workload == "online":
        return {"sample": simulate.draw(model, ONLINE_N, seed)}
    if workload in ("fit", "cv"):
        sample = simulate.draw(model, FIT_N if workload == "fit" else CV_N, seed)
        csv = Path(work_dir) / "sample.csv"
        sio.write_sample_csv(sample, csv)
        return {"sample": sample, "csv": str(csv)}
    if workload == "study":
        return {"seed": seed}
    raise ValueError(f"unknown workload {workload!r}")


def cli_argv(workload: str, inputs: dict, out_dir: Path) -> list[str]:
    out = ["--out-dir", str(out_dir)]
    if workload == "fit":
        return ["fit", "--input", inputs["csv"], *out]
    if workload == "cv":
        grid = ["--grid-min", "0.1", "--grid-max", "0.5", "--grid-step", "0.05"]
        return ["cv", "--input", inputs["csv"], *grid, "--workers", "1", *out]
    if workload == "study":
        sizes = ",".join(str(s) for s in STUDY_SIZES)
        return [
            "study", "--kind", "rate", "--sizes", sizes, "--reps", str(STUDY_REPS),
            "--workers", "1", "--seed", str(inputs["seed"]), *out,
        ]
    raise ValueError(f"{workload!r} is not a command-line workload")


def run_cli(argv: list[str]) -> dict:
    """One command-line invocation; stdout (artifact paths) is swallowed."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            status = streamsir.cli.run(argv)
        error = None if status == 0 else f"exit status {status}"
    except Exception as exc:  # an operation that raises is counted as failed
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return {"wall": wall, "error": error}


def run_online(sample) -> dict:
    """One pass over the stream through the per-arrival API.

    The functions are looked up on the module when the pass starts, so a
    tracer installed before the pass sees every call.
    """
    init, predict, step = engine.init_stream, engine.predict_next, engine.stream_step
    xs = sample.covariates
    ys = sample.responses.tolist()
    n = sample.n
    latency = np.empty(n - WARMUP, dtype=np.float64)
    nosupport = 0
    errors: list[str] = []
    clock = time.perf_counter
    start = clock()
    state = init(sample.head(WARMUP))
    for i in range(WARMUP, n):
        x = xs[i]
        t = clock()
        try:
            try:
                predict(state, x)
            except NoSupportError:
                nosupport += 1
            state = step(state, x, ys[i])
        except Exception as exc:  # counted per arrival, the stream goes on
            errors.append(f"arrival {i}: {type(exc).__name__}: {exc}")
        latency[i - WARMUP] = clock() - t
    wall = clock() - start
    return {
        "wall": wall,
        "latency": latency,
        "nosupport": nosupport,
        "errors": errors,
        "state": state,
    }
