"""Per-layer metrics of a traced run, computed from its spans.

Values are per operation, except timings in `us`/`s`, which are medians or
percentiles over spans.  A layer the workload does not reach reports 0.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import workloads as wl

LAYERS = ("simulate", "moments", "sir", "linkreg", "engine", "crossval", "studies", "io")

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = (
    ("streamsir.import_s", "s", "lower", "setup_s on every workload"),
    ("streamsir.import_scipy_s", "s", "lower", "setup_s on every workload"),
    ("simulate.draw_us", "us", "lower", "wall_s on study; setup_s on online, fit, cv"),
    ("engine.init_us", "us", "lower", "wall_s on study (40 warm-ups per invocation)"),
    ("moments.batch_us", "us", "lower", "wall_s on study (40 warm-ups per invocation)"),
    ("engine.step_us_p50", "us", "lower", "arrival_p50_us and wall_s on online"),
    ("engine.step_us_p99", "us", "lower", "arrival_p99_us on online"),
    ("engine.steps", "count", "lower", "wall_s on online, fit, cv and study"),
    ("sir.step_us_p50", "us", "lower", "wall_s on fit and study"),
    ("sir.step_us_p99", "us", "lower", "wall_s on fit and study"),
    ("sir.steps", "count", "lower", "wall_s on fit and study"),
    ("moments.inv_drift_rel", "ratio", "lower", "none: drift probe, does not gate"),
    ("linkreg.append_us_p50", "us", "lower", "wall_s on fit"),
    ("linkreg.appends", "count", "lower", "wall_s on fit"),
    ("linkreg.evaluate_us_p50", "us", "lower", "arrival_p50_us on online, wall_s on cv; not fit"),
    ("linkreg.evaluate_us_p99", "us", "lower", "arrival_p99_us on online, wall_s on cv; not fit"),
    ("linkreg.evaluate_calls", "count", "lower", "arrival_* on online, wall_s on cv; not fit"),
    ("linkreg.entries_scanned", "count", "lower", "arrival_* on online, wall_s on cv; not fit"),
    ("linkreg.support_frac", "ratio", "higher", "arrival_* on online, wall_s on cv; not fit"),
    ("linkreg.nosupport_frac", "ratio", "lower", "arrival_* on online, wall_s on cv; not fit"),
    ("crossval.alpha_s", "s", "lower", "wall_s on cv"),
    ("crossval.candidates", "count", "lower", "wall_s on cv"),
    ("crossval.skipped", "count", "lower", "wall_s on cv"),
    ("studies.rep_s", "s", "lower", "wall_s on study"),
    ("studies.summary_s", "s", "lower", "wall_s on study"),
    ("studies.records", "count", "higher", "wall_s on study"),
    ("io.read_us_per_row", "us", "lower", "wall_s on fit and cv"),
    ("io.write_us_per_row", "us", "lower", "wall_s on fit and study"),
    ("io.bytes_written", "B", "lower", "wall_s on fit and study"),
    ("simulate.self_s", "s", "lower", "wall_s on study"),
    ("moments.self_s", "s", "lower", "wall_s on every workload"),
    ("sir.self_s", "s", "lower", "wall_s on every workload"),
    ("linkreg.self_s", "s", "lower", "wall_s on every workload"),
    ("engine.self_s", "s", "lower", "wall_s on every workload"),
    ("crossval.self_s", "s", "lower", "wall_s on cv"),
    ("studies.self_s", "s", "lower", "wall_s on study"),
    ("io.self_s", "s", "lower", "wall_s on fit, cv and study"),
    ("trace.coverage", "ratio", "higher", "none: share of traced wall inside layer spans"),
    ("trace.wall_s", "s", "lower", "none: traced wall per operation"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall per operation"),
    ("trace.spans", "count", "lower", "none: spans recorded per operation"),
)


def median(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.median(values)) if values.size else 0.0


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def inv_drift(workload: str, inputs: dict, first_op: dict, out_dir: Path, seed: int) -> float:
    """Maintained inverse covariance against the batch inverse, relative Frobenius."""
    import streamsir

    if workload == "online":
        inv, xs = first_op["state"].sir.moments.inv_cov, inputs["sample"].covariates
    elif workload == "fit":
        doc = json.loads((out_dir / "state.json").read_text(encoding="utf-8"))
        inv, xs = np.array(doc["inv_cov"]), inputs["sample"].covariates
    else:
        if workload == "cv":
            sample = inputs["sample"]
        else:
            sample = streamsir.draw(streamsir.reference_model(p=wl.P), wl.STUDY_SIZES[-1], seed)
        inv, xs = streamsir.run_stream(sample, warmup=wl.WARMUP).sir.moments.inv_cov, sample.covariates
    centered = xs - xs.mean(axis=0)
    ref = np.linalg.inv(centered.T @ centered / xs.shape[0])
    return float(np.linalg.norm(inv - ref) / np.linalg.norm(ref))


def support_counts(evaluations) -> tuple[int, int]:
    """(entries scanned, entries inside the kernel window) over evaluate calls.

    The log is append-only, so its first `length` entries are exactly what a
    call scanned.
    """
    scanned = inside = 0
    for _, log, length, x, _ in evaluations:
        u, h = log.projections[:length], log.bandwidths[:length]
        scanned += length
        inside += int(np.count_nonzero(np.abs(x - u) <= log.kernel.support_radius * h))
    return scanned, inside


def layer_metrics(workload, inputs, ops, tracer, out_dir: Path, seed, imports) -> dict:
    """Every PER_LAYER metric of one traced run.

    `ops` are all operations of the run, traced and untraced; `out_dir`
    holds the first operation's artifacts; `imports` holds one
    (streamsir import, scipy import) pair per -X importtime probe.
    """
    spans = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.span_names)}
    in_op = np.zeros(spans["dur"].size, dtype=bool)
    for first, end, _, _ in tracer.ops:
        in_op[first:end] = True
    n_ops = len(tracer.ops)

    def durations(name, anywhere=False):
        mask = spans["name"] == ids[name]
        return spans["dur"][mask if anywhere else mask & in_op]

    def per_op(name):
        return durations(name).size / n_ops

    span_layer = np.array([name.split(".")[0] for name in tracer.span_names])[spans["name"]]
    self_by_layer = {layer: [] for layer in LAYERS}
    coverage, summaries, csv_writes = [], [], []
    for first, end, start, stop in tracer.ops:
        window = slice(first, end)
        names, dur = spans["name"][window], spans["dur"][window]
        for layer in LAYERS:
            self_by_layer[layer].append(float(spans["self"][window][span_layer[window] == layer].sum()))
        coverage.append(float(spans["self"][window].sum()) / (stop - start))
        summaries.append(float(dur[names == ids["studies.rate_study"]].sum() - dur[names == ids["studies.rep"]].sum()))
        csv_writes.append(float(dur[names == ids["io.write_csv"]].sum()))

    # Counts come from the first traced operation; every operation of a run
    # has the same inputs and, as the run checks, the same output.
    first, end = tracer.ops[0][:2]
    evals = [e for e in tracer.evaluations if first <= e[0] < end]
    scanned, inside = support_counts(evals)
    traced_wall = [op["wall"] for op in ops if op["traced"]]
    untraced_wall = [op["wall"] for op in ops if not op["traced"]]

    files = sorted(out_dir.iterdir()) if out_dir.exists() else []
    csv_rows = sum(len(p.read_text(encoding="utf-8").splitlines()) - 1 for p in files if p.suffix == ".csv")
    read = durations("io.read_sample")
    skipped = 0
    if workload == "cv":
        skipped = sum(json.loads((out_dir / "cv.json").read_text(encoding="utf-8"))["skipped"])

    m = {
        "streamsir.import_s": median([i[0] for i in imports]),
        "streamsir.import_scipy_s": median([i[1] for i in imports]),
        "simulate.draw_us": median(durations("simulate.draw", anywhere=True)) * 1e6,
        "engine.init_us": median(durations("engine.init")) * 1e6,
        "moments.batch_us": median(durations("moments.batch")) * 1e6,
        "engine.step_us_p50": percentile(durations("engine.step"), 50) * 1e6,
        "engine.step_us_p99": percentile(durations("engine.step"), 99) * 1e6,
        "engine.steps": per_op("engine.step"),
        "sir.step_us_p50": percentile(durations("sir.step"), 50) * 1e6,
        "sir.step_us_p99": percentile(durations("sir.step"), 99) * 1e6,
        "sir.steps": per_op("sir.step"),
        "moments.inv_drift_rel": inv_drift(workload, inputs, ops[0], out_dir, seed),
        "linkreg.append_us_p50": percentile(durations("linkreg.append"), 50) * 1e6,
        "linkreg.appends": per_op("linkreg.append"),
        "linkreg.evaluate_us_p50": percentile(durations("linkreg.evaluate"), 50) * 1e6,
        "linkreg.evaluate_us_p99": percentile(durations("linkreg.evaluate"), 99) * 1e6,
        "linkreg.evaluate_calls": per_op("linkreg.evaluate"),
        "linkreg.entries_scanned": scanned,
        "linkreg.support_frac": inside / scanned if scanned else 0.0,
        "linkreg.nosupport_frac": sum(e[4] for e in evals) / len(evals) if evals else 0.0,
        "crossval.alpha_s": median(durations("crossval.candidate")),
        "crossval.candidates": per_op("crossval.candidate"),
        "crossval.skipped": skipped,
        "studies.rep_s": median(durations("studies.rep")),
        "studies.summary_s": median(summaries) if workload == "study" else 0.0,
        "studies.records": csv_rows if workload == "study" else 0,
        "io.read_us_per_row": median(read) / inputs["sample"].n * 1e6 if read.size else 0.0,
        "io.write_us_per_row": median(csv_writes) / csv_rows * 1e6 if csv_rows else 0.0,
        "io.bytes_written": sum(p.stat().st_size for p in files),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = median(self_by_layer[layer])
    m["trace.coverage"] = median(coverage)
    m["trace.wall_s"] = median(traced_wall)
    m["trace.overhead_s"] = median(traced_wall) - median(untraced_wall)
    m["trace.spans"] = float(np.sum(in_op)) / n_ops
    return m
