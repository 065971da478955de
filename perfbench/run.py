"""streamsir benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {online,fit,cv,study} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src/`.
With `--trace 0` the run reports the end-to-end metrics: set-up time (median
of fresh interpreters), wall time per operation, peak memory, and on `online`
the per-arrival latency.  With `--trace 1` it alternates untraced and traced
operations and reports the per-layer metrics from spans recorded around
calls into each module (see tracing.py and layers.py), with self time per
layer, coverage and tracing overhead.  Outputs are checked after the timed
region.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A record of the run, with the
machine and environment, goes to `.perfbench_runs/` in the checkout, and the
spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread: the workloads are single-caller closed loops on a small
# machine, and a thread pool would make timings depend on the other load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

SETUP_PROBES = 3
MIN_OPS = 3
RUNS_DIR = ROOT / ".perfbench_runs"
# wall_s is scaled to a core that runs calibration_s's loop in this many
# seconds; see calibration_s.
CALIB_REF_S = 0.002
_CALIB_ROWS = np.random.default_rng(0).standard_normal((200, 10))

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> None:
    try:
        import streamsir
        import streamsir.cli  # noqa: F401
    except ImportError as exc:
        fail(f"cannot import streamsir from {SRC}: {exc}")
    if not Path(streamsir.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"streamsir was imported from {streamsir.__file__}, not from {SRC}")


def check_spec() -> None:
    """BENCHMARK.json must name the metrics this benchmark reports."""
    from layers import PER_LAYER

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if e2e != list(END_TO_END) or layer != [row[:3] for row in PER_LAYER]:
        fail("BENCHMARK.json metrics disagree with perfbench/run.py and perfbench/layers.py")


# ---------------------------------------------------------------------------
# core speed


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, so calibration and work share a core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibration_s() -> float:
    """Median time of a fixed loop of 200 rank-one inverse updates at p = 10.

    On a shared host each vCPU moves between a fast state and one up to
    about 1.7x slower, in spells of seconds to minutes, and CPU time moves
    with wall time.  The loop mixes small numpy calls with interpreter work,
    as the program does.  It runs on the pinned core before the first and
    after every measured operation, and wall_s is scaled by CALIB_REF_S over
    the run's mean calibration.  The loop is the benchmark's own code, so a
    change to the program leaves it unchanged.
    """
    times = []
    for _ in range(9):
        start = time.perf_counter()
        inv, mean, n = np.eye(10), np.zeros(10), 20
        for x in _CALIB_ROWS:
            n += 1
            phi = x - mean
            w = inv @ phi
            inv = (n / (n - 1.0)) * (inv - np.outer(w, w) / (n + float(phi @ w)))
            mean = mean + phi / n
        times.append(time.perf_counter() - start)
    return float(np.median(times))


# ---------------------------------------------------------------------------
# set-up probes


def probe(workload: str, seed: int, scratch: Path, importtime: bool) -> tuple[float, str]:
    """Seconds of one fresh-interpreter set-up, and its stderr."""
    scratch.mkdir(parents=True)
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed), "--dir", str(scratch)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    shutil.rmtree(scratch)
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1]), proc.stderr


def import_breakdown(stderr: str) -> tuple[float, float]:
    """(streamsir import, scipy share of it) in seconds from -X importtime output."""
    package = scipy = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, field = line[len("import time:"):].split("|")
        name = field.strip()
        top_level = field.startswith(" ") and not field.startswith("  ")
        if top_level and name in ("streamsir", "streamsir.cli"):
            package += int(cumulative_us) * 1e-6
        if name == "scipy" or name.startswith("scipy."):
            scipy += int(self_us) * 1e-6
    return package, scipy


# ---------------------------------------------------------------------------
# environment


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    import ctypes

    np.ones((8, 8)) @ np.ones((8, 8))
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    for lib in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import platform

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# measurement


def same_artifacts(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def run_op(workload: str, inputs: dict, out_dir: Path) -> dict:
    import workloads as wl

    if workload == "online":
        op = wl.run_online(inputs["sample"])
        op["error"] = "; ".join(op["errors"][:3]) or None
        return op
    return wl.run_cli(wl.cli_argv(workload, inputs, out_dir))


def measure(workload: str, inputs: dict, seconds: float, work: Path, tracer) -> tuple[list[dict], list[float]]:
    """Operations for `seconds`; with a tracer, every second one is traced.

    A new operation starts only if the previous one's duration still fits,
    and at least MIN_OPS run.  Each operation's output is compared with the
    first one's outside the timed region; a difference fails the operation.
    Returns the operations and the calibrations taken around them.
    """
    ops: list[dict] = []
    calibrations = [calibration_s()]
    start = time.perf_counter()
    while True:
        k = len(ops)
        traced = tracer is not None and k % 2 == 1
        out_dir = work / ("out0" if k == 0 else "out")
        if out_dir.exists():
            shutil.rmtree(out_dir)
        out_dir.mkdir()
        if traced:
            with tracer.installed(), tracer.operation():
                op = run_op(workload, inputs, out_dir)
        else:
            op = run_op(workload, inputs, out_dir)
        calibrations.append(calibration_s())
        op["traced"] = traced
        if k > 0 and op["error"] is None:
            if workload == "online":
                first = ops[0]["state"]
                same = (
                    np.array_equal(first.theta_hat, op["state"].theta_hat)
                    and np.array_equal(first.log.projections, op["state"].log.projections)
                    and op["nosupport"] == ops[0]["nosupport"]
                )
            else:
                same = same_artifacts(work / "out0", out_dir)
            if not same:
                op["error"] = "output differs from the first operation's"
        if workload == "online" and k > 0:
            op.pop("state")  # only the first pass's state is checked
        ops.append(op)
        elapsed = time.perf_counter() - start
        need_both = tracer is not None and len(ops) < 2
        if len(ops) >= MIN_OPS and not need_both and elapsed + op["wall"] > seconds:
            return ops, calibrations


def run_checks(workload: str, inputs: dict, ops: list[dict], out_dir: Path, seed: int) -> list[str]:
    import checks

    if workload == "online":
        return checks.check_direction(ops[0]["state"].theta_hat, inputs["sample"])
    if ops[0]["error"] is not None:
        return [f"first operation failed: {ops[0]['error']}"]
    if workload == "fit":
        return checks.check_fit(checks.load_fit(out_dir), inputs["sample"])
    if workload == "cv":
        doc = json.loads((out_dir / "cv.json").read_text(encoding="utf-8"))
        return checks.check_cv(doc, inputs["sample"])
    return checks.check_study(checks.load_study(out_dir), seed)


# ---------------------------------------------------------------------------


def main() -> None:
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    env = environment(args.seed)
    env["pinned_cpu"] = pin_to_one_cpu()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work = RUNS_DIR / tag
    work.mkdir(parents=True)
    try:
        record = run(args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (RUNS_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record["result"]))


def run(args, env: dict, work: Path) -> dict:
    import layers
    import workloads as wl
    from tracing import Tracer

    workload, seed = args.workload, args.seed
    print(f"# perfbench workload={workload} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))

    setup, imports = [], []
    for i in range(SETUP_PROBES):
        seconds, stderr = probe(workload, seed, work / f"probe{i}", importtime=bool(args.trace))
        setup.append(seconds)
        if args.trace:
            imports.append(import_breakdown(stderr))

    tracer = Tracer() if args.trace else None
    (work / "inputs").mkdir()
    if tracer is not None:
        with tracer.installed():
            inputs = wl.make_inputs(workload, seed, work / "inputs")
    else:
        inputs = wl.make_inputs(workload, seed, work / "inputs")

    ops, calibrations = measure(workload, inputs, args.seconds, work, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        failures = run_checks(workload, inputs, ops, work / "out0", seed)
    except Exception as exc:  # unreadable or malformed output fails the run, not the benchmark
        failures = [f"check raised {type(exc).__name__}: {exc}"]
    if workload == "online":
        per_op = wl.ONLINE_N - wl.WARMUP
        attempted = per_op * len(ops)
        failed = sum(len(op["errors"]) for op in ops)
        failed += sum(per_op for op in ops if op["error"] and not op["errors"])
        if failures:
            failed = attempted
    else:
        attempted = len(ops)
        failed = len(ops) if failures else sum(op["error"] is not None for op in ops)
    for op in ops:
        if op["error"]:
            print(f"# operation failed: {op['error']}")
    for message in failures:
        print(f"# check failed: {message}")

    unit = "arrivals" if workload == "online" else "CLI invocations"
    untraced = [op for op in ops if not op["traced"]]
    walls = [op["wall"] for op in untraced]
    calib = float(np.mean(calibrations))
    lines = [
        ("setup_s", layers.median(setup), "s", f"median of {len(setup)} fresh interpreters"
         + (" under -X importtime" if args.trace else "")),
        ("wall_s", float(np.mean(walls)) * CALIB_REF_S / calib, "s",
         f"mean of {len(walls)} untraced operations, scaled to the reference core speed"),
        ("peak_rss_mb", peak_rss_mb, "MB", "1 process"),
        ("fail_frac", failed / attempted, "1", f"{failed}/{attempted} {unit}"),
        ("wall_raw_s", float(np.mean(walls)), "s", "the same mean, unscaled"),
        ("wall_raw_p50_s", layers.median(walls), "s", f"median of {len(walls)} untraced operations, unscaled"),
        ("calib_ms", calib * 1e3, "ms", f"mean of {len(calibrations)} calibrations, reference {CALIB_REF_S * 1e3:g}"),
    ]
    if workload == "online":
        lat = np.concatenate([op["latency"] for op in untraced]) * 1e6
        lines += [
            ("arrival_p50_us", layers.percentile(lat, 50), "us", f"{lat.size} arrivals, unscaled"),
            ("arrival_p99_us", layers.percentile(lat, 99), "us", f"{lat.size} arrivals, unscaled"),
        ]
    for name, value, unit_, note in lines:
        print(f"{name:<16} {value:>14.10g} {unit_:<3} ({note})")

    record = {
        "args": vars(args),
        "env": env,
        "summary": {n: {"value": v, "unit": u, "samples": s} for n, v, u, s in lines},
        "op_walls": [op["wall"] for op in ops],
        "op_traced": [op["traced"] for op in ops],
        "calibrations": calibrations,
        "setup_probes": setup,
        "failures": failures,
    }
    if tracer is not None:
        metrics = layers.layer_metrics(workload, inputs, ops, tracer, work / "out0", seed, imports)
        print(f"# per-layer, from {len(tracer.ops)} traced and {len(untraced)} untraced operations")
        for name, unit_, _, moves in layers.PER_LAYER:
            print(f"{name:<26} {metrics[name]:>16.10g} {unit_:<5} (moves {moves})")
        spans_path = RUNS_DIR / f"{work.name}-spans.npz"
        tracer.save(spans_path)
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
        reported = {name: {"value": metrics[name], "unit": unit_} for name, unit_, _, _ in layers.PER_LAYER}
    else:
        reported = {name: {"value": value, "unit": unit_} for name, value, unit_, _ in lines[: len(END_TO_END)]}
    record["result"] = {
        "correct": not failures and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": reported,
    }
    return record


if __name__ == "__main__":
    import_package()
    check_spec()
    main()
