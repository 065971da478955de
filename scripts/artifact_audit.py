"""Fingerprint the artifacts of a fixed set of CLI runs, for byte-identity audits.

    python scripts/artifact_audit.py --src <checkout> --out <dir>

Every run imports `streamsir` from `<checkout>/src` (through PYTHONPATH)
and writes into its own subdirectory of `<dir>`.  The script prints one
`sha256  relative-path` line per file under `<dir>`, sorted by path, then
one `sha256  relative-path (as read)` line per reader input: the digest
of the float64 bytes the checkout's reader returns for a CSV whose bytes
the script itself fixes, so those digests move with the reader and
nothing else.  The reader inputs are the kernel table, which the runs
also read, and `reader/projection_log.csv` and `reader/sample.csv`: 1500
rows each of seeded pseudo-random values written with `%.17g`, so the
reader converts several blocks of 256 lines.  The lists of two
checkouts compare with a single `diff`:

    git archive <parent> | tar -x -C /tmp/parent
    python scripts/artifact_audit.py --src /tmp/parent --out /tmp/audit-parent > parent.txt
    python scripts/artifact_audit.py --src . --out /tmp/audit-change > change.txt
    diff parent.txt change.txt

The runs cover, for seeds 1 and 11: fit at the defaults, at alpha 0.2
with 37 grid points, at 20000 grid points (several write blocks), with
a tabulated triangle kernel (the table is written to
`<dir>/kernel_table.csv`) and at p = 40, where the direction pass steps
the recursion; simulate at n = 5000, and fit on that
sample.csv through --input, at the defaults, at 3000 grid points (three
grid blocks, each folding the log back in from fit's temporary copy),
and on a copy with row 1500's covariates times 1e9 (`outlier.csv`, which
the script writes into that run's directory), where the prefix form hands
back to the recursion, and on a copy whose lines end in CRLF (`crlf.csv`,
written the same way), which the reader takes through universal newlines;
predict at 41 points from the default fit's
log, from the tabulated fit's log and from the --input fit's log; cv
at workers 1 and 2; convergence (130 replications), rate and normality
studies at workers 1 and 2; a 7-replication rate study at workers 3;
missing-heavy rate and convergence studies (sizes 32,40,2000, 7
replications); 7-replication rate studies at sizes 64,129 and 64,159,
whose draws end on a row that a block of 128 rows leaves alone (from the
first row, and after the 30-row warm-up); and scatter at p = 10 and 20.
cv and study run in one process whatever --workers says, so the workers
2 and 3 runs check that the flag changes no artifact.  That is 141
files with the kernel table and the two outlier and two CRLF inputs,
plus the two other reader inputs.

With --compare, the script reads two such output directories instead and
prints, for every artifact whose sha256 differs, the largest relative
difference |a - b| / max(|a|, |b|) over its numeric CSV or JSON cells and
where it occurs, then one indented line per key that differs (a CSV
column's header or a JSON leaf's last key name) with that key's largest
relative and largest absolute difference |a - b|.  The absolute one tells
a last-digit move of a small difference of nearly equal numbers from a
real drift:

    python scripts/artifact_audit.py --compare /tmp/audit-parent /tmp/audit-change

Text cells must match exactly; a file whose layout differs (line or cell
counts, JSON keys, a text cell) or that exists on one side only is
reported as such.  The last line counts identical and differing artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 11)
PREDICT_AT = ",".join(f"{-2.0 + 0.1 * i:.1f}" for i in range(41))
MISSING_HEAVY = ["--sizes", "32,40,2000", "--reps", "7"]
# A triangle on [-1.5, 1.5]: a support radius other than 1 and a kernel
# other than the Epanechnikov one.
TRIANGLE_TABLE = "x,k\n-1.5,0\n0,0.6666666666666666\n1.5,0\n"
READER_LOG = "reader/projection_log.csv"
READER_SAMPLE = "reader/sample.csv"
READER_ROWS = 1500
OUTLIER_ROW, OUTLIER_SCALE = 1500, 1e9
# Run with the checkout's streamsir: the sha256 of the float64 bytes its
# reader returns for each path in argv (a log's indices, projections and
# responses; a sample's covariates and responses; a table's x and k).
READ_DIGESTS = """
import hashlib, sys
import numpy as np
from streamsir import BandwidthSchedule, epanechnikov
from streamsir.io import read_kernel_table_csv, read_projection_log_csv, read_sample_csv

def columns(path):
    if path.endswith("projection_log.csv"):
        log = read_projection_log_csv(path, epanechnikov(), BandwidthSchedule(alpha=0.35))
        return [log.indices, log.projections, log.responses]
    if path.endswith("kernel_table.csv"):
        return list(read_kernel_table_csv(path))
    sample = read_sample_csv(path)
    return [sample.covariates, sample.responses]

for path in sys.argv[1:]:
    data = b"".join(np.ascontiguousarray(c, dtype=np.float64).tobytes() for c in columns(path))
    print(hashlib.sha256(data).hexdigest())
"""


def write_reader_inputs(root: Path) -> list[str]:
    """Write the kernel table, log and sample the reader digests are taken on;
    returns their paths relative to root.

    The log's and sample's values come from random.Random(0).random(), whose
    stream Python keeps the same across versions: a uniform value on (-1, 1)
    times a power of ten from 1e-20 to 1e20, so that the text takes every
    %.17g form (fixed, exponent, negative).
    """
    rng = random.Random(0)

    def value() -> str:
        return f"{(2.0 * rng.random() - 1.0) * 10.0 ** (int(41 * rng.random()) - 20):.17g}"

    log = ["k,u,y"] + [f"{k},{value()},{value()}" for k in range(31, 31 + READER_ROWS)]
    sample = ["x1,x2,x3,y"] + [",".join(value() for _ in range(4)) for _ in range(READER_ROWS)]
    files = {
        "kernel_table.csv": TRIANGLE_TABLE,
        READER_LOG: "\n".join(log) + "\n",
        READER_SAMPLE: "\n".join(sample) + "\n",
    }
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")
    return list(files)


def write_outlier_sample(run_dir: Path) -> None:
    """Write run_dir/outlier.csv: the seed's simulate sample with one row's covariates scaled.

    The cells are written with `%.17g`, as the sample writer writes a
    sample whose row OUTLIER_ROW (0-based) was multiplied by OUTLIER_SCALE.
    """
    lines = (run_dir.parent / "simulate" / "sample.csv").read_text(encoding="utf-8").splitlines()
    *xs, y = lines[OUTLIER_ROW + 1].split(",")
    lines[OUTLIER_ROW + 1] = ",".join([*(f"{float(x) * OUTLIER_SCALE:.17g}" for x in xs), y])
    (run_dir / "outlier.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_crlf_sample(run_dir: Path) -> None:
    """Write run_dir/crlf.csv: the seed's simulate sample with each line ended by CRLF."""
    lines = (run_dir.parent / "simulate" / "sample.csv").read_text(encoding="utf-8").splitlines()
    (run_dir / "crlf.csv").write_bytes("".join(f"{line}\r\n" for line in lines).encode("utf-8"))


# Inputs the script writes into a run's directory before it runs.
PREPARE = {"fit-input-outlier": write_outlier_sample, "fit-input-crlf": write_crlf_sample}


def runs(seed: int, table: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every run for one seed, each after the runs whose files it reads."""
    study = ["study", "--seed", str(seed)]
    tabulated = ["--kernel", "tabulated", "--kernel-table", str(table)]
    out = [
        ("fit", ["fit", "--seed", str(seed)]),
        ("fit-alpha0.2", ["fit", "--seed", str(seed), "--alpha", "0.2", "--grid-count", "37"]),
        ("fit-grid20000", ["fit", "--seed", str(seed), "--grid-count", "20000"]),
        ("fit-tabulated", ["fit", "--seed", str(seed), *tabulated]),
        # p above engine._PREFIX_MAX_P, so direction_path steps the recursion.
        ("fit-p40", ["fit", "--seed", str(seed), "--p", "40"]),
        ("simulate", ["simulate", "--seed", str(seed), "--n", "5000"]),
        ("fit-input", ["fit", "--input", "../simulate/sample.csv"]),
        ("fit-input-grid3000",
         ["fit", "--input", "../simulate/sample.csv", "--grid-count", "3000"]),
        ("fit-input-outlier", ["fit", "--input", "outlier.csv"]),
        ("fit-input-crlf", ["fit", "--input", "crlf.csv"]),
        ("predict", ["predict", "--log", "../fit/projection_log.csv", f"--at={PREDICT_AT}"]),
        ("predict-tabulated",
         ["predict", "--log", "../fit-tabulated/projection_log.csv", *tabulated,
          f"--at={PREDICT_AT}"]),
        ("predict-input",
         ["predict", "--log", "../fit-input/projection_log.csv", f"--at={PREDICT_AT}"]),
    ]
    for workers in ("1", "2"):
        w = ["--workers", workers]
        out += [
            (f"cv-w{workers}", ["cv", "--seed", str(seed), *w]),
            (f"convergence-w{workers}",
             [*study, "--kind", "convergence", "--sizes", "250,500,1000", "--reps", "130", *w]),
            (f"rate-w{workers}",
             [*study, "--kind", "rate", "--sizes", "250,500,1000,2000", "--reps", "40", *w]),
            (f"normality-w{workers}", [*study, "--kind", "normality", "--reps", "200", *w]),
        ]
    out += [
        ("rate-7reps-w3",
         [*study, "--kind", "rate", "--sizes", "250,500,1000", "--reps", "7", "--workers", "3"]),
        ("rate-missing", [*study, "--kind", "rate", *MISSING_HEAVY]),
        # Draws that end on a lone row: after 128-row blocks from the first
        # row (129 rows), and after the 30-row warm-up block then 128-row
        # blocks, as the checkpoint studies cut them (159 rows).
        ("rate-lone-row-129", [*study, "--kind", "rate", "--sizes", "64,129", "--reps", "7"]),
        ("rate-lone-row-159", [*study, "--kind", "rate", "--sizes", "64,159", "--reps", "7"]),
        ("convergence-missing", [*study, "--kind", "convergence", *MISSING_HEAVY]),
        ("scatter-p10", [*study, "--kind", "scatter", "--p", "10"]),
        ("scatter-p20", [*study, "--kind", "scatter", "--p", "20"]),
    ]
    return out


class LayoutDiffers(Exception):
    """Two artifacts differ in something other than the value of a number."""


def _abs(a: float, b: float) -> float:
    """|a - b|; 0 for equal values (NaN equals NaN), inf if one is not finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b)


def _rel(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|), with _abs's 0 and inf."""
    gap = _abs(a, b)
    return gap if gap in (0.0, math.inf) else gap / max(abs(a), abs(b))


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _csv_cells(path: Path):
    """(location, column header, text) of every cell, header included."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    for line_no, line in enumerate(lines, start=1):
        for col, cell in enumerate(line.split(","), start=1):
            key = header[col - 1] if col <= len(header) else f"cell {col}"
            yield f"line {line_no} cell {col}", key, cell


def _json_cells(doc, where: str = "", key: str = "."):
    """(location, last key name, value) of every leaf; key lists and lengths count as
    leaves, so layouts compare."""
    if isinstance(doc, dict):
        yield f"{where}{{keys}}", key, sorted(doc)
        for name in sorted(doc):
            yield from _json_cells(doc[name], f"{where}.{name}", name)
    elif isinstance(doc, list):
        yield f"{where}[len]", key, len(doc)
        for i, item in enumerate(doc):
            yield from _json_cells(item, f"{where}[{i}]", key)
    else:
        yield where or ".", key, doc


def _largest_differences(a: Path, b: Path) -> dict[str, tuple[float, str, float]]:
    """Per key that differs, the largest relative difference between two artifacts'
    numbers, where it is with both values, and the largest absolute difference.

    A key is a CSV cell's column header or a JSON leaf's last key name.

    Raises:
        LayoutDiffers: the files differ in anything but numeric values.
    """
    if a.suffix == ".json":
        cells_a = list(_json_cells(json.loads(a.read_text(encoding="utf-8"))))
        cells_b = list(_json_cells(json.loads(b.read_text(encoding="utf-8"))))
    else:
        cells_a, cells_b = list(_csv_cells(a)), list(_csv_cells(b))
    if [where for where, _, _ in cells_a] != [where for where, _, _ in cells_b]:
        raise LayoutDiffers("layout differs")
    worst: dict[str, tuple[float, str]] = {}
    gaps: dict[str, float] = {}
    for (where, key, x), (_, _, y) in zip(cells_a, cells_b):
        if x == y:
            continue
        u, v = (_number(x), _number(y)) if isinstance(x, str) else (x, y)
        if not all(isinstance(w, (int, float)) and not isinstance(w, bool) for w in (u, v)):
            raise LayoutDiffers(f"{where}: {x!r} != {y!r}")
        rel = _rel(float(u), float(v))
        if key not in worst or rel > worst[key][0]:
            worst[key] = rel, f"{where} ({u!r} vs {v!r})"
        gaps[key] = max(gaps.get(key, 0.0), _abs(float(u), float(v)))
    return {key: (*worst[key], gaps[key]) for key in worst}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compare(root_a: Path, root_b: Path) -> int:
    """Print the largest relative and absolute differences of every artifact whose
    sha256 differs."""
    files_a = {p.relative_to(root_a).as_posix() for p in root_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(root_b).as_posix() for p in root_b.rglob("*") if p.is_file()}
    same = differ = 0
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            print(f"{rel}  only in {root_a if rel in files_a else root_b}")
            differ += 1
            continue
        a, b = root_a / rel, root_b / rel
        if _digest(a) == _digest(b):
            same += 1
            continue
        differ += 1
        try:
            per_key = _largest_differences(a, b)
        except (LayoutDiffers, ValueError) as exc:
            print(f"{rel}  {exc}")
            continue
        worst, at, _ = max(
            per_key.values(), key=lambda w: w[0], default=(0.0, "no numeric cell", 0.0)
        )
        print(f"{rel}  max rel {worst:.3g} at {at}")
        for key in sorted(per_key):
            print(f"    {key}  max rel {per_key[key][0]:.3g}  max abs {per_key[key][2]:.3g}")
    print(f"{same} identical, {differ} differ")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", help="checkout whose src/ holds the streamsir package")
    parser.add_argument("--out", help="directory for the runs' artifacts")
    parser.add_argument(
        "--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
        help="compare the artifacts of two earlier --out directories instead of running",
    )
    args = parser.parse_args()
    if args.compare:
        if args.src or args.out:
            parser.error("--compare takes no --src or --out")
        dirs = [Path(d).resolve() for d in args.compare]
        for d in dirs:
            if not d.is_dir():
                parser.error(f"{d} is not a directory")
        return compare(*dirs)
    if not (args.src and args.out):
        parser.error("--src and --out are required unless --compare is given")
    src = Path(args.src).resolve() / "src"
    if not (src / "streamsir").is_dir():
        parser.error(f"{src} has no streamsir package")
    root = Path(args.out).resolve()
    if root.exists() and any(root.iterdir()):
        parser.error(f"{root} is not empty")
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("STREAMSIR_OUTDIR", None)
    root.mkdir(parents=True, exist_ok=True)
    read_paths = write_reader_inputs(root)
    table = root / "kernel_table.csv"
    for seed in SEEDS:
        for name, argv in runs(seed, table):
            run_dir = root / f"seed{seed}" / name
            run_dir.mkdir(parents=True, exist_ok=True)
            if name in PREPARE:
                PREPARE[name](run_dir)
            done = subprocess.run(
                [sys.executable, "-m", "streamsir", *argv, "--out-dir", "."],
                cwd=run_dir, env=env, capture_output=True, text=True,
            )
            if done.returncode != 0:
                print(f"seed {seed} {name} exited {done.returncode}:\n{done.stderr}", file=sys.stderr)
                return 1
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        print(f"{_digest(path)}  {path.relative_to(root).as_posix()}")
    done = subprocess.run(
        [sys.executable, "-c", READ_DIGESTS, *read_paths],
        cwd=root, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        print(f"reading the reader inputs exited {done.returncode}:\n{done.stderr}",
              file=sys.stderr)
        return 1
    for path, digest in zip(read_paths, done.stdout.split()):
        print(f"{digest}  {path} (as read)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
