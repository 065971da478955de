"""File formats: strict CSV schemas and versioned JSON snapshots.

All floating-point values are written with the %.17g format, which is
enough digits to round-trip an IEEE double exactly; reading back what was
written reproduces the same bits.  CSV schemas are strict: exact headers,
rectangular rows, finite numeric cells, log indices as decimal digits.
JSON documents carry a schema_version field and are written with sorted
keys and a trailing newline so byte-identical reruns are possible.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .errors import CsvFormatError
from .kernels import BandwidthSchedule, KernelSpec
from .linkreg import ProjectionLog
from .moments import MomentState, Slicer
from .simulate import Sample

SCHEMA_VERSION = 1

# A double holds every integer below 2**53, so h_k = k ** -alpha is taken
# at the written k; from 2**53 on the conversion may round it (and int64
# overflows further up), so such indices are refused.
_INDEX_LIMIT = 2**53


def fmt(value: float) -> str:
    """Shortest-exact decimal form of a double."""
    return f"{float(value):.17g}"


def _parse_cell(text: str, line_no: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CsvFormatError(
            f"line {line_no}: {what} cell {text!r} is not numeric", row=line_no
        ) from None
    if not math.isfinite(value):
        raise CsvFormatError(
            f"line {line_no}: {what} cell {text!r} is not finite", row=line_no
        )
    return value


def _read_rows(path: str | Path) -> list[list[str]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path!s}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise CsvFormatError("empty file: missing header")
    return [line.split(",") for line in lines]


def write_sample_csv(sample: Sample, path: str | Path) -> None:
    """Write a sample as x1,...,xp,y rows."""
    p = sample.p
    header = ",".join([f"x{j}" for j in range(1, p + 1)] + ["y"])
    out = [header]
    for i in range(sample.n):
        cells = [fmt(v) for v in sample.covariates[i]]
        cells.append(fmt(sample.responses[i]))
        out.append(",".join(cells))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def read_sample_csv(path: str | Path) -> Sample:
    """Ingest a sample CSV, validating the schema.

    Raises:
        CsvFormatError: wrong header (in particular a missing final y
            column), ragged row, or a non-numeric / non-finite cell; the
            error names the offending 1-based line.
    """
    rows = _read_rows(path)
    header = rows[0]
    if len(header) < 2 or header[-1].strip() != "y":
        raise CsvFormatError(
            f"header must end with a y column, got {','.join(header)!r}", row=1
        )
    p = len(header) - 1
    expected = [f"x{j}" for j in range(1, p + 1)]
    got = [c.strip() for c in header[:-1]]
    if got != expected:
        raise CsvFormatError(
            f"header covariate columns must be x1..x{p}, got {','.join(got)!r}", row=1
        )
    xs = np.empty((len(rows) - 1, p), dtype=np.float64)
    ys = np.empty(len(rows) - 1, dtype=np.float64)
    for i, row in enumerate(rows[1:]):
        line_no = i + 2
        if len(row) != p + 1:
            raise CsvFormatError(
                f"line {line_no}: expected {p + 1} cells, got {len(row)}", row=line_no
            )
        for j in range(p):
            xs[i, j] = _parse_cell(row[j], line_no, f"x{j + 1}")
        ys[i] = _parse_cell(row[p], line_no, "y")
    if xs.shape[0] == 0:
        raise CsvFormatError("no data rows after header")
    return Sample(xs, ys)


def write_projection_log_csv(log: ProjectionLog, path: str | Path) -> None:
    """Write a projection log as k,u,y rows."""
    out = ["k,u,y"]
    for k, u, y in zip(log.indices, log.projections, log.responses):
        out.append(f"{int(k)},{fmt(u)},{fmt(y)}")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def read_projection_log_csv(
    path: str | Path, kernel: KernelSpec, schedule: BandwidthSchedule
) -> ProjectionLog:
    """Rebuild a projection log from k,u,y rows.

    The kernel and bandwidth schedule are not stored in the CSV; the caller
    must supply the ones used when the log was produced.
    """
    rows = _read_rows(path)
    if [c.strip() for c in rows[0]] != ["k", "u", "y"]:
        raise CsvFormatError(f"header must be k,u,y, got {','.join(rows[0])!r}", row=1)
    ks = np.empty(len(rows) - 1, dtype=np.int64)
    us = np.empty(len(rows) - 1, dtype=np.float64)
    ys = np.empty(len(rows) - 1, dtype=np.float64)
    for i, row in enumerate(rows[1:]):
        line_no = i + 2
        if len(row) != 3:
            raise CsvFormatError(
                f"line {line_no}: expected 3 cells, got {len(row)}", row=line_no
            )
        # Whole numbers only, as the writer produces: float() would read
        # 2.0, 2e0 or 2.0000000000000001 as k = 2.
        k = int(row[0]) if row[0].isascii() and row[0].isdigit() else 0
        if not 1 <= k < _INDEX_LIMIT:
            raise CsvFormatError(
                f"line {line_no}: k must be a positive integer below 2**53, got {row[0]!r}",
                row=line_no,
            )
        ks[i] = k
        us[i] = _parse_cell(row[1], line_no, "u")
        ys[i] = _parse_cell(row[2], line_no, "y")
    try:
        return ProjectionLog.from_entries(kernel, schedule, ks, us, ys)
    except ValueError as exc:
        raise CsvFormatError(str(exc)) from exc


def write_grid_csv(
    points: np.ndarray,
    estimates: np.ndarray,
    denominators: np.ndarray,
    contributing: np.ndarray,
    path: str | Path,
) -> None:
    """Write a curve (linkreg.curve's arrays) as x,f_hat,denominator,n_contributing rows.

    Points no kernel window covers get f_hat = nan with denominator 0.
    """
    out = ["x,f_hat,denominator,n_contributing"]
    for x, f, den, count in zip(points, estimates, denominators, contributing):
        out.append(f"{fmt(x)},{fmt(f)},{fmt(den)},{int(count)}")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def read_kernel_table_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a tabulated kernel as x,k rows; returns (abscissas, values).

    Shape validation happens here; the density properties (symmetry, unit
    mass, zero endpoints) are checked by the kernel constructor.
    """
    rows = _read_rows(path)
    if [c.strip() for c in rows[0]] != ["x", "k"]:
        raise CsvFormatError(f"header must be x,k, got {','.join(rows[0])!r}", row=1)
    xs = np.empty(len(rows) - 1, dtype=np.float64)
    ks = np.empty(len(rows) - 1, dtype=np.float64)
    for i, row in enumerate(rows[1:]):
        line_no = i + 2
        if len(row) != 2:
            raise CsvFormatError(
                f"line {line_no}: expected 2 cells, got {len(row)}", row=line_no
            )
        xs[i] = _parse_cell(row[0], line_no, "x")
        ks[i] = _parse_cell(row[1], line_no, "k")
    return xs, ks


def write_json(payload: dict[str, Any], path: str | Path) -> None:
    """Write a JSON document deterministically (sorted keys, version field)."""
    doc = dict(payload)
    doc.setdefault("schema_version", SCHEMA_VERSION)
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8"
    )


def moment_state_to_dict(state: MomentState, slicer: Slicer) -> dict[str, Any]:
    """JSON-ready snapshot of a moment state and its slice boundary."""
    return {
        "schema_version": SCHEMA_VERSION,
        "n": int(state.n),
        "mean": [float(v) for v in state.mean],
        "inv_cov": [[float(v) for v in row] for row in state.inv_cov],
        "slice_counts": [int(c) for c in state.slice_counts],
        "slice_means": [[float(v) for v in row] for row in state.slice_means],
        "boundary": float(slicer.boundary),
    }


def moment_state_from_dict(doc: dict[str, Any]) -> tuple[MomentState, Slicer]:
    """Inverse of moment_state_to_dict."""
    state = MomentState(
        n=int(doc["n"]),
        mean=np.asarray(doc["mean"], dtype=np.float64),
        inv_cov=np.asarray(doc["inv_cov"], dtype=np.float64),
        slice_counts=np.asarray(doc["slice_counts"], dtype=np.int64),
        slice_means=np.asarray(doc["slice_means"], dtype=np.float64),
    )
    return state, Slicer(boundary=float(doc["boundary"]))


def write_moment_state(state: MomentState, slicer: Slicer, path: str | Path) -> None:
    write_json(moment_state_to_dict(state, slicer), path)


def write_records_csv(
    columns: Sequence[str], records: Sequence[dict[str, Any]], path: str | Path
) -> None:
    """Write study records with a fixed column order.

    Floats use %.17g, ints print as ints, None prints as an empty cell and
    booleans as 0/1 so the file never depends on locale or repr quirks.
    """
    out = [",".join(columns)]
    for rec in records:
        cells = []
        for col in columns:
            v = rec[col]
            if v is None:
                cells.append("")
            elif isinstance(v, bool) or isinstance(v, np.bool_):
                cells.append(str(int(v)))
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(fmt(v))
        out.append(",".join(cells))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
