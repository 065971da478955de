"""File formats: strict CSV schemas and versioned JSON snapshots.

All floating-point values are written with the %.17g format, which is
enough digits to round-trip an IEEE double exactly; reading back what was
written reproduces the same bits.  CSV schemas are strict: exact headers,
rectangular rows, finite numeric cells, log indices as decimal digits.
Every CSV is read through _csv_blocks, and every one but the fit curve is
written from blocks of columns through _write_blocks, which alone decides
how a cell is written: integers and booleans as digits, floats with %.17g,
NaN as an empty cell.  Both work a block of lines at a time, so no file's
text is ever held whole: a read block is _READ_LINES (256) lines, a write
call _BLOCK_LINES (1024) rows.  _read_csv, and read_sample_csv for
samples, concatenate the parsed blocks; SampleBlocks hands a sample's
blocks to the engine one at a time, so `fit` never holds the sample's rows
whole either, and _FitLog keeps fit's projection log in a temporary file
as it grows, so `fit` holds no log.  numpy's C text reader parses a
block's cells as float() does; a block whose result
it cannot vouch for (see _cells) is read again a cell at a time with
float(), which reports the first error.  JSON documents carry a
schema_version field and are written with sorted keys and a trailing
newline so byte-identical reruns are possible.
"""

from __future__ import annotations

import contextlib
import json
import math
import tempfile
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CsvFormatError, StreamSirError
from .kernels import BandwidthSchedule, KernelSpec
from .linkreg import ProjectionLog, _folded_curve, _non_finite_entry
from .moments import MomentState, Slicer
from .simulate import Sample

SCHEMA_VERSION = 1

# A double holds every integer below 2**53, so h_k = k ** -alpha is taken
# at the written k; from 2**53 on the conversion may round it (and int64
# overflows further up), so such indices are refused.
_INDEX_LIMIT = 2**53

_BLOCK_LINES = 1024  # lines per write call, and grid points per read
# Lines per read block.  `fit` folds a file into stage 1 as it reads it, so
# one block's text, lines and cells are most of what the read holds; 256
# lines parse as fast as 1024.
_READ_LINES = 256


def fmt(value: float) -> str:
    """Shortest-exact decimal form of a double."""
    return f"{float(value):.17g}"


def _cell(text: str, what: str, index: bool) -> float:
    """One cell read with float(); a ValueError says how it breaks the schema."""
    if index:
        # Whole numbers only, as the writer produces: float() would read
        # 2.0, 2e0 or 2.0000000000000001 as k = 2.  Past 16 significant
        # digits a number is above 2**53, so int() never gets a huge string.
        digits = text.isascii() and text.isdigit() and len(text.lstrip("0")) <= 16
        if digits and 1 <= int(text) < _INDEX_LIMIT:
            return float(text)
        raise ValueError(f"k must be a positive integer below 2**53, got {text!r}")
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{what} cell {text!r} is not numeric") from None
    if not math.isfinite(value):
        raise ValueError(f"{what} cell {text!r} is not finite")
    return value


def _scan_cells(lines: list[str], names: Sequence[str], first_line: int, index: bool) -> np.ndarray:
    """lines read cell by cell with float(); raises at the first row or cell off the schema."""
    width = len(names)
    cells = np.empty((len(lines), width))
    for i, line in enumerate(lines):
        row = line.split(",")
        try:
            if len(row) != width:
                raise ValueError(f"expected {width} cells, got {len(row)}")
            cells[i] = [_cell(*cell, index and j == 0) for j, cell in enumerate(zip(row, names))]
        except ValueError as exc:
            raise CsvFormatError(f"line {first_line + i}: {exc}", row=first_line + i) from None
    return cells


def _cells(text: str, names: Sequence[str], first_line: int, index: bool = False) -> np.ndarray:
    """Data lines, the first on file line first_line, as a (lines, len(names)) float array.

    np.loadtxt parses the cells in C with PyOS_string_to_double, the routine
    float() uses.  Its result is kept only for plain text, ASCII with no
    control character but tab and newline (loadtxt skips blank lines and
    strips 0x1c-0x1f; str.splitlines also breaks lines at form feed, vertical
    tab, U+0085 and U+2028), and only with one row per line, finite cells
    and, with index set, first cells of decimal digits in [1, 2**53).  Any
    other block goes to _scan_cells, which raises the first error of a
    cell-by-cell read or reads what float() takes and loadtxt refuses (1_0).
    """
    lines = text.splitlines()
    codes = np.frombuffer(text.encode(), np.uint8)
    # loadtxt skips empty lines, and warns if it finds no other.
    if any(lines) and not (((codes < 32) & (codes != 9) & (codes != 10)) | (codes > 126)).any():
        try:
            cells = np.loadtxt(lines, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            ok = cells.shape == (len(lines), len(names)) and np.isfinite(cells).all()
            if ok and index:
                ks = cells[:, 0]
                digits = "".join([line.partition(",")[0] for line in lines])
                ok = digits.isdigit() and ks.min() >= 1 and ks.max() < _INDEX_LIMIT
            if ok:
                return cells
    return _scan_cells(lines, names, first_line, index)


def _csv_blocks(
    path: str | Path, columns: Callable[[list[str]], Sequence[str]], index: bool = False
) -> Iterator[np.ndarray]:
    """The data rows of a CSV as float arrays, one per _READ_LINES lines of the file.

    columns checks the header's cells and returns the column names.  Lines
    split as str.splitlines splits the whole text, and blocks are checked in
    file order, so the first error reported is the first in the file.  Only
    one block's text is held at a time; _cells converts it, in C where it
    can vouch for the result and cell by cell where it cannot.  The first
    block, the header's, may hold no row.
    """
    header, line_no = None, 2
    try:
        with open(path, encoding="utf-8") as f:
            while lines := list(islice(f, _READ_LINES)):
                text = "".join(lines)
                if header is None:
                    first = text.splitlines(keepends=True)[0]
                    header, text = first.splitlines()[0].split(","), text[len(first) :]
                    names = columns(header)
                cells = _cells(text, names, line_no, index)
                line_no += len(cells)
                yield cells
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path!s}: {exc}") from exc
    if header is None:
        raise CsvFormatError("empty file: missing header")


def _read_csv(
    path: str | Path, columns: Callable[[list[str]], Sequence[str]], index: bool = False
) -> np.ndarray:
    """The data rows of a CSV as one float array: _csv_blocks, concatenated."""
    blocks = list(_csv_blocks(path, columns, index))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _write_table(path: str | Path, columns: dict[str, np.ndarray]) -> None:
    """Write equal-length 1-d columns as CSV: a header of the keys, then the rows."""
    _write_blocks(path, ",".join(columns), [list(columns.values())])


def _write_blocks(path: str | Path, header: str, blocks: Iterable[Sequence[np.ndarray]]) -> None:
    """Write a CSV: the header line, then each block's equal-length 1-d columns as rows.

    Integer and boolean cells are written as digits, floats with %.17g and
    NaN as an empty cell, _BLOCK_LINES rows per write call.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for columns in blocks:
            arrays = [np.asarray(a) for a in columns]
            row = ",".join("%d" if a.dtype.kind in "biu" else "%.17g" for a in arrays) + "\n"
            for a in range(0, len(arrays[0]), _BLOCK_LINES):
                rows = zip(*(c[a : a + _BLOCK_LINES].tolist() for c in arrays))
                # %.17g writes NaN as "nan", and no other cell holds those letters.
                f.write("".join([row % r for r in rows]).replace("nan", ""))


def write_sample_csv(sample: Sample, path: str | Path) -> None:
    """Write a sample as x1,...,xp,y rows."""
    xs = {f"x{j + 1}": sample.covariates[:, j] for j in range(sample.p)}
    _write_table(path, {**xs, "y": sample.responses})


def _sample_columns(header: list[str]) -> list[str]:
    """x1..xp then y, checked against a sample header.

    Raises:
        CsvFormatError: the header is not x1,...,xp,y.
    """
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
    return [*expected, "y"]


def _fixed_columns(*names: str) -> Callable[[list[str]], Sequence[str]]:
    """A columns check for a CSV whose header is exactly names."""

    def columns(header: list[str]) -> Sequence[str]:
        if [c.strip() for c in header] != list(names):
            raise CsvFormatError(
                f"header must be {','.join(names)}, got {','.join(header)!r}", row=1
            )
        return names

    return columns


@dataclass(frozen=True)
class SampleBlocks:
    """A sample CSV as (covariates, responses) blocks of up to _READ_LINES rows.

    Each iteration reads the file again from the top, one block at a time,
    so the rows are never held whole: stage 1 (engine.direction_path, and
    `fit`'s fold) takes them in as they come, and reads the file again
    where its prefix form hands back.
    Each block's arrays are C-contiguous copies, so a block kept whole or
    in part pins nothing else.

    Raises, while it is iterated:
        CsvFormatError: wrong header (in particular a missing final y
            column), ragged row, or a non-numeric / non-finite cell, named
            by its 1-based line, when its block is reached; "no data rows
            after header" at the end of a file with none.
    """

    path: str | Path

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        rows = 0
        for cells in _csv_blocks(self.path, _sample_columns):
            rows += cells.shape[0]
            yield cells[:, :-1].copy(), cells[:, -1].copy()
        if rows == 0:
            raise CsvFormatError("no data rows after header")


def read_sample_csv(path: str | Path) -> Sample:
    """Ingest a sample CSV whole: the blocks of SampleBlocks, concatenated.

    Raises:
        CsvFormatError: as SampleBlocks, for the first error in the file.
    """
    xs, ys = zip(*SampleBlocks(path))
    return Sample(np.concatenate(xs), np.concatenate(ys))


# Not called here: fit writes its log through _FitLog.  The per-layer tracer
# (perfbench/tracing.py) patches this name by module attribute, so it stays.
def write_projection_log_csv(log: ProjectionLog, path: str | Path) -> None:
    """Write a projection log as k,u,y rows."""
    _write_table(path, {"k": log.indices, "u": log.projections, "y": log.responses})


class _FitLog(contextlib.AbstractContextManager):
    """fit's projection log, taken from stage 1 a chunk at a time: engine._path_fold's take.

    Each chunk's projections and responses go to an anonymous temporary
    file as float64 (u, y) pairs, so fit holds neither its sample nor its
    log; the entries' indices run on from the first one taken.  restart,
    the prefix form's hand-back, drops every entry taken.  Once stage 1 is
    done, curve folds the file back in, _BLOCK_LINES entries at a time, for
    each of write_grid_csv's point blocks, and copy writes it out as
    projection_log.csv, with the bytes write_projection_log_csv writes.
    The text is made only there: made chunk by chunk, between the chunks of
    the prefix form, it slowed fit by about 8%.  A non-finite projection is
    kept as the error ProjectionLog would raise for it, for fit to raise
    once stage 1 has succeeded, as when the log was filled after it.  An
    OSError of the file is raised as StreamSirError.  The file is gone once
    the log is closed; a with block closes it.
    """

    def __init__(self, alpha: float) -> None:
        self.schedule = BandwidthSchedule(alpha=alpha)
        self._file = _spooled(tempfile.TemporaryFile)
        self.restart()

    def __exit__(self, *exc: object) -> None:
        _spooled(self._file.close)

    def restart(self) -> None:
        _spooled(self._file.seek, 0)
        _spooled(self._file.truncate)
        self.first, self.error = 1, None

    def __call__(self, start: int, u: np.ndarray, y: np.ndarray) -> None:
        if self.error is None and not np.isfinite(u).all():
            i = int(np.argmin(np.isfinite(u)))
            self.error = _non_finite_entry(start + 1 + i, float(u[i]), float(y[i]))
        # The file holds entries first, ..., start, 16 bytes each.
        self.first = start + 1 - self._file.tell() // 16
        _spooled(self._file.write, np.stack((u, y), axis=1).tobytes())

    def _entries(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The entries taken, as (k, u, y) blocks of up to _BLOCK_LINES entries."""
        k = self.first
        _spooled(self._file.seek, 0)
        while data := _spooled(self._file.read, 16 * _BLOCK_LINES):
            u, y = np.frombuffer(data).reshape(-1, 2).T
            yield np.arange(k, k + u.size), u, y
            k += u.size

    def curve(self, kernel: KernelSpec, points: np.ndarray) -> tuple[np.ndarray, ...]:
        """linkreg.curve's (estimates, denominators, contributing) of the entries taken."""
        blocks = ((u, self.schedule.h(k), y) for k, u, y in self._entries())
        return _folded_curve(kernel, points, blocks)

    def copy(self, path: str | Path) -> None:
        _write_blocks(path, "k,u,y", self._entries())


def _spooled(op: Callable[..., Any], *args: Any) -> Any:
    """op(*args), an operation on fit's temporary log file, raising an OSError as StreamSirError."""
    try:
        return op(*args)
    except OSError as exc:
        raise StreamSirError(f"cannot use fit's temporary log file: {exc}") from None


def read_projection_log_csv(
    path: str | Path, kernel: KernelSpec, schedule: BandwidthSchedule
) -> ProjectionLog:
    """Rebuild a projection log from k,u,y rows.

    The kernel and bandwidth schedule are not stored in the CSV; the caller
    must supply the ones used when the log was produced.

    Raises:
        CsvFormatError: a bad header, row or cell, named by its line as
            for every CSV; else, for indices not strictly increasing, the
            first line whose k is not above the one before it.
    """
    ks, us, ys = _read_csv(path, _fixed_columns("k", "u", "y"), index=True).T
    down = np.flatnonzero(ks[1:] <= ks[:-1])
    if down.size:
        # Row i + 1 breaks the order; each data row is one line, so it is line i + 3.
        i = int(down[0])
        raise CsvFormatError(
            f"line {i + 3}: k must be strictly increasing, got {ks[i + 1]:.0f} after {ks[i]:.0f}",
            row=i + 3,
        )
    return ProjectionLog.from_entries(kernel, schedule, ks.astype(np.int64), us, ys)


def write_grid_csv(
    points: np.ndarray, read: Callable[[np.ndarray], tuple[np.ndarray, ...]], path: str | Path
) -> None:
    """Write the curve at points as x,f_hat,denominator,n_contributing rows.

    read maps points to linkreg.curve's (estimates, denominators,
    contributing); it gets _BLOCK_LINES points at a time, in order from
    the first, each block once the one before is written, so memory does
    not grow with the points.
    Points no kernel window covers get f_hat = nan with denominator 0.
    """
    with open(path, "w", encoding="utf-8") as out:
        out.write("x,f_hat,denominator,n_contributing\n")
        for a in range(0, points.size, _BLOCK_LINES):
            block = points[a : a + _BLOCK_LINES]
            rows = zip(block.tolist(), *(c.tolist() for c in read(block)))
            out.write("".join(f"{fmt(x)},{fmt(f)},{fmt(d)},{int(c)}\n" for x, f, d, c in rows))


def write_predictions_csv(points: Sequence[float], estimates: np.ndarray, path: str | Path) -> None:
    """Write estimates as x,f_hat,supported rows; a NaN estimate is written x,,0."""
    x = np.asarray(points, dtype=np.float64)
    _write_table(path, {"x": x, "f_hat": estimates, "supported": ~np.isnan(estimates)})


def read_kernel_table_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a tabulated kernel as x,k rows; returns (abscissas, values).

    Shape validation happens here; the density properties (symmetry, unit
    mass, zero endpoints) are checked by the kernel constructor.
    """
    cells = _read_csv(path, _fixed_columns("x", "k"))
    return cells[:, 0].copy(), cells[:, 1].copy()


def write_json(payload: dict[str, Any], path: str | Path) -> None:
    """Write a JSON document deterministically (sorted keys, version field)."""
    doc = dict(payload)
    doc.setdefault("schema_version", SCHEMA_VERSION)
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8"
    )


def write_moment_state(state: MomentState, slicer: Slicer, path: str | Path) -> None:
    """Write a moment state and its slice boundary as a JSON snapshot."""
    doc = {
        "n": int(state.n),
        "mean": [float(v) for v in state.mean],
        "inv_cov": [[float(v) for v in row] for row in state.inv_cov],
        "slice_counts": [int(c) for c in state.slice_counts],
        "slice_means": [[float(v) for v in row] for row in state.slice_means],
        "boundary": float(slicer.boundary),
    }
    write_json(doc, path)


def write_records_csv(table: dict[str, np.ndarray], path: str | Path) -> None:
    """Write study records, one column per key of table, in its key order."""
    _write_table(path, table)
