import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from streamsir import (
    BandwidthSchedule,
    CsvFormatError,
    ProjectionLog,
    curve,
    draw,
    epanechnikov,
    reference_model,
)
from streamsir import io as sio
from streamsir.io import (
    fmt,
    read_kernel_table_csv,
    read_projection_log_csv,
    read_sample_csv,
    write_grid_csv,
    write_json,
    write_projection_log_csv,
    write_records_csv,
    write_sample_csv,
)


def test_sample_round_trip_is_exact(tmp_path):
    sample = draw(reference_model(p=5), 40, 9)
    path = tmp_path / "sample.csv"
    write_sample_csv(sample, path)
    back = read_sample_csv(path)
    assert np.array_equal(back.covariates, sample.covariates)
    assert np.array_equal(back.responses, sample.responses)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3,x4,x5,y"


def test_fmt_round_trips_doubles():
    values = [0.1, 1.0 / 3.0, math.pi, 1e-308, -2.5e17, 150.0**-0.35]
    for v in values:
        assert float(fmt(v)) == v


def test_non_numeric_cell_names_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,y\n1.0,2.0,3.0\n1.0,oops,3.0\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        read_sample_csv(path)


def test_non_finite_cell_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,y\n1.0,inf,3.0\n")
    with pytest.raises(CsvFormatError, match="finite"):
        read_sample_csv(path)


def test_missing_response_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2\n1.0,2.0\n")
    with pytest.raises(CsvFormatError, match="y"):
        read_sample_csv(path)


def test_missing_file_reports_the_path(tmp_path):
    path = tmp_path / "nope.csv"
    with pytest.raises(CsvFormatError, match="nope.csv"):
        read_sample_csv(path)


def test_projection_log_round_trip(tmp_path):
    kernel = epanechnikov()
    schedule = BandwidthSchedule(alpha=0.35)
    log = ProjectionLog(kernel=kernel, schedule=schedule, first_index=31)
    rng = np.random.default_rng(0)
    for u, y in zip(rng.normal(size=20), rng.normal(size=20)):
        log.push(float(u), float(y))
    path = tmp_path / "log.csv"
    write_projection_log_csv(log, path)
    back = read_projection_log_csv(path, kernel, schedule)
    assert np.array_equal(back.projections, log.projections)
    assert np.array_equal(back.responses, log.responses)
    assert np.array_equal(back.indices, log.indices)
    assert path.read_text().splitlines()[0] == "k,u,y"


def test_projection_log_rejects_bad_index(tmp_path):
    kernel = epanechnikov()
    schedule = BandwidthSchedule(alpha=0.35)
    path = tmp_path / "log.csv"
    path.write_text("k,u,y\n0,0.5,1.0\n")
    with pytest.raises(CsvFormatError):
        read_projection_log_csv(path, kernel, schedule)
    path.write_text("k,u,y\n2.5,0.5,1.0\n")
    with pytest.raises(CsvFormatError):
        read_projection_log_csv(path, kernel, schedule)
    path.write_text("k,u,y\n5,0.5,1.0\n4,0.5,1.0\n")
    with pytest.raises(CsvFormatError):
        read_projection_log_csv(path, kernel, schedule)


def test_grid_csv_marks_unsupported_points(tmp_path):
    points = np.array([-1.0, 0.0, 5.0])
    # One entry at u = 0.1 with h = 0.5: its window covers 0 and not -1 or 5.
    def read(pts):
        return curve(epanechnikov(), pts, np.array([0.1]), np.array([0.5]), np.array([2.0]))

    _, den, _ = read(points)
    path = tmp_path / "grid.csv"
    write_grid_csv(points, read, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,f_hat,denominator,n_contributing"
    assert lines[2] == f"0,2,{fmt(den[1])},1"
    for line, x in ((lines[1], "-1"), (lines[3], "5")):
        assert line == f"{x},nan,0,0"


def test_kernel_table_round_trip(tmp_path):
    xs = np.linspace(-1.0, 1.0, 11)
    ks = 0.75 * np.clip(1.0 - xs * xs, 0.0, None)
    path = tmp_path / "table.csv"
    path.write_text("x,k\n" + "\n".join(f"{fmt(a)},{fmt(b)}" for a, b in zip(xs, ks)) + "\n")
    back_x, back_k = read_kernel_table_csv(path)
    assert np.array_equal(back_x, xs)
    assert np.array_equal(back_k, ks)


def test_write_json_is_canonical(tmp_path):
    path = tmp_path / "doc.json"
    write_json({"b": 1, "a": [1.5, 2]}, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert '"schema_version"' in text
    with pytest.raises(ValueError):
        write_json({"x": float("nan")}, path)


def test_records_csv_formats_cell_types(tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(
        {
            "rep": np.array([0]),
            "flag": np.array([True]),
            "count": np.array([7], dtype=np.int64),
            "value": np.array([0.1]),
            "note": np.array([np.nan]),
        },
        path,
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "rep,flag,count,value,note"
    assert lines[1] == "0,1,7,0.10000000000000001,"


def test_stream_order_is_preserved(tmp_path):
    # Writing then reading a sample must keep rows in stream order; the
    # recursive estimators are order-sensitive, so a reordering reader
    # would silently change every downstream result.
    sample = draw(reference_model(p=4), 25, 3)
    path = tmp_path / "sample.csv"
    write_sample_csv(sample, path)
    back = read_sample_csv(path)
    for i in range(sample.n):
        assert np.array_equal(back.covariates[i], sample.covariates[i])
        assert back.responses[i] == sample.responses[i]


@pytest.mark.parametrize("index", ["2.0", "2e0", "+2", "1_0", "2.0000000000000001", "", " 2"])
def test_projection_log_refuses_an_index_that_is_not_decimal_digits(tmp_path, index):
    # float() reads every non-empty one of these as a whole number (int()
    # takes "+2", "1_0" and " 2" too); the writer only produces digits.
    kernel = epanechnikov()
    schedule = BandwidthSchedule(alpha=0.35)
    path = tmp_path / "log.csv"
    path.write_text(f"k,u,y\n1,0.0,1.0\n{index},0.5,2.0\n")
    with pytest.raises(CsvFormatError, match="line 3: k must be a positive integer") as exc:
        read_projection_log_csv(path, kernel, schedule)
    assert exc.value.row == 3
    path.write_text("k,u,y\n1,0.0,1.0\n2,0.5,2.0\n")
    assert read_projection_log_csv(path, kernel, schedule).indices.tolist() == [1, 2]


@pytest.mark.parametrize(
    "index",
    [
        "1e300",
        "9223372036854775808",
        "9007199254740993",
        "9007199254740992",
        pytest.param("1" * 5000, id="5000-digits"),
    ],
)
def test_projection_log_refuses_an_index_a_double_cannot_hold(tmp_path, index):
    # float() rounds 2**53 + 1 to 2**53, and int64 overflows further up;
    # int() refuses more than 4300 digits outright.
    kernel = epanechnikov()
    schedule = BandwidthSchedule(alpha=0.35)
    path = tmp_path / "log.csv"
    path.write_text(f"k,u,y\n1,0.0,1.0\n{index},0.5,2.0\n")
    with pytest.raises(CsvFormatError, match="line 3") as exc:
        read_projection_log_csv(path, kernel, schedule)
    assert exc.value.row == 3
    path.write_text("k,u,y\n1,0.0,1.0\n9007199254740991,0.5,2.0\n")
    assert read_projection_log_csv(path, kernel, schedule).indices[-1] == 2**53 - 1


# (file text, first error): each file breaks the schema more than once, and
# the error named is the one a cell-by-cell read in row order meets first.
_FIRST_ERRORS = [
    (
        read_sample_csv,
        "x1,x2,y\n1,2,3\n1,oops,3\n1,2,3\n1,2\n",
        "line 3: x2 cell 'oops' is not numeric",
    ),
    (read_sample_csv, "x1,x2,y\n1,2,3\n1,2\n1,oops,3\n", "line 3: expected 3 cells, got 2"),
    (read_sample_csv, "x1,x2,y\n1,2,nan\n1,x,3\n", "line 2: y cell 'nan' is not finite"),
    (read_sample_csv, "x1,x2,y\n1,2,3\n1e400,,3\n", "line 3: x1 cell '1e400' is not finite"),
    (
        lambda path: read_projection_log_csv(path, epanechnikov(), BandwidthSchedule(alpha=0.35)),
        "k,u,y\n1,0,1\n2,0,1\n3.0,0,1\n4,bad,1\n5,0\n",
        "line 4: k must be a positive integer below 2**53, got '3.0'",
    ),
    (
        lambda path: read_projection_log_csv(path, epanechnikov(), BandwidthSchedule(alpha=0.35)),
        "k,u,y\n1,0,1\n2,inf,1\n0,0,1\n",
        "line 3: u cell 'inf' is not finite",
    ),
    (
        lambda path: read_projection_log_csv(path, epanechnikov(), BandwidthSchedule(alpha=0.35)),
        "k,u,y\n1,0,1\n2,0,1,9\nx,0,1\n",
        "line 3: expected 3 cells, got 4",
    ),
    (read_kernel_table_csv, "x,k\n-1,0\n0,-\n1\n", "line 3: k cell '-' is not numeric"),
    (read_kernel_table_csv, "x,k\n-1,0\n0\n1,zz\n", "line 3: expected 2 cells, got 1"),
]


@pytest.mark.parametrize(
    "reader, text, message",
    _FIRST_ERRORS,
    ids=[
        "sample-cell-before-ragged",
        "sample-ragged-before-cell",
        "sample-non-finite-before-non-numeric",
        "sample-overflow-before-empty",
        "log-index-before-cell-and-ragged",
        "log-cell-before-index",
        "log-ragged-before-index",
        "kernel-cell-before-ragged",
        "kernel-ragged-before-cell",
    ],
)
def test_a_file_with_several_errors_reports_the_first(tmp_path, reader, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError) as exc:
        reader(path)
    assert str(exc.value) == message
    assert exc.value.row == int(message.split()[1].rstrip(":"))


@pytest.mark.parametrize(
    "ks, line",
    [
        ([5, 4], 3),
        ([1, 2, 2, 3], 4),
        # Lines 2..256 fill the first read block with the header; 257 opens the second.
        ([*range(1, sio._READ_LINES), 7, sio._READ_LINES + 1], sio._READ_LINES + 1),
    ],
    ids=["decrease", "repeat", "decrease-opening-the-second-block"],
)
def test_a_log_out_of_order_names_its_first_line_out_of_order(tmp_path, ks, line):
    path = tmp_path / "log.csv"
    path.write_text("k,u,y\n" + "".join(f"{k},0.5,1.0\n" for k in ks))
    with pytest.raises(CsvFormatError) as exc:
        read_projection_log_csv(path, epanechnikov(), BandwidthSchedule(alpha=0.35))
    k, before = ks[line - 2], ks[line - 3]
    assert str(exc.value) == f"line {line}: k must be strictly increasing, got {k} after {before}"
    assert exc.value.row == line


@pytest.mark.parametrize(
    "lines",
    [sio._READ_LINES - 1, sio._READ_LINES, sio._BLOCK_LINES - 1, sio._BLOCK_LINES,
     2 * sio._BLOCK_LINES + 37],
)
def test_a_sample_read_a_block_at_a_time_equals_a_cell_by_cell_read(tmp_path, lines):
    # The header shares the first block with the first data lines; rows
    # cross one or two block edges.
    sample = draw(reference_model(p=4), lines, 12)
    path = tmp_path / "sample.csv"
    write_sample_csv(sample, path)
    back = read_sample_csv(path)
    text = path.read_text(encoding="utf-8").splitlines()[1:]
    want = np.array([[float(c) for c in line.split(",")] for line in text])
    assert np.array_equal(back.covariates, want[:, :4])
    assert np.array_equal(back.responses, want[:, 4])
    # An error in the last block names its file line; an earlier one wins.
    text[-1] = text[-1].replace(",", ",x", 1)
    path.write_text("x1,x2,x3,x4,y\n" + "\n".join(text) + "\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match=f"^line {lines + 1}: x2 cell"):
        read_sample_csv(path)
    text[1] = "1,2"
    path.write_text("x1,x2,x3,x4,y\n" + "\n".join(text) + "\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="^line 3: expected 5 cells, got 2"):
        read_sample_csv(path)


# Tokens float() takes, each as spelled in a cell, and tokens it refuses or
# reads as non-finite.
_READ_TOKENS = [" 2", "+1", "1_0", "\uff11", "\u0661", "\t3", "1.5 ", "-0", "1e-400",
                "4.9e-324", "2.0000000000000001", "0.1", "-1.7976931348623157e308"]
_REFUSED_TOKENS = ["1e400", "nan", "-Infinity", "0x10", "", " ", "1__0", "_1", "1e"]


def test_sample_cells_read_as_float_reads_them(tmp_path):
    path = tmp_path / "tokens.csv"
    pairs = list(zip(_READ_TOKENS, _READ_TOKENS[1:] + _READ_TOKENS[:1]))
    path.write_text(
        "x1,x2,y\n" + "".join(f"{a},{b},0\n" for a, b in pairs), encoding="utf-8"
    )
    back = read_sample_csv(path)
    want = np.array([[float(a), float(b)] for a, b in pairs])
    # Bit patterns, so -0 and the subnormals count too.
    assert np.array_equal(back.covariates.view(np.uint64), want.view(np.uint64))
    for token in _REFUSED_TOKENS:
        path.write_text(f"x1,x2,y\n1,2,3\n1,{token},3\n", encoding="utf-8")
        try:
            float(token)
            what = "not finite"
        except ValueError:
            what = "not numeric"
        with pytest.raises(CsvFormatError) as exc:
            read_sample_csv(path)
        assert str(exc.value) == f"line 3: x2 cell {token!r} is {what}", token


def _one_shot_grid_csv(points, estimates, denominators, contributing, path):
    """The grid writer as it was when it built the whole file as one string."""
    out = ["x,f_hat,denominator,n_contributing"]
    for x, f, den, count in zip(points, estimates, denominators, contributing):
        out.append(f"{fmt(x)},{fmt(f)},{fmt(den)},{int(count)}")
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


@pytest.mark.parametrize("count", [1, sio._BLOCK_LINES, 2 * sio._BLOCK_LINES + 37])
def test_grid_csv_over_several_blocks_matches_the_one_shot_writer(tmp_path, count):
    kernel = epanechnikov()
    log = ProjectionLog(kernel, BandwidthSchedule(alpha=0.35))
    rng = np.random.default_rng(5)
    log.extend(rng.standard_normal(300), rng.standard_normal(300))
    # The ends lie outside every window, so some rows read nan.
    points = np.linspace(-6.0, 6.0, count) if count > 1 else np.array([0.25])
    calls = []

    def read(block):
        calls.append(block.size)
        return curve(kernel, block, log.projections, log.bandwidths, log.responses)

    write_grid_csv(points, read, tmp_path / "blocks.csv")
    _one_shot_grid_csv(points, *read(points), tmp_path / "whole.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    # One read per block of at most _BLOCK_LINES points, then the one-shot read.
    assert len(calls) - 1 == -(-count // sio._BLOCK_LINES)
    assert max(calls[:-1]) <= sio._BLOCK_LINES


def _cell_by_cell_table(columns, path):
    """The table writer's rules applied one cell at a time, the whole file at once."""
    def cell(v):
        if isinstance(v, (bool, np.bool_, int, np.integer)):
            return str(int(v))
        return "" if math.isnan(v) else fmt(v)

    rows = zip(*columns.values())
    lines = [",".join(columns), *(",".join(cell(v) for v in row) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("count", [1, sio._BLOCK_LINES, 2 * sio._BLOCK_LINES + 37])
def test_table_csv_over_several_blocks_matches_a_cell_by_cell_writer(tmp_path, count):
    rng = np.random.default_rng(8)
    value = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)
    gaps = rng.standard_normal(count)
    gaps[rng.random(count) < 0.3] = np.nan
    gaps[-1] = np.nan
    columns = {
        "k": rng.integers(-(2**62), 2**62, count),
        "flag": rng.random(count) < 0.5,
        "value": value,
        "gaps": gaps,
    }
    sio._write_table(tmp_path / "blocks.csv", columns)
    _cell_by_cell_table(columns, tmp_path / "cells.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def _float_problem(cell, what, index):
    """Why one cell breaks the schema, or None: the rules as float() and int() apply them."""
    if index:
        digits = cell.isascii() and cell.isdigit() and len(cell.lstrip("0")) <= 16
        if not (digits and 1 <= int(cell) < 2**53):
            return f"k must be a positive integer below 2**53, got {cell!r}"
    try:
        value = float(cell)
    except ValueError:
        return f"{what} cell {cell!r} is not numeric"
    return None if math.isfinite(value) else f"{what} cell {cell!r} is not finite"


def _float_read(path, names, index=False):
    """The schema read the plain way: the whole text split by str.splitlines, each cell by float().

    A refused file raises the CsvFormatError of its first bad row or cell.
    """
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    for line_no, row in enumerate(rows, start=2):
        problem = None if len(row) == len(names) else f"expected {len(names)} cells, got {len(row)}"
        for j, (cell, what) in enumerate(zip(row, names)):
            problem = problem or _float_problem(cell, what, index and j == 0)
        if problem:
            raise CsvFormatError(f"line {line_no}: {problem}", row=line_no)
    values = [float(cell) for row in rows for cell in row]
    return np.array(values, dtype=np.float64).reshape(len(rows), len(names))


def _outcome(read, path):
    """What read makes of path: its float array, or the refusal's (message, row).

    A warning fails the read.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return read(path)
    except CsvFormatError as exc:
        return str(exc), exc.row


def _same_outcome(got, want):
    if isinstance(want, tuple):
        return got == want
    # Bit patterns, so -0 and the subnormals count too.
    if not (isinstance(got, np.ndarray) and got.shape == want.shape):
        return False
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _read_log_columns(path):
    log = read_projection_log_csv(path, epanechnikov(), BandwidthSchedule(alpha=0.35))
    return np.column_stack([log.indices.astype(np.float64), log.projections, log.responses])


def _read_sample_columns(path):
    sample = read_sample_csv(path)
    return np.column_stack([sample.covariates, sample.responses])


def _parity_files(kind):
    """(file lines without line ends, reader, the reader's column names, index)."""
    rows = sio._BLOCK_LINES + 20
    if kind == "sample":
        sample = draw(reference_model(p=4), rows, 21)
        cells = np.column_stack([sample.covariates, sample.responses])
        names, read, index = ("x1", "x2", "x3", "x4", "y"), _read_sample_columns, False
    else:
        rng = np.random.default_rng(22)
        cells = np.column_stack([np.arange(1, rows + 1), rng.standard_normal((rows, 2))])
        names, read, index = ("k", "u", "y"), _read_log_columns, True
    lines = [",".join(names)]
    lines += [",".join([str(int(r[0])) if index else fmt(r[0]), *map(fmt, r[1:])]) for r in cells]
    return lines, read, names, index


def _joined(lines, i, line):
    return "\n".join(lines[:i] + [line] + lines[i + 1 :]) + "\n"


def _cell_edit(f, cell=1):
    """A case that rewrites one cell of the line with f."""
    def edit(lines, i):
        cells = lines[i].split(",")
        cells[cell] = f(cells[cell])
        return _joined(lines, i, ",".join(cells))

    return edit


_PARITY_CASES = {
    "blank-line": lambda lines, i: _joined(lines, i, "\n" + lines[i]),
    "whitespace-line": lambda lines, i: _joined(lines, i, " \t \n" + lines[i]),
    **{
        f"control-{name}": _cell_edit(lambda c, ch=ch: c + ch)
        for name, ch in [("ff", "\f"), ("vt", "\v"), ("x1c", "\x1c"), ("x1f", "\x1f"),
                         ("nul", "\x00"), ("nel", "\x85"), ("u2028", "\u2028")]
    },
    "hash": lambda lines, i: _joined(lines, i, "#" + lines[i]),
    "quoted-cell": _cell_edit(lambda c: f'"{c}"'),
    "trailing-comma": lambda lines, i: _joined(lines, i, lines[i] + ","),
    "underscore": _cell_edit(lambda c: "1_0"),
    "fullwidth-digit": _cell_edit(lambda c: "\uff17"),
    "no-break-space": _cell_edit(lambda c: "\u00a0" + c),
    "tab": _cell_edit(lambda c: "\t" + c + "\t"),
    "crlf": lambda lines, i: "\n".join(lines[:i]) + "\n" + "\r\n".join(lines[i:]) + "\r\n",
    "lone-cr": lambda lines, i: "\n".join(lines[:i]) + "\n" + "\r".join(lines[i:]) + "\r",
    "no-final-newline": lambda lines, i: "\n".join(lines[: i + 1]),
}
_LOG_INDEX_CASES = {
    "k-2.0": _cell_edit(lambda k: f"{k}.0", cell=0),
    "k-plus": _cell_edit(lambda k: f"+{k}", cell=0),
    "k-space": _cell_edit(lambda k: f" {k}", cell=0),
    "k-zero": _cell_edit(lambda k: "0", cell=0),
}
# File line 3 lies in the first read block, with the header; the other in the second.
_PARITY_LINES = {"first-block": 2, "second-block": sio._READ_LINES + 4}


@pytest.mark.parametrize("where", list(_PARITY_LINES))
@pytest.mark.parametrize(
    "kind, case",
    [(kind, case) for kind in ("sample", "log") for case in _PARITY_CASES]
    + [("log", case) for case in _LOG_INDEX_CASES],
)
def test_the_readers_match_a_cell_by_cell_float_read(tmp_path, kind, case, where):
    lines, read, names, index = _parity_files(kind)
    edit = {**_PARITY_CASES, **_LOG_INDEX_CASES}[case]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(edit(lines, _PARITY_LINES[where]).encode("utf-8"))
    want = _outcome(lambda p: _float_read(p, names, index), path)
    assert _same_outcome(_outcome(read, path), want), want if isinstance(want, tuple) else case


_NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_SCRAPS = st.text(
    alphabet=list("0123456789+-eE._ \t") + ["\f", "\v", "\x1c", "\x1f", "\x00", "\x85",
                                           "\u2028", "\uff11", "\u0661", "\u00a0"],
    max_size=6,
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    schema=st.sampled_from(
        [(("x1", "x2", "y"), False), (("k", "u", "y"), True), (("x", "k"), False)]
    ),
    lead=st.sampled_from([0, 1, sio._READ_LINES - 3]),
    cells=st.lists(st.one_of(_NUMBERS, _NUMBERS, _SCRAPS, st.integers(0, 10**17).map(str)),
                   min_size=1, max_size=12),
    end=st.sampled_from(["\n", "\r\n", "\r"]),
    final=st.booleans(),
)
def test_random_cells_read_as_a_cell_by_cell_float_read(tmp_path, schema, lead, cells, end, final):
    # lead well-formed lines come first, so the drawn ones lie in the first
    # block or across its edge.
    names, index = schema
    width = len(names)
    firsts = [str(i + 1) if index else "0.5" for i in range(lead)]
    plain = [",".join([first, *["-2.5"] * (width - 1)]) for first in firsts]
    drawn = [",".join(cells[a : a + width]) for a in range(0, len(cells), width)]
    path = tmp_path / "random.csv"
    text = end.join([",".join(names), *plain, *drawn]) + (end if final else "")
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(lambda p: sio._read_csv(p, sio._fixed_columns(*names), index), path)
    assert _same_outcome(got, _outcome(lambda p: _float_read(p, names, index), path))


@pytest.mark.parametrize(
    "text",
    ["x,k\n", "x,k\n\n", "x,k\n" + "1,0\n" * (sio._READ_LINES - 1) + "\n\n"],
    ids=["header-only", "one-blank-line", "second-block-blank"],
)
def test_a_block_without_cells_is_read_as_float_reads_it(tmp_path, text):
    # loadtxt warns when it finds no data line, and _outcome fails on that.
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    got = _outcome(lambda p: np.column_stack(read_kernel_table_csv(p)), path)
    assert _same_outcome(got, _outcome(lambda p: _float_read(p, ("x", "k")), path))


def test_a_well_formed_sample_is_never_read_cell_by_cell(tmp_path, monkeypatch):
    sample = draw(reference_model(p=6), 3000, 23)
    path = tmp_path / "sample.csv"
    write_sample_csv(sample, path)

    def refuse(*args):
        raise AssertionError("a well-formed block went to the per-cell path")

    monkeypatch.setattr(sio, "_scan_cells", refuse)
    back = read_sample_csv(path)
    assert np.array_equal(back.covariates, sample.covariates)
    assert np.array_equal(back.responses, sample.responses)
