import json
import math

import numpy as np
import pytest

from streamsir import (
    BandwidthSchedule,
    CsvFormatError,
    ProjectionLog,
    Sample,
    Slicer,
    curve,
    draw,
    epanechnikov,
    reference_model,
)
from streamsir.io import (
    fmt,
    moment_state_from_dict,
    moment_state_to_dict,
    read_kernel_table_csv,
    read_projection_log_csv,
    read_sample_csv,
    write_grid_csv,
    write_json,
    write_projection_log_csv,
    write_records_csv,
    write_sample_csv,
)
from streamsir.moments import batch_moments


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
    est, den, count = curve(
        epanechnikov(), points, np.array([0.1]), np.array([0.5]), np.array([2.0])
    )
    path = tmp_path / "grid.csv"
    write_grid_csv(points, est, den, count, path)
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


def test_moment_state_json_round_trip(tmp_path):
    sample = draw(reference_model(p=4), 30, 1)
    slicer = Slicer(boundary=float(np.median(sample.responses)))
    state = batch_moments(sample, slicer)
    doc = moment_state_to_dict(state, slicer)
    path = tmp_path / "state.json"
    write_json(doc, path)
    loaded = json.loads(path.read_text())
    back, back_slicer = moment_state_from_dict(loaded)
    assert back_slicer.boundary == slicer.boundary
    assert back.n == state.n
    assert np.array_equal(back.mean, state.mean)
    assert np.array_equal(back.inv_cov, state.inv_cov)
    assert np.array_equal(back.slice_counts, state.slice_counts)
    assert np.array_equal(back.slice_means, state.slice_means)


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
        ["rep", "flag", "count", "value", "note"],
        [{"rep": 0, "flag": True, "count": 7, "value": 0.1, "note": None}],
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
    "index", ["1e300", "9223372036854775808", "9007199254740993", "9007199254740992"]
)
def test_projection_log_refuses_an_index_a_double_cannot_hold(tmp_path, index):
    # float() rounds 2**53 + 1 to 2**53, and int64 overflows further up.
    kernel = epanechnikov()
    schedule = BandwidthSchedule(alpha=0.35)
    path = tmp_path / "log.csv"
    path.write_text(f"k,u,y\n1,0.0,1.0\n{index},0.5,2.0\n")
    with pytest.raises(CsvFormatError, match="line 3") as exc:
        read_projection_log_csv(path, kernel, schedule)
    assert exc.value.row == 3
    path.write_text("k,u,y\n1,0.0,1.0\n9007199254740991,0.5,2.0\n")
    assert read_projection_log_csv(path, kernel, schedule).indices[-1] == 2**53 - 1
