import importlib.util
import json
from pathlib import Path

from streamsir import BandwidthSchedule, epanechnikov
from streamsir.io import read_kernel_table_csv, read_projection_log_csv, read_sample_csv

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_audit.py"
_spec = importlib.util.spec_from_file_location("artifact_audit", SCRIPT)
artifact_audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_audit)

_SUMMARY = {"study": "rate", "slopes": {"0": {"slope": -0.35, "ci": [-0.4, -0.3]}}, "n": 7}
_RECORDS = "rep,estimate,abs_error\n0,1.5,5.8e-05\n1,2.5,0.25\n"


def _write(root: Path, summary: dict, records: str) -> Path:
    (root / "rate").mkdir(parents=True)
    (root / "rate" / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    (root / "rate" / "records.csv").write_text(records, encoding="utf-8")
    return root


def test_compare_prints_relative_and_absolute_differences_per_key(tmp_path, capsys):
    moved = {**_SUMMARY, "slopes": {"0": {"slope": -0.349999999, "ci": [-0.4, -0.3]}}}
    a = _write(tmp_path / "a", _SUMMARY, _RECORDS)
    # abs_error moves by 1e-15 at 5.8e-5, a last-digit move of a small value:
    # 1.7e-11 relative but only 1e-15 absolute.
    b = _write(tmp_path / "b", moved, _RECORDS.replace("5.8e-05", "5.8000000001e-05"))
    assert artifact_audit.compare(a, b) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "rate/records.csv  max rel 1.72e-11 at line 2 cell 3 (5.8e-05 vs 5.8000000001e-05)",
        "    abs_error  max rel 1.72e-11  max abs 1e-15",
        "rate/summary.json  max rel 2.86e-09 at .slopes.0.slope (-0.35 vs -0.349999999)",
        "    slope  max rel 2.86e-09  max abs 1e-09",
        "0 identical, 2 differ",
    ]


def test_compare_counts_identical_files_and_reports_layout_changes(tmp_path, capsys):
    a = _write(tmp_path / "a", _SUMMARY, _RECORDS)
    b = _write(tmp_path / "b", {**_SUMMARY, "n": "seven"}, _RECORDS)
    artifact_audit.compare(a, b)
    assert capsys.readouterr().out.splitlines() == [
        "rate/summary.json  .n: 7 != 'seven'",
        "1 identical, 1 differ",
    ]


def test_absolute_and_relative_differences_of_special_values():
    nan, inf = float("nan"), float("inf")
    assert artifact_audit._abs(nan, nan) == 0.0 == artifact_audit._rel(nan, nan)
    assert artifact_audit._abs(1.0, nan) == inf == artifact_audit._rel(inf, 1.0)
    assert artifact_audit._abs(-2.0, 2.0) == 4.0
    assert artifact_audit._rel(-2.0, 2.0) == 2.0


def test_reader_inputs_are_fixed_and_span_two_read_blocks(tmp_path):
    paths = artifact_audit.write_reader_inputs(tmp_path / "a")
    assert paths == artifact_audit.write_reader_inputs(tmp_path / "b")
    for rel in paths:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    log = read_projection_log_csv(
        tmp_path / "a" / artifact_audit.READER_LOG, epanechnikov(), BandwidthSchedule(alpha=0.35)
    )
    sample = read_sample_csv(tmp_path / "a" / artifact_audit.READER_SAMPLE)
    assert len(log) == sample.n == artifact_audit.READER_ROWS > 1024
    assert read_kernel_table_csv(tmp_path / "a" / "kernel_table.csv")[0].tolist() == [-1.5, 0.0, 1.5]
