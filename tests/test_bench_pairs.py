import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _result_line(setup, wall, rss, correct=True, failed=0):
    metrics = {
        "setup_s": {"value": setup, "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    doc = {"correct": correct, "attempted": 40, "failed": failed, "metrics": metrics}
    return json.dumps(doc)


# What a run prints: one line per metric, then the JSON result.
_PARENT = "wall_s  0.21 s  (n=33)\n" + _result_line(0.19, 0.21, 43.5) + "\n\n"
_CHANGE = "wall_s  0.14 s  (n=59)\n" + _result_line(0.22, 0.14, 43.5) + "\n"


def test_summary_of_two_result_lines():
    parent = bench_pairs.run_values(bench_pairs.last_json_line(_PARENT))
    change = bench_pairs.run_values(bench_pairs.last_json_line(_CHANGE))
    assert parent == {
        "setup_s": 0.19, "wall_s": 0.21, "peak_rss_mb": 43.5,
        "correct": True, "attempted": 40, "failed": 0,
    }
    summary = bench_pairs.summarize([{"parent": parent, "change": change}])
    assert summary["wall_s"] == {
        "parent_median": 0.21, "change_median": 0.14, "parent_iqr": 0.0,
        "change_wins": 1, "pairs": 1,
    }
    # A higher value and a tie are not wins.
    assert summary["setup_s"]["change_wins"] == 0
    assert summary["peak_rss_mb"]["change_wins"] == 0
    assert summary["all_correct"] is True


def test_summary_over_pairs_and_a_failed_run():
    runs = [
        bench_pairs.run_values(json.loads(_result_line(0.1, wall, 40.0, failed=int(wall > 0.3))))
        for wall in (0.20, 0.10, 0.30, 0.15, 0.40, 0.35, 0.25, 0.12)
    ]
    pairs = [{"parent": runs[i], "change": runs[i + 1]} for i in range(0, 8, 2)]
    wall = bench_pairs.summarize(pairs)["wall_s"]
    # Parent 0.20, 0.30, 0.40, 0.25; change 0.10, 0.15, 0.35, 0.12.  The
    # quartiles interpolate linearly: 0.2375 and 0.325.
    assert wall["parent_median"] == pytest.approx(0.275)
    assert wall["change_median"] == pytest.approx(0.135)
    assert wall["parent_iqr"] == pytest.approx(0.325 - 0.2375)
    assert wall["change_wins"] == 4
    assert bench_pairs.summarize(pairs)["all_correct"] is False


def test_a_run_that_printed_nothing_is_an_error():
    with pytest.raises(ValueError, match="printed nothing"):
        bench_pairs.last_json_line("\n\n")
