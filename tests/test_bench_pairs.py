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


def test_the_rules_are_the_benchmark_files_end_to_end_bounds():
    rules = bench_pairs.end_to_end_rules()
    assert rules == {
        "setup_s": {"bound": 0.25, "better": "lower"},
        "wall_s": {"bound": 0.25, "better": "lower"},
        "peak_rss_mb": {"bound": 0.1, "better": "lower"},
    }


def test_a_move_past_its_bound_in_the_worse_direction_is_flagged():
    # A fit set-up of 0.293 s against 0.387 s moved +32%, past its 0.25
    # bound; the wall time fell by a third, which no bound forbids; the
    # memory rose 9%, inside its 0.1 bound.
    parent = bench_pairs.run_values(json.loads(_result_line(0.293, 0.30, 50.0)))
    change = bench_pairs.run_values(json.loads(_result_line(0.387, 0.20, 54.5)))
    summary = bench_pairs.summarize([{"parent": parent, "change": change}])
    rules = bench_pairs.end_to_end_rules()
    verdict = bench_pairs.against_bounds(summary, rules)
    assert verdict["setup_s"] == {
        "relative_move": (0.387 - 0.293) / 0.293, "bound": 0.25, "past_bound": True,
    }
    assert verdict["wall_s"] == {
        "relative_move": (0.20 - 0.30) / 0.30, "bound": 0.25, "past_bound": False,
    }
    assert verdict["peak_rss_mb"] == {
        "relative_move": (54.5 - 50.0) / 50.0, "bound": 0.1, "past_bound": False,
    }
    # Where higher is better, the fall is the worse direction.
    higher = {name: dict(rule, better="higher") for name, rule in rules.items()}
    flipped = bench_pairs.against_bounds(summary, higher)
    assert flipped["wall_s"]["past_bound"] is True
    assert flipped["setup_s"]["past_bound"] is False


def _pairs(metric, parent, change):
    """Pairs of run_values that differ only in metric; the other metrics read 1.0."""
    def run(value):
        values = dict.fromkeys(bench_pairs.METRICS, 1.0) | {metric: value}
        return {**values, "correct": True, "attempted": 40, "failed": 0}
    return [{"parent": run(a), "change": run(b)} for a, b in zip(parent, change)]


def test_a_spread_wider_than_the_bound_is_unresolved():
    # Parent setup_s 0.30, 0.40, 0.50, 0.60: quartiles 0.375 and 0.525,
    # so IQR / median = 0.15 / 0.45 = 1/3, wider than the 0.25 bound.
    rules = bench_pairs.end_to_end_rules()
    parent = (0.30, 0.40, 0.50, 0.60)

    def verdict(change, rules=rules):
        pairs = _pairs("setup_s", parent, change)
        summary = bench_pairs.summarize(pairs)
        return bench_pairs.spread_verdicts(summary, pairs, rules)

    # A median move inside the bound (and one past it) tells nothing.
    inside = verdict((0.31, 0.41, 0.49, 0.62))
    assert inside["setup_s"] == {"parent_spread": pytest.approx(1 / 3), "unresolved": True}
    assert verdict((0.45, 0.55, 0.65, 0.75))["setup_s"]["unresolved"] is True
    # Every change run below every parent run: resolved, though as spread.
    assert verdict((0.10, 0.12, 0.20, 0.29))["setup_s"]["unresolved"] is False
    # A tie with the best parent run is not below it.
    assert verdict((0.10, 0.12, 0.20, 0.30))["setup_s"]["unresolved"] is True
    # Where higher is better, every change run must be above every parent run.
    higher = {name: dict(rule, better="higher") for name, rule in rules.items()}
    assert verdict((0.61, 0.70, 0.80, 0.90), higher)["setup_s"]["unresolved"] is False
    assert verdict((0.10, 0.12, 0.20, 0.29), higher)["setup_s"]["unresolved"] is True
    # The metrics whose runs did not spread are resolved.
    assert inside["wall_s"] == {"parent_spread": 0.0, "unresolved": False}


def test_a_spread_inside_the_bound_is_resolved():
    # Parent wall_s 0.20, 0.21, 0.22, 0.23: IQR / median 0.015 / 0.215.
    pairs = _pairs("wall_s", (0.20, 0.21, 0.22, 0.23), (0.30, 0.31, 0.32, 0.33))
    summary = bench_pairs.summarize(pairs)
    verdict = bench_pairs.spread_verdicts(summary, pairs, bench_pairs.end_to_end_rules())
    assert verdict["wall_s"] == {"parent_spread": pytest.approx(0.015 / 0.215), "unresolved": False}
