"""Run the benchmark on two checkouts in alternating pairs and summarize.

    python scripts/bench_pairs.py --parent DIR --change DIR --workload W [W ...] \
        --pairs N --seconds S --out FILE

For each workload, pair i (i = 0 .. N - 1) runs `perfbench/run.py
--workload W --seed 11 + i --seconds S --trace 0` once in each checkout,
the parent first in even pairs and the change first in odd ones, each run
from the root of its checkout.  The last line a run prints is its JSON
result.  FILE gets, per workload, every pair's `setup_s`, `wall_s` and
`peak_rss_mb` with each run's `correct`, `attempted` and `failed`, and a
summary: each side's median, the parent's interquartile range, the
number of pairs the change won (a lower value; ties count for neither),
and the change median's relative move against the parent median next to
the metric's `bound` from the repository's BENCHMARK.json (read only).
`past_bound` flags a move past the bound in the worse direction, the
move that gets a change refused.  `unresolved` flags a metric whose
parent runs spread wider than its bound (IQR / median, `parent_spread`),
so that no median move can be read as a pass or a fail, unless every
change run reads better than every parent run.  Both kinds of flagged
metric are also printed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

METRICS = ("setup_s", "wall_s", "peak_rss_mb")
FIRST_SEED = 11
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def last_json_line(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def run_values(result: dict) -> dict:
    """One run's end-to-end metrics and its check and failure counts."""
    out = {name: float(result["metrics"][name]["value"]) for name in METRICS}
    out.update(
        correct=bool(result["correct"]), attempted=result["attempted"], failed=result["failed"]
    )
    return out


def summarize(pairs: list[dict]) -> dict:
    """Medians, the parent's interquartile range and the change's wins, per metric.

    pairs holds one {"parent": run_values, "change": run_values} per pair.
    """
    summary = {}
    for name in METRICS:
        parent = np.array([p["parent"][name] for p in pairs])
        change = np.array([p["change"][name] for p in pairs])
        q1, q3 = np.percentile(parent, [25, 75])
        summary[name] = {
            "parent_median": float(np.median(parent)),
            "change_median": float(np.median(change)),
            "parent_iqr": float(q3 - q1),
            "change_wins": int(np.count_nonzero(change < parent)),
            "pairs": len(pairs),
        }
    runs = [p[side] for p in pairs for side in ("parent", "change")]
    summary["all_correct"] = all(r["correct"] and r["failed"] == 0 for r in runs)
    return summary


def end_to_end_rules(path: Path = BENCHMARK) -> dict:
    """Each end-to-end metric's bound and better direction, as BENCHMARK.json declares them."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: {"bound": float(m["bound"]), "better": m["better"]} for m in doc["end_to_end"]}


def against_bounds(summary: dict, rules: dict) -> dict:
    """Per metric, the change median's relative move against the parent median and its bound.

    past_bound is true when the move is worse than the bound allows: a rise
    past it for a metric where lower is better, a fall past it otherwise.
    """
    out = {}
    for name in METRICS:
        medians, rule = summary[name], rules[name]
        move = (medians["change_median"] - medians["parent_median"]) / medians["parent_median"]
        worse = move if rule["better"] == "lower" else -move
        out[name] = {"relative_move": move, "bound": rule["bound"], "past_bound": worse > rule["bound"]}
    return out


def spread_verdicts(summary: dict, pairs: list[dict], rules: dict) -> dict:
    """Per metric, the parent's spread IQR / median and whether the metric is unresolved.

    A metric is unresolved when that spread is wider than its bound, unless
    every change run reads better than every parent run (lower or higher,
    as the rule says).
    """
    out = {}
    for name in METRICS:
        parent = np.array([p["parent"][name] for p in pairs])
        change = np.array([p["change"][name] for p in pairs])
        spread = summary[name]["parent_iqr"] / summary[name]["parent_median"]
        if rules[name]["better"] == "lower":
            separated = change.max() < parent.min()
        else:
            separated = change.min() > parent.max()
        unresolved = spread > rules[name]["bound"] and not separated
        out[name] = {"parent_spread": spread, "unresolved": bool(unresolved)}
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"{checkout}: {workload} at seed {seed} exited {done.returncode}\n{done.stderr}"
        )
    return run_values(last_json_line(done.stdout))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True, help="perfbench workload(s)")
    parser.add_argument("--pairs", type=int, required=True, help="pairs per workload")
    parser.add_argument("--seconds", type=float, required=True, help="run length of each run")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    rules = end_to_end_rules()
    sides = {"parent": args.parent, "change": args.change}
    doc = {"seconds": args.seconds, "first_seed": FIRST_SEED, "workloads": {}}
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": FIRST_SEED + i, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, FIRST_SEED + i, args.seconds)
            pairs.append(pair)
            print(f"{workload} pair {i}: " + "  ".join(
                f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}"
                for name in METRICS
            ), file=sys.stderr)
        summary = summarize(pairs)
        bounds, spreads = against_bounds(summary, rules), spread_verdicts(summary, pairs, rules)
        for name in METRICS:
            verdict = {**bounds[name], **spreads[name]}
            summary[name].update(verdict)
            if verdict["past_bound"]:
                print(f"{workload} {name}: PAST BOUND, median moved {verdict['relative_move']:+.1%}"
                      f" against a bound of {verdict['bound']:.0%}", file=sys.stderr)
            if verdict["unresolved"]:
                print(f"{workload} {name}: UNRESOLVED, parent IQR / median is"
                      f" {verdict['parent_spread']:.1%} against a bound of {verdict['bound']:.0%}",
                      file=sys.stderr)
        doc["workloads"][workload] = {"pairs": pairs, "summary": summary}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
