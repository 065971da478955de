"""Run the benchmark on two checkouts in alternating pairs and summarize.

    python scripts/bench_pairs.py --parent DIR --change DIR --workload W [W ...] \
        --pairs N --seconds S --out FILE

For each workload, pair i (i = 0 .. N - 1) runs `perfbench/run.py
--workload W --seed 11 + i --seconds S --trace 0` once in each checkout,
the parent first in even pairs and the change first in odd ones, each run
from the root of its checkout.  The last line a run prints is its JSON
result.  FILE gets, per workload, every pair's `setup_s`, `wall_s` and
`peak_rss_mb` with each run's `correct`, `attempted` and `failed`, and a
summary: each side's median, the parent's interquartile range and the
number of pairs the change won (a lower value; ties count for neither).
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
        doc["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs)}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
