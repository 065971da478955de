"""Set-up time of one workload, measured inside a fresh interpreter.

Times `import streamsir` and `import streamsir.cli` plus the generation of
the workload's inputs, from the first statement of this script, and prints
the seconds as its last line.  `run.py` starts it several times per run:

    python3 perfbench/setup_probe.py --workload fit --seed 0 --dir <empty dir>

Started with `python3 -X importtime`, it also yields the import breakdown.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import streamsir  # noqa: E402,F401
import streamsir.cli  # noqa: E402,F401

from workloads import make_inputs  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    make_inputs(args.workload, args.seed, Path(args.dir))
    print(f"{time.perf_counter() - T0:.9f}")


if __name__ == "__main__":
    main()
