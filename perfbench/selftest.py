"""Self-test of the output checks: each must pass real output and fail a perturbed one.

    python3 perfbench/selftest.py

Produces real outputs with the package (fit and cv on small samples, the
study workload at full size), feeds every checker the unmodified output and
then perturbed copies, and exits non-zero unless the unmodified outputs pass
and every perturbation is caught.  Takes about ten seconds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from streamsir import draw, reference_model, run_stream  # noqa: E402
from streamsir.io import write_sample_csv  # noqa: E402

SEED = 7


def nudge(value: float, rel: float) -> float:
    return float(value) * (1.0 + rel)


def fit_cases(sample, out: dict):
    yield "fit: unmodified", out, True
    bad = copy.deepcopy(out)
    bad["fit"]["theta_hat"][1] = nudge(bad["fit"]["theta_hat"][1], 1e-6)
    yield "fit: theta_hat component off by 1e-6 relative", bad, False
    bad = copy.deepcopy(out)
    j = int(np.flatnonzero(~np.isnan(bad["grid"][:, 1]))[len(bad["grid"]) // 4])
    bad["grid"][j, 1] = nudge(bad["grid"][j, 1], 1e-7)
    yield "fit: one grid estimate off by 1e-7 relative", bad, False
    bad = copy.deepcopy(out)
    bad["grid"][j, 1] = np.nan
    yield "fit: one supported grid point written as unsupported", bad, False
    bad = copy.deepcopy(out)
    bad["log"] = bad["log"][:-1]
    yield "fit: projection log missing its last row", bad, False


def cv_cases(doc: dict):
    yield "cv: unmodified", doc, True
    bad = copy.deepcopy(doc)
    bad["scores"][4] = nudge(bad["scores"][4], 1e-8)
    yield "cv: one score off by 1e-8 relative", bad, False
    bad = copy.deepcopy(doc)
    bad["skipped"][0] += 1
    bad["counted"][0] -= 1
    yield "cv: one skip count off by one", bad, False
    bad = copy.deepcopy(doc)
    bad["argmin_index"] = (bad["argmin_index"] + 1) % len(bad["grid"])
    yield "cv: argmin pointing at another candidate", bad, False


def study_cases(records):
    header, rows = records
    yield "study: unmodified", records, True
    yield "study: one record dropped", (header, rows[:-1]), False
    est = header.index("estimate")
    bad = [list(r) for r in rows]
    first = next(r for r in bad if r[0] == "0" and r[est] != "")
    first[est] = "{:.17g}".format(np.nextafter(float(first[est]), np.inf))
    yield "study: a replication-0 estimate one ulp off", (header, bad), False


def main() -> int:
    import streamsir.cli

    work = Path(__file__).resolve().parent.parent / ".perfbench_runs" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    results = []
    try:
        model = reference_model(p=wl.P)

        def cli(argv):
            status = streamsir.cli.run(argv)
            if status != 0:
                raise SystemExit(f"streamsir {argv[0]} exited with {status}")

        sample = draw(model, 2000, SEED)
        inputs = {"csv": str(work / "sample.csv")}
        write_sample_csv(sample, inputs["csv"])
        cli(wl.cli_argv("fit", inputs, work / "fit"))
        out = checks.load_fit(work / "fit")
        for label, case, ok in fit_cases(sample, out):
            results.append((label, ok, not checks.check_fit(case, sample)))
        theta = run_stream(sample, warmup=wl.WARMUP).theta_hat
        results.append(("direction: unmodified", True, not checks.check_direction(theta, sample)))
        bad = theta.copy()
        bad[0] = nudge(bad[0], 1e-6)
        results.append(("direction: component off by 1e-6 relative", False, not checks.check_direction(bad, sample)))

        small = draw(model, 400, SEED)
        write_sample_csv(small, inputs["csv"])
        cli(wl.cli_argv("cv", inputs, work / "cv"))
        doc = json.loads((work / "cv" / "cv.json").read_text(encoding="utf-8"))
        for label, case, ok in cv_cases(doc):
            results.append((label, ok, not checks.check_cv(case, small)))

        cli(wl.cli_argv("study", {"seed": SEED}, work / "study"))
        records = checks.load_study(work / "study")
        for label, case, ok in study_cases(records):
            results.append((label, ok, not checks.check_study(case, SEED)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wrong = 0
    for label, expected, passed in results:
        good = expected == passed
        wrong += not good
        verdict = "passes" if passed else "fails"
        print(f"{'ok ' if good else 'BAD'} {label}: check {verdict}")
    print(f"{len(results) - wrong}/{len(results)} checker expectations met")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
