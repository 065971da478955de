import json

import numpy as np
import pytest

from _cli import run_cli
from streamsir import draw, reference_model, run_stream, select_alpha, tabulated_kernel
from streamsir.io import read_sample_csv


def test_simulate_fit_predict_pipeline(tmp_path):
    r = run_cli(["simulate", "--n", "1000", "--seed", "0"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "sample.csv").exists()

    r = run_cli(["fit", "--input", "sample.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    for name in ("fit.json", "projection_log.csv", "grid_estimates.csv", "state.json"):
        assert (tmp_path / name).exists(), name
        assert name in r.stdout

    r = run_cli(
        ["predict", "--log", "projection_log.csv", "--at", "0,0.5,-0.5"], tmp_path
    )
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "predictions.csv").read_text().splitlines()
    assert lines[0] == "x,f_hat,supported"
    assert len(lines) == 4

    doc = json.loads((tmp_path / "fit.json").read_text())
    assert doc["n"] == 1000
    assert len(doc["theta_hat"]) == 10
    assert doc["schema_version"] == 1


def test_fit_below_warmup_fails_loudly(tmp_path):
    path = tmp_path / "tiny.csv"
    rows = ["x1,x2,x3,x4,y"] + [f"{i}.0,1.0,2.0,3.0,{i}.5" for i in range(5)]
    path.write_text("\n".join(rows) + "\n")
    r = run_cli(["fit", "--input", "tiny.csv"], tmp_path)
    assert r.returncode == 1
    assert "InsufficientDataError" in r.stderr


def test_cv_default_grid_reports_interior_argmin(tmp_path):
    r = run_cli(["cv", "--n", "1000", "--seed", "0", "--workers", "4"], tmp_path)
    assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / "cv.json").read_text())
    assert len(doc["grid"]) == 21
    assert doc["grid"][0] == 0.1 and doc["grid"][-1] == 0.6
    assert 0.1 < doc["argmin_alpha"] < 0.6


def test_predict_missing_log_names_the_path(tmp_path):
    r = run_cli(["predict", "--log", "absent.csv", "--at", "0"], tmp_path)
    assert r.returncode == 1
    assert "absent.csv" in r.stderr
    assert "CsvFormatError" in r.stderr


def test_predict_without_support_writes_empty_rows(tmp_path):
    r = run_cli(["simulate", "--n", "200", "--seed", "1"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["fit", "--input", "sample.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(
        ["predict", "--log", "projection_log.csv", "--at", "40.0"], tmp_path
    )
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "predictions.csv").read_text().splitlines()
    assert lines[1].split(",")[0] == "40"
    assert lines[1].split(",")[2] == "0"


def test_predict_refuses_a_non_finite_point(tmp_path):
    r = run_cli(["simulate", "--n", "200", "--seed", "1"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["fit", "--input", "sample.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    for point in ("nan", "0.5,inf"):
        r = run_cli(["predict", "--log", "projection_log.csv", "--at", point], tmp_path)
        assert r.returncode == 1, point
        assert "NonFiniteInputError" in r.stderr
    assert not (tmp_path / "predictions.csv").exists()


def test_study_scatter_and_rate_run_small(tmp_path):
    r = run_cli(
        ["study", "--kind", "scatter", "--n", "150", "--reps", "1", "--seed", "2"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "records.csv").exists()
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["study"] == "scatter"

    out2 = tmp_path / "rate"
    r = run_cli(
        [
            "study", "--kind", "rate", "--sizes", "100,200", "--reps", "3",
            "--eval-count", "2", "--seed", "0", "--out-dir", str(out2),
        ],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads((out2 / "summary.json").read_text())
    assert doc["study"] == "rate"


def test_normality_study_rejects_zero_noise(tmp_path):
    r = run_cli(
        [
            "study", "--kind", "normality", "--n", "200", "--reps", "2",
            "--noise-std", "0",
        ],
        tmp_path,
    )
    assert r.returncode == 1
    assert "StreamSirError" in r.stderr
    assert "noise_std" in r.stderr


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("alpha = 0.2\nn = 200\nseed = 4\n")
    r = run_cli(["fit", "--config", "engine.cfg", "--alpha", "0.3"], tmp_path)
    assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / "fit.json").read_text())
    assert doc["alpha"] == 0.3
    assert doc["n"] == 200


def test_out_dir_flag_beats_environment(tmp_path):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    r = run_cli(
        ["simulate", "--n", "50", "--out-dir", str(flag_dir)],
        tmp_path,
        env_extra={"STREAMSIR_OUTDIR": str(env_dir)},
    )
    assert r.returncode == 0, r.stderr
    assert (flag_dir / "sample.csv").exists()
    assert not env_dir.exists()

    r = run_cli(
        ["simulate", "--n", "50"],
        tmp_path,
        env_extra={"STREAMSIR_OUTDIR": str(env_dir)},
    )
    assert r.returncode == 0, r.stderr
    assert (env_dir / "sample.csv").exists()


def test_fitting_a_csv_equals_streaming_its_rows(tmp_path):
    r = run_cli(["simulate", "--n", "300", "--seed", "6"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["fit", "--input", "sample.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / "fit.json").read_text())

    sample = read_sample_csv(tmp_path / "sample.csv")
    state = run_stream(sample, alpha=0.35)
    assert doc["theta_hat"] == [float(f"{v:.17g}") for v in state.theta_hat]


def test_abbreviated_flags_are_rejected(tmp_path):
    r = run_cli(["fit", "--alph", "0.3", "--n", "100"], tmp_path)
    assert r.returncode == 2


def test_unknown_model_is_a_config_error(tmp_path):
    r = run_cli(["simulate", "--model", "mystery"], tmp_path)
    assert r.returncode == 1
    assert "ConfigError" in r.stderr


_TRIANGLE_XS = np.linspace(-1.0, 1.0, 201)
_TRIANGLE_KS = 1.0 - np.abs(_TRIANGLE_XS)
_TRIANGLE_ROWS = [f"{x:.17g},{k:.17g}" for x, k in zip(_TRIANGLE_XS, _TRIANGLE_KS)]


def _kernel_config(tmp_path, kernel_rows):
    """engine.cfg selecting the tabulated kernel from table.csv (x,k rows)."""
    (tmp_path / "table.csv").write_text("x,k\n" + "".join(f"{r}\n" for r in kernel_rows))
    (tmp_path / "engine.cfg").write_text("kernel = tabulated\nkernel_table = table.csv\n")


def test_cv_scores_with_the_configured_kernel(tmp_path):
    _kernel_config(tmp_path, _TRIANGLE_ROWS)
    args = ["cv", "--n", "400", "--seed", "3", "--grid-min", "0.2", "--grid-max", "0.4",
            "--grid-step", "0.1"]
    r = run_cli(args + ["--config", "engine.cfg"], tmp_path)
    assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / "cv.json").read_text())

    sample = draw(reference_model(p=10), 400, 3)
    triangle = tabulated_kernel(_TRIANGLE_XS, _TRIANGLE_KS)
    want = select_alpha(sample, [0.2, 0.3, 0.4], kernel=triangle)
    assert doc["scores"] == list(want.scores)
    assert doc["scores"] != list(select_alpha(sample, [0.2, 0.3, 0.4]).scores)


def test_cv_refuses_an_invalid_kernel_table(tmp_path):
    _kernel_config(tmp_path, ["-1,0", "0,0.5", "1,0"])  # mass 0.5, not 1
    r = run_cli(["cv", "--n", "200", "--config", "engine.cfg"], tmp_path)
    assert r.returncode == 1
    assert "invalid kernel table" in r.stderr
    assert not (tmp_path / "cv.json").exists()


def test_study_refuses_a_non_default_kernel(tmp_path):
    _kernel_config(tmp_path, _TRIANGLE_ROWS)
    r = run_cli(
        ["study", "--kind", "scatter", "--n", "150", "--config", "engine.cfg"], tmp_path
    )
    assert r.returncode == 1
    assert "StreamSirError" in r.stderr and "epanechnikov" in r.stderr
    assert not (tmp_path / "records.csv").exists()


@pytest.mark.parametrize(
    "args, artifact, message",
    [
        (["cv", "--n", "200", "--grid-min", "0.0"], "cv.json", "alpha must lie in (0, 1)"),
        (["cv", "--n", "200", "--grid-min", "0.5", "--grid-max", "0.3"], "cv.json", "non-empty"),
        (["cv", "--n", "200", "--workers", "-3"], "cv.json", "workers must be at least 1"),
        (["study", "--kind", "rate", "--sizes", "250,abc", "--reps", "2"], "records.csv", "'abc'"),
    ],
)
def test_bad_cv_and_study_input_is_a_one_line_error(tmp_path, args, artifact, message):
    r = run_cli(args, tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("StreamSirError: ") and message in r.stderr
    assert len(r.stderr.splitlines()) == 1, r.stderr
    assert not (tmp_path / artifact).exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--grid-step", "nan", "must be finite"),
        ("--grid-min", "nan", "must be finite"),
        ("--grid-max", "inf", "must be finite"),
        ("--grid-step", "1e-9", "more than 10000 points"),
    ],
)
def test_cv_refuses_a_non_finite_or_oversized_grid(tmp_path, flag, value, message):
    r = run_cli(["cv", "--n", "200", flag, value], tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("StreamSirError: ") and message in r.stderr
    assert len(r.stderr.splitlines()) == 1, r.stderr
    assert not (tmp_path / "cv.json").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["cv", "--n", "200", "--grid-step", "nan"],
        ["predict", "--log", "missing.csv", "--at", "0"],
        ["study", "--kind", "rate", "--sizes", "250,abc", "--reps", "2"],
    ],
    ids=["cv-nan-step", "predict-missing-log", "study-bad-sizes"],
)
def test_a_refused_run_leaves_no_output_directory(tmp_path, args):
    r = run_cli(args + ["--out-dir", "od/new"], tmp_path)
    assert r.returncode == 1, r.stderr
    assert not (tmp_path / "od").exists()


def test_predict_refuses_an_index_beyond_exact_doubles(tmp_path):
    (tmp_path / "log.csv").write_text("k,u,y\n1,0.0,1.0\n1e300,0.5,2.0\n")
    r = run_cli(["predict", "--log", "log.csv", "--at", "0"], tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("CsvFormatError: line 3: ")
    assert len(r.stderr.splitlines()) == 1, r.stderr
    assert not (tmp_path / "predictions.csv").exists()


def test_an_output_path_that_is_a_file_is_a_one_line_error(tmp_path):
    (tmp_path / "taken").write_text("")
    r = run_cli(["simulate", "--n", "50", "--out-dir", "taken"], tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("StreamSirError: cannot create output directory taken")
    assert len(r.stderr.splitlines()) == 1, r.stderr
