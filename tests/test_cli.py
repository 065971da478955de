import contextlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from functools import partial
from io import StringIO

import numpy as np
import pytest

from _cli import child_env, run_cli
from streamsir import (
    BandwidthSchedule,
    curve,
    draw,
    epanechnikov,
    init_stream,
    reference_model,
    run_stream,
    select_alpha,
    stream_step,
    tabulated_kernel,
)
from streamsir import CsvFormatError, cli, io
from streamsir.cli import run
from streamsir.config import SETTINGS, EngineConfig
from streamsir.io import read_sample_csv, write_projection_log_csv, write_sample_csv


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


def test_fit_and_cv_take_an_outlier_stream_that_the_per_arrival_loop_takes(tmp_path):
    # Row 1500 at 10^9 times its size leaves a later prefix covariance that
    # is not positive definite.  The prefix form hands back, so fit and cv
    # step the recursion and accept the stream, as stream_step does.
    sample = draw(reference_model(p=10), 3000, 3)
    sample.covariates[1500] *= 1e9
    write_sample_csv(sample, tmp_path / "outlier.csv")
    for command in ("fit", "cv"):
        r = run_cli([command, "--input", "outlier.csv"], tmp_path)
        assert r.returncode == 0, r.stderr

    sample = read_sample_csv(tmp_path / "outlier.csv")
    state = init_stream(sample.head(30), alpha=0.35)
    for i in range(30, sample.n):
        stream_step(state, sample.covariates[i], float(sample.responses[i]))
    write_projection_log_csv(state.log, tmp_path / "loop_log.csv")
    fitted = (tmp_path / "projection_log.csv").read_bytes()
    assert fitted == (tmp_path / "loop_log.csv").read_bytes()


_FIT_ARTIFACTS = ("fit.json", "projection_log.csv", "grid_estimates.csv", "state.json")


@pytest.mark.parametrize(
    "p, n, warmup, outlier",
    [
        pytest.param(10, 3000, None, None, id="prefix"),
        pytest.param(40, 700, None, None, id="recursion-p40"),
        # The prefix form hands back, and the file is read a second time.
        pytest.param(10, 3000, None, 1e9, id="hands-back"),
        # The warm-up spans the file's first two read blocks.
        pytest.param(10, 3000, 1500, None, id="warmup-1500"),
        pytest.param(10, 30 + 2 * 512 + 1, None, None, id="one-past-a-chunk"),
        pytest.param(10, 30, None, None, id="warm-up-only"),
    ],
)
def test_fit_streams_a_file_with_the_bits_of_its_sample_in_memory(
    tmp_path, monkeypatch, p, n, warmup, outlier
):
    # fit --input folds the file's blocks into stage 1 and never reads it
    # whole; a synthetic fit runs the same rows as one in-memory Sample.
    sample = draw(reference_model(p=p), n, 3)
    if outlier is not None:
        sample.covariates[1500] *= outlier
    write_sample_csv(sample, tmp_path / "sample.csv")
    flags = [] if warmup is None else ["--warmup", str(warmup)]

    def whole(path):
        raise AssertionError("fit read the sample whole")

    monkeypatch.setattr(io, "read_sample_csv", whole)
    with contextlib.redirect_stdout(StringIO()):
        assert run(["fit", "--input", str(tmp_path / "sample.csv"), "--out-dir",
                    str(tmp_path / "file"), *flags]) == 0
        monkeypatch.setattr(cli, "draw", lambda model, size, seed: sample)
        assert run(["fit", "--p", str(p), "--n", str(n), "--out-dir",
                    str(tmp_path / "memory"), *flags]) == 0
    for name in _FIT_ARTIFACTS:
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "memory" / name).read_bytes()


@pytest.mark.parametrize("outlier", [None, 1e9], ids=["prefix", "hands-back"])
def test_fit_grid_of_several_blocks_is_the_curve_of_its_log(tmp_path, outlier):
    # fit folds its log back from its temporary file for each block of grid
    # points; every block is linkreg.curve over the log fit wrote, also
    # where the prefix form hands back.
    sample = draw(reference_model(p=10), 3000, 3)
    if outlier is not None:
        sample.covariates[1500] *= outlier
    write_sample_csv(sample, tmp_path / "sample.csv")
    count = 2 * io._BLOCK_LINES + 37
    with contextlib.redirect_stdout(StringIO()):
        assert run(["fit", "--input", str(tmp_path / "sample.csv"), "--grid-count", str(count),
                    "--out-dir", str(tmp_path / "fit")]) == 0
    log = io.read_projection_log_csv(
        tmp_path / "fit" / "projection_log.csv", epanechnikov(), BandwidthSchedule(alpha=0.35)
    )
    read = partial(curve, log.kernel, u=log.projections, h=log.bandwidths, y=log.responses)
    io.write_grid_csv(EngineConfig(grid_count=count).grid_points(), read, tmp_path / "curve.csv")
    fitted = (tmp_path / "fit" / "grid_estimates.csv").read_bytes()
    assert fitted == (tmp_path / "curve.csv").read_bytes()


def test_one_fit_over_a_csv_holds_as_much_whatever_the_file_length(tmp_path):
    # fit folds each chunk of rows into stage 1 and its temporary log file,
    # and reads the log back a block at a time, so one run's traced peak
    # does not grow with the file: by at most 256 KiB from 20000 to 80000
    # rows.  Holding the log and the path's projections, it grew by about
    # 1.7 MiB.
    def peak(path):
        tracemalloc.start()
        try:
            assert run(["fit", "--input", str(path), "--out-dir", str(tmp_path / "out")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    paths = []
    for n in (20000, 80000):
        paths.append(tmp_path / f"{n}.csv")
        write_sample_csv(draw(reference_model(p=10), n, 9), paths[-1])
    with contextlib.redirect_stdout(StringIO()):
        # An untraced first run, so that no one-time allocation counts.
        assert run(["fit", "--input", str(paths[0]), "--out-dir", str(tmp_path / "out")]) == 0
        peaks = [peak(path) for path in paths]
    assert peaks[1] - peaks[0] <= 256 << 10, peaks


def _fit_error(tmp_path, name):
    """The one stderr line of a refused fit --input run on tmp_path / name."""
    r = run_cli(["fit", "--input", name], tmp_path)
    assert r.returncode == 1 and r.stderr.count("\n") == 1, r.stderr
    return r.stderr


def test_a_file_error_wins_over_an_engine_error_raised_before_it(tmp_path):
    # Row 1500 at 10^11 times its size: the prefix form hands back, and the
    # recursion breaks down at n = 2085, in the file's ninth read block.  A
    # malformed line eight blocks further on is still the error fit reports,
    # as when it read the whole file first.
    sample = draw(reference_model(p=10), 3000, 3)
    sample.covariates[1500] *= 1e11
    write_sample_csv(sample, tmp_path / "breaks.csv")
    assert _fit_error(tmp_path, "breaks.csv").startswith(
        "NumericalBreakdownError: rank-one update denominator"
    )
    text = (tmp_path / "breaks.csv").read_text()
    lines = text.splitlines(keepends=True)
    (tmp_path / "malformed.csv").write_text(text + "".join(lines[1:1100]) + "1,2,oops\n")
    with pytest.raises(CsvFormatError) as want:
        read_sample_csv(tmp_path / "malformed.csv")
    assert str(want.value).startswith("line 4101: ")
    assert _fit_error(tmp_path, "malformed.csv") == f"CsvFormatError: {want.value}\n"


@pytest.mark.parametrize(
    "p, error",
    [
        pytest.param(10, "CsvFormatError: line 3001: y cell 'oops' is not numeric\n",
                     id="bad-cell-in-the-last-read-block"),
        # Row 1500 at 10^100 times its size: the recursion (p = 40) takes it,
        # and a later rank-one denominator comes out negative.
        pytest.param(40, "NumericalBreakdownError: rank-one update denominator "
                     "-5.790294471610966e+178 is not finite and positive at n = 1504\n",
                     id="stage-1-refuses-the-stream"),
    ],
)
def test_a_fit_that_fails_after_rows_have_streamed_writes_nothing(tmp_path, p, error):
    # Stage 1 has folded whole chunks of rows by the time either error is
    # raised; the run still exits 1 with the error alone, and makes no
    # output directory.
    sample = draw(reference_model(p=p), 3000 if p == 10 else 2000, 3)
    if p == 40:
        sample.covariates[1500] *= 1e100
    write_sample_csv(sample, tmp_path / "sample.csv")
    if p == 10:
        text = (tmp_path / "sample.csv").read_text()
        (tmp_path / "sample.csv").write_text(text[: text.rindex(",") + 1] + "oops\n")
    r = run_cli(["fit", "--input", "sample.csv", "--out-dir", "od/new"], tmp_path)
    assert r.returncode == 1
    assert r.stderr == error
    assert not (tmp_path / "od").exists()


@pytest.mark.parametrize("spool", ["missing-directory", "full-disk"])
def test_a_fit_whose_temporary_log_fails_exits_with_one_line(tmp_path, monkeypatch, capsys, spool):
    # fit keeps its log in an anonymous temporary file.  A temporary
    # directory that is gone, or a disk that fills up as stage 1 writes,
    # ends the run with one error line and no output directory.
    if spool == "missing-directory":
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "gone"))
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        monkeypatch.setattr(tempfile, "TemporaryFile", lambda: open("/dev/full", "w+b"))
    write_sample_csv(draw(reference_model(p=10), 3000, 3), tmp_path / "sample.csv")
    argv = ["fit", "--input", str(tmp_path / "sample.csv"), "--out-dir", str(tmp_path / "od")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("StreamSirError: cannot use fit's temporary log file: ["), err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "od").exists()


def test_fit_refuses_an_empty_or_short_file_as_it_refuses_the_sample(tmp_path):
    (tmp_path / "empty.csv").write_text("x1,x2,y\n")
    assert _fit_error(tmp_path, "empty.csv") == "CsvFormatError: no data rows after header\n"
    write_sample_csv(draw(reference_model(p=4), 20, 4), tmp_path / "short.csv")
    assert _fit_error(tmp_path, "short.csv") == (
        "InsufficientDataError: sample has 20 rows but warm-up needs 30\n"
    )


def test_fit_state_json_holds_the_streamed_moments(tmp_path):
    r = run_cli(["fit", "--n", "400", "--seed", "7"], tmp_path)
    assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / "state.json").read_text())

    state = run_stream(draw(reference_model(p=10), 400, 7), alpha=0.35)
    moments = state.sir.moments
    want = {
        "schema_version": 1,
        "n": moments.n,
        "mean": moments.mean,
        "inv_cov": moments.inv_cov,
        "slice_counts": moments.slice_counts,
        "slice_means": moments.slice_means,
        "boundary": state.slicer.boundary,
    }
    assert sorted(doc) == sorted(want)
    for key, value in want.items():
        got, expected = np.asarray(doc[key]), np.asarray(value)
        assert got.dtype == expected.dtype and got.shape == expected.shape, key
        assert got.tobytes() == expected.tobytes(), key


def test_abbreviated_flags_are_rejected(tmp_path):
    r = run_cli(["fit", "--alph", "0.3", "--n", "100"], tmp_path)
    assert r.returncode == 2


@pytest.mark.parametrize("command", ["simulate", "fit", "cv"])
def test_model_flag_is_a_usage_error(tmp_path, command):
    # The synthetic model is always the reference one: no flag names it.
    r = run_cli([command, "--model", "reference"], tmp_path)
    assert r.returncode == 2
    assert "unrecognized arguments: --model" in r.stderr


def test_predict_seed_flag_is_a_usage_error(tmp_path):
    # predict reads a saved log and draws nothing, so it takes no seed.
    r = run_cli(["predict", "--log", "log.csv", "--at", "0", "--seed", "1"], tmp_path)
    assert r.returncode == 2
    assert "unrecognized arguments: --seed" in r.stderr


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
        (["study", "--kind", "rate", "--sizes", "250", "--reps", "2", "--workers", "0"],
         "records.csv", "workers must be at least 1"),
    ],
)
def test_bad_cv_and_study_input_is_a_one_line_error(tmp_path, args, artifact, message):
    r = run_cli(args, tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("StreamSirError: ") and message in r.stderr
    assert len(r.stderr.splitlines()) == 1, r.stderr
    assert not (tmp_path / artifact).exists()


@pytest.mark.parametrize(
    "args, key",
    [
        (["simulate", "--n", "5", "--noise-std", "nan"], "noise_std"),
        (["simulate", "--n", "5", "--noise-std", "inf"], "noise_std"),
        (["fit", "--n", "200", "--boundary", "nan"], "boundary"),
    ],
)
def test_a_non_finite_setting_is_a_one_line_config_error(tmp_path, args, key):
    r = run_cli(args + ["--out-dir", "od/new"], tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith(f"ConfigError: {key} must be finite"), r.stderr
    assert len(r.stderr.splitlines()) == 1, r.stderr
    assert not (tmp_path / "od").exists()


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
        ["fit", "--n", "200", "--kernel-table", "table.csv"],
    ],
    ids=["cv-nan-step", "predict-missing-log", "study-bad-sizes", "fit-table-without-kernel"],
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


@pytest.mark.parametrize(
    "args",
    [["--input", "/nonexistent.csv"], ["--config", "input.cfg"]],
    ids=["flag", "config-key"],
)
def test_simulate_refuses_an_input(tmp_path, args):
    # simulate only draws; an input it would ignore is refused, not dropped.
    (tmp_path / "input.cfg").write_text("input = /nonexistent.csv\n")
    r = run_cli(["simulate", "--n", "50", *args], tmp_path)
    assert r.returncode != 0
    assert len(r.stderr.splitlines()) == 1 and "input" in r.stderr, r.stderr
    assert not (tmp_path / "sample.csv").exists()


_STUDY = ["study", "--kind", "scatter", "--n", "200", "--reps", "2"]


@pytest.mark.parametrize(
    "args, config",
    [
        (["predict", "--log", "log.csv", "--at", "0"], "input = nothere.csv\n"),
        (_STUDY, "input = nothere.csv\n"),
        # With an input set, only the engine would refuse this warm-up.
        (_STUDY, "input = nothere.csv\nwarmup = 5\n"),
    ],
    ids=["predict", "study", "study-warmup"],
)
def test_predict_and_study_refuse_a_config_input(tmp_path, args, config):
    # Only fit and cv read a sample; an input the others would ignore is refused.
    (tmp_path / "a.cfg").write_text(config)
    (tmp_path / "log.csv").write_text("k,u,y\n1,0.0,1.0\n")
    r = run_cli(args + ["--config", "a.cfg", "--out-dir", "od/new"], tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("ConfigError: ") and "input" in r.stderr, r.stderr
    assert len(r.stderr.splitlines()) == 1, r.stderr
    assert not (tmp_path / "od").exists()


_REQUIRED = {"predict": ["--log", "log.csv", "--at", "0"], "study": ["--kind", "rate"]}


def test_each_listed_setting_has_a_flag_of_its_type():
    parser = cli._build_parser()
    for name, (_, _, keys) in cli._COMMANDS.items():
        for key in keys:
            assert key in SETTINGS, (name, key)
            kind = SETTINGS[key][0]
            flag = "--" + key.replace("_", "-")
            args = parser.parse_args([name, *_REQUIRED.get(name, []), flag, "7"])
            assert getattr(args, key) == kind("7"), (name, key)


def test_an_output_path_that_is_a_file_is_a_one_line_error(tmp_path):
    (tmp_path / "taken").write_text("")
    r = run_cli(["simulate", "--n", "50", "--out-dir", "taken"], tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("StreamSirError: cannot create output directory taken")
    assert len(r.stderr.splitlines()) == 1, r.stderr


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--grid-max", "inf", "grid_max must be finite"),
        ("--grid-min", "nan", "grid_min must be finite"),
    ],
)
def test_fit_refuses_a_non_finite_grid_end(tmp_path, flag, value, message):
    count = "5" if flag == "--grid-max" else "1"
    args = ["fit", "--n", "200", flag, value, "--grid-count", count, "--out-dir", "od/new"]
    r = run_cli(args, tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("ConfigError: ") and message in r.stderr
    assert len(r.stderr.splitlines()) == 1, r.stderr
    assert not (tmp_path / "od").exists()


def test_predict_refuses_an_index_that_is_not_decimal_digits(tmp_path):
    (tmp_path / "log.csv").write_text("k,u,y\n1,0.0,1.0\n2.0000000000000001,0.5,2.0\n")
    r = run_cli(["predict", "--log", "log.csv", "--at", "0"], tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("CsvFormatError: line 3: ")
    assert len(r.stderr.splitlines()) == 1, r.stderr
    assert not (tmp_path / "predictions.csv").exists()


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_predict_at_the_fit_grid_writes_the_fit_curve(tmp_path):
    r = run_cli(["fit", "--n", "1000", "--seed", "3"], tmp_path)
    assert r.returncode == 0, r.stderr
    grid = _csv_rows(tmp_path / "grid_estimates.csv")
    at = ",".join(row[0] for row in grid)
    r = run_cli(["predict", "--log", "projection_log.csv", f"--at={at}"], tmp_path)
    assert r.returncode == 0, r.stderr
    rows = _csv_rows(tmp_path / "predictions.csv")
    assert len(rows) == len(grid) == 121
    supported = 0
    for (x, f_hat, _, count), (px, pf, flag) in zip(grid, rows):
        assert px == x
        if f_hat == "nan":
            assert (pf, flag, count) == ("", "0", "0"), x
        else:
            assert (pf, flag) == (f_hat, "1"), x
            supported += 1
    assert supported > 60


@pytest.mark.parametrize(
    "config, flags",
    [
        ("grid_count = 1e400\n", []),
        ("seed = NaN\n", []),
        ("n = Infinity\n", []),
        ("", ["--grid-count", "1000001"]),
    ],
)
def test_fit_refuses_a_bad_integer_or_grid_count_in_one_line(tmp_path, config, flags):
    (tmp_path / "run.cfg").write_text(config)
    r = run_cli(["fit", "--config", "run.cfg", "--out-dir", "made", *flags], tmp_path)
    assert r.returncode == 1
    assert r.stderr.count("\n") == 1 and r.stderr.startswith("ConfigError: "), r.stderr
    assert not (tmp_path / "made").exists()


_PEAK_RSS = """
import resource, sys
from streamsir.cli import run
assert run(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_fit_peak_memory_does_not_grow_with_the_grid(tmp_path):
    # The grid is read and written a block at a time: 300000 points add
    # their 2.4 MB points array, not the 18 MB text of the file.
    peaks = []
    for count in ("2000", "300000"):
        out = tmp_path / count
        r = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, "fit", "--n", "200", "--grid-count", count,
             "--out-dir", str(out)],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        assert len((out / "grid_estimates.csv").read_text().splitlines()) == int(count) + 1
        peaks.append(int(r.stdout.splitlines()[-1]) / 1024)  # ru_maxrss is in KiB
    assert peaks[1] - peaks[0] < 5.0, peaks


def test_cv_peak_memory_does_not_grow_with_the_grid(tmp_path):
    # One replay scores the whole grid in chunks of queries whose temporaries
    # all exponents share; 41 exponents add only their per-exponent rows of
    # bandwidths and sums (about 1.5 MB at n = 2000), not a chunk each.
    peaks = []
    for step, count in (("0.05", 9), ("0.01", 41)):
        out = tmp_path / step
        r = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, "cv", "--n", "2000", "--seed", "11",
             "--grid-min", "0.1", "--grid-max", "0.5", "--grid-step", step,
             "--out-dir", str(out)],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        assert len(json.loads((out / "cv.json").read_text())["grid"]) == count
        peaks.append(int(r.stdout.splitlines()[-1]) / 1024)  # ru_maxrss is in KiB
    assert peaks[1] - peaks[0] < 3.0, peaks
