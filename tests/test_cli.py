"""End-to-end tests of the command-line interface."""

import json
import re
import os
import warnings

import numpy as np
import pytest

from voldeconv import ExperimentConfig, OUParams, RegimeSwitchParams, emit_report
from voldeconv import mix_seed, run_experiment
from voldeconv.cli import main

PARAMS_OU = "a = 2.0\nmu = 0.0\nb = 2.0\n"
PARAMS_REGIME = "a = 4.0\nb = 1.0\nmu0 = -2.0\nmu1 = 2.0\na0 = 1.0\na1 = 1.0\n"


def test_kernel_table_plain(tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert main(["kernel-table", "--kernel", "poly3", "--grid=-2:2:5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# kernel = poly3")
    assert lines[1] == "x,w,phi_w"
    assert len(lines) == 2 + 5
    row = lines[4].split(",")  # x = 0
    assert float(row[0]) == 0.0
    assert float(row[1]) == pytest.approx(16.0 / (35.0 * np.pi), rel=1e-12)
    assert float(row[2]) == 1.0


def test_kernel_table_deconv(tmp_path):
    out = tmp_path / "v.csv"
    assert main([
        "kernel-table", "--deconv", "-h", "0.8", "--grid=-8:8:11", "--out", str(out)
    ]) == 0
    lines = out.read_text().splitlines()
    assert "h = 0.8" in lines[0] and "sup_bound = " in lines[0]
    assert lines[1] == "x,v_h"
    assert len(lines) == 2 + 11
    vals = np.array([[float(c) for c in ln.split(",")] for ln in lines[2:]])
    sup = float(lines[0].split("sup_bound = ")[1])
    assert np.max(np.abs(vals[:, 1])) <= sup * (1.0 + 1e-12)
    # the deconvolver is not even: the direction matters
    assert not np.allclose(vals[:, 1], vals[::-1, 1])


def test_kernel_table_names_an_infinite_bandwidth(capsys):
    assert main(["kernel-table", "--deconv", "-h", "inf", "--grid=-1:1:3"]) == 1
    assert "bandwidth must be finite and positive, got inf" in capsys.readouterr().err


def test_kernel_table_deconv_needs_a_bandwidth(capsys):
    assert main(["kernel-table", "--deconv", "--grid=-1:1:3"]) == 1
    assert "error: kernel-table --deconv requires -h <bandwidth>" in capsys.readouterr().err


def test_kernel_table_unknown_kernel(tmp_path, capsys):
    assert main(["kernel-table", "--kernel", "tricube", "--grid=-1:1:3"]) == 1
    assert "poly3" in capsys.readouterr().err


def test_simulate_and_estimate_round_trip(tmp_path):
    params = tmp_path / "ou.params"
    params.write_text(PARAMS_OU)
    inc_file = tmp_path / "inc.txt"
    assert main([
        "simulate", "--model", "ou", "--params", str(params),
        "--n", "2000", "--delta", "0.02", "--seed", "7", "--out", str(inc_file),
    ]) == 0
    increments = np.loadtxt(inc_file)
    assert increments.shape == (2000,)
    meta = json.loads((tmp_path / "inc.txt.meta.json").read_text())
    assert meta["model"] == "ou" and meta["n"] == 2000 and meta["seed"] == 7
    assert meta["delta"] == 0.02

    est_file = tmp_path / "est.csv"
    assert main([
        "estimate", "--input", str(inc_file), "--delta", "0.02",
        "--times", "1.0", "--gamma", "9.0", "--bandwidth", "1.0",
        "--grid=-6:6:25", "--out", str(est_file),
    ]) == 0
    lines = est_file.read_text().splitlines()
    assert lines[0] == "x,f_hat"
    data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    assert data.shape == (25, 2)
    # mass over the grid is near 1 at this bandwidth
    assert abs(np.trapezoid(data[:, 1], data[:, 0]) - 1.0) < 0.15


def test_estimate_bivariate_long_form(tmp_path):
    params = tmp_path / "regime.params"
    params.write_text(PARAMS_REGIME)
    inc_file = tmp_path / "inc.txt"
    assert main([
        "simulate", "--model", "regime", "--params", str(params),
        "--n", "1500", "--delta", "0.02", "--seed", "3", "--out", str(inc_file),
    ]) == 0
    est_file = tmp_path / "est2.csv"
    assert main([
        "estimate", "--input", str(inc_file), "--delta", "0.02",
        "--times", "1.0,1.1", "--gamma", "17.0", "--bandwidth", "1.5",
        "--grid=-8:8:9,-8:8:9", "--out", str(est_file),
    ]) == 0
    lines = est_file.read_text().splitlines()
    assert lines[0] == "x1,x2,f_hat"
    assert len(lines) == 1 + 81


def test_truth_command(tmp_path):
    params = tmp_path / "ou.params"
    params.write_text(PARAMS_OU)
    out = tmp_path / "truth.csv"
    assert main([
        "truth", "--model", "ou", "--params", str(params),
        "--times", "1.0", "--grid=-5:5:201", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,f_hat"
    data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    idx = np.argmin(np.abs(data[:, 0]))
    assert data[idx, 1] == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-9)


def test_experiment_command(tmp_path, capsys):
    config = tmp_path / "exp.config"
    config.write_text(
        "model = ou\na = 2.0\nmu = 0.0\nb = 2.0\n"
        "n_schedule = 400,800\ndelta_exp = 0.5\ngamma = 9.0\n"
        "times = 1.0\ngrid = -5:5:51\nreplications = 2\nseed = 99\n"
    )
    out_dir = tmp_path / "report"
    assert main(["experiment", "--config", str(config), "--out", str(out_dir)]) == 0
    assert sorted(os.listdir(out_dir)) == [
        "aggregate.csv", "config.echo", "grids", "records.csv", "timings.csv"
    ]
    stdout = capsys.readouterr().out
    assert "n=400" in stdout and "n=800" in stdout


def test_experiment_command_prints_schedule_warnings(tmp_path, capsys):
    # gamma = 2 does not exceed 4p/delta_exp = 8
    config = tmp_path / "exp.config"
    config.write_text(
        "model = ou\na = 2.0\nmu = 0.0\nb = 2.0\n"
        "n_schedule = 400\ndelta_exp = 0.5\ngamma = 2.0\n"
        "times = 1.0\ngrid = -5:5:51\nreplications = 1\nseed = 99\n"
    )
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "report")]) == 0
    assert capsys.readouterr().err == (
        "warning: n=400: gamma = 2.0 does not exceed 4p/delta_exp = 8; "
        "variance control is not guaranteed\n"
    )


def test_estimate_prints_the_schedule_warning(tmp_path, capsys):
    # delta = 0.05 = 400^{-1/2}, so gamma = 2 does not exceed 4p/delta_exp = 8;
    # the warning is one line of text, not a Python warning with its source line
    inc_file = tmp_path / "inc.txt"
    increments = np.random.default_rng(5).standard_normal(400).tolist()
    inc_file.write_text("".join(f"{v!r}\n" for v in increments))
    assert main([
        "estimate", "--input", str(inc_file), "--delta", "0.05", "--times", "1.0",
        "--gamma", "2.0", "--grid=-5:5:11", "--out", str(tmp_path / "est.csv"),
    ]) == 0
    err = capsys.readouterr().err
    assert err == (
        "warning: gamma = 2.0 does not exceed 4p/delta_exp = 8; "
        "variance control is not guaranteed\n"
    )
    assert "ScheduleWarning" not in err


@pytest.mark.parametrize("model, times, grid", [
    ("ou", "1.0", "-5:5:41"),
    ("regime", "1.0,1.05", "-8:8:9,-7:7:8"),
])
def test_estimate_matches_report_grid(tmp_path, model, times, grid):
    # the CLI's simulate -> estimate and an experiment's grids/*.csv write
    # the same DensityGrid through the same writer, byte for byte
    params = tmp_path / "model.params"
    params.write_text(PARAMS_OU if model == "ou" else PARAMS_REGIME)
    cfg = ExperimentConfig(
        model=model,
        params=(
            OUParams(2.0, 0.0, 2.0) if model == "ou"
            else RegimeSwitchParams(1.0, 1.0, OUParams(4.0, -2.0, 1.0), OUParams(4.0, 2.0, 1.0))
        ),
        n_schedule=(500,),
        delta_exp=0.75,
        gamma=17.0,
        times=tuple(float(t) for t in times.split(",")),
        grid_spec=grid,
        replications=1,
        master_seed=11,
        bandwidth_override=1.3,
    )
    emit_report(run_experiment(cfg), str(tmp_path / "report"))
    delta = repr(500.0 ** -0.75)
    inc_file = tmp_path / "inc.txt"
    assert main([
        "simulate", "--model", model, "--params", str(params), "--n", "500",
        "--delta", delta, "--seed", str(mix_seed(11, 0, 0)), "--out", str(inc_file),
    ]) == 0
    est_file = tmp_path / "est.csv"
    assert main([
        "estimate", "--input", str(inc_file), "--delta", delta, "--times", times,
        "--gamma", "17.0", "--bandwidth", "1.3", f"--grid={grid}", "--out", str(est_file),
    ]) == 0
    report_grid = tmp_path / "report" / "grids" / "n500_rep0.csv"
    assert est_file.read_bytes() == report_grid.read_bytes()


def test_missing_input_file_is_reported(tmp_path, capsys):
    assert main([
        "estimate", "--input", str(tmp_path / "nope.txt"), "--delta", "0.02",
        "--times", "1.0", "--gamma", "9.0", "--grid=-5:5:11",
    ]) == 1
    assert "nope.txt" in capsys.readouterr().err


def test_malformed_input_line_is_reported(tmp_path, capsys):
    inc_file = tmp_path / "inc.txt"
    inc_file.write_text("0.01\n\n-0.02\nx\n0.03\n")
    assert main([
        "estimate", "--input", str(inc_file), "--delta", "0.02",
        "--times", "1.0", "--gamma", "9.0", "--grid=-5:5:11",
    ]) == 1
    err = capsys.readouterr().err
    assert f"{inc_file}, line 4: not a number: 'x'" in err


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_input_line_is_reported(tmp_path, capsys, text):
    inc_file = tmp_path / "inc.txt"
    inc_file.write_text(f"0.1\n\n{text}\n0.3\n" * 50)
    assert main([
        "estimate", "--input", str(inc_file), "--delta", "0.02",
        "--times", "1.0", "--gamma", "9.0", "--grid=-5:5:11",
    ]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {inc_file}, line 3: not a finite number: {text!r}\n"


def test_estimate_refuses_increments_off_the_table(tmp_path, capsys):
    # log(1e9^2) = 41.4 lies past the log sigma^2 ceiling of 30 the CLI's
    # table is sized for, so the estimate is refused and nothing is written
    inc_file = tmp_path / "inc.txt"
    inc_file.write_text("0.1\n-0.2\n1e9\n0.3\n" * 50)
    out = tmp_path / "est.csv"
    assert main([
        "estimate", "--input", str(inc_file), "--delta", "0.02", "--times", "1.0",
        "--gamma", "9.0", "--grid=-5:5:11", "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == (
        "error: observations in [-4.605, 41.45] take grid axis 0's arguments to "
        "[-8.704, 1.8], off the table span [-8.559, 13.29]\n"
    )
    assert not out.exists()


def test_text_files_with_a_byte_order_mark_read_as_without(tmp_path):
    # editors on Windows often start UTF-8 files with one
    config = ("model = ou\na = 2.0\nmu = 0.0\nb = 2.0\nn_schedule = 400\ndelta_exp = 0.5\n"
              "gamma = 9.0\ntimes = 1.0\ngrid = -5:5:11\nreplications = 1\nseed = 99\n")
    outputs = {}
    for encoding in ("utf-8", "utf-8-sig"):
        d = tmp_path / encoding
        d.mkdir()
        (d / "exp.config").write_text(config, encoding=encoding)
        (d / "ou.params").write_text(PARAMS_OU, encoding=encoding)
        assert main(["experiment", "--config", str(d / "exp.config"), "--out", str(d / "report")]) == 0
        assert main([
            "simulate", "--model", "ou", "--params", str(d / "ou.params"),
            "--n", "300", "--delta", "0.02", "--seed", "7", "--out", str(d / "inc.txt"),
        ]) == 0
        (d / "inc-copy.txt").write_text((d / "inc.txt").read_text(), encoding=encoding)
        assert main([
            "estimate", "--input", str(d / "inc-copy.txt"), "--delta", "0.02",
            "--times", "1.0", "--gamma", "9.0", "--bandwidth", "1.0",
            "--grid=-5:5:11", "--out", str(d / "est.csv"),
        ]) == 0
        names = ("report/config.echo", "report/grids/n400_rep0.csv", "inc.txt",
                 "inc.txt.meta.json", "est.csv")
        outputs[encoding] = [(d / name).read_bytes() for name in names]
    assert (tmp_path / "utf-8-sig" / "inc-copy.txt").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outputs["utf-8-sig"] == outputs["utf-8"]


def test_malformed_times_field_is_reported(tmp_path, capsys):
    inc_file = tmp_path / "inc.txt"
    inc_file.write_text("0.01\n-0.02\n0.03\n")
    assert main([
        "estimate", "--input", str(inc_file), "--delta", "0.02",
        "--times", "1.0,1.o5", "--gamma", "9.0", "--grid=-5:5:11",
    ]) == 1
    assert "--times field 2: not a number: '1.o5'" in capsys.readouterr().err
    params = tmp_path / "ou.params"
    params.write_text(PARAMS_OU)
    assert main([
        "truth", "--model", "ou", "--params", str(params), "--times", "a",
        "--grid=-5:5:11",
    ]) == 1
    assert "--times field 1: not a number: 'a'" in capsys.readouterr().err


def test_nan_time_is_reported(tmp_path, capsys):
    inc_file = tmp_path / "inc.txt"
    inc_file.write_text("0.01\n-0.02\n0.03\n")
    for times, message in [
        ("1.0,nan", "error: target times must be positive, got [nan]"),
        ("1.25,1.0", "error: target times must be distinct and increasing, got [1.25, 1.0]"),
    ]:
        assert main([
            "estimate", "--input", str(inc_file), "--delta", "0.02",
            "--times", times, "--gamma", "9.0", "--grid=-5:5:11",
        ]) == 1
        assert message in capsys.readouterr().err


def test_simulate_names_a_bad_delta(tmp_path, capsys):
    params = tmp_path / "ou.params"
    params.write_text(PARAMS_OU)
    assert main([
        "simulate", "--model", "ou", "--params", str(params), "--n", "100",
        "--delta", "inf", "--seed", "1", "--out", str(tmp_path / "inc.txt"),
    ]) == 1
    assert "error: delta must be finite and positive, got inf" in capsys.readouterr().err
    assert not (tmp_path / "inc.txt").exists()


def test_simulate_names_a_bad_seed(tmp_path, capsys):
    params = tmp_path / "ou.params"
    params.write_text(PARAMS_OU)
    assert main([
        "simulate", "--model", "ou", "--params", str(params), "--n", "100",
        "--delta", "0.05", "--seed", "-1", "--out", str(tmp_path / "inc.txt"),
    ]) == 1
    assert "error: seed must be at least 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "inc.txt").exists()


@pytest.mark.parametrize("delta", ["0", "nan", "inf", "-inf", "-0.1"])
def test_estimate_names_a_bad_delta(tmp_path, capsys, delta):
    inc_file = tmp_path / "inc.txt"
    inc_file.write_text("0.01\n-0.02\n0.03\n")
    out = tmp_path / "est.csv"
    assert main([
        "estimate", "--input", str(inc_file), f"--delta={delta}", "--times", "0.01",
        "--gamma", "9.0", "--grid=-5:5:11", "--out", str(out),
    ]) == 1
    message = f"error: delta must be finite and positive, got {float(delta)!r}"
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_estimate_refuses_a_one_increment_input(tmp_path, capsys):
    # the schedule refuses n = 1, with no numpy divide-by-zero warning before it
    inc_file = tmp_path / "inc.txt"
    inc_file.write_text("0.01\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([
            "estimate", "--input", str(inc_file), "--delta", "0.02", "--times", "0.01",
            "--gamma", "9.0", "--grid=-1:1:3",
        ]) == 1
    assert capsys.readouterr().err == "error: n must be at least 2, got 1\n"


@pytest.mark.parametrize("command", ["simulate", "truth"])
def test_unknown_model_lists_the_models(tmp_path, capsys, command):
    params = tmp_path / "ou.params"
    params.write_text(PARAMS_OU)
    args = {
        "simulate": ["--n", "100", "--delta", "0.05", "--seed", "1",
                     "--out", str(tmp_path / "inc.txt")],
        "truth": ["--times", "1.0", "--grid=-5:5:11"],
    }[command]
    with pytest.raises(SystemExit) as info:
        main([command, "--model", "garch", "--params", str(params), *args])
    assert info.value.code == 2
    assert re.search(r"invalid choice: 'garch' \(choose from '?ou'?, '?regime'?\)",
                     capsys.readouterr().err)
