"""End-to-end command-line tests.

Every test drives main() in process with --out pointed at a temp directory,
so nothing here shells out and nothing leaks into ./runs.
"""

import csv
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sine_series
from stanforge.checkpoint import load_checkpoint
from stanforge.cli import _plan_from_args, build_parser, main
from stanforge.data import TimeSeries, load_pjm_csv, prepare_splits, write_pjm_csv
from stanforge.eval_bench import rmse
from stanforge.training import TrainConfig


def _dataset_csv(tmp_path, n=400, name="EAST"):
    # a pure sine is nearly rank-deficient over a 45-lag window; add noise so
    # the closed-form regression stays well conditioned
    base = sine_series(n, name=name)
    values = base.values + np.random.default_rng(99).standard_normal(n)
    series = TimeSeries(name=name, timestamps=base.timestamps, values=values)
    return write_pjm_csv(series, tmp_path / f"{name}.csv")


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------- simulate


def test_simulate_writes_the_layout_train_reads_and_its_config(tmp_path):
    assert main(["simulate", "--n", "50", "--out", str(tmp_path)]) == 0
    run_dir = tmp_path / "simulate-seed0"
    lines = (run_dir / "series.csv").read_text().splitlines()
    assert lines[0] == "Datetime,SIM_MW"
    assert lines[1].startswith("2015-01-01 00:00:00,") and lines[-1].startswith("2015-01-03 01:00:00,")
    assert len(lines) == 51
    assert sorted(p.name for p in run_dir.iterdir()) == ["config.json", "series.csv"]
    config = _read_json(run_dir / "config.json")
    assert config["n"] == 50
    assert config["phi"] == [0.9]
    assert config["theta"] == [-1.4]
    assert config["gamma"] == 20.0
    assert config["sigma"] == 0.05


def test_simulate_is_deterministic_per_seed(tmp_path):
    main(["simulate", "--n", "80", "--seed", "4", "--out", str(tmp_path / "a")])
    main(["simulate", "--n", "80", "--seed", "4", "--out", str(tmp_path / "b")])
    main(["simulate", "--n", "80", "--seed", "5", "--out", str(tmp_path / "c")])
    first = (tmp_path / "a" / "simulate-seed4" / "series.csv").read_bytes()
    second = (tmp_path / "b" / "simulate-seed4" / "series.csv").read_bytes()
    other = (tmp_path / "c" / "simulate-seed5" / "series.csv").read_bytes()
    assert first == second
    assert first != other


def test_simulate_noise_free_intercept_only_series_is_constant(tmp_path):
    code = main(["simulate", "--n", "30", "--phi", "0", "--theta", "0",
                 "--sigma", "0", "--phi0", "0.7", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "simulate-seed0" / "series.csv").read_text().splitlines()[1:]
    values = np.array([float(row.split(",")[1]) for row in rows])
    assert np.array_equal(np.unique(values), [0.7])


def test_simulate_output_loads_back(tmp_path):
    main(["simulate", "--n", "48", "--name", "RIDGE", "--out", str(tmp_path)])
    series = load_pjm_csv(tmp_path / "simulate-seed0" / "series.csv", "RIDGE_MW")
    assert series.name == "RIDGE"
    assert len(series.values) == 48


def test_train_reads_what_simulate_writes(tmp_path):
    assert main(["simulate", "--n", "400", "--out", str(tmp_path)]) == 0
    series_path = tmp_path / "simulate-seed0" / "series.csv"
    assert main(["train", "--data", str(series_path), "--column", "SIM_MW", "--max-epochs", "1",
                 "--units", "4", "--depth", "1", "--out", str(tmp_path)]) == 0
    summary = _read_json(tmp_path / "train-seed0" / "summary.json")
    assert summary["dataset"] == "SIM" and summary["epochs"] == 1


def test_simulate_explosive_parameters_exit_2(tmp_path, capsys):
    code = main(["simulate", "--n", "5000", "--phi", "1.5", "--theta", "0",
                 "--sigma", "1.0", "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------------- train


@pytest.mark.parametrize("kind,extra,expected_params", [
    ("linear", [], 46),
    ("stan", ["--units", "4", "--depth", "2"], 241),
])
def test_train_smoke_writes_summary_and_checkpoint(tmp_path, kind, extra, expected_params):
    data = _dataset_csv(tmp_path, n=260)
    code = main(["train", "--data", str(data), "--column", "EAST_MW",
                 "--model", kind, "--max-epochs", "3", "--out", str(tmp_path)]
                + extra)
    assert code == 0
    run_dir = tmp_path / "train-seed0"
    summary = _read_json(run_dir / "summary.json")
    assert summary["model"] == kind
    assert summary["lookback"] == 45
    assert summary["param_count"] == expected_params
    assert math.isfinite(summary["rmse"])
    assert 1 <= summary["epochs"] <= 3

    # the checkpoint must rescore to exactly the reported test RMSE
    model, scaler = load_checkpoint(run_dir / "checkpoint.json")
    prep = prepare_splits(load_pjm_csv(data, "EAST_MW"), horizon=1, seed=0)
    assert scaler == prep.scaler
    assert rmse(prep.test.targets, model.predict(prep.test.inputs)) == summary["rmse"]


def test_train_linreg_solves_in_closed_form(tmp_path):
    data = _dataset_csv(tmp_path, n=260)
    code = main(["train", "--data", str(data), "--column", "EAST_MW",
                 "--model", "linreg", "--out", str(tmp_path)])
    assert code == 0
    run_dir = tmp_path / "train-seed0"
    summary = _read_json(run_dir / "summary.json")
    assert summary["epochs"] == 0
    assert summary["param_count"] == 46
    assert (run_dir / "history.csv").read_text() == "epoch,train_loss,val_loss,lr,seconds\n"


def test_train_without_data_flags_exits_1(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path)]) == 1
    assert "--data" in capsys.readouterr().err


def test_train_unknown_model_kind_in_config_exits_1(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model": "transformer"}))
    data = _dataset_csv(tmp_path, n=260)
    code = main(["train", "--data", str(data), "--column", "EAST_MW",
                 "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "transformer" in err
    assert "stan, mlp, linear, linreg" in err


def test_train_rejects_unknown_train_config_key(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train": {"bogus": 1}}))
    data = _dataset_csv(tmp_path, n=260)
    code = main(["train", "--data", str(data), "--column", "EAST_MW",
                 "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("max_epochs", 2.5), ("batch_size", 64.5), ("es_patience", 1.5), ("plateau_patience", 0.5),
    ("es_start_epoch", "6"), ("seed", None), ("max_epochs", True), ("lr", True), ("es_min_delta", False),
    ("lr", "0.01"), ("beta1", [0.9]),
])
def test_train_config_fields_are_type_checked(tmp_path, capsys, key, value):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train": {key: value}}))
    data = _dataset_csv(tmp_path, n=260)
    code = main(["train", "--data", str(data), "--column", "EAST_MW",
                 "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"config key 'train.{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value,fixed", [
    ("beta1", 0.5, "0.9"), ("epsilon", 1e-6, "1e-08"), ("es_patience", 3, "10"), ("lr_min", 1e-6, "2.5e-05"),
])
def test_train_config_fixed_recipe_keys_refuse_another_value(tmp_path, capsys, key, value, fixed):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train": {key: value}}))
    data = _dataset_csv(tmp_path, n=260)
    code = main(["train", "--data", str(data), "--column", "EAST_MW",
                 "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"config key 'train.{key}' is fixed at {fixed} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand,lr,config", [
    ("train", "nan", None), ("train", "inf", None), ("train", "1e-6", None),
    ("benchmark", None, {"train": {"lr": math.nan}}), ("benchmark", None, {"train": {"lr": math.inf}}),
])
def test_a_learning_rate_that_is_not_finite_or_below_the_floor_exits_1(tmp_path, capsys, subcommand, lr, config):
    argv = [subcommand, "--data", str(_dataset_csv(tmp_path, n=260)), "--column", "EAST_MW",
            "--out", str(tmp_path / "out")]
    if lr is not None:
        argv += ["--lr", lr]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 1
    assert "lr must be finite and at least the plateau floor" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_config_seed_is_read_as_an_integer_and_ignored(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"datasets": [{"path": "east.csv", "column": "EAST_MW"}], "train": {"seed": 99}}))
    plan = _plan_from_args(build_parser().parse_args(["benchmark", "--config", str(config), "--seed", "3"]))
    assert plan.train == TrainConfig() and plan.base_seed == 3


# the ``train`` object as ``config.json`` echoed it while Adam's and the
# schedules' fixed values were TrainConfig fields, at those values
_OLD_TRAIN_ECHO = {"max_epochs": 2, "batch_size": 256, "lr": 0.001, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-08,
                   "es_patience": 10, "es_start_epoch": 6, "es_min_delta": 1e-05, "plateau_factor": 0.25,
                   "plateau_patience": 5, "lr_min": 2.5e-05, "seed": 0}


@pytest.mark.parametrize("argv,outputs", [
    (["train", "--model", "mlp"], ["checkpoint.json", "summary.json"]),
    (["benchmark", "--models", "linear,mlp", "--runs", "2"], ["results.json"]),
], ids=["train", "benchmark"])
def test_a_config_echoing_the_old_train_fields_replays_byte_identically(tmp_path, argv, outputs):
    data = _dataset_csv(tmp_path, n=260)
    assert main(argv + ["--data", str(data), "--column", "EAST_MW", "--units", "4", "--depth", "1",
                        "--max-epochs", "2", "--out", str(tmp_path / "first")]) == 0
    first = tmp_path / "first" / f"{argv[0]}-seed0"
    echoed = _read_json(first / "config.json")
    assert echoed["train"] == {"max_epochs": 2, "batch_size": 256, "lr": 0.001, "es_start_epoch": 6}
    (tmp_path / "old.json").write_text(json.dumps({**echoed, "train": _OLD_TRAIN_ECHO}))
    assert main([argv[0], "--config", str(tmp_path / "old.json"), "--out", str(tmp_path / "second")]) == 0
    second = tmp_path / "second" / f"{argv[0]}-seed0"
    for name in outputs + ["config.json"]:  # the old fields are read, not echoed
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_train_config_whole_numbers_count_as_integers(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"datasets": [{"path": "east.csv", "column": "EAST_MW"}],
                                  "train": {"max_epochs": 3.0, "batch_size": 1e1, "lr": 1}}))
    train = _plan_from_args(build_parser().parse_args(["benchmark", "--config", str(config)])).train
    assert (train.max_epochs, train.batch_size, train.lr) == (3, 10, 1)
    assert isinstance(train.max_epochs, int) and isinstance(train.batch_size, int)


# --------------------------------------------------------------- gradcheck


def test_gradcheck_default_spec_passes(tmp_path, capsys):
    assert main(["gradcheck", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "gradcheck-seed0" / "gradcheck.txt").read_text()
    for group in ("W", "b", "phi", "theta", "gamma", "c", "projection"):
        assert f"  {group}" in text
    assert "OK" in text
    assert "worst" in capsys.readouterr().out


def test_gradcheck_corrupted_group_is_caught(tmp_path):
    code = main(["gradcheck", "--corrupt", "phi", "--out", str(tmp_path)])
    assert code == 2
    text = (tmp_path / "gradcheck-seed0" / "gradcheck.txt").read_text()
    assert "FAIL" in text
    phi_line = next(line for line in text.splitlines() if line.startswith("  phi"))
    assert "5.000e-01" in phi_line


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_gradcheck_refuses_a_non_finite_eps(tmp_path, capsys, eps):
    assert main(["gradcheck", "--eps", eps, "--corrupt", "theta", "--out", str(tmp_path / "out")]) == 1
    assert "eps must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_gradcheck_refuses_a_tol_that_is_not_positive_and_finite(tmp_path, capsys, monkeypatch, tol):
    monkeypatch.setattr("stanforge.cli.gradcheck_problem", lambda *args: pytest.fail("a problem was built"))
    assert main(["gradcheck", "--tol", tol, "--out", str(tmp_path / "out")]) == 1
    assert f"--tol must be positive and finite, got {float(tol)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gradcheck_fails_a_group_whose_error_is_nan(tmp_path, monkeypatch):
    # Python's max(0.0, nan) is 0.0; the verdict must not read a NaN as agreement
    errors = {"layers.0.W": 1e-9, "layers.0.phi": math.nan, "layers.1.phi": 1e-9}
    monkeypatch.setattr("stanforge.cli.finite_diff_errors", lambda *args, **kwargs: errors)
    assert main(["gradcheck", "--out", str(tmp_path)]) == 2
    text = (tmp_path / "gradcheck-seed0" / "gradcheck.txt").read_text()
    phi_line = next(line for line in text.splitlines() if line.startswith("  phi"))
    assert "nan" in phi_line
    assert text.splitlines()[-1] == "worst nan vs tolerance 1e-05: FAIL"


@pytest.mark.parametrize("batch", [0, -2])
def test_gradcheck_refuses_a_batch_below_one_naming_the_flag(tmp_path, capsys, batch):
    assert main(["gradcheck", "--batch", str(batch), "--out", str(tmp_path / "out")]) == 1
    assert f"--batch must be a positive integer, got {batch}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------------- benchmark


def test_benchmark_desk_scale_smoke(tmp_path):
    data = _dataset_csv(tmp_path, n=400)
    code = main(["benchmark", "--data", str(data), "--column", "EAST_MW",
                 "--models", "linreg,linear", "--horizons", "1", "--runs", "2",
                 "--max-epochs", "2", "--desk-scale",
                 "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    run_dir = tmp_path / "benchmark-seed3"
    for name in ("results_rmse_mean.csv", "results_rmse_std.csv", "results_time.csv",
                 "results.json", "report.md", "config.json"):
        assert (run_dir / name).exists()
    config = _read_json(run_dir / "config.json")
    assert config["lookbacks"] == [45]
    assert config["train"]["max_epochs"] == 2  # explicit flag beats the preset
    assert all(m["units"] == 32 for m in config["models"])
    assert "jobs" not in config
    results = _read_json(run_dir / "results.json")["results"]
    assert len(results) == 4
    assert all(r["error"] is None and r["rmse"] is not None for r in results)
    assert "LinReg" in (run_dir / "report.md").read_text()


def test_benchmark_echoes_lookback_per_horizon(tmp_path):
    data = _dataset_csv(tmp_path, n=600)
    code = main(["benchmark", "--data", str(data), "--column", "EAST_MW",
                 "--models", "linreg", "--horizons", "1,6,12", "--runs", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    config = _read_json(tmp_path / "benchmark-seed0" / "config.json")
    assert config["lookbacks"] == [45, 45, 60]
    assert "jobs" not in config


def test_benchmark_has_no_jobs_flag(tmp_path, capsys):
    data = _dataset_csv(tmp_path, n=400)
    code = main(["benchmark", "--data", str(data), "--column", "EAST_MW",
                 "--models", "linreg", "--horizons", "1", "--runs", "1",
                 "--jobs", "2", "--out", str(tmp_path)])
    assert code == 1
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_benchmark_replays_exactly_from_config(tmp_path):
    data = _dataset_csv(tmp_path, n=400)
    main(["benchmark", "--data", str(data), "--column", "EAST_MW",
          "--models", "linreg", "--horizons", "1,6", "--runs", "2",
          "--seed", "5", "--out", str(tmp_path / "first")])
    first_dir = tmp_path / "first" / "benchmark-seed5"
    # configs echoed before the matrix became serial carry a "jobs" key
    config = _read_json(first_dir / "config.json")
    (first_dir / "config.json").write_text(json.dumps({**config, "jobs": 2}))
    code = main(["benchmark", "--config", str(first_dir / "config.json"),
                 "--out", str(tmp_path / "second")])
    assert code == 0
    second_dir = tmp_path / "second" / "benchmark-seed5"
    assert (first_dir / "results.json").read_bytes() == (second_dir / "results.json").read_bytes()


def test_benchmark_exits_2_when_every_run_fails(tmp_path, capsys):
    data = _dataset_csv(tmp_path, n=50, name="TINY")
    code = main(["benchmark", "--data", str(data), "--column", "TINY_MW",
                 "--models", "linreg", "--horizons", "1", "--runs", "1",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "every run failed" in capsys.readouterr().err


# ---------------------------------------------------------------- fixtures


def test_fixtures_writes_loadable_regions(tmp_path):
    code = main(["fixtures", "--regions", "A,B", "--n", "200", "--out", str(tmp_path)])
    assert code == 0
    run_dir = tmp_path / "fixtures-seed0"
    for region in ("A", "B"):
        series = load_pjm_csv(run_dir / f"{region}.csv", f"{region}_MW")
        assert len(series.values) == 200
    assert _read_json(run_dir / "config.json")["regions"] == ["A", "B"]


@pytest.mark.parametrize("flag,value", [
    ("--sigma", "nan"), ("--c", "inf"), ("--gamma", "nan"), ("--phi0", "-inf"),
    ("--phi", "0.5,nan"), ("--theta", "inf"),
])
def test_simulate_refuses_non_finite_parameters(tmp_path, capsys, flag, value):
    argv = ["simulate", f"{flag}={value}", "--out", str(tmp_path / "out")]
    if flag == "--phi":
        argv.append("--theta=0,0")
    assert main(argv) == 1
    assert f"{flag[2:]} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,named", [
    (["train", "--data", "east.csv", "--column", "EAST_MW", "--model", "stan", "--depth", "100000000"],
     "units 64 and depth 100000000"),
    (["train", "--data", "east.csv", "--column", "EAST_MW", "--model", "mlp", "--units", "100000"],
     "units 100000 and depth 3"),
    (["benchmark", "--data", "east.csv", "--column", "EAST_MW", "--models", "stan", "--depth", "100000000"],
     "units 64 and depth 100000000"),
    (["gradcheck", "--depth", "100000000"], "units 4 and depth 100000000"),
])
def test_huge_networks_are_refused_before_anything_is_allocated(tmp_path, capsys, argv, named):
    """The parameter count is taken in closed form, ahead of reading the data
    (``east.csv`` does not exist), building a model or making a run directory."""
    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert f"{named} make" in capsys.readouterr().err
    assert peak < 1_000_000, f"tracemalloc peak {peak} bytes"
    assert not (tmp_path / "out").exists()


# -------------------------------------------------------- shared plumbing


@pytest.mark.parametrize("argv", [[], ["melt"], ["simulate", "--bogus"]])
def test_bad_invocations_exit_1(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("STANFORGE_OUT", str(tmp_path))
    assert main(argv) == 1


@pytest.mark.parametrize("subcommand", ["simulate", "train", "gradcheck", "benchmark", "fixtures"])
@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
def test_a_negative_seed_exits_1_naming_the_flag_without_a_run_directory(tmp_path, capsys, subcommand, by_config):
    argv = [subcommand, "--out", str(tmp_path / "out")]
    if subcommand in ("train", "benchmark"):
        argv += ["--data", str(_dataset_csv(tmp_path, n=260)), "--column", "EAST_MW"]
    if by_config:
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    else:
        argv += ["--seed", "-1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "argument --seed: expected a non-negative integer, got '-1'" in err
    assert ("config key 'seed'" in err) == by_config
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert "stanforge" in capsys.readouterr().out


def test_out_falls_back_to_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("STANFORGE_OUT", str(tmp_path / "envout"))
    assert main(["simulate", "--n", "20"]) == 0
    assert (tmp_path / "envout" / "simulate-seed0" / "series.csv").exists()


def test_flag_beats_config_beats_default(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 50, "gamma": 5.0}))
    main(["simulate", "--config", str(config), "--n", "30", "--out", str(tmp_path)])
    echoed = _read_json(tmp_path / "simulate-seed0" / "config.json")
    assert echoed["n"] == 30       # flag wins over config
    assert echoed["gamma"] == 5.0  # config wins over the built-in 20.0
    assert echoed["sigma"] == 0.05  # default fills the rest


@pytest.mark.parametrize("content,problem", [
    ("[1, 2]", "JSON object"),
    ("{not json", "not valid JSON"),
    pytest.param("[" * 200_000, "not valid JSON", id="nested-past-the-recursion-limit"),
])
def test_broken_config_files_exit_1(tmp_path, capsys, content, problem):
    config = tmp_path / "cfg.json"
    config.write_text(content)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 1
    assert problem in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path)]) == 1


# ---------------------------------------------------- config and replays


@pytest.mark.parametrize("argv", [
    ["simulate", "--phi", "0.5,0.2", "--theta=-1,0.3", "--delay", "2"],
    ["fixtures", "--regions", "A,B", "--n", "120"],
    ["train", "--model", "mlp", "--max-epochs", "2", "--units", "4", "--depth", "1"],
    ["gradcheck", "--corrupt", "theta"],
], ids=lambda argv: argv[0])
def test_replay_from_echoed_config_is_byte_identical(tmp_path, argv):
    if argv[0] == "train":
        argv = argv + ["--data", str(_dataset_csv(tmp_path, n=260)), "--column", "EAST_MW"]
    code = main(argv + ["--out", str(tmp_path / "first")])
    first = tmp_path / "first" / f"{argv[0]}-seed0"
    replay = main([argv[0], "--config", str(first / "config.json"), "--out", str(tmp_path / "second")])
    second = tmp_path / "second" / f"{argv[0]}-seed0"
    assert replay == code
    names = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in second.iterdir()) == names
    for name in names:
        if name != "history.csv":  # carries wall-clock seconds
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("subcommand,config", [
    ("simulate", {"n": 1.7}),
    ("simulate", {"n": [3]}),
    ("simulate", {"n": True}),
    ("simulate", {"seed": "x"}),
    ("simulate", {"phi": "a,b"}),
    ("gradcheck", {"units": {"a": 1}}),
    ("gradcheck", {"corrupt": "bogus"}),
    ("benchmark", {"horizons": "1,,x"}),
])
def test_malformed_config_value_exits_1_naming_the_key(tmp_path, capsys, subcommand, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    key = next(iter(config))
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,config", [
    (["benchmark"], None),
    (["train"], None),
    (["simulate"], {"burn_in": {"steps": 3}}),
])
def test_rejected_calls_exit_1_and_create_no_run_directory(tmp_path, argv, config):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand", ["train", "benchmark"])
def test_cell_past_the_csv_field_limit_exits_1_naming_its_line(tmp_path, capsys, subcommand):
    data = tmp_path / "big.csv"
    data.write_text(f"Datetime,EAST_MW\n2015-01-01 00:00:00,{'1' * (csv.field_size_limit() + 1)}\n")
    argv = [subcommand, "--data", str(data), "--column", "EAST_MW", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "big.csv line 2: field larger than field limit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand", ["train", "benchmark"])
def test_missing_data_file_exits_1_without_a_run_directory(tmp_path, capsys, subcommand):
    argv = [subcommand, "--data", str(tmp_path / "missing.csv"), "--column", "EAST_MW", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "missing.csv" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry,key", [
    ({"kind": "mlp", "units": 1.7, "depth": 2}, "units"),
    ({"kind": "mlp", "units": 4, "depth": 2.9}, "depth"),
    ({"kind": "stan", "units": True}, "units"),
    ({"kind": "stan", "depth": "3"}, "depth"),
])
def test_benchmark_model_entry_sizes_must_be_integers(tmp_path, capsys, entry, key):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"datasets": [{"path": "east.csv", "column": "EAST_MW"}],
                                  "models": [{"kind": "linreg"}, entry]}))
    assert main(["benchmark", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert f"config key 'models' entry 1 {key!r} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_benchmark_model_entry_whole_number_sizes_are_accepted(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"datasets": [{"path": "east.csv", "column": "EAST_MW"}],
                                  "models": [{"kind": "mlp", "units": 4.0, "depth": 2e0}]}))
    plan = _plan_from_args(build_parser().parse_args(["benchmark", "--config", str(config)]))
    assert [(m.name, m.units, m.depth) for m in plan.models] == [("MLP-4-2", 4, 2)]


def test_config_null_means_unset(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": None, "regions": None, "jobs": 2}))
    assert main(["fixtures", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "fixtures-seed0" / "config.json") == {"regions": ["EAST", "WEST"], "n": 4000, "seed": 0}


@pytest.mark.parametrize("config,n", [({"n": 3.0}, 3), ({"n": 1e2}, 100)])
def test_config_whole_numbers_count_as_integers(tmp_path, config, n):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "simulate-seed0" / "config.json")["n"] == n


def test_a_whole_number_config_seed_counts_as_an_integer(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"n": 20, "seed": 2.0}))
    assert main(["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "simulate-seed2" / "config.json")["seed"] == 2


def test_train_overrides_are_flags_not_config_keys(tmp_path):
    data = _dataset_csv(tmp_path, n=260)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"data": str(data), "column": "EAST_MW", "model": "mlp", "units": 4, "depth": 1,
                                  "max_epochs": 5, "batch_size": 8, "lr": 0.5, "train": {"max_epochs": 1}}))
    assert main(["train", "--config", str(config), "--out", str(tmp_path)]) == 0
    echoed = _read_json(tmp_path / "train-seed0" / "config.json")
    assert not {"max_epochs", "batch_size", "lr"} & set(echoed)
    assert echoed["train"]["max_epochs"] == 1  # the top-level 5 is ignored
    assert echoed["train"]["batch_size"] == TrainConfig().batch_size
    assert echoed["train"]["lr"] == TrainConfig().lr
    assert _read_json(tmp_path / "train-seed0" / "summary.json")["epochs"] == 1


def test_benchmark_reads_data_and_overrides_only_from_flags_and_train(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"desk_scale": True, "max_epochs": 5, "data": "elsewhere.csv", "column": "X",
                                  "datasets": [{"path": "east.csv", "column": "EAST_MW"}]}))
    plan = _plan_from_args(build_parser().parse_args(["benchmark", "--config", str(config)]))
    assert [(d.path, d.column) for d in plan.datasets] == [("east.csv", "EAST_MW")]
    assert plan.train.max_epochs == 40  # the desk-scale preset, not the top-level key
    plan = _plan_from_args(build_parser().parse_args(["benchmark", "--config", str(config), "--max-epochs", "3"]))
    assert plan.train.max_epochs == 3


_coefficients = st.lists(st.floats(-0.45, 0.45, allow_subnormal=False), min_size=2, max_size=2)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 30), burn_in=st.integers(0, 5), seed=st.integers(0, 3),
    phi0=st.floats(-1.0, 1.0), phi=_coefficients, theta=_coefficients,
    gamma=st.floats(0.5, 30.0), c=st.floats(-1.0, 1.0), delay=st.integers(1, 2),
    sigma=st.floats(0.0, 0.5), name=st.sampled_from(["SIM", "RIDGE"]),
)
def test_simulate_flags_and_config_mean_the_same(n, burn_in, seed, phi0, phi, theta, gamma, c, delay,
                                                 sigma, name):
    values = dict(n=n, burn_in=burn_in, seed=seed, phi0=phi0, phi=phi, theta=theta, gamma=gamma, c=c,
                  delay=delay, sigma=sigma, name=name)
    flags = [f"--{key.replace('_', '-')}={','.join(map(str, value)) if isinstance(value, list) else value}"
             for key, value in values.items()]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cfg.json").write_text(json.dumps(values))
        assert main(["simulate", *flags, "--out", str(tmp / "flags")]) == 0
        assert main(["simulate", "--config", str(tmp / "cfg.json"), "--out", str(tmp / "config")]) == 0
        by_flags, by_config = tmp / "flags" / f"simulate-seed{seed}", tmp / "config" / f"simulate-seed{seed}"
        assert _read_json(by_flags / "config.json") == _read_json(by_config / "config.json") == values
        assert (by_flags / "series.csv").read_bytes() == (by_config / "series.csv").read_bytes()
