import csv
import hashlib
import json
import re

import numpy as np
import pytest

from conftest import sine_series
from stanforge import eval_bench
from stanforge.data import TimeSeries, hourly_timestamps, write_pjm_csv
from stanforge.eval_bench import (
    BenchmarkPlan,
    CellStats,
    DatasetRef,
    ModelEntry,
    PlanError,
    RunResult,
    aggregate,
    rmse,
    run_benchmark,
    write_report,
)
from stanforge.numerics import ShapeError
from stanforge.training import TrainConfig


def _results(values, model="A", dataset="DS", horizon=1):
    return [
        RunResult(model=model, dataset=dataset, horizon=horizon, seed=i,
                  rmse=v, epochs=3, train_seconds=0.5, param_count=46)
        for i, v in enumerate(values)
    ]


@pytest.fixture
def small_plan(tmp_path, advantage_series):
    renamed = TimeSeries(name="LSTAR", timestamps=hourly_timestamps(len(advantage_series)),
                         values=advantage_series.values)
    path = write_pjm_csv(renamed, tmp_path / "lstar.csv")
    return BenchmarkPlan(
        datasets=[DatasetRef(str(path), "LSTAR_MW")],
        horizons=[1],
        models=[ModelEntry(kind="stan", units=32, depth=3), ModelEntry(kind="linreg")],
        runs=3,
        base_seed=0,
    )


# -------------------------------------------------------------------- rmse --

def test_rmse_zero_on_equal():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_rmse_unit_case():
    assert rmse([0.0, 0.0], [1.0, 1.0]) == 1.0


def test_rmse_direct_evaluation():
    assert rmse([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)


def test_rmse_flattens_multi_horizon():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    y_hat = np.array([[1.0, 2.0], [3.0, 6.0]])
    assert rmse(y, y_hat) == pytest.approx(np.sqrt(4.0 / 4.0), abs=1e-12)


def test_rmse_rejects_mismatch_and_empty():
    with pytest.raises(ValueError):
        rmse([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        rmse([], [])


@pytest.mark.parametrize("seed", range(3))
def test_rmse_squared_identity(seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(40)
    y_hat = rng.standard_normal(40)
    assert rmse(y, y_hat) ** 2 * y.size == pytest.approx(np.sum((y - y_hat) ** 2), rel=1e-12)


# -------------------------------------------------------------------- plan --

def test_plan_validate_lists_every_problem():
    plan = BenchmarkPlan(datasets=[], horizons=[0], models=[ModelEntry(kind="gru")], runs=0)
    with pytest.raises(PlanError) as err:
        plan.validate()
    message = str(err.value)
    for fragment in ("no datasets", "horizon", "gru", "runs"):
        assert fragment in message


def test_plan_refuses_a_negative_base_seed():
    plan = BenchmarkPlan(datasets=[DatasetRef("x.csv", "X_MW")], horizons=[1], models=[ModelEntry(kind="linreg")],
                         base_seed=-1)
    with pytest.raises(PlanError, match="^base_seed must be a non-negative integer, got -1$"):
        plan.validate()


def test_plan_validate_names_no_horizons_no_models_and_an_unknown_split():
    plan = BenchmarkPlan(datasets=[DatasetRef("x.csv", "X_MW")], horizons=[], models=[], split="weekly")
    with pytest.raises(PlanError, match="^no horizons; no models; unknown split mode 'weekly'$"):
        plan.validate()


def test_plan_rejects_duplicate_model_names():
    plan = BenchmarkPlan(
        datasets=[DatasetRef("x.csv", "X_MW")], horizons=[1],
        models=[ModelEntry(kind="stan"), ModelEntry(kind="stan")],
    )
    with pytest.raises(PlanError, match="duplicate"):
        plan.validate()


def test_plan_rejects_duplicate_dataset_names():
    # both name the dataset EAST; its series would be loaded once and run twice
    plan = BenchmarkPlan(
        datasets=[DatasetRef("a.csv", "EAST_MW"), DatasetRef("b.csv", "EAST_MW")], horizons=[1],
        models=[ModelEntry(kind="linreg")],
    )
    with pytest.raises(PlanError, match=r"duplicate dataset names: \['EAST', 'EAST'\]"):
        plan.validate()


def test_plan_rejects_duplicate_horizons():
    # a repeated horizon reruns its cells at the same seeds, which aggregate would count twice
    plan = BenchmarkPlan(datasets=[DatasetRef("x.csv", "X_MW")], horizons=[1, 6, 1],
                         models=[ModelEntry(kind="linreg")], runs=2)
    with pytest.raises(PlanError, match=r"duplicate horizons: \[1, 6, 1\]"):
        plan.validate()


@pytest.mark.parametrize("entry,horizons", [
    (ModelEntry(kind="stan", units=64, depth=100_000_000), [1]),
    (ModelEntry(kind="mlp", units=100_000, depth=3), [1]),
    # 8000 units at depth 2 fit at horizon 1; horizon 12000 widens the projection past the limit
    (ModelEntry(kind="mlp", units=8000, depth=2), [1, 12_000]),
])
def test_plan_refuses_networks_past_the_parameter_limit(entry, horizons):
    plan = BenchmarkPlan(datasets=[DatasetRef("x.csv", "X_MW")], horizons=horizons,
                         models=[ModelEntry(kind="linreg"), entry])
    with pytest.raises(PlanError, match=f"units {entry.units} and depth {entry.depth} make"):
        plan.validate()


def test_model_entry_default_names():
    assert ModelEntry(kind="stan", units=3000, depth=3).name == "STAN-3000-3"
    assert ModelEntry(kind="mlp", units=128, depth=4).name == "MLP-128-4"
    assert ModelEntry(kind="linear").name == "LinearNN"
    assert ModelEntry(kind="linreg").name == "LinReg"


def test_plan_unreadable_dataset_is_plan_error(tmp_path):
    plan = BenchmarkPlan(
        datasets=[DatasetRef(str(tmp_path / "missing.csv"), "X_MW")],
        horizons=[1], models=[ModelEntry(kind="linreg")],
    )
    with pytest.raises(PlanError, match="missing.csv"):
        run_benchmark(plan)


@pytest.mark.parametrize("change,problem", [
    ({"runs": 2.5}, "runs must be a positive integer, got 2.5"),
    ({"runs": True}, "runs must be a positive integer, got True"),
    ({"base_seed": 1.0}, "base_seed must be a non-negative integer, got 1.0"),
    ({"horizons": [1.5]}, "horizon must be a positive integer, got 1.5"),
    ({"horizons": [1, False]}, "horizon must be a positive integer, got False"),
    ({"datasets": [DatasetRef(True, "X_MW")]}, "dataset path must be text, got True"),
    ({"datasets": [DatasetRef("x.csv", None)]}, "dataset column must be text, got None"),
    ({"models": [ModelEntry(kind="linreg", name=1)]}, "model name must be text, got 1"),
])
def test_plan_refuses_wrong_types_before_reading_a_file(monkeypatch, change, problem):
    plan = BenchmarkPlan(**{"datasets": [DatasetRef("x.csv", "X_MW")], "horizons": [1],
                            "models": [ModelEntry(kind="linreg")], **change})
    monkeypatch.setattr(eval_bench, "load_pjm_csv", lambda *args: pytest.fail("a data file was read"))
    with pytest.raises(PlanError, match=f"^{re.escape(problem)}$"):
        run_benchmark(plan)


def test_plan_takes_numpy_integers(tmp_path, short_series):
    path = write_pjm_csv(short_series, tmp_path / "sine.csv")
    plan = BenchmarkPlan(datasets=[DatasetRef(str(path), "SINE_MW")], horizons=[np.int64(2)],
                         models=[ModelEntry(kind="linreg")], runs=np.int32(2), base_seed=np.uint8(3))
    results = run_benchmark(plan)
    assert [(r.horizon, r.seed) for r in results] == [(2, 3), (2, 4)]
    assert type(results[0].horizon) is int and type(results[0].seed) is int


# --------------------------------------------------------------- aggregate --

def test_aggregate_identical_scores_have_zero_std():
    stats = aggregate(_results([0.3] * 5))[(1, "DS", "A")]
    assert stats.mean_rmse == 0.3
    assert stats.std_rmse == 0.0


def test_aggregate_two_value_cell():
    stats = aggregate(_results([0.1, 0.2]))[(1, "DS", "A")]
    assert stats.mean_rmse == pytest.approx(0.15, abs=1e-12)
    assert stats.std_rmse == pytest.approx(0.07071067811865, abs=1e-9)
    assert stats.std_x100 == pytest.approx(7.071067811865, abs=1e-7)


def test_aggregate_mean_within_run_range():
    values = [0.4, 0.1, 0.35, 0.2]
    stats = aggregate(_results(values))[(1, "DS", "A")]
    assert min(values) <= stats.mean_rmse <= max(values)


def test_report_bolds_the_row_best_and_every_exact_tie(tmp_path):
    results = _results([0.2, 0.2], model="A") + _results([0.3, 0.3], model="B") \
        + _results([0.2, 0.2], model="C")
    write_report(aggregate(results), results, tmp_path)
    assert "| 1 | DS | **0.200** | 0.300 | **0.200** |\n" in (tmp_path / "report.md").read_text(encoding="utf-8")


def test_aggregate_counts_failures():
    results = _results([0.2, 0.4])
    results.append(RunResult(model="A", dataset="DS", horizon=1, seed=9,
                             error="NonFiniteError: boom"))
    stats = aggregate(results)[(1, "DS", "A")]
    assert stats.runs == 2
    assert stats.failures == 1
    assert stats.mean_rmse == pytest.approx(0.3, abs=1e-12)


def test_aggregate_all_failed_cell_is_marked():
    bad = [RunResult(model="A", dataset="DS", horizon=1, seed=i, error="boom")
           for i in range(2)]
    stats = aggregate(bad)[(1, "DS", "A")]
    assert stats.failed
    assert np.isnan(stats.mean_rmse)


def test_aggregate_refuses_no_results():
    with pytest.raises(ValueError, match="^no results to aggregate$"):
        aggregate([])


def test_aggregate_orders_rows_and_columns_as_first_seen(tmp_path):
    results = (_results([0.5], model="B", dataset="D2", horizon=6) + _results([0.2], model="A", dataset="D1")
               + _results([0.3], model="B", dataset="D1") + _results([0.4], model="A", dataset="D2", horizon=6))
    cells = aggregate(results)
    assert list(cells) == [(6, "D2", "B"), (1, "D1", "A"), (1, "D1", "B"), (6, "D2", "A")]
    write_report(cells, results, tmp_path)
    with open(tmp_path / "results_rmse_mean.csv", newline="", encoding="utf-8") as handle:
        assert [row[:2] for row in csv.reader(handle)] == [
            ["horizon", "dataset"], ["6", "D2"], ["6", "D1"], ["1", "D2"], ["1", "D1"]]
    assert "| horizon | dataset | B | A |\n" in (tmp_path / "report.md").read_text(encoding="utf-8")


# ----------------------------------------------------------------- reports --

def _tiny_cells_and_results():
    results = _results([0.1234, 0.2], model="A") + _results([0.34567, 0.4], model="B")
    return aggregate(results), results


def test_write_report_produces_all_files(tmp_path):
    cells, results = _tiny_cells_and_results()
    paths = write_report(cells, results, tmp_path)
    names = {p.name for p in paths}
    assert names == {"results_rmse_mean.csv", "results_rmse_std.csv",
                     "results_time.csv", "results.json", "report.md"}
    for p in paths:
        assert p.exists()


def test_report_csv_round_trip(tmp_path):
    cells, results = _tiny_cells_and_results()
    write_report(cells, results, tmp_path)
    with open(tmp_path / "results_rmse_mean.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["horizon", "dataset", "A", "B"]
    assert rows[1][0] == "1" and rows[1][1] == "DS"
    assert float(rows[1][2]) == pytest.approx(cells[(1, "DS", "A")].mean_rmse, abs=5e-4)
    assert rows[1][2] == f"{cells[(1, 'DS', 'A')].mean_rmse:.3f}"


def test_report_markdown_bolds_best_cell(tmp_path):
    cells, results = _tiny_cells_and_results()
    write_report(cells, results, tmp_path)
    text = (tmp_path / "report.md").read_text(encoding="utf-8")
    best = cells[(1, "DS", "A")].mean_rmse
    assert f"**{best:.3f}**" in text
    worse = cells[(1, "DS", "B")].mean_rmse
    assert f"**{worse:.3f}**" not in text


def test_report_marks_failed_cells(tmp_path):
    results = _results([0.2, 0.3], model="A")
    results += [RunResult(model="B", dataset="DS", horizon=1, seed=i, error="boom")
                for i in range(2)]
    write_report(aggregate(results), results, tmp_path)
    assert "FAILED" in (tmp_path / "results_rmse_mean.csv").read_text(encoding="utf-8")
    assert "FAILED" in (tmp_path / "report.md").read_text(encoding="utf-8")


def test_report_leaves_a_never_run_cell_blank(tmp_path):
    # B never ran on D1, and A never on D2
    results = _results([0.2], model="A", dataset="D1") + _results([0.3], model="B", dataset="D2")
    write_report(aggregate(results), results, tmp_path)
    report = (tmp_path / "report.md").read_text(encoding="utf-8")
    assert "| 1 | D1 | **0.200** |  |\n| 1 | D2 |  | **0.300** |\n" in report
    with open(tmp_path / "results_rmse_mean.csv", newline="", encoding="utf-8") as handle:
        assert list(csv.reader(handle))[1:] == [["1", "D1", "0.200", ""], ["1", "D2", "", "0.300"]]


def test_write_report_refuses_an_empty_table(tmp_path):
    with pytest.raises(ValueError, match="^cannot write an empty report table$"):
        write_report({}, [], tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_report_json_excludes_wall_time(tmp_path):
    cells, results = _tiny_cells_and_results()
    write_report(cells, results, tmp_path)
    doc = json.loads((tmp_path / "results.json").read_text(encoding="utf-8"))
    assert len(doc["results"]) == 4
    for entry in doc["results"]:
        assert "train_seconds" not in entry
        assert set(entry) == {"model", "dataset", "horizon", "seed", "rmse",
                              "epochs", "param_count", "error"}


# Every report file but results.json (digest-guarded end to end in
# test_acceptance) and results_time.csv, for a fixed set of runs: two
# horizons, an exact tie at (1, D1), a cell whose every run failed, a cell
# with one failed run among good ones, and a cell never run. Recorded before
# the report was rebuilt from its cells alone; the bytes are not to move.
REPORT_SHA256 = {
    "report.md": "920dcc345a97fe17e38f9d9d3f8fe103073f2ce2fea68442621f8fbd6e2edea5",
    "results_rmse_mean.csv": "bed5ff8154c6bc8bccdd22ec853d6b806429260d0cddbced32d172e78fa03562",
    "results_rmse_std.csv": "8013138ccb33ec5480448007f531c5a1c95a277a6bb71d92d3ec6e922b51302b",
}


def _guard_results():
    failed = [RunResult(model="B", dataset="D1", horizon=6, seed=i, error="NonFiniteError: boom") for i in range(2)]
    return (_results([0.25, 0.5], model="A", dataset="D1") + _results([0.4, 0.41], model="B", dataset="D1")
            + _results([0.5, 0.25], model="C", dataset="D1") + _results([0.7], model="A", dataset="D2")
            + _results([0.65, 0.6], model="B", dataset="D2") + _results([0.91], model="C", dataset="D2")
            + _results([1.2, 1.1], model="A", dataset="D1", horizon=6) + failed
            + _results([1.05, 1.3], model="C", dataset="D1", horizon=6)
            + _results([1.5, 1.7], model="A", dataset="D2", horizon=6)
            + [RunResult(model="A", dataset="D2", horizon=6, seed=9, error="ValueError: short")]
            + _results([1.45, 1.62], model="B", dataset="D2", horizon=6))


def test_report_bytes_are_pinned(tmp_path):
    results = _guard_results()
    write_report(aggregate(results), results, tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in REPORT_SHA256}
    assert digests == REPORT_SHA256


def test_report_markdown_escapes_a_pipe_in_a_name(tmp_path):
    results = _results([0.2], model="a|b", dataset="D|1") + _results([0.3], model="C", dataset="D|1")
    write_report(aggregate(results), results, tmp_path)
    lines = (tmp_path / "report.md").read_text(encoding="utf-8").splitlines()
    assert "| horizon | dataset | a\\|b | C |" in lines
    assert "| 1 | D\\|1 | **0.200** | 0.300 |" in lines
    with open(tmp_path / "results_rmse_mean.csv", newline="", encoding="utf-8") as handle:
        assert list(csv.reader(handle)) == [["horizon", "dataset", "a|b", "C"], ["1", "D|1", "0.200", "0.300"]]


# --------------------------------------------------------------- benchmark --

def test_benchmark_cardinality_and_cell_order(tmp_path, short_series):
    path = write_pjm_csv(short_series, tmp_path / "sine.csv")
    plan = BenchmarkPlan(
        datasets=[DatasetRef(str(path), "SINE_MW")],
        horizons=[1, 2],
        models=[ModelEntry(kind="linreg"), ModelEntry(kind="linear")],
        runs=2,
        base_seed=5,
        train=TrainConfig(max_epochs=2, batch_size=64),
    )
    results = run_benchmark(plan)
    assert len(results) == 8
    keys = [(r.horizon, r.model, r.seed) for r in results]
    assert keys == [
        (1, "LinReg", 5), (1, "LinReg", 6), (1, "LinearNN", 5), (1, "LinearNN", 6),
        (2, "LinReg", 5), (2, "LinReg", 6), (2, "LinearNN", 5), (2, "LinearNN", 6),
    ]
    assert all(not r.failed and r.rmse >= 0.0 for r in results)


def test_benchmark_reports_true_param_counts(tmp_path, short_series):
    path = write_pjm_csv(short_series, tmp_path / "sine.csv")
    plan = BenchmarkPlan(
        datasets=[DatasetRef(str(path), "SINE_MW")],
        horizons=[1],
        models=[ModelEntry(kind="stan", units=4, depth=2), ModelEntry(kind="linreg")],
        runs=1,
        train=TrainConfig(max_epochs=2, batch_size=64),
    )
    results = run_benchmark(plan)
    by_model = {r.model: r for r in results}
    # q=45: stan = (45*4 + 4 + 16) + (16 + 4 + 16) + (4 + 1); linreg = 46
    assert by_model["STAN-4-2"].param_count == 241
    assert by_model["LinReg"].param_count == 46


def test_benchmark_records_failures_without_aborting(tmp_path):
    # series long enough to window but far too short to split 64/16/20
    tiny = sine_series(60, name="TINY")
    path = write_pjm_csv(tiny, tmp_path / "tiny.csv")
    plan = BenchmarkPlan(
        datasets=[DatasetRef(str(path), "TINY_MW")],
        horizons=[1, 2],
        models=[ModelEntry(kind="linreg")],
        runs=1,
    )
    results = run_benchmark(plan)
    assert len(results) == 2
    assert all(r.failed for r in results)
    assert all(r.error for r in results)


@pytest.mark.parametrize("error", [TypeError, ShapeError])
def test_benchmark_propagates_programming_errors(tmp_path, short_series, monkeypatch, error):
    # only data and numeric errors become failed cells; a bug must surface, and a
    # ShapeError is one, as the model is built from the windows' own shapes
    path = write_pjm_csv(short_series, tmp_path / "sine.csv")
    plan = BenchmarkPlan(
        datasets=[DatasetRef(str(path), "SINE_MW")],
        horizons=[1],
        models=[ModelEntry(kind="linreg")],
        runs=2,
    )

    def broken_fit(*args, **kwargs):
        raise error("fit_model called wrongly")

    monkeypatch.setattr(eval_bench, "fit_model", broken_fit)
    with pytest.raises(error, match="called wrongly"):
        run_benchmark(plan)


def test_benchmark_same_seed_reproduces(tmp_path, short_series):
    path = write_pjm_csv(short_series, tmp_path / "sine.csv")
    plan = BenchmarkPlan(
        datasets=[DatasetRef(str(path), "SINE_MW")],
        horizons=[1],
        models=[ModelEntry(kind="linear"), ModelEntry(kind="linreg")],
        runs=2,
        train=TrainConfig(max_epochs=3, batch_size=64),
    )
    first = run_benchmark(plan)
    again = run_benchmark(plan)
    assert len(first) == len(again) == 4
    for a, b in zip(first, again):
        assert (a.model, a.seed, a.rmse) == (b.model, b.seed, b.rmse)


def test_benchmark_nonlinear_series_favors_stan(small_plan):
    """Desk-scale regime-switching benchmark: the gated network beats the
    closed-form linear fit by a clear margin on 1-step forecasts."""
    results = run_benchmark(small_plan)
    cells = aggregate(results)
    stan = cells[(1, "LSTAR", "STAN-32-3")]
    linreg = cells[(1, "LSTAR", "LinReg")]
    assert stan.runs == 3 and linreg.runs == 3
    assert stan.mean_rmse <= linreg.mean_rmse - 0.01
