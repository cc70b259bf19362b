"""Tests for the benchmark's tracer, layer table and BENCHMARK.json.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import importlib.util
import json
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, pool_busy_ratio, self_times, summarize  # noqa: E402


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        Span(1, 0, 7, "root", 0.0, 10.0, 10.0, None),
        Span(2, 1, 7, "child", 1.0, 4.0, 3.0, None),
        Span(3, 2, 7, "grandchild", 2.0, 3.0, 1.0, None),
        Span(4, 1, 7, "child", 5.0, 6.5, 1.0, None),
    ]
    assert self_times(spans) == {1: 5.5, 2: 2.0, 3: 1.0, 4: 1.5}
    stats = summarize(spans)
    assert stats["child"].calls == 2
    assert stats["child"].self_s == pytest.approx(3.5)
    assert stats["child"].wait_s == pytest.approx(0.5)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(10.0)


def test_pool_busy_ratio_counts_worker_roots_inside_the_call():
    spans = [
        Span(1, 0, 1, "run", 0.0, 10.0, 0.5, {"jobs": 2}),
        Span(2, 0, 2, "cell", 0.0, 8.0, 8.0, None),
        Span(3, 2, 2, "inner", 1.0, 2.0, 1.0, None),
        Span(4, 0, 3, "cell", 1.0, 9.0, 8.0, None),
        Span(5, 0, 3, "cell", 11.0, 12.0, 1.0, None),
    ]
    assert pool_busy_ratio(spans, "run", "jobs") == pytest.approx(16.0 / 20.0)


def test_span_stacks_are_per_thread_under_a_two_worker_pool():
    module = types.ModuleType("fake_layer")
    barrier = threading.Barrier(2, timeout=10)

    def inner(i):
        time.sleep(0.01)
        return i

    def outer(i):
        barrier.wait()  # both workers sit inside an outer span at the same time
        return module.inner(i) + module.inner(i)

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.patch_function("inner", inner, [module])
    tracer.patch_function("outer", outer, [module])
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(module.outer, range(4)))
    finally:
        tracer.restore()
    assert results == [0, 2, 4, 6]
    assert module.inner is inner and module.outer is outer
    by_id = {s.sid: s for s in tracer.spans}
    outers = [s for s in tracer.spans if s.label == "outer"]
    inners = [s for s in tracer.spans if s.label == "inner"]
    assert len(outers) == 4 and len(inners) == 8
    assert len({s.thread for s in outers}) == 2
    assert all(s.parent == 0 for s in outers)
    for span in inners:
        parent = by_id[span.parent]
        assert parent.label == "outer" and parent.thread == span.thread
        assert parent.start <= span.start and span.end <= parent.end


def _bindings() -> dict:
    """Every module attribute of stanforge, and every attribute of its classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "stanforge" and not name.startswith("stanforge."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("stanforge"):
                for member, inner in vars(value).items():
                    out[(name, attr, member)] = inner
    return out


def test_install_reaches_each_binding_and_restore_puts_the_originals_back():
    import stanforge.cli  # noqa: F401  (the package does not import its CLI)

    before = _bindings()
    tracer = Tracer()
    layers.install(tracer)
    try:
        during = _bindings()
    finally:
        tracer.restore()
    after = _bindings()
    patched = {key for key, value in during.items() if before[key] is not value}
    for key in [("stanforge.numerics", "affine_forward"), ("stanforge.stan_core", "affine_forward"),
                ("stanforge.baselines", "affine_forward"), ("stanforge.training", "adam_step"),
                ("stanforge.eval_bench", "train"), ("stanforge.cli", "train"), ("stanforge", "train"),
                ("stanforge.stan_core", "StanNetwork", "forward")]:
        assert key in patched, key
    for layer in layers.LAYERS:
        assert (f"stanforge.{layer.module}", *layer.qualname.split(".")) in patched, layer.label
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


SMALL_WORKLOADS = {
    "fit_stan": lambda: workloads.Fit("fit_stan", "stan", epochs=2, predicts=1),
    "fit_mlp": lambda: workloads.Fit("fit_mlp", "mlp", epochs=2, predicts=1),
    "desk_matrix": lambda: workloads.DeskMatrix(plan_args=("--horizons", "1", "--runs", "1", "--max-epochs", "2")),
    "lstar_oracle": lambda: workloads.LstarOracle(series_length=3000),
}


@pytest.fixture(scope="module")
def traced_calls(tmp_path_factory) -> dict[str, dict[str, int]]:
    """Layer label -> call count for one traced operation of each workload, at reduced size."""
    calls = {}
    for name, make in SMALL_WORKLOADS.items():
        workload = make()
        workdir = tmp_path_factory.mktemp(name)
        inputs = workload.setup(1, workdir)
        tracer = Tracer()
        layers.install(tracer)
        try:
            workload.op(inputs, workdir)
        finally:
            tracer.restore()
        calls[name] = {label: stats.calls for label, stats in summarize(tracer.spans).items()}
    return calls


@pytest.mark.parametrize("layer", layers.LAYERS, ids=lambda layer: layer.label)
def test_every_layer_records_calls_on_the_workload_meant_to_exercise_it(traced_calls, layer):
    assert traced_calls[layer.workload].get(layer.label, 0) > 0


def test_gate_layers_make_no_calls_on_fit_mlp(traced_calls):
    gate = [layer.label for layer in layers.LAYERS if layer.module == "stan_core"]
    assert gate and all(traced_calls["fit_mlp"].get(label, 0) == 0 for label in gate)


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.metric_specs()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {layer.workload for layer in layers.LAYERS} <= set(workloads.WORKLOADS)


def test_generator_matches_the_test_fixture():
    spec = importlib.util.spec_from_file_location("stanforge_tests_conftest", ROOT / "tests" / "conftest.py")
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    expected, got = fixtures.nonlinear_generator(), workloads.GENERATOR
    for field in ("phi0", "gamma", "c", "delay", "sigma"):
        assert getattr(got, field) == getattr(expected, field)
    assert np.array_equal(got.phi, expected.phi) and np.array_equal(got.theta, expected.theta)
