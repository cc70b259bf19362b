"""stanforge benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload fit_stan --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` there,
and every file the run writes goes under ``.perfbench/``. Inputs are built
from ``--seed``. Operations repeat back to back for ``--seconds``: another
starts only while it is expected to end in time, and at least one runs.

``--trace 0`` reports the end-to-end metrics, the same three on every workload:

- ``op_s``: median wall time of one operation: a whole fit with its timed
  predictions and checkpoint round trip (``fit_stan``, ``fit_mlp``), one
  desk-scale matrix (``desk_matrix``), or one simulate, CSV round trip and
  estimate chain (``lstar_oracle``);
- ``setup_s``: median set-up time (inputs from the seed plus a warm-up), over
  four set-ups before the first operation and one before each round;
- ``peak_rss_mb``: peak resident memory of the process.

Each workload also prints its own metrics with sample counts (``epoch_ms``,
``predict_ms``, ``matrix_epochs_per_s``, ``estimate_s`` and others), and the
report file keeps them; the last line carries only what every workload has.

``--trace 1`` alternates an
untraced and a traced operation and reports per-layer metrics per traced
operation, plus the tracing overhead: the traced minus the untraced median
operation time. Spans go to ``.perfbench/<run>/spans.jsonl``.

Every run also checks the outputs: the checks of each operation, that every
operation of the run produced identical outputs, and ``stanforge gradcheck``
at its default spec (outside the timed region). The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` count
operations plus checks, and ``metrics`` maps names to value and unit. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# end-to-end metric -> unit; see BENCHMARK.json for what each means per workload
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def bootstrap(root: Path = ROOT) -> None:
    """Make ``src/stanforge`` of the checkout at ``root`` importable, or exit 2.

    Also pins BLAS to one thread before numpy loads: each workload is one
    caller whose only extra threads are the program's own ``--jobs`` pool.
    With OpenBLAS's default of one thread per core, its threads contend with
    that pool and with each other on a 2-core host, which made run-to-run
    times spread by over a tenth.
    """
    if not (root / "src" / "stanforge" / "__init__.py").is_file():
        print(f"error: no stanforge sources under {root / 'src'}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(numpy) -> int | None:
    """Thread count OpenBLAS reports, if numpy links a recognisable OpenBLAS."""
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_facts(tracing: bool) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(numpy),
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "tracing": tracing,
    }


def _run_op(workload, inputs, workdir, failures):
    try:
        return workload.op(inputs, workdir)
    except Exception:  # an operation that raises is a failed operation, reported below
        failures.append(traceback.format_exc())
        return None


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, run operations for ``seconds``, check them; returns the run report."""
    import layers
    import workloads
    from tracer import Tracer

    gradcheck = workloads.gradcheck(workdir)
    setup_s = []

    def set_up():
        tic = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        setup_s.append(time.perf_counter() - tic)
        return inputs

    # Set-ups are spread over the run, one before each round, so that their
    # median does not hang on the host's speed in its first second.
    for _ in range(SETUP_REPEATS - 1):
        set_up()
    ops, traced, failures = [], [], []
    tracer = Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    while not failures:
        inputs = set_up()
        tic = time.perf_counter()
        ops.append(_run_op(workload, inputs, workdir, failures))
        if tracer is not None:
            layers.install(tracer)
            try:
                traced.append(_run_op(workload, inputs, workdir, failures))
            finally:
                tracer.restore()
        now = time.perf_counter()
        if now + (now - tic) > deadline:
            break
    done = [op for op in ops + traced if op is not None]
    checks = [gradcheck] + [check for op in done for check in op.checks]
    if len(done) > 1:
        same = all(op.fingerprint == done[0].fingerprint for op in done)
        checks.append(workloads.Check("every operation gave identical outputs", same, f"{len(done)} operations"))
    attempted = len(ops) + len(traced) + len(checks)
    failed = len(failures) + sum(not check.passed for check in checks)

    untraced = [op for op in ops if op is not None]
    metrics: dict[str, tuple[float, str]] = {}
    samples: dict[str, int] = {}
    if trace:
        good = [op for op in traced if op is not None]
        overhead = (statistics.median(op.seconds for op in good) - statistics.median(op.seconds for op in untraced)
                    if good and untraced else float("nan"))
        metrics = layers.per_layer_metrics(tracer.spans, max(1, len(good)), overhead)
        samples = dict.fromkeys(metrics, len(good))
        tracer.write_jsonl(workdir / "spans.jsonl")
    elif untraced:
        values = {
            "setup_s": statistics.median(setup_s),
            "op_s": statistics.median(op.seconds for op in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        samples = {"setup_s": len(setup_s), "op_s": len(untraced), "peak_rss_mb": 1}
    detail = workload.report(untraced) if untraced else []
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "host": host_facts(trace),
        "operations": {"untraced": len(ops), "traced": len(traced)},
        "setup_s": setup_s,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        "errors": failures,
        "workload_metrics": [m.__dict__ for m in detail],
        "computed": sorted(layers.COMPUTED) if trace else [],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "metric_samples": samples,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }


def print_report(report: dict) -> None:
    host = report["host"]
    print(f"# {report['workload']} seed {report['seed']}, {report['seconds']} s, tracing {'on' if host['tracing'] else 'off'}")
    print(f"# host: {host['nproc']} cores, {host['cpu_model']}, Python {host['python']}, numpy {host['numpy']}, "
          f"{host['blas']} {host['blas_version']} ({host['blas_threads']} threads)")
    ops = report["operations"]
    print(f"operations: {ops['untraced']} untraced, {ops['traced']} traced")
    for m in report["workload_metrics"]:
        print(f"{m['name']:<24} {m['value']:>14.6g} {m['unit']:<10} n={m['samples']}")
    computed = set(report["computed"])
    for name, metric in report["metrics"].items():
        label = "  (computed)" if name in computed else ""
        print(f"{name:<48} {metric['value']:>14.6g} {metric['unit']:<6} n={report['metric_samples'][name]}{label}")
    grouped: dict[str, list[dict]] = {}
    for check in report["checks"]:
        grouped.setdefault(check["name"], []).append(check)
    for name, group in grouped.items():
        bad = [c for c in group if not c["passed"]]
        shown = (bad or group)[-1]["detail"]
        print(f"check {'FAIL' if bad else 'ok  '} {name}: {len(group) - len(bad)}/{len(group)} passed; {shown}")
    for error in report["errors"]:
        print(error, file=sys.stderr)
    print(f"fail_ratio {report['failed'] / report['attempted']:.6g} ({report['failed']} of {report['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    report = measure(workloads.WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), workdir)
    (workdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print_report(report)
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
