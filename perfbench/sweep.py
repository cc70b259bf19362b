"""Steadiness sweep and baseline for the stanforge benchmark.

    python3 perfbench/sweep.py --seeds 10 --trace --jobs --out perfbench/baseline.json

Runs ``run.py`` once per seed on each workload with tracing off, and reports
for every end-to-end metric the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the distance
between the quartiles as a share of the median, against the metric's bound in
BENCHMARK.json (a spread should stay below a third of it). The workload's own
metrics are summarized the same way.

``--trace`` also runs each workload twice traced at the first seed, checks
that every computed count and call count repeats exactly, and records each
layer's share of traced self time. ``--jobs`` times the ``desk_matrix``
operation in this process with one worker and with the default pool,
alternating, to show what the pool buys.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, bootstrap, host_facts

# The profile measured when the ROADMAP was last re-anchored, on 2 cores.
REFERENCE_PROFILE = {
    "fit_stan epoch_ms.p50": "96-114 ms",
    "fit_mlp epoch_ms.p50": "25-28 ms",
    "fit_stan transition_g share of self time": "about 0.42",
    "fit_stan adam_step share of self time": "about 0.09 (0.11 of training time in the ROADMAP)",
    "fit_mlp adam_step share of self time": "about 0.21",
    "desk_matrix default pool over one worker, op time": "no faster (3.2 s vs 3.1 s)",
}


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    report = json.loads((ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}" / "report.json").read_text())
    return result, report


def sweep_workload(spec: dict, workload: str, seeds: list[int]) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    e2e: dict[str, list[float]] = {name: [] for name in bounds}
    own: dict[str, list[float]] = {}
    units: dict[str, tuple[str, int]] = {}
    for seed in seeds:
        tic = time.perf_counter()
        result, report = run_once(workload, seed, spec["run_seconds"], 0)
        for name in bounds:
            e2e[name].append(result["metrics"][name]["value"])
        for m in report["workload_metrics"]:
            own.setdefault(m["name"], []).append(m["value"])
            units[m["name"]] = (m["unit"], m["samples"])
        print(f"{workload} seed {seed}: " + ", ".join(f"{k} {v[-1]:.6g}" for k, v in e2e.items())
              + f" ({time.perf_counter() - tic:.1f} s wall)", flush=True)
    out = {"end_to_end": {}, "workload_metrics": {}}
    for name, values in e2e.items():
        s = spread(values)
        s["bound"] = bounds[name]
        s["within_third_of_bound"] = s["spread"] <= bounds[name] / 3
        out["end_to_end"][name] = s
        print(f"  {name:<14} median {s['median']:.6g} spread {s['spread']:.4f} (bound {bounds[name]})"
              f"{'' if s['within_third_of_bound'] else '  <-- above a third of the bound'}")
    for name, values in own.items():
        s = spread(values)
        s["unit"], s["samples_per_run"] = units[name]
        out["workload_metrics"][name] = s
        print(f"  {name:<24} median {s['median']:.6g} {s['unit']} spread {s['spread']:.4f}")
    return out


def trace_workload(workload: str, seed: int, seconds: int) -> dict:
    first, report = run_once(workload, seed, seconds, 1)
    second, _ = run_once(workload, seed, seconds, 1)
    computed = set(report["computed"])
    exact = [name for name in first["metrics"] if name in computed or name.endswith(".calls")]
    differing = [name for name in exact if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
    selfs = {name.removesuffix(".self_s"): m["value"] for name, m in first["metrics"].items() if name.endswith(".self_s")}
    total = sum(selfs.values())
    shares = {name: value / total for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]) if value > 0}
    print(f"{workload} traced twice at seed {seed}: {len(exact) - len(differing)} of {len(exact)} counts repeat exactly"
          + (f"; differ: {differing}" if differing else ""), flush=True)
    return {
        "seed": seed,
        "counts_repeat_exactly": not differing,
        "differing_counts": differing,
        "overhead_s": first["metrics"]["trace.overhead_s"]["value"],
        "self_s_total": total,
        "self_share": shares,
        "metrics": {name: m["value"] for name, m in first["metrics"].items()},
    }


def compare_jobs(seed: int, repeats: int = 2) -> dict:
    bootstrap()
    import workloads

    workdir = ROOT / ".perfbench" / "sweep-jobs"
    workdir.mkdir(parents=True, exist_ok=True)
    times: dict[str, list[float]] = {"1": [], "default": []}
    for i in range(repeats):
        for label, jobs in (("1", 1), ("default", None)) if i % 2 == 0 else (("default", None), ("1", 1)):
            desk = workloads.DeskMatrix(jobs=jobs)
            op = desk.op(desk.setup(seed, workdir), workdir)
            if not all(check.passed for check in op.checks):
                raise RuntimeError(f"desk_matrix with jobs={label} failed its checks")
            times[label].append(op.seconds)
            print(f"desk_matrix jobs={label}: {op.seconds:.3f} s", flush=True)
    ratio = statistics.median(times["default"]) / statistics.median(times["1"])
    return {"seed": seed, "op_s": times, "default_over_one_worker": ratio}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=None, help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="also run each workload traced, twice")
    parser.add_argument("--jobs", action="store_true", help="compare desk_matrix with one worker and the default pool")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    parser.add_argument("--compare", default=None, help="summary JSON of an earlier sweep to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary = {"host": None, "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}, "trace": {}}
    for name in names:
        summary["workloads"][name] = sweep_workload(spec, name, seeds)
    if args.trace:
        for name in names:
            summary["trace"][name] = trace_workload(name, seeds[0], spec["run_seconds"])
    if args.jobs:
        summary["jobs"] = compare_jobs(seeds[0])
    bootstrap()
    summary["host"] = host_facts(tracing=False)
    summary["reference_profile"] = REFERENCE_PROFILE
    steady = all(m["within_third_of_bound"] for w in summary["workloads"].values()
                 for name, m in w["end_to_end"].items() if name != "setup_s")
    exact = all(t["counts_repeat_exactly"] for t in summary["trace"].values())
    print(f"steady: {steady}; computed counts repeat exactly: {exact}")
    agree = True
    if args.compare:
        summary["compared_with"] = args.compare
        agree = compare(json.loads(Path(args.compare).read_text()), summary)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if steady and exact and agree else 1


def compare(before: dict, after: dict) -> bool:
    """Print how far each end-to-end median moved; False if one got worse by more than its bound."""
    ok = True
    for workload, result in after["workloads"].items():
        for name, m in result["end_to_end"].items():
            old = before["workloads"].get(workload, {}).get("end_to_end", {}).get(name)
            if old is None:
                continue
            change = m["median"] / old["median"] - 1.0
            worse = change > m["bound"]
            ok &= not worse
            print(f"{workload:<13} {name:<12} {old['median']:.6g} -> {m['median']:.6g} ({change:+.2%}, bound {m['bound']:.0%})"
                  + ("  <-- worse than the bound" if worse else ""))
    return ok


if __name__ == "__main__":
    sys.exit(main())
