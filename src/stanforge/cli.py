"""Command-line entry point: one executable with five subcommands.

    stanforge simulate   write a synthetic smooth-transition AR series
    stanforge train      train one model on one series, save a checkpoint
    stanforge gradcheck  verify analytic gradients against finite differences
    stanforge benchmark  run the models x horizons x runs matrix and report
    stanforge fixtures   emit small deterministic CSVs in the hourly layout

Every subcommand is deterministic given (args, config, seed). Outputs land
in a timestamp-free, seed-named run directory under --out (or the
STANFORGE_OUT environment variable, or ./runs), and the effective
configuration is echoed to ``config.json`` there, so any run can be replayed
exactly via ``--config``.

Exit codes: 0 success, 1 usage/config error, 2 runtime/numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .baselines import MODEL_KINDS, ConditioningError
from .checkpoint import CheckpointError, save_checkpoint
from .data import (
    DataFormatError,
    TimeSeries,
    hourly_timestamps,
    load_pjm_csv,
    lookback_for,
    prepare_splits,
    write_pjm_csv,
)
from .eval_bench import (
    BenchmarkPlan,
    DatasetRef,
    ModelEntry,
    PlanError,
    aggregate,
    fit_model,
    rmse,
    run_benchmark,
    write_report,
)
from .numerics import (
    NondeterministicLossError,
    NonFiniteError,
    finite_diff_errors,
    mse_loss,
)
from .stan_core import NetworkSpec, StanNetwork
from .star_classic import (
    EstimationError,
    ExplosiveDynamicsError,
    LstarParams,
    simulate_lstar,
)
# ``train`` is unused here but kept as a module binding: the perfbench
# tracer test checks that it wraps ``stanforge.cli.train``.
from .training import DivergenceError, TrainConfig, train  # noqa: F401

__all__ = ["main", "UsageError"]

logger = logging.getLogger(__name__)

GRADCHECK_GROUPS = ("W", "b", "phi", "theta", "gamma", "c", "projection")

DESK_SCALE_UNITS = 32
DESK_SCALE_EPOCHS = 40


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage problems on exit code 1
        raise UsageError(message)


@dataclass
class CliContext:
    """Resolved shared settings: where outputs go and how chatty to be."""

    subcommand: str
    out_dir: Path
    run_dir: Path
    seed: int
    verbosity: int
    config: dict


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return doc


def _pick(flag_value, config: dict, key: str, default):
    """Precedence: explicit flag > config file > built-in default."""
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _make_context(args, default_seed: int = 0) -> CliContext:
    config = _load_config(getattr(args, "config", None))
    seed = int(_pick(args.seed, config, "seed", default_seed))
    out = _pick(args.out, config, "out", None) or os.environ.get("STANFORGE_OUT") or "runs"
    out_dir = Path(out)
    run_dir = out_dir / f"{args.subcommand}-seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    return CliContext(
        subcommand=args.subcommand,
        out_dir=out_dir,
        run_dir=run_dir,
        seed=seed,
        verbosity=args.verbose,
        config=config,
    )


def _echo_config(ctx: CliContext, effective: dict) -> None:
    with open(ctx.run_dir / "config.json", "w") as handle:
        json.dump(effective, handle, indent=2)
        handle.write("\n")


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _coerce_floats(value, default: list[float]) -> list[float]:
    """Accept a comma-separated string (flag) or a JSON list (config)."""
    if value is None:
        return list(default)
    if isinstance(value, str):
        return _parse_floats(value)
    return [float(v) for v in value]


def _train_config(args, config: dict, preset_epochs: int | None = None) -> TrainConfig:
    merged = asdict(TrainConfig())
    file_train = config.get("train", {})
    if not isinstance(file_train, dict):
        raise UsageError("config key 'train' must be a JSON object")
    unknown = set(file_train) - set(merged)
    if unknown:
        raise UsageError(f"unknown train config key(s): {sorted(unknown)}")
    merged.update(file_train)
    if preset_epochs is not None and getattr(args, "max_epochs", None) is None and "max_epochs" not in file_train:
        merged["max_epochs"] = preset_epochs
    for key in ("max_epochs", "batch_size", "lr"):
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    try:
        return TrainConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid training configuration: {exc}") from None


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    ctx = _make_context(args)
    cfg = ctx.config
    params = LstarParams(
        phi0=float(_pick(args.phi0, cfg, "phi0", 0.0)),
        phi=_coerce_floats(_pick(args.phi, cfg, "phi", None), [0.9]),
        theta=_coerce_floats(_pick(args.theta, cfg, "theta", None), [-1.4]),
        gamma=float(_pick(args.gamma, cfg, "gamma", 20.0)),
        c=float(_pick(args.c, cfg, "c", 0.0)),
        delay=int(_pick(args.delay, cfg, "delay", 1)),
        sigma=float(_pick(args.sigma, cfg, "sigma", 0.05)),
    )
    n = int(_pick(args.n, cfg, "n", 1000))
    burn_in = int(_pick(args.burn_in, cfg, "burn_in", 0))
    name = str(_pick(args.name, cfg, "name", "SIM"))
    pjm_layout = bool(args.pjm_layout or cfg.get("pjm_layout", False))
    series = simulate_lstar(params, n=n, burn_in=burn_in, seed=ctx.seed, name=name)
    if pjm_layout:
        series = TimeSeries(name=name, timestamps=hourly_timestamps(n), values=series.values)
        series_path = write_pjm_csv(series, ctx.run_dir / "series.csv")
    else:
        series_path = ctx.run_dir / "series.csv"
        with open(series_path, "w") as handle:
            handle.write("t,value\n")
            for t, value in zip(series.timestamps, series.values):
                handle.write(f"{int(t)},{float(value)!r}\n")
    effective = {
        "n": n,
        "burn_in": burn_in,
        "seed": ctx.seed,
        "name": name,
        "pjm_layout": pjm_layout,
        "phi0": params.phi0,
        "phi": params.phi.tolist(),
        "theta": params.theta.tolist(),
        "gamma": params.gamma,
        "c": params.c,
        "delay": params.delay,
        "sigma": params.sigma,
    }
    _echo_config(ctx, effective)
    with open(ctx.run_dir / "params.json", "w") as handle:
        json.dump(effective, handle, indent=2)
        handle.write("\n")
    print(f"wrote {series_path} ({n} observations)")
    return 0


# ------------------------------------------------------------------- train


def cmd_train(args) -> int:
    ctx = _make_context(args)
    cfg = ctx.config
    data_path = _pick(args.data, cfg, "data", None)
    column = _pick(args.column, cfg, "column", None)
    if data_path is None or column is None:
        raise UsageError("train needs --data and --column (or config keys 'data'/'column')")
    kind = str(_pick(args.model, cfg, "model", "stan"))
    if kind not in MODEL_KINDS:
        raise UsageError(f"unknown model kind {kind!r}; expected one of {', '.join(MODEL_KINDS)}")
    units = int(_pick(args.units, cfg, "units", 64))
    depth = int(_pick(args.depth, cfg, "depth", 3))
    horizon = int(_pick(args.horizon, cfg, "horizon", 1))
    lookback = _pick(args.lookback, cfg, "lookback", None)
    split = str(_pick(args.split, cfg, "split", "random"))
    train_cfg = _train_config(args, cfg).with_seed(ctx.seed)

    series = load_pjm_csv(data_path, column)
    prep = prepare_splits(series, horizon, lookback=None if lookback is None else int(lookback),
                          mode=split, seed=ctx.seed)
    effective = {
        "data": str(data_path),
        "column": column,
        "model": kind,
        "units": units,
        "depth": depth,
        "horizon": horizon,
        "lookback": prep.lookback,
        "split": split,
        "seed": ctx.seed,
        "train": asdict(train_cfg),
    }
    _echo_config(ctx, effective)

    model, history = fit_model(ModelEntry(kind=kind, units=units, depth=depth), prep, train_cfg, ctx.seed)
    history.write_csv(ctx.run_dir / "history.csv")
    test_rmse = rmse(prep.test.targets, model.predict(prep.test.inputs))
    save_checkpoint(ctx.run_dir / "checkpoint.json", model, scaler=prep.scaler)
    summary = {
        "model": kind,
        "dataset": series.name,
        "horizon": horizon,
        "lookback": prep.lookback,
        "seed": ctx.seed,
        "rmse": test_rmse,
        "best_val_loss": history.best_val_loss,
        "epochs": len(history),
        "param_count": model.num_params(),
        "scaler": {"mean": prep.scaler.mean, "std": prep.scaler.std},
    }
    with open(ctx.run_dir / "summary.json", "w") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    print(f"{kind}: test RMSE {test_rmse:.4f} (standardized) after {len(history)} epoch(s); "
          f"outputs in {ctx.run_dir}")
    return 0


# --------------------------------------------------------------- gradcheck


def _group_of(name: str) -> str:
    if name.startswith("proj."):
        return "projection"
    return name.rsplit(".", 1)[-1]


def cmd_gradcheck(args) -> int:
    ctx = _make_context(args)
    cfg = ctx.config
    spec = NetworkSpec(
        lookback=int(_pick(args.lookback, cfg, "lookback", 5)),
        units=int(_pick(args.units, cfg, "units", 4)),
        depth=int(_pick(args.depth, cfg, "depth", 3)),
        horizon=int(_pick(args.horizon, cfg, "horizon", 2)),
    )
    batch = int(_pick(args.batch, cfg, "batch", 3))
    eps = float(_pick(args.eps, cfg, "eps", 1e-5))
    tol = float(_pick(args.tol, cfg, "tol", 1e-5))
    corrupt = args.corrupt

    rng = np.random.default_rng(ctx.seed)
    model = StanNetwork(spec, seed=ctx.seed)
    # make every gradient path active: nonzero theta, varied gates
    for i in range(spec.depth):
        d = spec.units
        model.params[f"layers.{i}.phi"] = rng.uniform(0.5, 1.5, d)
        model.params[f"layers.{i}.theta"] = rng.uniform(0.5, 1.5, d)
        model.params[f"layers.{i}.gamma"] = rng.uniform(0.5, 2.0, d)
        model.params[f"layers.{i}.c"] = rng.uniform(-0.5, 0.5, d)
    x = rng.standard_normal((batch, spec.lookback))
    target = rng.standard_normal((batch, spec.horizon))

    def loss_fn(params):
        pred, cache = model.forward(x)
        loss, dpred = mse_loss(pred, target)
        grads = model.backward(cache, dpred)
        if corrupt is not None:
            for name in grads:
                if _group_of(name) == corrupt:
                    grads[name] = grads[name] * 2.0
        return loss, grads

    per_param = finite_diff_errors(loss_fn, model.params, eps=eps)
    groups: dict[str, float] = {g: 0.0 for g in GRADCHECK_GROUPS}
    for name, err in per_param.items():
        group = _group_of(name)
        groups[group] = max(groups[group], err)
    worst = max(groups.values())
    report_lines = [f"gradient check on spec {spec} with batch {batch}, eps {eps:g}"]
    for group in GRADCHECK_GROUPS:
        report_lines.append(f"  {group:<10} max relative error {groups[group]:.3e}")
    verdict = "OK" if worst < tol else "FAIL"
    report_lines.append(f"worst {worst:.3e} vs tolerance {tol:g}: {verdict}")
    text = "\n".join(report_lines)
    print(text)
    (ctx.run_dir / "gradcheck.txt").write_text(text + "\n")
    _echo_config(ctx, {
        "lookback": spec.lookback, "units": spec.units, "depth": spec.depth,
        "horizon": spec.horizon, "batch": batch, "eps": eps, "tol": tol,
        "seed": ctx.seed, "corrupt": corrupt,
    })
    return 0 if worst < tol else 2


# --------------------------------------------------------------- benchmark


def _plan_from_args(args, cfg: dict, base_seed: int) -> tuple[BenchmarkPlan, int, bool]:
    desk_scale = bool(args.desk_scale or cfg.get("desk_scale", False))
    default_units = DESK_SCALE_UNITS if desk_scale else 64
    preset_epochs = DESK_SCALE_EPOCHS if desk_scale else None

    datasets_cfg = cfg.get("datasets")
    data_flag = getattr(args, "data", None)
    column_flag = getattr(args, "column", None)
    if data_flag is not None or column_flag is not None:
        if data_flag is None or column_flag is None:
            raise UsageError("benchmark needs both --data and --column (or a 'datasets' config list)")
        datasets = [DatasetRef(path=str(data_flag), column=str(column_flag))]
    elif datasets_cfg:
        try:
            datasets = [DatasetRef(path=str(d["path"]), column=str(d["column"])) for d in datasets_cfg]
        except (TypeError, KeyError) as exc:
            raise UsageError(f"each dataset entry needs 'path' and 'column': {exc}") from None
    else:
        raise UsageError("benchmark needs --data/--column or a 'datasets' config list")

    horizons = _parse_ints(args.horizons) if args.horizons is not None else [int(h) for h in cfg.get("horizons", [1])]
    units = int(_pick(args.units, cfg, "units", default_units))
    depth = int(_pick(args.depth, cfg, "depth", 3))

    if args.models is not None:
        kinds = [k.strip() for k in args.models.split(",") if k.strip()]
        models = [ModelEntry(kind=k, units=units, depth=depth) for k in kinds]
    elif "models" in cfg:
        models = []
        for entry in cfg["models"]:
            if not isinstance(entry, dict) or "kind" not in entry:
                raise UsageError(f"each model entry needs at least a 'kind': {entry!r}")
            models.append(ModelEntry(
                kind=entry["kind"],
                units=int(entry.get("units", units)),
                depth=int(entry.get("depth", depth)),
                name=entry.get("name", ""),
            ))
    else:
        models = [ModelEntry(kind=name, units=units, depth=depth) if kind.sized else ModelEntry(kind=name)
                  for name, kind in MODEL_KINDS.items()]

    runs = int(_pick(args.runs, cfg, "runs", 5))
    split = str(_pick(args.split, cfg, "split", "random"))
    train_cfg = _train_config(args, cfg, preset_epochs=preset_epochs)
    jobs = int(_pick(args.jobs, cfg, "jobs", os.cpu_count() or 1))
    plan = BenchmarkPlan(datasets=datasets, horizons=horizons, models=models,
                         runs=runs, base_seed=base_seed, split=split, train=train_cfg)
    return plan, jobs, desk_scale


def cmd_benchmark(args) -> int:
    ctx = _make_context(args)
    plan, jobs, _ = _plan_from_args(args, ctx.config, base_seed=ctx.seed)
    try:
        plan.validate()
    except PlanError as exc:
        raise UsageError(str(exc)) from None
    effective = {
        "datasets": [{"path": d.path, "column": d.column} for d in plan.datasets],
        "horizons": plan.horizons,
        "lookbacks": [lookback_for(h) for h in plan.horizons],
        "models": [{"kind": m.kind, "units": m.units, "depth": m.depth, "name": m.name}
                   for m in plan.models],
        "runs": plan.runs,
        "seed": plan.base_seed,
        "split": plan.split,
        "train": asdict(plan.train),
        "jobs": jobs,
    }
    _echo_config(ctx, effective)
    results = run_benchmark(plan, jobs=jobs)
    table = aggregate(results)
    written = write_report(table, results, ctx.run_dir)
    failed = sum(1 for r in results if r.failed)
    print(f"benchmark: {len(results)} run(s), {failed} failed; reports in {ctx.run_dir}")
    for path in written:
        print(f"  {path.name}")
    if failed == len(results):
        print("error: every run failed", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- fixtures


def _fixture_series(region: str, index: int, n: int, seed: int) -> TimeSeries:
    """Deterministic hourly series: daily + weekly harmonics on a regime-
    switching residual, scaled to megawatt-like magnitudes."""
    residual = simulate_lstar(
        LstarParams(phi0=0.0, phi=[0.9], theta=[-1.4], gamma=20.0, c=0.0, sigma=0.05),
        n=n, seed=seed + index, name=region,
    )
    hours = np.arange(n)
    values = (
        1500.0 + 200.0 * index
        + 250.0 * np.sin(2.0 * math.pi * hours / 24.0 + 0.3 * index)
        + 120.0 * np.sin(2.0 * math.pi * hours / 168.0 + 0.7 * index)
        + 80.0 * residual.values
    )
    return TimeSeries(name=region, timestamps=hourly_timestamps(n), values=values)


def cmd_fixtures(args) -> int:
    ctx = _make_context(args)
    cfg = ctx.config
    regions_text = _pick(args.regions, cfg, "regions", "EAST,WEST")
    regions = [r.strip() for r in str(regions_text).split(",") if r.strip()]
    if not regions:
        raise UsageError("fixtures needs at least one region name")
    n = int(_pick(args.n, cfg, "n", 4000))
    paths = []
    for index, region in enumerate(regions):
        series = _fixture_series(region, index, n, ctx.seed)
        paths.append(write_pjm_csv(series, ctx.run_dir / f"{region}.csv"))
    _echo_config(ctx, {"regions": regions, "n": n, "seed": ctx.seed})
    for path in paths:
        print(f"wrote {path}")
    return 0


# -------------------------------------------------------------------- main


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--out", help="output directory (fallback: $STANFORGE_OUT, then ./runs)")
    sub.add_argument("--seed", type=int, default=None, help="base random seed (default 0)")
    sub.add_argument("-v", "--verbose", action="count", default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stanforge", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sim = subs.add_parser("simulate", help="write a synthetic smooth-transition AR series")
    _add_common(sim)
    sim.add_argument("--n", type=int, default=None, help="observations to keep (default 1000)")
    sim.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    sim.add_argument("--phi0", type=float, default=None, help="intercept")
    sim.add_argument("--phi", default=None, help="comma-separated AR coefficients")
    sim.add_argument("--theta", default=None, help="comma-separated gated AR coefficients")
    sim.add_argument("--gamma", type=float, default=None, help="gate steepness")
    sim.add_argument("--c", type=float, default=None, help="gate midpoint")
    sim.add_argument("--delay", type=int, default=None, help="transition-variable lag")
    sim.add_argument("--sigma", type=float, default=None, help="noise standard deviation")
    sim.add_argument("--name", default=None, help="series name (default SIM)")
    sim.add_argument("--pjm-layout", dest="pjm_layout", action="store_true",
                     help="write Datetime/<NAME>_MW columns instead of t/value")
    sim.set_defaults(func=cmd_simulate)

    tr = subs.add_parser("train", help="train one model on one series")
    _add_common(tr)
    tr.add_argument("--data", default=None, help="CSV path")
    tr.add_argument("--column", default=None, help="value column, e.g. AEP_MW")
    tr.add_argument("--model", default=None, choices=list(MODEL_KINDS))
    tr.add_argument("--units", type=int, default=None)
    tr.add_argument("--depth", type=int, default=None)
    tr.add_argument("--horizon", type=int, default=None)
    tr.add_argument("--lookback", type=int, default=None, help="override max(45, 5*horizon)")
    tr.add_argument("--split", default=None, choices=["random", "contiguous"])
    tr.add_argument("--max-epochs", dest="max_epochs", type=int, default=None)
    tr.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    tr.add_argument("--lr", type=float, default=None)
    tr.set_defaults(func=cmd_train)

    gc = subs.add_parser("gradcheck", help="finite-difference check of the backward pass")
    _add_common(gc)
    gc.add_argument("--lookback", type=int, default=None)
    gc.add_argument("--units", type=int, default=None)
    gc.add_argument("--depth", type=int, default=None)
    gc.add_argument("--horizon", type=int, default=None)
    gc.add_argument("--batch", type=int, default=None)
    gc.add_argument("--eps", type=float, default=None)
    gc.add_argument("--tol", type=float, default=None)
    gc.add_argument("--corrupt", default=None,
                    choices=["W", "b", "phi", "theta", "gamma", "c", "projection"],
                    help="double the analytic gradient of one group (checker sanity)")
    gc.set_defaults(func=cmd_gradcheck)

    bm = subs.add_parser("benchmark", help="run the benchmark matrix and write reports")
    _add_common(bm)
    bm.add_argument("--data", default=None, help="CSV path (single-dataset plan)")
    bm.add_argument("--column", default=None, help="value column for --data")
    bm.add_argument("--models", default=None, help=f"comma-separated kinds, e.g. {','.join(MODEL_KINDS)}")
    bm.add_argument("--horizons", default=None, help="comma-separated horizons, e.g. 1,6,12")
    bm.add_argument("--units", type=int, default=None)
    bm.add_argument("--depth", type=int, default=None)
    bm.add_argument("--runs", type=int, default=None, help="runs per cell (default 5)")
    bm.add_argument("--split", default=None, choices=["random", "contiguous"])
    bm.add_argument("--jobs", type=int, default=None, help="worker pool size (default: cores)")
    bm.add_argument("--max-epochs", dest="max_epochs", type=int, default=None)
    bm.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    bm.add_argument("--lr", type=float, default=None)
    bm.add_argument("--desk-scale", dest="desk_scale", action="store_true",
                    help=f"preset for laptop runtimes: units {DESK_SCALE_UNITS}, max {DESK_SCALE_EPOCHS} epochs")
    bm.set_defaults(func=cmd_benchmark)

    fx = subs.add_parser("fixtures", help="emit small deterministic hourly CSVs")
    _add_common(fx)
    fx.add_argument("--regions", default=None, help="comma-separated region names (default EAST,WEST)")
    fx.add_argument("--n", type=int, default=None, help="hours per region (default 4000)")
    fx.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (NonFiniteError, DivergenceError, ExplosiveDynamicsError, EstimationError,
            ConditioningError, NondeterministicLossError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, PlanError, DataFormatError, CheckpointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
