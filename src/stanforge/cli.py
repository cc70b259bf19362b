"""Command-line entry point: one executable with five subcommands.

    stanforge simulate   write a synthetic smooth-transition AR series
    stanforge train      train one model on one series, save a checkpoint
    stanforge gradcheck  verify analytic gradients against finite differences
    stanforge benchmark  run the models x horizons x runs matrix and report
    stanforge fixtures   emit small deterministic CSVs in the hourly layout

Every subcommand is deterministic given (args, config, seed). Outputs land
in a timestamp-free, seed-named run directory under --out (or the
STANFORGE_OUT environment variable, or ./runs), made only once the arguments
are valid, and the resolved options are echoed to ``config.json`` there, so
any run can be replayed exactly via ``--config``.

Each option is declared once, with its type and default. The ``--config``
file is read by ``data.read_json``. A key that names an option of the
subcommand (``burn_in`` for ``--burn-in``) goes through that option's own
parse: a JSON value means what the same text means as a flag, a JSON list
means its comma-joined text, ``3.0`` counts as an integer, ``true``/``false``
is only for a switch and ``null`` leaves the option unset. Flags beat config
values, which beat the defaults. ``train`` (TrainConfig fields but ``seed``)
and, for ``benchmark``, ``datasets`` and ``models`` have one parse each, and
their flags are entries of them: ``--max-epochs``/``--batch-size``/``--lr``
are ``train`` fields read after the file's, ``--data``/``--column`` a
one-entry ``datasets`` list and ``--models``, or every kind, ``models``
entries. Other keys, ``benchmark``'s ``data``/``column`` among them, are
ignored. Integer fields (a ``train`` field whose default is an integer, a
model entry's ``units`` and ``depth``) take JSON integers or whole-number
floats, and ``train``'s other fields take numbers; ``true``/``false`` is neither.
A dataset entry's ``path`` and ``column`` and a model entry's ``name`` are
passed on as given, and the plan refuses any that is not a JSON string.

Exit codes: 0 success, 1 usage/config error, 2 runtime/numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .baselines import MODEL_KINDS, ConditioningError, unknown_kind
from .checkpoint import CheckpointError, save_checkpoint
from .data import (
    SPLIT_MODES,
    DataFormatError,
    TimeSeries,
    hourly_timestamps,
    load_pjm_csv,
    lookback_for,
    prepare_splits,
    read_json,
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
from .numerics import NondeterministicLossError, finite_diff_errors, integer_in
from .stan_core import NetworkSpec, check_allocation, gradcheck_problem
from .star_classic import ExplosiveDynamicsError, LstarParams, simulate_lstar
# ``train`` is unused here but kept as a module binding: the perfbench
# tracer test checks that it wraps ``stanforge.cli.train``.
from .training import FIXED_RECIPE, TrainConfig, train  # noqa: F401

__all__ = ["main", "UsageError"]

logger = logging.getLogger(__name__)

GRADCHECK_GROUPS = ("W", "b", "phi", "theta", "gamma", "c", "projection")

DESK_SCALE_UNITS = 32
DESK_SCALE_EPOCHS = 40

# options a config file does not set: the flags that are ``train`` fields have
# no top-level key, so ``train`` stays the one config route to its fields
_NOT_FROM_CONFIG = ("help", "config", "verbose", "max_epochs", "batch_size", "lr")
# options that steer the run but are not part of what ``config.json`` echoes
_NOT_ECHOED = ("config", "out", "verbose", "subcommand", "func")
# the ``train`` fields a config sets; not ``seed``: ``--seed`` seeds the run
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name != "seed")


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _CommaList:
    """Option type: comma-separated ``item`` values, blank parts skipped."""

    def __init__(self, item):
        # argparse names the type by ``__name__`` in its "invalid ... value" message
        self.item, self.__name__ = item, f"comma-separated {item.__name__}"

    def __call__(self, text: str) -> list:
        return [self.item(part.strip()) for part in text.split(",") if part.strip()]


def _model_kind(text: str) -> str:
    if text not in MODEL_KINDS:
        raise argparse.ArgumentTypeError(unknown_kind(text))
    return text


def _seed(text: str) -> int:
    """Type of ``--seed``: a non-negative integer, as numpy's generators take."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _load_config(path: str) -> dict:
    """Type of ``--config``: the JSON object held in the file at ``path``."""
    try:
        doc = read_json(path)
    except (OSError, DataFormatError) as exc:  # a DataFormatError names the file and why it is not JSON
        raise argparse.ArgumentTypeError(f"cannot read config file: {exc}") from None
    if not isinstance(doc, dict):
        raise argparse.ArgumentTypeError(f"config file {path} must hold a JSON object")
    return doc


def _config_tokens(action: argparse.Action, value) -> list[str]:
    """The flags that mean what the JSON ``value`` of ``action``'s config key means."""
    flag = action.option_strings[-1]
    if action.nargs == 0:  # a switch
        if not isinstance(value, bool):
            raise UsageError(f"expected true or false for {flag}, got {json.dumps(value)}")
        return [flag] if value else []
    listed = isinstance(action.type, _CommaList)
    items = value if isinstance(value, list) and listed else [value]
    if any(isinstance(item, (list, dict)) for item in items):
        shape = "a flat list" if items is value else "a single value"
        raise UsageError(f"expected {shape} for {flag}, got {json.dumps(value)}")
    if any(isinstance(item, bool) for item in items):  # str() would pass it on as the text True or False
        raise UsageError(f"true or false is only for a switch, and {flag} takes a value; got {json.dumps(value)}")
    # JSON writes some integers as 3.0 or 1e3; those still count as integers
    whole = (action.type.item if listed else action.type) in (int, _seed)
    items = [int(i) if whole and isinstance(i, float) and i.is_integer() else i for i in items]
    return [f"{flag}={','.join(map(str, items))}"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage problems on exit code 1
        raise UsageError(message)


class _SubcommandParser(_Parser):
    """Parses a subcommand's flags over the values of its ``--config`` file,
    each of which first goes through its option's own type and choices.
    ``not_from_config`` names further options that a config does not set."""

    def __init__(self, *args, not_from_config: tuple[str, ...] = (), **kwargs):
        super().__init__(*args, **kwargs)
        self.not_from_config = _NOT_FROM_CONFIG + not_from_config

    def parse_known_args(self, args=None, namespace=None):
        given, extras = super().parse_known_args(args, namespace)
        if not given.config:
            return given, extras
        options = {a.dest: a for a in self._actions if a.option_strings and a.dest not in self.not_from_config}
        configured = argparse.Namespace()
        for key, value in given.config.items():
            if key in options and value is not None:
                try:
                    super().parse_known_args(_config_tokens(options[key], value), configured)
                except UsageError as exc:
                    raise UsageError(f"config key {key!r}: {exc}") from None
        return super().parse_known_args(args, configured)


def _options(args, *drop: str) -> dict:
    """The resolved options of a run, as ``config.json`` echoes them."""
    return {key: value for key, value in vars(args).items() if key not in _NOT_ECHOED + drop}


def _run_dir(args) -> Path:
    """``<out>/<subcommand>-seed<seed>``; made only once the run's inputs are valid."""
    run_dir = Path(args.out) / f"{args.subcommand}-seed{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def _whole(value, where: str) -> int:
    """A JSON integer; a whole-number float such as ``3.0`` counts as one."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{where} must be an integer, got {json.dumps(value)}")
    return value


def _number(value, where: str) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{where} must be a number, got {json.dumps(value)}")
    return value


def _train_config(args, preset_epochs: int | None = None) -> TrainConfig:
    # an old config's ``seed`` and fixed recipe values (``config.json`` echoed
    # them as ``train`` fields) still replay: the seed is read and ignored, a
    # fixed value is accepted only at its value
    defaults = {**asdict(TrainConfig()), **FIXED_RECIPE}
    file_train = args.config.get("train", {})
    if not isinstance(file_train, dict):
        raise UsageError("config key 'train' must be a JSON object")
    unknown = set(file_train) - set(defaults)
    if unknown:
        raise UsageError(f"unknown train config key(s): {sorted(unknown)}")
    merged = {**defaults, "max_epochs": preset_epochs or defaults["max_epochs"]}
    # the flags are ``train`` fields read after the file's, so they win
    flags = [(key, getattr(args, key)) for key in ("max_epochs", "batch_size", "lr") if getattr(args, key) is not None]
    for key, value in [*file_train.items(), *flags]:
        where = f"config key 'train.{key}'"
        # a field is an integer field when its default is one
        merged[key] = (_whole if isinstance(defaults[key], int) else _number)(value, where)
        if key in FIXED_RECIPE and merged[key] != FIXED_RECIPE[key]:
            raise UsageError(f"{where} is fixed at {FIXED_RECIPE[key]!r} by the training recipe, got {value}")
    try:
        return TrainConfig(**{key: merged[key] for key in _TRAIN_KEYS})
    except ValueError as exc:
        raise UsageError(f"invalid training configuration: {exc}") from None


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    check_allocation(args.n + args.burn_in, f"--n {args.n} and --burn-in {args.burn_in}")
    params = LstarParams(phi0=args.phi0, phi=args.phi, theta=args.theta, gamma=args.gamma,
                         c=args.c, delay=args.delay, sigma=args.sigma)
    series = simulate_lstar(params, n=args.n, burn_in=args.burn_in, seed=args.seed, name=args.name)
    run_dir = _run_dir(args)
    series_path = write_pjm_csv(TimeSeries(name=args.name, timestamps=hourly_timestamps(args.n),
                                           values=series.values), run_dir / "series.csv")
    _write_json(run_dir / "config.json", _options(args))
    print(f"wrote {series_path} ({args.n} observations)")
    return 0


# ------------------------------------------------------------------- train


def cmd_train(args) -> int:
    if args.data is None or args.column is None:
        raise UsageError("train needs --data and --column (or config keys 'data'/'column')")
    lookback = lookback_for(args.horizon) if args.lookback is None else args.lookback
    MODEL_KINDS[args.model].check_size(lookback, args.horizon, args.units, args.depth)
    train_cfg = _train_config(args)
    series = load_pjm_csv(args.data, args.column)
    prep = prepare_splits(series, args.horizon, lookback=args.lookback, mode=args.split, seed=args.seed)
    run_dir = _run_dir(args)
    _write_json(run_dir / "config.json", {**_options(args, "max_epochs", "batch_size", "lr"), "lookback": prep.lookback,
                                          "train": {k: getattr(train_cfg, k) for k in _TRAIN_KEYS}})

    entry = ModelEntry(kind=args.model, units=args.units, depth=args.depth)
    model, history = fit_model(entry, prep, train_cfg, args.seed)
    history.write_csv(run_dir / "history.csv")
    test_rmse = rmse(prep.test.targets, model.predict(prep.test.inputs))
    save_checkpoint(run_dir / "checkpoint.json", model, scaler=prep.scaler)
    _write_json(run_dir / "summary.json", {
        "model": args.model,
        "dataset": series.name,
        "horizon": args.horizon,
        "lookback": prep.lookback,
        "seed": args.seed,
        "rmse": test_rmse,
        "best_val_loss": history.best_val_loss,
        "epochs": len(history),
        "param_count": model.num_params(),
        "scaler": asdict(prep.scaler),
    })
    print(f"{args.model}: test RMSE {test_rmse:.4f} (standardized) after {len(history)} epoch(s); "
          f"outputs in {run_dir}")
    return 0


# --------------------------------------------------------------- gradcheck


def _group_of(name: str) -> str:
    if name.startswith("proj."):
        return "projection"
    return name.rsplit(".", 1)[-1]


def cmd_gradcheck(args) -> int:
    integer_in(args.batch, "--batch", 1)
    if not 0.0 < args.tol < math.inf:
        raise UsageError(f"--tol must be positive and finite, got {args.tol}")
    spec = NetworkSpec(lookback=args.lookback, units=args.units, depth=args.depth, horizon=args.horizon)
    MODEL_KINDS["stan"].check_size(args.lookback, args.horizon, args.units, args.depth)
    check_allocation(args.batch * (args.lookback + args.horizon),
                     f"--batch {args.batch} of lookback {args.lookback} and horizon {args.horizon}")
    problem, params = gradcheck_problem(spec, args.seed, args.batch)

    def loss_fn(params):
        loss, grads = problem(params)
        return loss, {name: grad * 2.0 if _group_of(name) == args.corrupt else grad for name, grad in grads.items()}

    per_param = finite_diff_errors(loss_fn, params, eps=args.eps)
    groups: dict[str, float] = {g: 0.0 for g in GRADCHECK_GROUPS}
    for name, err in per_param.items():
        group = _group_of(name)
        groups[group] = float(np.maximum(groups[group], err))  # NaN wins, as it does not in max()
    worst = float(np.max(list(groups.values())))
    report_lines = [f"gradient check on spec {spec} with batch {args.batch}, eps {args.eps:g}"]
    for group in GRADCHECK_GROUPS:
        report_lines.append(f"  {group:<10} max relative error {groups[group]:.3e}")
    verdict = "OK" if worst < args.tol else "FAIL"
    report_lines.append(f"worst {worst:.3e} vs tolerance {args.tol:g}: {verdict}")
    text = "\n".join(report_lines)
    print(text)
    run_dir = _run_dir(args)
    (run_dir / "gradcheck.txt").write_text(text + "\n", encoding="utf-8")
    _write_json(run_dir / "config.json", _options(args))
    return 0 if worst < args.tol else 2


# --------------------------------------------------------------- benchmark


def _plan_from_args(args) -> BenchmarkPlan:
    cfg = args.config
    units = args.units if args.units is not None else DESK_SCALE_UNITS if args.desk_scale else 64
    if args.data is not None or args.column is not None:
        datasets = [{key: value for key, value in (("path", args.data), ("column", args.column)) if value is not None}]
    elif not (datasets := cfg.get("datasets")):
        raise UsageError("benchmark needs --data/--column or a 'datasets' config list")
    try:
        # their types are the plan's to check, as for a model entry's name
        datasets = [DatasetRef(path=d["path"], column=d["column"]) for d in datasets]
    except (TypeError, KeyError) as exc:
        raise UsageError(f"each dataset entry needs 'path' and 'column': {exc}") from None

    entries = cfg.get("models") if args.models is None else [{"kind": kind} for kind in args.models]
    if entries is None:
        entries = [{"kind": kind} for kind in MODEL_KINDS]
    try:
        models = [ModelEntry(kind=entry["kind"], name=entry.get("name", ""),
                             units=_whole(entry.get("units", units), f"config key 'models' entry {i} 'units'"),
                             depth=_whole(entry.get("depth", args.depth), f"config key 'models' entry {i} 'depth'"))
                  for i, entry in enumerate(entries)]
    except (TypeError, KeyError, AttributeError, ValueError) as exc:
        raise UsageError(f"each model entry needs at least a 'kind': {exc!r}") from None

    train_cfg = _train_config(args, preset_epochs=DESK_SCALE_EPOCHS if args.desk_scale else None)
    return BenchmarkPlan(datasets=datasets, horizons=args.horizons, models=models,
                         runs=args.runs, base_seed=args.seed, split=args.split, train=train_cfg)


def cmd_benchmark(args) -> int:
    plan = _plan_from_args(args)
    # validates the plan and reads every dataset before any cell runs, so a
    # rejected plan or unreadable data leaves no run directory
    results = run_benchmark(plan)
    run_dir = _run_dir(args)
    _write_json(run_dir / "config.json", {
        "datasets": [asdict(d) for d in plan.datasets],
        "horizons": plan.horizons,
        "lookbacks": [lookback_for(h) for h in plan.horizons],
        "models": [asdict(m) for m in plan.models],
        "runs": plan.runs,
        "seed": plan.base_seed,
        "split": plan.split,
        "train": {k: getattr(plan.train, k) for k in _TRAIN_KEYS},
    })
    written = write_report(aggregate(results), results, run_dir)
    failed = sum(1 for r in results if r.failed)
    print(f"benchmark: {len(results)} run(s), {failed} failed; reports in {run_dir}")
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
    if not args.regions:
        raise UsageError("fixtures needs at least one region name")
    # each region names its own file in the run directory
    if len(set(args.regions)) != len(args.regions):
        raise UsageError(f"duplicate region names: {args.regions}")
    if any("/" in region or os.sep in region for region in args.regions):
        raise UsageError(f"a region name cannot hold a path separator: {args.regions}")
    check_allocation(len(args.regions) * args.n, f"--n {args.n} for {len(args.regions)} region(s)")
    series = [_fixture_series(region, index, args.n, args.seed) for index, region in enumerate(args.regions)]
    run_dir = _run_dir(args)
    paths = [write_pjm_csv(s, run_dir / f"{s.name}.csv") for s in series]
    _write_json(run_dir / "config.json", _options(args))
    for path in paths:
        print(f"wrote {path}")
    return 0


# -------------------------------------------------------------------- main


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=_load_config, default={},
                     help="JSON config file; flags override its values")
    sub.add_argument("--out", default=os.environ.get("STANFORGE_OUT") or "runs",
                     help="output directory (fallback: $STANFORGE_OUT, then ./runs)")
    sub.add_argument("--seed", type=_seed, default=0, help="base random seed, a non-negative integer (default 0)")
    sub.add_argument("-v", "--verbose", action="count", default=0)


def _add_training(sub: argparse.ArgumentParser) -> None:
    """The split and the flags that are fields of the ``train`` config object."""
    sub.add_argument("--split", default="random", choices=SPLIT_MODES)
    sub.add_argument("--max-epochs", type=int)
    sub.add_argument("--batch-size", type=int)
    sub.add_argument("--lr", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stanforge", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="subcommand", required=True, parser_class=_SubcommandParser)
    floats, ints, names = _CommaList(float), _CommaList(int), _CommaList(str)

    sim = subs.add_parser("simulate", help="write a synthetic smooth-transition AR series")
    _add_common(sim)
    sim.add_argument("--n", type=int, default=1000, help="observations to keep (default 1000)")
    sim.add_argument("--burn-in", type=int, default=0)
    sim.add_argument("--phi0", type=float, default=0.0, help="intercept")
    sim.add_argument("--phi", type=floats, default=[0.9], help="comma-separated AR coefficients")
    sim.add_argument("--theta", type=floats, default=[-1.4], help="comma-separated gated AR coefficients")
    sim.add_argument("--gamma", type=float, default=20.0, help="gate steepness")
    sim.add_argument("--c", type=float, default=0.0, help="gate midpoint")
    sim.add_argument("--delay", type=int, default=1, help="transition-variable lag")
    sim.add_argument("--sigma", type=float, default=0.05, help="noise standard deviation")
    sim.add_argument("--name", default="SIM", help="series name (default SIM); the value column is <NAME>_MW")
    sim.set_defaults(func=cmd_simulate)

    tr = subs.add_parser("train", help="train one model on one series")
    _add_common(tr)
    tr.add_argument("--data", help="CSV path")
    tr.add_argument("--column", help="value column, e.g. AEP_MW")
    tr.add_argument("--model", type=_model_kind, default="stan", help=f"one of {', '.join(MODEL_KINDS)}")
    tr.add_argument("--units", type=int, default=64)
    tr.add_argument("--depth", type=int, default=3)
    tr.add_argument("--horizon", type=int, default=1)
    tr.add_argument("--lookback", type=int, help="override max(45, 5*horizon)")
    _add_training(tr)
    tr.set_defaults(func=cmd_train)

    gc = subs.add_parser("gradcheck", help="finite-difference check of the backward pass")
    _add_common(gc)
    gc.add_argument("--lookback", type=int, default=5)
    gc.add_argument("--units", type=int, default=4)
    gc.add_argument("--depth", type=int, default=3)
    gc.add_argument("--horizon", type=int, default=2)
    gc.add_argument("--batch", type=int, default=3)
    gc.add_argument("--eps", type=float, default=1e-5)
    gc.add_argument("--tol", type=float, default=1e-5)
    gc.add_argument("--corrupt", choices=GRADCHECK_GROUPS,
                    help="double the analytic gradient of one group (checker sanity)")
    gc.set_defaults(func=cmd_gradcheck)

    # a config names its data in ``datasets`` and its model entries in ``models``,
    # both read by ``_plan_from_args``
    bm = subs.add_parser("benchmark", help="run the benchmark matrix and write reports",
                         not_from_config=("data", "column", "models"))
    _add_common(bm)
    bm.add_argument("--data", help="CSV path (single-dataset plan)")
    bm.add_argument("--column", help="value column for --data")
    bm.add_argument("--models", type=names, help=f"comma-separated kinds, e.g. {','.join(MODEL_KINDS)}")
    bm.add_argument("--horizons", type=ints, default=[1], help="comma-separated horizons, e.g. 1,6,12")
    bm.add_argument("--units", type=int, help=f"hidden width (default 64, {DESK_SCALE_UNITS} with --desk-scale)")
    bm.add_argument("--depth", type=int, default=3)
    bm.add_argument("--runs", type=int, default=5, help="runs per cell (default 5)")
    _add_training(bm)
    bm.add_argument("--desk-scale", action="store_true",
                    help=f"preset for laptop runtimes: units {DESK_SCALE_UNITS}, max {DESK_SCALE_EPOCHS} epochs")
    bm.set_defaults(func=cmd_benchmark)

    fx = subs.add_parser("fixtures", help="emit small deterministic hourly CSVs")
    _add_common(fx)
    fx.add_argument("--regions", type=names, default=["EAST", "WEST"],
                    help="comma-separated region names (default EAST,WEST)")
    fx.add_argument("--n", type=int, default=4000, help="hours per region (default 4000)")
    fx.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
    except (ExplosiveDynamicsError, ConditioningError, NondeterministicLossError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, PlanError, DataFormatError, CheckpointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
