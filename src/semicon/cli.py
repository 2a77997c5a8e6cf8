"""Experiment runner: single runs, method lists, sweeps, and plot-ready
tables.

Config files are `key = value` lines ('#' starts a comment). CLI flags
override file values. Every run writes one report file; a run set of
more than one (several methods, a sweep, repetitions) adds an aggregate
CSV with mean and sample standard deviation over repetitions.

Exit codes: 0 ok, 1 config error, 2 data error, 3 numeric error.
"""

from __future__ import annotations

import os

# BLAS sums in a thread-dependent order, and the last-bit differences can
# change a run's outcome; so one thread is pinned before numpy loads,
# unless the caller sets a count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import csv
import glob
import sys
from dataclasses import fields

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .models import ConvSpec, MlpSpec
from .reports import RunReport, read_reports, write_reports
from .stream import load_cifar_binary, make_synthetic, split_dataset
from .trainers import APPLIES, TrainConfig, run as run_method

DATASETS = ("synthetic", "cifar10", "cifar100")


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _names(text: str) -> list[str]:
    return [v.strip() for v in text.split(",")]


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(text)


# TrainConfig fields a run can sweep: config key sweep_<field> lists
# the values, one run set each; a run sets at most one sweep key
SWEEPS = {"mem_batch": _ints, "alpha": _floats}

SCHEMA = {
    "method": _names,
    "dataset": str,
    "data_path": str,
    "test_path": str,
    "out": str,
    "reps": int,
    "seed": int,
    "alpha": float,
    "tau": float,
    "galpha_on": str,
    "stream_batch": int,
    "mem_batch": int,
    "mem_size": int,
    "epochs": int,
    "lr": float,
    "loss_trace": _bool,
    **{f"sweep_{field}": parse for field, parse in SWEEPS.items()},
    "n_classes": int,
    "dim": int,
    "separation": float,
    "per_class": int,
    "n_tasks": int,
    "test_per_class": int,
}

DEFAULTS = {
    "method": ["ours"],
    "dataset": "synthetic",
    "out": "reports",
    "reps": 1,
    "seed": 0,
    "stream_batch": 10,
    "n_classes": 4,
    "dim": 6,
    "separation": 3.0,
    "per_class": 50,
    "test_per_class": 25,
}

# n_tasks defaults per dataset: 2 synthetic, 5 cifar10, 20 cifar100

# config keys that only one kind of dataset reads; a file that sets one
# for the other kind is rejected
PATH_KEYS = ("data_path", "test_path")
SYNTHETIC_KEYS = ("n_classes", "dim", "separation", "per_class", "test_per_class")

# config keys that `run` also takes as flags (mem_size as --mem-size);
# a flag overrides the config file
RUN_FLAGS = ("method", "dataset", "alpha", "tau", "galpha_on", "mem_size",
             "mem_batch", "stream_batch", "lr", "epochs", "seed", "reps", "out")


def parse_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    cfg: dict = {}
    for lineno, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in cfg:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            cfg[key] = SCHEMA[key](value)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return cfg


def _merge_config(args: argparse.Namespace) -> dict:
    given = {} if args.config is None else parse_config_file(args.config)
    cfg = {**DEFAULTS, **given}
    for key in RUN_FLAGS:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    dataset = cfg["dataset"]
    if dataset not in DATASETS:
        raise ConfigError(f"unknown dataset {dataset!r}, "
                          f"expected one of {', '.join(DATASETS)}")
    synthetic = dataset == "synthetic"
    for key in PATH_KEYS if synthetic else SYNTHETIC_KEYS:
        if key in given:
            raise ConfigError(f"{key} does not apply to dataset {dataset}")
    if not synthetic:
        for key in PATH_KEYS:
            if key not in cfg:
                raise ConfigError(f"dataset {dataset} needs {key}")
    if cfg["reps"] < 1:
        raise ConfigError(f"reps must be positive, got {cfg['reps']}")
    swept = [f"sweep_{field}" for field in SWEEPS if f"sweep_{field}" in cfg]
    if len(swept) > 1:
        raise ConfigError(
            f"a run sets at most one sweep key, got {' and '.join(swept)}")
    return cfg


def _train_config(cfg: dict, method: str, *, seed: int,
                  axis: str | None = None, value=None) -> TrainConfig:
    """Forward the set config keys that name a TrainConfig field (lr is
    learning_rate) and apply to `method`, and the sweep value, which
    always goes on; TrainConfig fills per-method defaults and checks."""
    named = {("learning_rate" if k == "lr" else k): v for k, v in cfg.items()}
    kw = {f.name: named[f.name] for f in fields(TrainConfig)
          if f.name in named and (f.name not in APPLIES
                                  or method in APPLIES[f.name][0])}
    kw.update(method=method, seed=seed)
    if axis is not None:
        kw[axis] = value
    return TrainConfig(**kw)


def _stream_builder(cfg: dict):
    """A function from a repetition's seed to its stream, and the model
    spec. The seed shifts the synthetic data draw and the task order;
    CIFAR files are read here, once for every repetition."""
    if cfg["dataset"] == "synthetic":
        def build(seed):
            return make_synthetic(
                cfg["n_classes"], cfg["dim"], cfg["separation"],
                cfg["per_class"], cfg.get("n_tasks", 2), seed,
                batch_size=cfg["stream_batch"],
                test_per_class=cfg["test_per_class"])
        return build, MlpSpec(in_dim=cfg["dim"])
    label_bytes = 1 if cfg["dataset"] == "cifar10" else 2
    n_tasks = cfg.get("n_tasks", 5 if cfg["dataset"] == "cifar10" else 20)
    train = load_cifar_binary(cfg["data_path"], label_bytes=label_bytes)
    test = load_cifar_binary(cfg["test_path"], label_bytes=label_bytes)

    def build(seed):
        return split_dataset(train, n_tasks, seed,
                             batch_size=cfg["stream_batch"], test_data=test)
    return build, ConvSpec()


def _sweep_points(cfg: dict) -> list[tuple[str | None, object]]:
    for field in SWEEPS:
        if f"sweep_{field}" in cfg:
            return [(field, v) for v in cfg[f"sweep_{field}"]]
    return [(None, None)]


def _run_name(method: str, axis: str | None, value, rep: int) -> str:
    parts = [method]
    if axis is not None:
        parts.append(f"{axis}{value:g}")
    parts.append(f"rep{rep}")
    return "-".join(parts) + ".report.jsonl"


def _std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def _make_out(out_dir: str) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot make out {out_dir!r}: {e}") from None


def _plan(cfg: dict) -> list[tuple[str, str | None, object, list[TrainConfig]]]:
    """Every run set of a config, in run order: (method, sweep axis,
    value, one TrainConfig per repetition). Repetition r of every method
    runs at seed + r, so all methods train on the same streams. Every
    config is checked here, before anything is written."""
    methods = cfg["method"]
    points = _sweep_points(cfg)
    plan = [(method, axis, value,
             [_train_config(cfg, method, seed=cfg["seed"] + rep, axis=axis,
                            value=value) for rep in range(cfg["reps"])])
            for method in methods for axis, value in points]
    for key, (applies, _) in APPLIES.items():
        if key in cfg and not set(applies) & set(methods):
            raise ConfigError(f"{key} does not apply to {', '.join(methods)}")
    for method in methods:
        if methods.count(method) > 1:
            raise ConfigError(f"method {method} is listed twice")
    # two methods never share a report name, but two points of one may
    named: dict[str, object] = {}
    for axis, value in points:
        name = _run_name(methods[0], axis, value, 0)
        if name in named:
            raise ConfigError(f"{axis} values {named[name]!r} and {value!r} "
                              f"would both write {name}")
        named[name] = value
    return plan


def cmd_run(args: argparse.Namespace) -> None:
    cfg = _merge_config(args)
    plan = _plan(cfg)
    out_dir = cfg["out"]
    build, model = _stream_builder(cfg)
    aggregate = []
    for method, axis, value, rep_cfgs in plan:
        reports = []
        for rep, train_cfg in enumerate(rep_cfgs):
            stream = build(train_cfg.seed)
            # made after the stream builds, so a bad data setting leaves none,
            # and before training, so a bad out path fails at once
            _make_out(out_dir)
            _, _, report = run_method(train_cfg, stream, model)
            name = _run_name(method, axis, value, rep)
            write_reports(os.path.join(out_dir, name), [report])
            reports.append(report)
            print(f"{name}: final_avg={report.final_avg:.4f} "
                  f"labels={report.label_fraction:.3f}")
        aggregate.append((method, axis, value, reports))
    written = sum(len(reports) for *_, reports in aggregate)
    if written > 1:
        _write_aggregate(os.path.join(out_dir, "aggregate.csv"), aggregate)
    print(f"wrote {written} reports to {out_dir}")


def _write_aggregate(path: str, aggregate) -> None:
    axis = aggregate[0][1] or "run"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", axis, "mean_final_avg", "std_final_avg",
                         "mean_label_fraction", "reps"])
        for method, _, value, reports in aggregate:
            finals = [r.final_avg for r in reports]
            fractions = [r.label_fraction for r in reports]
            writer.writerow([
                method, value if value is not None else "single",
                f"{np.mean(finals):.6f}", f"{_std(finals):.6f}",
                f"{np.mean(fractions):.6f}", len(reports),
            ])
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# plot-data
# ---------------------------------------------------------------------------

def _load_reports_dir(reports_dir: str) -> list[RunReport]:
    pattern = os.path.join(reports_dir, "*.report.jsonl")
    reports = []
    for path in sorted(glob.glob(pattern)):
        reports.extend(read_reports(path))
    if not reports:
        raise DataError(f"no reports found in {reports_dir}")
    return reports


def _grouped(reports: list[RunReport], axis: str):
    """Group by (method, axis value), keeping only reports where it is set."""
    groups: dict = {}
    for rep in reports:
        value, method = rep.config.get(axis), rep.config["method"]
        if value is None:
            continue
        if not isinstance(value, (int, float)):
            raise DataError(f"{axis} {value!r} of a report of method "
                            f"{method} is not a number")
        groups.setdefault((method, value), []).append(rep)
    for key in groups:
        groups[key].sort(key=lambda r: r.config["seed"])
    return dict(sorted(groups.items()))


def _check_consistent(group: list[RunReport], ignore: set[str],
                      context: str) -> None:
    keys = set().union(*(rep.config for rep in group)) - ignore
    base = group[0].config
    divergent = {key for key in keys for rep in group[1:]
                 if rep.config.get(key) != base.get(key)}
    if divergent:
        raise DataError(f"inconsistent configs in {context}: "
                        f"divergent keys: {sorted(divergent)}")


def _axis_table(reports: list[RunReport], axis: str) -> list[list] | None:
    """Header and rows of mean final accuracy per (method, axis value)."""
    groups = _grouped(reports, axis)
    if len({value for _, value in groups}) < 2:
        return None  # a curve needs at least two axis points
    rows = [["method", axis, "mean_final_avg", "std_final_avg", "reps"]]
    for (method, value), group in groups.items():
        _check_consistent(group, {"seed"}, f"{axis}={value:g} ({method})")
        finals = [r.final_avg for r in group]
        rows.append([method, f"{value:g}", f"{np.mean(finals):.6f}",
                     f"{_std(finals):.6f}", len(group)])
    return rows


def _relative_table(reports: list[RunReport]) -> list[list] | None:
    """Budgeted methods against the fully supervised scr baseline.

    relative_final_avg is a plain ratio: mean final accuracy of the
    method divided by mean final accuracy of scr at the same mem_size.
    """
    groups = _grouped(reports, "mem_size")
    scr = {size: group for (method, size), group in groups.items()
           if method == "scr"}
    if not scr:
        return None  # nothing to normalize against
    rows = [["method", "mem_size", "label_fraction", "relative_final_avg", "reps"]]
    for (method, size), group in groups.items():
        if method not in ("ours", "scr-mo"):
            continue
        if size not in scr:
            raise DataError(f"no scr baseline report for mem_size={size}")
        _check_consistent(group, {"seed"}, f"mem_size={size} ({method})")
        _check_consistent(scr[size], {"seed"}, f"mem_size={size} (scr)")
        mean = np.mean([r.final_avg for r in group])
        base = np.mean([r.final_avg for r in scr[size]])
        if base == 0:
            raise NumericError(f"scr baseline accuracy is zero at "
                               f"mem_size={size}")
        fraction = np.mean([r.label_fraction for r in group])
        rows.append([method, size, f"{fraction:.6f}", f"{mean / base:.6f}",
                     len(group)])
    return rows if len(rows) > 1 else None


def cmd_plot_data(args: argparse.Namespace) -> None:
    reports = _load_reports_dir(args.reports_dir)
    # every table is built before the output directory is made
    tables = {f"accuracy_vs_{field}.csv": _axis_table(reports, field)
              for field in SWEEPS}
    tables["relative_vs_label_fraction.csv"] = _relative_table(reports)
    tables = {name: rows for name, rows in tables.items() if rows}
    if not tables:
        raise DataError("reports carry no sweep axes to tabulate")
    out_dir = args.out or args.reports_dir
    _make_out(out_dir)
    for name, rows in tables.items():
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semicon",
                     description="continual-learning experiment runner")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    runp = sub.add_parser("run", help="train one config, or a sweep")
    runp.add_argument("config", nargs="?", default=None,
                      help="key = value config file")
    for key in RUN_FLAGS:
        runp.add_argument("--" + key.replace("_", "-"), dest=key,
                          type=SCHEMA[key])

    plot = sub.add_parser("plot-data", help="tabulate a reports directory")
    plot.add_argument("reports_dir")
    plot.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            cmd_run(args)
        elif args.command == "plot-data":
            cmd_plot_data(args)
        else:
            raise ConfigError("expected a command: run or plot-data")
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
