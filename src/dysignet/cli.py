"""Command-line entry point.

Subcommands: ``stats``, ``train``, ``eval``, ``plot-weights``.  ``eval
--dump-raw`` also writes the per-pair predictions as ``predictions.csv``.
Every run writes a manifest with the resolved configuration, the numpy
and BLAS versions and the BLAS thread variables into its output directory
before doing any work.  Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
import time
import types
import typing
from pathlib import Path

import numpy as np

from .encoder import AblationConfig
from .events import DataError, compute_stats, parse_csv
from .harness import (
    Predictions,
    TrainConfig,
    build_model,
    evaluate_sequential,
    load_dataset,
    resolve_time_scale,
    train,
)
from .heads import TaskKind
from .metrics import kl_divergence_hist, weight_histograms
from .params import NumericError, ParameterSet

OUT_ROOT_ENV = "DYSIGNET_OUT"

def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"{text.strip()!r} is not one of 1/true/yes/on or "
                         f"0/false/no/off") from None


def _config_parser(hint):
    """The parser for one config-file value, from the field's type hint."""
    if hint is bool:
        return _parse_bool
    origin = typing.get_origin(hint)
    if origin is tuple:
        item = typing.get_args(hint)[0]
        return lambda s: tuple(item(x) for x in s.split(","))
    if origin is types.UnionType:  # "X | None": the file can only give an X
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    # enum and ablation fields arrive as names that TrainConfig.from_dict reads
    return hint if hint in (int, float) else str


_CONFIG_TYPES = {name: _config_parser(hint)
                 for name, hint in typing.get_type_hints(TrainConfig).items()}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def read_config_file(path) -> dict:
    """Flat key=value settings, organized in arbitrary INI sections."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise UsageError(f"bad config file {path}: {exc}") from None
    if not read:
        raise DataError(f"config file not found: {path}")
    values: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            key = key.replace("-", "_")
            if key not in _CONFIG_TYPES:
                raise UsageError(f"unknown config key {key!r} in {path}")
            try:
                values[key] = _CONFIG_TYPES[key](raw)
            except ValueError as exc:
                raise UsageError(f"bad value for {key!r} in {path}: {exc}") from None
    return values


def resolve_config(args) -> TrainConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(read_config_file(args.config))
    overrides = {
        "dataset": getattr(args, "dataset", None),
        "task": getattr(args, "task", None),
        "batch_size": getattr(args, "batch_size", None),
        "lr": getattr(args, "lr", None),
        "max_epochs": getattr(args, "epochs", None),
        "seed": getattr(args, "seed", None),
        "ablation": getattr(args, "ablation", None),
    }
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return TrainConfig.from_dict(values)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad configuration: {exc}") from None


def make_out_dir(args, command: str) -> Path:
    if getattr(args, "out", None):
        out = Path(args.out)
    else:
        root = Path(os.environ.get(OUT_ROOT_ENV, "runs"))
        out = root / f"{command}-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make output directory {out}: {exc.strerror}") from None
    return out


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def write_manifest(out_dir: Path, command: str, args, config: dict | None) -> None:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "config_file": getattr(args, "config", None),
        "resolved_config": config,
        "out_dir": str(out_dir),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "numpy_version": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        # as set for this run, or None when unset
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))


def _load_bundle(args):
    config = resolve_config(args)
    if not config.dataset:
        raise UsageError("a dataset is required (--dataset or config file)")
    split = load_dataset(config)
    config = resolve_time_scale(config, split)
    bundle = build_model(config)
    try:
        checkpoint = ParameterSet.load(args.checkpoint)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    # a checkpoint that records its run must match this one's task and ablation
    for key, value in checkpoint.meta.items():
        if bundle.params.meta.get(key, value) != value:
            raise DataError(f"checkpoint was trained with {key} {value!r}, "
                            f"not {bundle.params.meta[key]!r}")
    try:
        bundle.params.load_values(checkpoint.copy_values())
    except ValueError as exc:
        raise DataError(f"checkpoint does not match configuration: {exc}") from None
    bundle.params.step = checkpoint.step
    return config, bundle, split


def _write_raw_csv(path: Path, preds: Predictions) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "time"]
                        + [f"output_{i}" for i in range(preds.output.shape[1])]
                        + ["label", "is_real"])
        for u, v, t, out, label, real in zip(
                preds.src.tolist(), preds.dst.tolist(), preds.time.tolist(),
                preds.output.tolist(), preds.label.tolist(), preds.is_real.tolist()):
            writer.writerow([u, v, repr(t)] + [repr(x) for x in out] + [repr(label), int(real)])


def cmd_stats(args) -> int:
    out_dir = make_out_dir(args, "stats")
    write_manifest(out_dir, "stats", args, {"dataset": args.dataset})
    logdata = parse_csv(args.dataset)
    stats = compute_stats(logdata).to_dict()
    text = json.dumps(stats, indent=2)
    (out_dir / "stats.json").write_text(text)
    print(text)
    return 0


def cmd_train(args) -> int:
    config = resolve_config(args)
    if not config.dataset:
        raise UsageError("a dataset is required (--dataset or config file)")
    out_dir = make_out_dir(args, "train")
    write_manifest(out_dir, "train", args, config.to_dict())
    result = train(config)
    result.params.save(out_dir / "checkpoint.json")
    (out_dir / "train_report.json").write_text(json.dumps(result.report(), indent=2))
    print(json.dumps({
        "best_epoch": result.best_epoch,
        "epochs_run": result.epochs_run,
        "train_metrics": result.report()["train_metrics"],
        "checkpoint": str(out_dir / "checkpoint.json"),
    }, indent=2))
    return 0


def cmd_eval(args) -> int:
    config, bundle, split = _load_bundle(args)
    out_dir = make_out_dir(args, "eval")
    write_manifest(out_dir, "eval", args, config.to_dict())
    report = evaluate_sequential(bundle, split, which=args.split,
                                 breakdown=args.breakdown in ("trans", "ind", "both"))
    doc = report.to_dict()
    if args.breakdown == "trans":
        doc["inductive"] = None
    elif args.breakdown == "ind":
        doc["transductive"] = None
    (out_dir / "eval_report.json").write_text(json.dumps(doc, indent=2))
    if args.dump_raw:
        _write_raw_csv(out_dir / "predictions.csv", report.raw)
    print(json.dumps(doc, indent=2))
    return 0


def cmd_plot_weights(args) -> int:
    args.task = TaskKind.SIGNED_WEIGHT.value
    config, bundle, split = _load_bundle(args)
    out_dir = make_out_dir(args, "plot-weights")
    write_manifest(out_dir, "plot-weights", args, config.to_dict())
    report = evaluate_sequential(bundle, split, which=args.split)
    actual, predicted = report.raw.label, report.raw.output[:, 0]
    bins, true_counts, pred_counts = weight_histograms(actual, predicted)
    path = out_dir / "weights_hist.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["weight", "true_count", "predicted_count"])
        for value, tc, pc in zip(bins, true_counts, pred_counts):
            writer.writerow([int(value), int(tc), int(pc)])
    kl = kl_divergence_hist(actual, predicted)
    print(json.dumps({"histogram": str(path), "kl_div": kl,
                      "n": int(true_counts.sum())}, indent=2))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="dysignet",
                     description="dynamic signed network representation learning")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, dataset_required=False):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--dataset", required=dataset_required, help="edge list CSV (optionally .gz)")
        p.add_argument("--task", choices=[t.value for t in TaskKind])
        p.add_argument("--batch-size", type=int, dest="batch_size")
        p.add_argument("--lr", type=float)
        p.add_argument("--epochs", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--ablation", choices=list(AblationConfig.NAMES))
        p.add_argument("--out", help="output directory (default under $%s)" % OUT_ROOT_ENV)

    p_stats = sub.add_parser("stats", help="dataset statistics as JSON")
    p_stats.add_argument("--dataset", required=True)
    p_stats.add_argument("--out")
    p_stats.set_defaults(func=cmd_stats, config=None)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="online sequential evaluation of a checkpoint")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=["val", "test"], default="test")
    p_eval.add_argument("--breakdown", choices=["none", "trans", "ind", "both"], default="none")
    p_eval.add_argument("--dump-raw", action="store_true", dest="dump_raw",
                        help="also write the per-pair predictions as predictions.csv")
    p_eval.set_defaults(func=cmd_eval)

    p_plot = sub.add_parser("plot-weights",
                            help="predicted vs. true integer weight histogram CSV")
    add_common(p_plot)
    p_plot.add_argument("--checkpoint", required=True)
    p_plot.add_argument("--split", choices=["val", "test"], default="test")
    p_plot.set_defaults(func=cmd_plot_weights)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
