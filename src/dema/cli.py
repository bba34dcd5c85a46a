"""Command-line entry points: dema <subcommand> [options]."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

import numpy as np

from .delay import default_max_lag, delay_matrix
from .errors import ConfigError, ContractError, DemaError
from .model import load_checkpoint, save_checkpoint
from .pipeline import (DatasetSpec, TrainConfig, bench_scaling, choose_priors,
                       detect, evaluate, load_csv_dataset, parse_config_file,
                       predict_windows, read_csv, split_windows,
                       tiled_windows, train, write_bench, write_json,
                       write_metrics, write_predictions)
from .spectral import decompose


def _load_configs(args) -> tuple[TrainConfig, DatasetSpec]:
    if args.config:
        cfg, spec = parse_config_file(args.config)
    else:
        cfg, spec = TrainConfig(), DatasetSpec()
    if args.data:
        spec.path = args.data
    if args.seed is not None:
        cfg.model = dataclasses.replace(cfg.model, seed=args.seed)
    return cfg, spec


def cmd_decompose(args):
    cfg, spec = _load_configs(args)
    window, _, columns = read_csv(spec.path)
    split = decompose(window, cfg.model.theta)
    os.makedirs(args.out, exist_ok=True)
    write_predictions(split.cross_time,
                      os.path.join(args.out, "cross_time.csv"), columns)
    write_predictions(split.cross_variate,
                      os.path.join(args.out, "cross_var.csv"), columns)
    write_json({"theta": split.theta, "selected": list(split.selected)},
               os.path.join(args.out, "selected.json"))
    print(f"wrote cross_time.csv, cross_var.csv, selected.json to {args.out}")


def cmd_priors(args):
    cfg, spec = _load_configs(args)
    window, _, _ = read_csv(spec.path)
    mc = cfg.model
    max_lag = mc.max_lag if mc.max_lag > 0 else default_max_lag(window.shape[1])
    priors = delay_matrix(window, max_lag, mc.patch_len)
    os.makedirs(args.out, exist_ok=True)
    for name, mat in (("tau", priors.tau), ("rho", priors.rho),
                      ("delta", priors.delta_tok)):
        with open(os.path.join(args.out, f"{name}.csv"), "w", newline="") as fh:
            csv.writer(fh).writerows(mat)
    print(f"wrote tau.csv, rho.csv, delta.csv to {args.out}")


def _report(metrics, out):
    """Write metrics.json to `out` and print each metric."""
    os.makedirs(out, exist_ok=True)
    write_metrics(metrics, os.path.join(out, "metrics.json"))
    for k, v in metrics.items():
        print(f"{k}: {v:.6f}")


def cmd_train(args):
    cfg, spec = _load_configs(args)
    splits = load_csv_dataset(spec)
    for name in ("train", "val", "test"):     # before the priors and epochs
        split_windows(name, splits, cfg.model)
    os.makedirs(args.out, exist_ok=True)
    priors = choose_priors(splits, cfg.model, cfg.global_priors)
    result = train(cfg, spec, splits, priors)
    ckpt = os.path.join(args.out, "checkpoint.npz")
    save_checkpoint(result.state, ckpt)
    write_json({"log": result.log, "best_epoch": result.best_epoch,
                "diverged": result.diverged},
               os.path.join(args.out, "train_log.json"))
    metrics = evaluate(result.state, spec, splits, cfg, priors)
    print(f"checkpoint: {ckpt}")
    _report(metrics, args.out)


def _load_state(args, cfg, task=None):
    """Load the checkpoint; with `task`, it must have been trained for it."""
    path = (args.checkpoint or cfg.checkpoint
            or os.path.join(args.out, "checkpoint.npz"))
    state = load_checkpoint(path)
    if task is not None and state.config.task != task:
        raise ContractError(f"{path} was trained for {state.config.task!r}, "
                            f"not {task!r}")
    return state


def cmd_evaluate(args, task=None):
    cfg, spec = _load_configs(args)
    state = _load_state(args, cfg, task)
    _report(evaluate(state, spec, config=cfg), args.out)


def _predict_task(args, task):
    cfg, spec = _load_configs(args)
    state = _load_state(args, cfg, task)
    splits = load_csv_dataset(spec)
    priors = choose_priors(splits, state.config, cfg.global_priors)
    if task == "anomaly":
        # the test windows' reconstructions are what the metrics score
        metrics, pred = detect(state, spec, splits, cfg, priors)
    else:
        # evaluate rejects a test split shorter than one window
        metrics = evaluate(state, spec, splits=splits, config=cfg,
                           priors_override=priors)
        pred = predict_windows(state, tiled_windows(
            splits.test, state.config.lookback), priors, cfg.batch_size)
    os.makedirs(args.out, exist_ok=True)
    write_predictions(np.concatenate(list(pred), axis=1),
                      os.path.join(args.out, "predictions.csv"), splits.columns)
    _report(metrics, args.out)


def cmd_forecast(args):
    _predict_task(args, "forecast")


def cmd_impute(args):
    """Reconstruct the test split and score imputation on it.

    The CSV format cannot mark a missing cell, so nothing is imputed from
    the file: `predictions.csv` is the reconstruction of unmasked,
    non-overlapping test windows, and `metrics.json` scores the points
    hidden by a seeded random mask (`mask_ratio`) on every test window.
    """
    _predict_task(args, "impute")


def cmd_detect(args):
    _predict_task(args, "anomaly")


def cmd_classify(args):
    cmd_evaluate(args, "classify")


def cmd_bench(args):
    cfg, _ = _load_configs(args)
    try:
        lengths = [int(x) for x in args.lengths.split(",")]
    except ValueError:
        raise ConfigError(f"--lengths must be comma-separated integers, "
                          f"got {args.lengths!r}") from None
    rows = bench_scaling(lengths, cfg)
    os.makedirs(args.out, exist_ok=True)
    write_bench(rows, os.path.join(args.out, "bench.csv"))
    for row in rows:
        print(f"T={row['T']}: {row['ms']:.1f} ms, {row['bytes']} bytes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dema",
        description="Dual-path delay-aware state-space time series backbone")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "train": cmd_train,
        "evaluate": cmd_evaluate,
        "forecast": cmd_forecast,
        "impute": cmd_impute,
        "detect": cmd_detect,
        "classify": cmd_classify,
        "decompose": cmd_decompose,
        "priors": cmd_priors,
        "bench": cmd_bench,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default="", help="flat key=value file")
        p.add_argument("--data", default="", help="dataset CSV")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--checkpoint", default="",
                       help="checkpoint path (default: <out>/checkpoint.npz)")
        if name == "bench":
            p.add_argument("--lengths", default="384,768,1536,3072")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except DemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
