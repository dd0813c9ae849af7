"""Command-line interface.

    cyclonids run --schema ugransome --data path.csv --selector pca --classifier rf \
        --seed 42 --out results/
    cyclonids compare --config experiments.txt --out results/
    cyclonids gen --synth n=1000,inf=3,noise=7,classes=2,sep=5,seed=1 --out synth.csv

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shlex
import sys

import numpy as np

from .boruta import BorutaConfig
from .dataset import _not_utf8, write_csv
from .errors import ConfigError, DataError, NumericError, unreadable
from .forest import ForestConfig
from .runner import (CLASSIFIERS, ENCODINGS, SELECTORS, ExperimentConfig, _atomic_write,
                     comparison_csv, compare_datasets, emit_reports, run_experiment, run_kfold)
from .svm import SVMConfig
from .synthgen import SynthConfig, gen_classification

_SYNTH_KEYS = {"n": "n_samples", "inf": "n_informative", "noise": "n_noise",
               "classes": "n_classes", "sep": "class_separation", "seed": "seed"}


def parse_synth_spec(spec: str) -> SynthConfig:
    """Parse 'n=500,inf=3,noise=7,classes=2,sep=5,seed=1' into a SynthConfig."""
    kwargs = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"bad --synth entry '{item}' (expected key=value)")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in _SYNTH_KEYS:
            raise ConfigError(f"unknown --synth key '{key}' (expected {sorted(_SYNTH_KEYS)})")
        field = _SYNTH_KEYS[key]
        try:
            kwargs[field] = float(value) if field == "class_separation" else int(value)
        except ValueError:
            raise ConfigError(f"--synth {key} must be a number, got '{value.strip()}'") from None
    try:
        cfg = SynthConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"incomplete --synth spec: {exc}") from None
    cfg.validate()
    return cfg


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--schema", required=True,
                        choices=["kdd99", "nslkdd", "ugransome", "synthetic"])
    parser.add_argument("--data", default=None, help="CSV file to load")
    parser.add_argument("--synth", default=None,
                        help="synthetic data spec: n=...,inf=...,noise=...,classes=...,sep=...,seed=...")
    parser.add_argument("--selector", default=ExperimentConfig.selector, choices=SELECTORS)
    parser.add_argument("--classifier", default=ExperimentConfig.classifier, choices=CLASSIFIERS)
    parser.add_argument("--encoding", default=ExperimentConfig.encoding, choices=ENCODINGS)
    parser.add_argument("--test-fraction", type=float, default=ExperimentConfig.test_fraction)
    parser.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    parser.add_argument("--out", default=None, help="output directory for reports")
    parser.add_argument("--name", default=None, help="dataset label used in reports")
    parser.add_argument("--folds", type=int, default=None,
                        help="optional k-fold cross-validation instead of the single holdout")
    parser.add_argument("--boruta-max-iter", type=int, default=BorutaConfig.max_iterations)
    parser.add_argument("--boruta-alpha", type=float, default=BorutaConfig.alpha)
    parser.add_argument("--pca-threshold", type=float, default=ExperimentConfig.pca_threshold)
    parser.add_argument("--rf-trees", type=int, default=ForestConfig.n_trees)
    parser.add_argument("--rf-seed", type=int, default=None, help="defaults to --seed")
    parser.add_argument("--rf-max-depth", type=int, default=ForestConfig.max_depth)
    parser.add_argument("--svm-c", type=float, default=SVMConfig.c)
    parser.add_argument("--svm-epochs", type=int, default=SVMConfig.max_epochs)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    synth = parse_synth_spec(args.synth) if args.synth else None
    rf_seed = args.seed if args.rf_seed is None else args.rf_seed
    return ExperimentConfig.make(
        schema=args.schema,
        data_path=args.data,
        synth=synth,
        selector=args.selector,
        classifier=args.classifier,
        encoding=args.encoding,
        test_fraction=args.test_fraction,
        seed=args.seed,
        name=args.name,
        boruta=BorutaConfig(max_iterations=args.boruta_max_iter, alpha=args.boruta_alpha,
                            seed=args.seed),
        pca_threshold=args.pca_threshold,
        forest=ForestConfig(n_trees=args.rf_trees, max_depth=args.rf_max_depth, seed=rf_seed),
        svm=SVMConfig(c=args.svm_c, max_epochs=args.svm_epochs, seed=args.seed),
        folds=args.folds,
    )


def _print_summary(rec) -> None:
    ev = rec.evaluation
    print(f"dataset={rec.config.label()} selector={rec.config.selector} "
          f"classifier={rec.config.classifier} seed={rec.config.seed}")
    print(f"rows={rec.dataset_summary['n_rows']} features={rec.dataset_summary['n_features']} "
          f"train={rec.dataset_summary['n_train']} test={rec.dataset_summary['n_test']}")
    print(f"test accuracy={ev.accuracy:.4f} macro_precision={ev.macro_precision:.4f} "
          f"macro_recall={ev.macro_recall:.4f} macro_f1={ev.macro_f1:.4f}")
    rep = rec.selector_report
    if rep["type"] == "boruta":
        print(f"boruta: dataset={rep['dataset']} elapsed={rep['elapsed_seconds']:.2f}s "
              f"iterations={rep['iterations']} confirmed={rep['confirmed']} "
              f"tentative={rep['tentative']} rejected={rep['rejected']}")
    elif rep["type"] == "pca":
        top = rep["salience"][0]
        print(f"pca: components={rep['components_retained']} at threshold {rep['threshold']}; "
              f"top feature {top['feature']} (salience {top['score']:.4f})")


@contextlib.contextmanager
def _writing(out: str):
    """Report a failure to write the --out location as a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc.strerror or exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if args.out:  # before loading, so an --out that cannot be written fails fast
        with _writing(args.out):
            os.makedirs(args.out, exist_ok=True)
    if cfg.folds is not None:
        summary = run_kfold(cfg)
        print(f"{cfg.folds}-fold accuracy: mean={summary['accuracy_mean']:.4f} "
              f"std={summary['accuracy_std']:.4f} macro_f1 mean={summary['macro_f1_mean']:.4f}")
        if args.out:
            path = os.path.join(args.out, "kfold.json")
            with _writing(args.out):
                _atomic_write(path, json.dumps(summary, indent=2, sort_keys=True))
            print(f"wrote {path}")
        return 0
    rec = run_experiment(cfg)
    _print_summary(rec)
    if args.out:
        with _writing(args.out):
            written = emit_reports(rec, args.out)
        for path in written:
            print(f"wrote {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        with open(args.config, "r", encoding="utf-8-sig") as handle:
            lines = [ln.strip() for ln in handle]
    except OSError as exc:
        raise unreadable(args.config, exc) from None
    except UnicodeDecodeError:
        raise _not_utf8(args.config) from None
    configs = []
    run_parser = argparse.ArgumentParser(prog="experiment-line", add_help=False)
    _add_run_arguments(run_parser)
    for line in lines:
        if not line or line.startswith("#"):
            continue
        try:
            line_args = run_parser.parse_args(shlex.split(line))
        except (SystemExit, ValueError):  # ValueError: shlex found an unclosed quote
            raise ConfigError(f"bad experiment line: {line}") from None
        if line_args.folds is not None:
            raise ConfigError(f"compare runs holdouts only; --folds is not allowed: {line}")
        if line_args.out is not None:
            raise ConfigError(f"compare writes only to its own --out; --out is not allowed: {line}")
        configs.append(_config_from_args(line_args))
    if not configs:
        raise ConfigError(f"no experiment lines found in {args.config}")

    rows = compare_datasets(configs)
    header = f"{'dataset':<16} {'selector':<8} {'classifier':<10} {'accuracy':>9} {'macro_f1':>9}  selector_summary"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['dataset']:<16} {row['selector']:<8} {row['classifier']:<10} "
              f"{row['accuracy']:>9.4f} {row['macro_f1']:>9.4f}  {row['selector_summary']}")
    if args.out:
        path = os.path.join(args.out, "comparison.csv")
        with _writing(args.out):
            os.makedirs(args.out, exist_ok=True)
            _atomic_write(path, comparison_csv(rows))
        print(f"wrote {path}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = parse_synth_spec(args.synth)
    d, informative = gen_classification(cfg)
    with _writing(args.out):
        write_csv(d, args.out)
    print(f"wrote {args.out}: {d.n} rows, {d.p} features "
          f"(informative columns: {sorted(informative)})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cyclonids", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    _add_run_arguments(run_p)
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="run several experiments and tabulate them")
    cmp_p.add_argument("--config", required=True,
                       help="text file: one run-style argument line per experiment")
    cmp_p.add_argument("--out", default=None)
    cmp_p.set_defaults(func=_cmd_compare)

    gen_p = sub.add_parser("gen", help="write a synthetic dataset to CSV")
    gen_p.add_argument("--synth", required=True)
    gen_p.add_argument("--out", required=True)
    gen_p.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
