"""End-to-end experiment orchestration.

Pipeline order is fixed: load (one ``load_csv`` pass over the input file,
or the generated ``--synth`` rows) -> split the parsed rows -> a fit pass
over the training split, then an apply pass over the test split. The fit
pass encodes the training rows (vocabulary from them only), fits the
standardizer, the selector and the classifier on them in that order, and
drops the training matrix; the apply pass encodes the test rows and runs
them through the fitted stages to predictions and evaluation. Every
selector takes the same path to that point: ``encode_categoricals`` gives a
split's rows encoded a block at a time, the standardizer is fitted from
those blocks, and each split is then read standardized as it is encoded.
Without PCA it is read once, into the one matrix the selector and the
classifier take; PCA fits and projects the blocks as they are read, so its
path never builds a split. No feature matrix of the whole input is ever
built, and each matrix goes after its last use. A split is a row index into
the loaded rows. Once the fit pass has read the training rows for the last
time, the test split either copies its own rows out or, on a PCA path whose
projection takes less room than its parsed rows, is projected there and
then; either way the loaded rows go before the classifier, or Boruta, is
fitted. The runner fits the run's only standardizer, whatever the
selector, and the selector and the classifier see only standardized
rows. No statistic of the test split ever
reaches a fitted component, and every random stage is seeded, so for one
BLAS build and thread count a config reproduces its report apart from
wall-clock timings. k-fold runs the same post-split pipeline per fold,
refitting everything, the encoder included, on that fold's training rows,
and keeps only each fold's scores.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import time

import numpy as np

from . import __version__ as _pkg_version
from . import boruta as boruta_mod
from . import charts
from . import forest as forest_mod
from . import metrics as metrics_mod
from . import pca as pca_mod
from . import preprocess
from . import svm as svm_mod
from .boruta import BorutaConfig
from .dataset import (Blocks, CategoricalEncoder, Dataset, RawDataset, class_distribution,
                      encode_categoricals, load_csv, schema_by_name, split, synthetic_schema)
from .errors import ConfigError, DataError
from .forest import ForestConfig
from .metrics import EvaluationReport
from .svm import SVMConfig
from .synthgen import SynthConfig, gen_classification

SELECTORS = ("boruta", "pca", "none")
CLASSIFIERS = ("rf", "svm")
ENCODINGS = ("auto", "onehot", "ordinal")


@dataclasses.dataclass
class ExperimentConfig:
    schema: str
    data_path: str | None = None
    synth: SynthConfig | None = None
    selector: str = "none"
    classifier: str = "rf"
    encoding: str = "auto"
    test_fraction: float = 0.2
    seed: int = 42
    name: str | None = None  # label used in reports; defaults to schema
    boruta: BorutaConfig | None = None
    pca_threshold: float = 0.95
    forest: ForestConfig | None = None
    svm: SVMConfig | None = None
    folds: int | None = None

    @classmethod
    def make(cls, **kwargs) -> "ExperimentConfig":
        """Build a config with sub-configs seeded from the experiment seed."""
        cfg = cls(**kwargs)
        if cfg.boruta is None:
            cfg.boruta = BorutaConfig(seed=cfg.seed)
        if cfg.forest is None:
            cfg.forest = ForestConfig(seed=cfg.seed)
        if cfg.svm is None:
            cfg.svm = SVMConfig(seed=cfg.seed)
        return cfg

    def validate(self) -> None:
        if self.selector not in SELECTORS:
            raise ConfigError(f"unknown selector '{self.selector}'")
        if self.classifier not in CLASSIFIERS:
            raise ConfigError(f"unknown classifier '{self.classifier}'")
        if self.encoding not in ENCODINGS:
            raise ConfigError(f"unknown encoding '{self.encoding}'")
        if self.synth is not None and (self.schema != "synthetic" or self.data_path is not None):
            raise ConfigError("--synth generates the rows: it needs --schema synthetic and no data file")
        if self.synth is None and self.data_path is None:
            raise ConfigError(f"schema '{self.schema}' requires a data file (or, if synthetic, --synth)")
        if self.folds is not None and self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.boruta is None or self.forest is None or self.svm is None:
            raise ConfigError("sub-configs missing; build configs with ExperimentConfig.make")
        # The sub-configs this run uses, so that a bad setting fails before the load.
        # The forest's mtry needs the column count and is checked when the forest is grown.
        if self.selector == "boruta":
            self.boruta.validate()
        elif self.selector == "pca":
            pca_mod.check_threshold(self.pca_threshold)
        if self.classifier == "rf":
            self.forest.validate()
        else:
            self.svm.validate()

    def resolved_encoding(self) -> str:
        if self.encoding != "auto":
            return self.encoding
        # Distance/variance-based stages care about scale; trees do not.
        return "onehot" if (self.selector == "pca" or self.classifier == "svm") else "ordinal"

    def label(self) -> str:
        return self.name or self.schema

    def to_dict(self) -> dict:
        """The config snapshot: the settings of the stages this run uses, not of the others."""
        unused = {"boruta": self.selector != "boruta", "pca_threshold": self.selector != "pca",
                  "forest": self.classifier != "rf", "svm": self.classifier != "svm"}
        return {**{k: v for k, v in dataclasses.asdict(self).items() if not unused.get(k)},
                "name": self.label(), "encoding_resolved": self.resolved_encoding()}


@dataclasses.dataclass
class RunRecord:
    config: ExperimentConfig
    dataset_summary: dict
    selector_report: dict
    classifier_report: dict
    selected_features: list[str]
    evaluation: EvaluationReport
    timings: dict[str, float]
    component_digests: dict[str, str]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_stage(cfg: ExperimentConfig) -> RawDataset:
    """The input rows before encoding: parsed from a CSV file, or generated."""
    if cfg.synth is not None:
        d, _ = gen_classification(cfg.synth)
        return RawDataset(synthetic_schema(d.feature_names, d.class_names), d.features,
                          np.empty((d.n, 0), np.int32), d.labels, tokens=[])
    return load_csv(cfg.data_path, None if cfg.schema == "synthetic" else schema_by_name(cfg.schema))


def _parsed_summary(raw: RawDataset) -> dict:
    """The part of the report's dataset section that the parsed rows give."""
    return {
        "n_rows": raw.n,
        "class_distribution": class_distribution(raw),
        "rejected_rows": {"count": len(raw.rejected_rows), "first": raw.rejected_rows[:20]},
    }


def _summary(parsed: dict, sizes: dict, encoder: CategoricalEncoder) -> dict:
    """The report's dataset section: ``parsed``, the encoded width and split ``sizes``, and
    the vocabulary of the training split, which ``encoder`` was fitted on."""
    return {
        **parsed,
        **sizes,
        # training-row token frequencies per categorical column (top 20), so
        # salience rankings can be compared against plain occurrence counts
        "categorical_occurrences": {
            col: dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:20])
            for col, counts in encoder.occurrences.items()
        },
    }


def _standardized(cfg: ExperimentConfig, standardizer: preprocess.Standardizer,
                  d: Blocks) -> Dataset | Blocks:
    """``d`` read through ``standardizer``. PCA sums and projects the standardized rows a
    block at a time; the other selectors and the classifiers take them filled into one
    matrix."""
    d = dataclasses.replace(d, features=preprocess.standardized(standardizer, d.features))
    return d if cfg.selector == "pca" else d.dataset()


def _finite_or_none(value: float) -> float | None:
    return float(value) if math.isfinite(value) else None


def _select_stage(cfg: ExperimentConfig, train: Dataset | Blocks):
    """Fit the selector on the standardized training split.

    Returns (selector report dict, fitted selector object or None, the
    function that maps a standardized split to its selected or projected
    copy, a Dataset).
    """
    names = list(train.feature_names)
    if cfg.selector == "none":
        return {"type": "none", "n_features": len(names)}, None, lambda d: d

    if cfg.selector == "boruta":
        result = boruta_mod.run_boruta(train, cfg.boruta)
        selected = result.selected_indices()
        fallback = None
        if not selected:
            selected = [i for i, dec in enumerate(result.decisions)
                        if dec is not boruta_mod.FeatureDecision.REJECTED]
            fallback = "tentative"
        if not selected:
            selected = list(range(len(names)))
            fallback = "all"
        report = {
            "type": "boruta",
            "dataset": cfg.label(),
            "elapsed_seconds": result.elapsed,
            "iterations": result.iterations_used,
            "confirmed": result.n_confirmed,
            "tentative": result.n_tentative,
            "rejected": result.n_rejected,
            "decisions": {name: dec.value for name, dec in zip(names, result.decisions)},
            "hits": {name: int(h) for name, h in zip(names, result.hits)},
            # +inf (importance equal and nonzero in every tree) is written as null
            "final_z": {name: _finite_or_none(z) for name, z in zip(names, result.z_history[-1][0])},
            "final_mzs": _finite_or_none(result.z_history[-1][1]),
            "fallback": fallback,
        }
        kept = [names[i] for i in selected]
        return report, result, lambda d: dataclasses.replace(
            d, features=d.features[:, selected], feature_names=list(kept))

    model = pca_mod.fit_pca(train.features)
    k = pca_mod.select_components(model, cfg.pca_threshold)
    salience = pca_mod.feature_salience(model)
    report = {
        "type": "pca",
        "dataset": cfg.label(),
        "threshold": cfg.pca_threshold,
        "components_retained": k,
        "explained_variance_ratio": [float(r) for r in model.explained_variance_ratio],
        "salience": [{"feature": names[idx], "score": score} for idx, score in salience],
    }
    components = [f"PC{i + 1}" for i in range(k)]
    return report, model, lambda d: Dataset(
        features=pca_mod.transform(model, d.features, k), labels=d.labels,
        feature_names=list(components), class_names=d.class_names)


@contextlib.contextmanager
def _clock(timings: dict[str, float], stage: str):
    """Add the block's wall-clock seconds to ``timings[stage]``, so a stage that both the
    fit and the apply pass run sums their parts."""
    t0 = time.perf_counter()
    yield
    timings[stage] = timings.get(stage, 0.0) + (time.perf_counter() - t0)


def _apply(cfg: ExperimentConfig, timings: dict[str, float], encoder: CategoricalEncoder,
           standardizer: preprocess.Standardizer, select, raw: RawDataset) -> Dataset:
    """The apply pass over one split's parsed rows: encoded, standardized and selected or
    projected by the fitted stages, each stage's seconds added to ``timings``."""
    with _clock(timings, "encode"):
        d = encode_categoricals(raw, encoder)
    with _clock(timings, "standardize"):
        d = _standardized(cfg, standardizer, d)
    with _clock(timings, "select"):
        return select(d)


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """One seeded holdout run."""
    cfg.validate()
    timings: dict[str, float] = {}
    started = time.perf_counter()
    with _clock(timings, "load"):
        raw = _load_stage(cfg)
    with _clock(timings, "split"):
        parsed = _parsed_summary(raw)
        halves = list(split(raw, cfg.test_fraction, cfg.seed))
        del raw  # the splits index its blocks, which go once the test split has its own
        if halves[0].n < 2:
            raise DataError(f"the training split holds {halves[0].n} of {parsed['n_rows']} rows; "
                            "fitting needs at least 2 (use a smaller --test-fraction or more rows)")
    _, record = _run_split(cfg, halves, timings)
    timings["total"] = time.perf_counter() - started
    return record(parsed)


def _run_split(cfg: ExperimentConfig, halves: list[RawDataset], timings: dict[str, float]):
    """The post-split pipeline shared by the holdout and k-fold paths: a fit pass over the
    training rows, then an apply pass over the test rows. Each stage's seconds go to
    ``timings``.

    ``halves`` = [train, test] parsed rows, each an index into the same loaded blocks.
    Each pass pops its split's rows, so the caller's list keeps neither alive once it is
    encoded, and the training matrix goes before the test rows are encoded: at most one
    split's matrix exists at a time. Once the training rows have been read for the last
    time (into the training matrix, or on the PCA path by the fit and the projection), the
    test split stops indexing the loaded blocks, so they go before the classifier, or
    Boruta, is fitted. A PCA run keeps it as whichever is smaller, its k float64 components
    a row or its parsed row (``RawDataset.row_bytes``: 4 bytes a code or int32 column, 8 a
    float64 one): when the projection is smaller, the apply pass makes it then,
    straight from the loaded blocks. Otherwise the test split gets its rows in blocks of
    its own, a copy timed as part of the split, and the apply pass runs after training.
    Nothing fitted reads the test split, so either order gives the same bits.

    Returns the test split's evaluation and ``record(parsed)``, which builds the holdout
    run's RunRecord from the fitted components: only that serializes a model, so a
    caller that keeps just the scores drops the components with the returned pair."""
    with _clock(timings, "encode"):
        raw = halves.pop(0)
        encoder = CategoricalEncoder(cfg.resolved_encoding(), raw)
        train = encode_categoricals(raw, encoder)
        del raw
        sizes = {"n_features": train.p, "n_train": train.n, "n_test": halves[0].n}
    with _clock(timings, "standardize"):
        standardizer = preprocess.fit_standardizer(train.features)
        train = _standardized(cfg, standardizer, train)
    if cfg.selector != "pca":  # the training matrix holds the training rows
        with _clock(timings, "split"):
            halves[0] = halves[0].compact()
    with _clock(timings, "select"):
        selector_report, selector_obj, select = _select_stage(cfg, train)
        train = select(train)
    test = None
    if cfg.selector == "pca":  # the projection was the training rows' last read
        if train.features.itemsize * train.p < halves[0].row_bytes:
            test = _apply(cfg, timings, encoder, standardizer, select, halves.pop())
        else:
            with _clock(timings, "split"):
                halves[0] = halves[0].compact()
    with _clock(timings, "train"):
        class_names, selected_names = list(train.class_names), list(train.feature_names)
        if cfg.classifier == "rf":
            model = forest_mod.train_forest_xy(train.features, train.labels, len(class_names),
                                               cfg.forest, class_names=class_names)
            predict = lambda m: forest_mod.predict(model, m)
            classifier_report = model.shape()
        else:
            model = svm_mod.train_svm(train, cfg.svm)
            predict = lambda m: svm_mod.predict(model, m)
            classifier_report = model.solves
        del train

    if test is None:
        test = _apply(cfg, timings, encoder, standardizer, select, halves.pop())
    with _clock(timings, "predict"):
        predicted = predict(test.features)
    with _clock(timings, "evaluate"):
        evaluation = metrics_mod.evaluate(test.labels, predicted, class_names)

    def record(parsed: dict) -> RunRecord:
        digests = {"standardizer": _digest(standardizer.to_text()),
                   "classifier": _digest(model.to_text())}
        if selector_obj is not None:
            digests["selector"] = _digest(selector_obj.to_text())
        return RunRecord(config=cfg, dataset_summary=_summary(parsed, sizes, encoder),
                         selector_report=selector_report, classifier_report=classifier_report,
                         selected_features=selected_names, evaluation=evaluation, timings=timings,
                         component_digests=digests)
    return evaluation, record


def report_dict(rec: RunRecord) -> dict:
    """JSON-safe report with the documented stable keys."""
    body = {
        "config": rec.config.to_dict(),
        "dataset": rec.dataset_summary,
        "selected_features": rec.selected_features,
        "selector_report": rec.selector_report,
        "classifier_report": rec.classifier_report,
        "metrics_scope": "test",
        "seed": rec.config.seed,
        "timings": rec.timings,
        "component_digests": rec.component_digests,
        "versions": {
            "cyclonids": _pkg_version,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    body.update(rec.evaluation.to_dict())
    return body


def strip_timings(report: dict) -> dict:
    """Copy of a report dict with every wall-clock field zeroed (for diffing)."""
    clone = json.loads(json.dumps(report))
    clone["timings"] = {k: 0.0 for k in clone.get("timings", {})}
    if clone.get("selector_report", {}).get("elapsed_seconds") is not None:
        clone["selector_report"]["elapsed_seconds"] = 0.0
    return clone


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    os.replace(tmp, path)


def emit_reports(rec: RunRecord, out_dir: str) -> list[str]:
    """Write report.json, confusion.csv, selector.csv, and charts/*.svg."""
    os.makedirs(os.path.join(out_dir, "charts"), exist_ok=True)
    written: list[str] = []

    def write(name: str, text: str) -> None:
        path = os.path.join(out_dir, name)
        _atomic_write(path, text)
        written.append(path)

    report = json.dumps(report_dict(rec), indent=2, sort_keys=True, allow_nan=False)
    write("report.json", report + "\n")
    cm = rec.evaluation.matrix
    rows = [["actual\\predicted"] + list(cm.class_names)]
    rows += [[name] + [str(int(v)) for v in row] for name, row in zip(cm.class_names, cm.counts)]
    write("confusion.csv", _csv_text(rows))
    write("selector.csv", _selector_csv(rec))
    dist = rec.dataset_summary["class_distribution"]
    write(os.path.join("charts", "class_distribution.svg"),
          charts.bar_chart_svg(f"Class distribution ({rec.config.label()})",
                               list(dist), [float(v) for v in dist.values()]))

    if rec.selector_report.get("type") == "pca":
        ranked = rec.selector_report["salience"][:20]
        write(os.path.join("charts", "salience.svg"),
              charts.bar_chart_svg("PCA feature salience", [r["feature"] for r in ranked],
                                   [r["score"] for r in ranked]))
    elif rec.selector_report.get("type") == "boruta":
        z = {k: math.inf if v is None else v for k, v in rec.selector_report["final_z"].items()}
        top = sorted(z.items(), key=lambda kv: -kv[1])[:20]
        write(os.path.join("charts", "boruta_z.svg"),
              charts.bar_chart_svg("Boruta feature Z-scores (final iteration)",
                                   [k for k, _ in top], [v for _, v in top]))
    return written


def _csv_text(rows: list[list[str]]) -> str:
    """Rows as CSV text, one line each; a field holding a comma or a quote is quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _selector_csv(rec: RunRecord) -> str:
    rep = rec.selector_report
    if rep["type"] == "boruta":
        header = ["dataset", "elapsed_seconds", "iterations", "confirmed", "tentative", "rejected"]
        row = [rep["dataset"], repr(rep["elapsed_seconds"])] + [str(rep[k]) for k in header[2:]]
        return _csv_text([header, row])
    if rep["type"] == "pca":
        return _csv_text([["feature", "salience"]]
                         + [[entry["feature"], repr(entry["score"])] for entry in rep["salience"]])
    return _csv_text([["feature"]] + [[name] for name in rec.selected_features])


def compare_datasets(configs: list[ExperimentConfig]) -> list[dict]:
    """Run every config and tabulate one row each, sorted by accuracy descending."""
    if len(configs) < 1:
        raise ConfigError("compare needs at least one experiment config")
    for cfg in configs:  # every config before the first load
        cfg.validate()
    rows = []
    for cfg in configs:
        rec = run_experiment(cfg)
        rep = rec.selector_report
        if rep["type"] == "boruta":
            selector_note = f"confirmed={rep['confirmed']} rejected={rep['rejected']}"
        elif rep["type"] == "pca":
            selector_note = f"components={rep['components_retained']}"
        else:
            selector_note = "-"
        rows.append({
            "dataset": cfg.label(),
            "selector": cfg.selector,
            "classifier": cfg.classifier,
            "accuracy": rec.evaluation.accuracy,
            "macro_f1": rec.evaluation.macro_f1,
            "selector_summary": selector_note,
            "train_seconds": rec.timings["train"],
            "total_seconds": rec.timings["total"],
        })
    rows.sort(key=lambda r: -r["accuracy"])
    return rows


def comparison_csv(rows: list[dict]) -> str:
    columns = ["dataset", "selector", "classifier", "accuracy", "macro_f1",
               "selector_summary", "train_seconds", "total_seconds"]
    return _csv_text([columns] + [[str(row[c]) for c in columns] for row in rows])


def run_kfold(cfg: ExperimentConfig) -> dict:
    """Optional k-fold extension: ``cfg.folds`` seeded holdout rounds over disjoint folds."""
    cfg.validate()
    if cfg.folds is None:
        raise ConfigError("k-fold needs folds set in the config")
    folds = cfg.folds
    raw = _load_stage(cfg)
    if folds > raw.n:
        raise ConfigError(f"{folds} folds need at least {folds} rows, the data has {raw.n}")
    perm = np.random.default_rng(cfg.seed).permutation(raw.n)
    bounds = np.linspace(0, raw.n, folds + 1).astype(int)
    fewest = raw.n - int(np.diff(bounds).max())  # training rows beside the largest fold
    if fewest < 2:
        raise DataError(f"a training fold holds {fewest} of {raw.n} rows; "
                        "fitting needs at least 2 (use more --folds or more rows)")
    accuracies, macro_f1s = [], []
    for f in range(folds):
        test_rows = np.sort(perm[bounds[f]:bounds[f + 1]])
        train_rows = np.sort(np.concatenate([perm[:bounds[f]], perm[bounds[f + 1]:]]))
        # only the scores are kept: the fold's fitted components go with the returned pair
        evaluation = _run_split(cfg, [raw.take(train_rows), raw.take(test_rows)], {})[0]
        accuracies.append(evaluation.accuracy)
        macro_f1s.append(evaluation.macro_f1)
    return {
        "folds": folds,
        "accuracy_per_fold": accuracies,
        "accuracy_mean": float(np.mean(accuracies)),
        "accuracy_std": float(np.std(accuracies, ddof=1)),
        "macro_f1_per_fold": macro_f1s,
        "macro_f1_mean": float(np.mean(macro_f1s)),
    }
