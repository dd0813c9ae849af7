"""End-to-end experiment orchestration.

Pipeline order is fixed: load -> encode -> split -> standardize (fit on the
training split only) -> select features (fit on train only) -> train the
classifier on the selected training columns -> evaluate on the held-out
split. No statistic of the test split ever reaches a fitted component, and
every random stage is seeded, so a config reproduces its report bit for bit
apart from wall-clock timings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import time

import numpy as np
import scipy

from . import __version__ as _pkg_version
from . import boruta as boruta_mod
from . import charts
from . import forest as forest_mod
from . import metrics as metrics_mod
from . import pca as pca_mod
from . import preprocess
from . import svm as svm_mod
from .boruta import BorutaConfig
from .dataset import (Dataset, class_distribution, encode_categoricals, load_csv,
                      read_synthetic_schema, schema_by_name, split)
from .errors import ConfigError
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
    out_dir: str | None = None
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
        if self.schema == "synthetic":
            if self.synth is None and self.data_path is None:
                raise ConfigError("synthetic schema needs either --synth parameters or a data file")
        elif self.data_path is None:
            raise ConfigError(f"schema '{self.schema}' requires a data file")
        if self.folds is not None and self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if self.boruta is None or self.forest is None or self.svm is None:
            raise ConfigError("sub-configs missing; build configs with ExperimentConfig.make")

    def resolved_encoding(self) -> str:
        if self.encoding != "auto":
            return self.encoding
        # Distance/variance-based stages care about scale; trees do not.
        return "onehot" if (self.selector == "pca" or self.classifier == "svm") else "ordinal"

    def label(self) -> str:
        return self.name or self.schema

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "data_path": self.data_path,
            "synth": dataclasses.asdict(self.synth) if self.synth else None,
            "selector": self.selector,
            "classifier": self.classifier,
            "encoding": self.encoding,
            "encoding_resolved": self.resolved_encoding(),
            "test_fraction": self.test_fraction,
            "seed": self.seed,
            "name": self.label(),
            "boruta": dataclasses.asdict(self.boruta),
            "pca_threshold": self.pca_threshold,
            "forest": dataclasses.asdict(self.forest),
            "svm": dataclasses.asdict(self.svm),
            "folds": self.folds,
        }


@dataclasses.dataclass
class RunRecord:
    config: ExperimentConfig
    dataset_summary: dict
    selector_report: dict
    selected_features: list[str]
    evaluation: EvaluationReport
    timings: dict[str, float]
    components: dict
    component_digests: dict[str, str]
    class_counts: dict[str, int]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_stage(cfg: ExperimentConfig) -> Dataset:
    if cfg.schema == "synthetic" and cfg.synth is not None:
        d, _ = gen_classification(cfg.synth)
        return d
    if cfg.schema == "synthetic":
        # A synthetic CSV written by `cyclonids gen` carries its own header;
        # infer the schema from it.
        schema = read_synthetic_schema(cfg.data_path)
        return encode_categoricals(load_csv(cfg.data_path, schema), "onehot")
    schema = schema_by_name(cfg.schema)
    raw = load_csv(cfg.data_path, schema)
    return encode_categoricals(raw, cfg.resolved_encoding())


def _select_stage(cfg: ExperimentConfig, train: Dataset, x_train: np.ndarray,
                  x_test: np.ndarray):
    """Fit the selector on the (standardized) training split only.

    Returns (selected train matrix, selected test matrix, feature names,
    selector report dict, fitted selector object or None).
    """
    names = list(train.feature_names)
    if cfg.selector == "none":
        return x_train, x_test, names, {"type": "none", "n_features": len(names)}, None

    if cfg.selector == "boruta":
        std_train = Dataset(features=x_train, labels=train.labels, feature_names=names,
                            schema_id=train.schema_id, class_names=train.class_names)
        result = boruta_mod.run_boruta(std_train, cfg.boruta)
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
            "final_z": {name: float(z) for name, z in zip(names, result.z_history[-1][0])},
            "final_mzs": result.z_history[-1][1],
            "fallback": fallback,
        }
        sel_names = [names[i] for i in selected]
        return x_train[:, selected], x_test[:, selected], sel_names, report, result

    model = pca_mod.fit_pca(x_train)
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
    comp_names = [f"PC{i + 1}" for i in range(k)]
    return (pca_mod.transform(model, x_train, k), pca_mod.transform(model, x_test, k),
            comp_names, report, model)


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    cfg.validate()
    timings: dict[str, float] = {}
    t_total = time.perf_counter()

    t0 = time.perf_counter()
    data = _load_stage(cfg)
    timings["load"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    pair = split(data, cfg.test_fraction, cfg.seed)
    timings["split"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    standardizer = preprocess.fit_standardizer(pair.train.features)
    x_train = preprocess.transform(standardizer, pair.train.features)
    x_test = preprocess.transform(standardizer, pair.test.features)
    timings["standardize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    x_train_sel, x_test_sel, selected_names, selector_report, selector_obj = _select_stage(
        cfg, pair.train, x_train, x_test)
    timings["select"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    class_names = list(data.class_names)
    if cfg.classifier == "rf":
        model = forest_mod.train_forest_xy(x_train_sel, pair.train.labels, len(class_names),
                                           cfg.forest, class_names=class_names)
        predict = lambda m: forest_mod.predict(model, m)
    else:
        svm_train = Dataset(features=x_train_sel, labels=pair.train.labels,
                            feature_names=selected_names, schema_id=data.schema_id,
                            class_names=class_names)
        model = svm_mod.train_svm(svm_train, cfg.svm)
        predict = lambda m: svm_mod.predict(model, m)
    timings["train"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    predicted = predict(x_test_sel)
    timings["predict"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    evaluation = metrics_mod.evaluate(pair.test.labels, predicted, class_names)
    evaluation.train_time = timings["train"]
    evaluation.predict_time = timings["predict"]
    timings["evaluate"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_total

    components = {"standardizer": standardizer, "selector": selector_obj, "classifier": model}
    digests = {"standardizer": _digest(standardizer.to_text()),
               "classifier": _digest(model.to_text())}
    if selector_obj is not None:
        digests["selector"] = _digest(selector_obj.to_text())

    summary = {
        "n_rows": data.n,
        "n_features": data.p,
        "n_train": pair.train.n,
        "n_test": pair.test.n,
        "class_distribution": class_distribution(data),
        # raw token frequencies per categorical column (top 20), so salience
        # rankings can be compared against plain occurrence counts
        "categorical_occurrences": {
            col: dict(sorted(info["occurrences"].items(), key=lambda kv: (-kv[1], kv[0]))[:20])
            for col, info in data.encoding_map.items()
        },
    }
    return RunRecord(config=cfg, dataset_summary=summary, selector_report=selector_report,
                     selected_features=selected_names, evaluation=evaluation,
                     timings=timings, components=components, component_digests=digests,
                     class_counts=class_distribution(data))


def report_dict(rec: RunRecord) -> dict:
    """JSON-safe report with the documented stable keys."""
    body = {
        "config": rec.config.to_dict(),
        "dataset": rec.dataset_summary,
        "selected_features": rec.selected_features,
        "selector_report": rec.selector_report,
        "metrics_scope": "test",
        "seed": rec.config.seed,
        "timings": rec.timings,
        "component_digests": rec.component_digests,
        "versions": {
            "cyclonids": _pkg_version,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
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
    os.makedirs(out_dir, exist_ok=True)
    charts_dir = os.path.join(out_dir, "charts")
    os.makedirs(charts_dir, exist_ok=True)
    written: list[str] = []

    path = os.path.join(out_dir, "report.json")
    _atomic_write(path, json.dumps(report_dict(rec), indent=2, sort_keys=True) + "\n")
    written.append(path)

    cm = rec.evaluation.matrix
    lines = [",".join(["actual\\predicted"] + list(cm.class_names))]
    for name, row in zip(cm.class_names, cm.counts):
        lines.append(",".join([name] + [str(int(v)) for v in row]))
    path = os.path.join(out_dir, "confusion.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    written.append(path)

    path = os.path.join(out_dir, "selector.csv")
    _atomic_write(path, _selector_csv(rec))
    written.append(path)

    dist = rec.class_counts
    path = os.path.join(charts_dir, "class_distribution.svg")
    _atomic_write(path, charts.bar_chart_svg(f"Class distribution ({rec.config.label()})",
                                             list(dist), [float(v) for v in dist.values()]))
    written.append(path)

    if rec.selector_report.get("type") == "pca":
        ranked = rec.selector_report["salience"][:20]
        path = os.path.join(charts_dir, "salience.svg")
        _atomic_write(path, charts.bar_chart_svg("PCA feature salience",
                                                 [r["feature"] for r in ranked],
                                                 [r["score"] for r in ranked]))
        written.append(path)
    elif rec.selector_report.get("type") == "boruta":
        z = rec.selector_report["final_z"]
        finite = {k: (v if np.isfinite(v) else 0.0) for k, v in z.items()}
        top = sorted(finite.items(), key=lambda kv: -kv[1])[:20]
        path = os.path.join(charts_dir, "boruta_z.svg")
        _atomic_write(path, charts.bar_chart_svg("Boruta feature Z-scores (final iteration)",
                                                 [k for k, _ in top], [v for _, v in top]))
        written.append(path)
    return written


def _selector_csv(rec: RunRecord) -> str:
    rep = rec.selector_report
    if rep["type"] == "boruta":
        header = "dataset,elapsed_seconds,iterations,confirmed,tentative,rejected"
        row = (f"{rep['dataset']},{rep['elapsed_seconds']!r},{rep['iterations']},"
               f"{rep['confirmed']},{rep['tentative']},{rep['rejected']}")
        return header + "\n" + row + "\n"
    if rep["type"] == "pca":
        lines = ["feature,salience"]
        lines += [f"{entry['feature']},{entry['score']!r}" for entry in rep["salience"]]
        return "\n".join(lines) + "\n"
    lines = ["feature"]
    lines += rec.selected_features
    return "\n".join(lines) + "\n"


def compare_datasets(configs: list[ExperimentConfig]) -> list[dict]:
    """Run every config and tabulate one row each, sorted by accuracy descending."""
    if len(configs) < 1:
        raise ConfigError("compare needs at least one experiment config")
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
    out = [",".join(columns)]
    for row in rows:
        out.append(",".join(str(row[c]) for c in columns))
    return "\n".join(out) + "\n"


def run_kfold(cfg: ExperimentConfig, folds: int) -> dict:
    """Optional k-fold extension: k seeded holdout rounds over disjoint folds."""
    cfg.validate()
    if folds < 2:
        raise ConfigError("folds must be >= 2")
    base = _load_stage(cfg)
    perm = np.random.default_rng(cfg.seed).permutation(base.n)
    bounds = np.linspace(0, base.n, folds + 1).astype(int)
    accuracies, macro_f1s = [], []
    for f in range(folds):
        test_idx = np.sort(perm[bounds[f]:bounds[f + 1]])
        train_idx = np.sort(np.concatenate([perm[:bounds[f]], perm[bounds[f + 1]:]]))
        train, test = base.take(train_idx), base.take(test_idx)
        rec = _run_on_split(cfg, base, train, test)
        accuracies.append(rec.evaluation.accuracy)
        macro_f1s.append(rec.evaluation.macro_f1)
    return {
        "folds": folds,
        "accuracy_per_fold": accuracies,
        "accuracy_mean": float(np.mean(accuracies)),
        "accuracy_std": float(np.std(accuracies, ddof=1)),
        "macro_f1_per_fold": macro_f1s,
        "macro_f1_mean": float(np.mean(macro_f1s)),
    }


def _run_on_split(cfg: ExperimentConfig, data: Dataset, train: Dataset, test: Dataset) -> RunRecord:
    """The post-split pipeline shared by the holdout and k-fold paths."""
    timings: dict[str, float] = {}
    standardizer = preprocess.fit_standardizer(train.features)
    x_train = preprocess.transform(standardizer, train.features)
    x_test = preprocess.transform(standardizer, test.features)
    x_train_sel, x_test_sel, selected_names, selector_report, selector_obj = _select_stage(
        cfg, train, x_train, x_test)
    class_names = list(data.class_names)
    t0 = time.perf_counter()
    if cfg.classifier == "rf":
        model = forest_mod.train_forest_xy(x_train_sel, train.labels, len(class_names),
                                           cfg.forest, class_names=class_names)
        predicted = forest_mod.predict(model, x_test_sel)
    else:
        svm_train = Dataset(features=x_train_sel, labels=train.labels,
                            feature_names=selected_names, schema_id=data.schema_id,
                            class_names=class_names)
        model = svm_mod.train_svm(svm_train, cfg.svm)
        predicted = svm_mod.predict(model, x_test_sel)
    timings["train"] = time.perf_counter() - t0
    evaluation = metrics_mod.evaluate(test.labels, predicted, class_names)
    timings["total"] = timings["train"]
    return RunRecord(config=cfg, dataset_summary={}, selector_report=selector_report,
                     selected_features=selected_names, evaluation=evaluation,
                     timings=timings, components={}, component_digests={},
                     class_counts=class_distribution(data))
