"""Run one workload back to back in this process, check every run, and compute its metrics.

A closed loop with one client: each run is ``run_experiment`` followed by
``emit_reports`` into a fresh directory, which is what ``cyclonids run``
does after start-up, and the next run starts when it returns. Runs continue
while the next one is expected to end within the time budget, and at least
two are made so that their outputs can be compared.

With tracing on, untraced and traced runs alternate (untraced first); the
traced runs give the per-layer metrics and must reproduce the untraced
run's digests and report.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import time
import tracemalloc
import traceback

import numpy as np

from cyclonids import dataset, forest, svm
from cyclonids.boruta import BorutaConfig
from cyclonids.forest import ForestConfig
from cyclonids.runner import (ExperimentConfig, emit_reports, report_dict, run_experiment,
                              strip_timings)
from cyclonids.svm import SVMConfig

import spans
from workloads import EXPERIMENT_SEED, WORKLOADS

MIN_RUNS = 2


def make_config(workload: str, csv_path: str) -> ExperimentConfig:
    spec = WORKLOADS[workload]
    seed = EXPERIMENT_SEED
    return ExperimentConfig.make(
        schema=spec["layout"],
        data_path=csv_path,
        selector=spec["selector"],
        classifier=spec["classifier"],
        test_fraction=spec.get("test_fraction", 0.2),
        pca_threshold=spec.get("pca_threshold", 0.95),
        seed=seed,
        boruta=BorutaConfig(max_iterations=spec.get("boruta_max_iterations", 20), seed=seed),
        forest=ForestConfig(n_trees=spec.get("rf_trees", 100),
                            max_depth=spec.get("rf_max_depth"), seed=seed),
        svm=SVMConfig(max_epochs=spec.get("svm_max_epochs", 1000), seed=seed),
    )


def selection_scores(rec, manifest: dict) -> tuple[float, float]:
    """Recall and precision of the input columns that reach the classifier.

    Boruta passes on the columns it keeps, and a one-hot column counts as
    its source column. PCA components mix every column and ``--selector
    none`` drops none, so those workloads pass on all of them.
    """
    informative = set(manifest["informative"])
    if rec.selector_report["type"] == "pca":
        kept = set(manifest["columns"])
    else:
        kept = {name.split("=", 1)[0] for name in rec.selected_features}
    hit = len(kept & informative)
    return hit / len(informative), hit / len(kept)


def _fingerprint(rec) -> dict:
    return {"digests": dict(rec.component_digests),
            "report_sha256": hashlib.sha256(json.dumps(
                strip_timings(report_dict(rec)), sort_keys=True).encode("utf-8")).hexdigest()}


def check_run(rec, reference: dict | None, manifest: dict, layer: dict | None) -> list[str]:
    """Problems with one run's output; an empty list means it is correct."""
    problems = []
    total, n_test = rec.evaluation.matrix.total, rec.dataset_summary["n_test"]
    if total != n_test:
        problems.append(f"confusion matrix sums to {total}, test split has {n_test} rows")
    kept_rows = manifest["rows"] - len(manifest["malformed_lines"])
    if rec.dataset_summary["n_rows"] != kept_rows:
        problems.append(f"{rec.dataset_summary['n_rows']} rows loaded, expected {kept_rows}")
    if layer is not None and layer["dataset.rows_rejected"] != len(manifest["malformed_lines"]):
        problems.append(f"{layer['dataset.rows_rejected']} rows rejected, "
                        f"{len(manifest['malformed_lines'])} were malformed")
    if reference is not None:
        mine = _fingerprint(rec)
        if mine["digests"] != reference["digests"]:
            problems.append(f"component digests differ from the first run: {mine['digests']}")
        if mine["report_sha256"] != reference["report_sha256"]:
            problems.append("report without timings differs from the first run")
    return problems


def layer_metrics(run_spans: list[dict], wall: float, cpu: float) -> dict[str, float]:
    """Per-layer metrics of one traced run from its spans."""
    dur: dict[str, float] = {}
    count: dict[str, float] = {}
    for s in run_spans:
        dur[s["name"]] = dur.get(s["name"], 0.0) + (s["end"] - s["start"])
        for key, value in s["counts"].items():
            name = f"{s['name']}.{key}"
            count[name] = count.get(name, 0.0) + value
    top = next(s for s in run_spans if s["name"] == "runner.experiment")
    children = sum(s["end"] - s["start"] for s in run_spans if s["parent"] == top["id"])
    d = lambda name: dur.get(name, 0.0)
    c = lambda name: count.get(name, 0.0)
    forest_s = d("forest.train") + d("boruta.forest")
    nodes = c("forest.train.nodes") + c("boruta.forest.nodes")
    return {
        "dataset.load_s": d("dataset.load"),
        "dataset.encode_s": d("dataset.encode"),
        "dataset.split_s": d("dataset.split"),
        "dataset.rows_rejected": c("dataset.load.rows_rejected"),
        "dataset.encoded_cols": c("dataset.encode.encoded_cols"),
        "preprocess.standardize_s": d("preprocess.standardize"),
        "pca.fit_s": d("pca.fit"),
        "pca.transform_s": d("pca.transform"),
        "pca.components": c("pca.select.components"),
        "boruta.select_s": d("boruta.select"),
        "boruta.forest_s": d("boruta.forest"),
        "boruta.shadow_s": d("boruta.shadow"),
        "boruta.iterations": c("boruta.select.iterations"),
        "boruta.forest_cols": c("boruta.forest.cols"),
        "forest.train_s": d("forest.train"),
        "forest.predict_s": d("forest.predict"),
        "forest.nodes": nodes,
        "forest.nodes_per_s": nodes / forest_s if forest_s > 0 else 0.0,
        "svm.train_s": d("svm.train"),
        "svm.predict_s": d("svm.predict"),
        "svm.epochs": c("svm.train.epochs"),
        "svm.objective": c("svm.train.objective"),
        "metrics.evaluate_s": d("metrics.evaluate"),
        "runner.report_s": d("runner.report"),
        "runner.self_s": d("runner.experiment") - children,
        "runner.cpu_util": cpu / wall,
        "traced_experiment_s": wall,
    }


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def _scaling_exponent(t_full: float, t_quarter: float) -> float:
    """Exponent e in t ~ n**e from train times at n and n/4 rows."""
    return math.log(t_full / t_quarter) / math.log(4.0)


def _after_trace(tracer: spans.Tracer, layers: dict) -> None:
    """Metrics that need extra calls, made outside every timed run."""
    layers["dataset.load_peak_mb"] = 0.0
    if "dataset.load" in tracer.last_args:
        args, kwargs = tracer.last_args["dataset.load"]
        tracemalloc.start()
        try:
            dataset.load_csv(*args, **kwargs)
            layers["dataset.load_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    layers["forest.n_scaling_exp"] = 0.0
    if "forest.train" in tracer.last_args:
        (x, y, *rest), kwargs = tracer.last_args["forest.train"]
        q = len(y) // 4
        t_q = _timed(forest.train_forest_xy, x[:q], y[:q], *rest, **kwargs)
        layers["forest.n_scaling_exp"] = _scaling_exponent(layers["forest.train_s"], t_q)
    layers["svm.n_scaling_exp"] = 0.0
    if "svm.train" in tracer.last_args:
        (d, *rest), kwargs = tracer.last_args["svm.train"]
        t_q = _timed(svm.train_svm, d.take(np.arange(d.n // 4)), *rest, **kwargs)
        layers["svm.n_scaling_exp"] = _scaling_exponent(layers["svm.train_s"], t_q)


def measure(workload: str, csv_path: str, manifest: dict, seconds: float, trace: bool,
            work_dir: str, spans_path: str | None = None) -> dict:
    """Run the loop and return counts, metrics, digests and the failures seen."""
    deadline = time.perf_counter() + seconds
    tracer = spans.Tracer() if trace else None
    reference = None
    plain_s: list[float] = []
    traced: list[dict] = []
    errors: list[str] = []
    first = None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        is_traced = trace and attempted % 2 == 1
        attempted += 1
        out_dir = os.path.join(work_dir, f"run{attempted}")
        cfg = make_config(workload, csv_path)
        layer = None
        try:
            if is_traced:
                tracer.run_id = attempted
                with spans.instrument(tracer):
                    cpu0, t0 = time.process_time(), time.perf_counter()
                    rec = tracer.wrap("runner.experiment", run_experiment)(cfg)
                    tracer.wrap("runner.report", emit_reports)(rec, out_dir)
                    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
                layer = layer_metrics(tracer.run_spans(attempted), wall, cpu)
            else:
                t0 = time.perf_counter()
                rec = run_experiment(cfg)
                emit_reports(rec, out_dir)
                wall = time.perf_counter() - t0
            problems = check_run(rec, reference, manifest, layer)
        except Exception:  # a crashing run is a failed run, not the end of the benchmark
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            errors.extend(f"run {attempted}: {p}" for p in problems)
        else:
            if reference is None:
                reference, first = _fingerprint(rec), rec
            if is_traced:
                traced.append(layer)
            else:
                plain_s.append(wall)
        done = [*plain_s, *(t["traced_experiment_s"] for t in traced)]
        expected = (statistics.median(done) if done
                    else (time.perf_counter() - start) / attempted)
        pair_done = not trace or attempted % 2 == 0
        if (attempted >= MIN_RUNS and pair_done
                and time.perf_counter() + expected * (2 if trace else 1) > deadline):
            break

    result = {"attempted": attempted, "failed": failed, "errors": errors, "runs_s": plain_s}
    if first is None:
        return result
    result["fingerprint"] = reference
    if not trace:
        recall, precision = selection_scores(first, manifest)
        result["metrics"] = {
            "experiment_s": statistics.median(plain_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy": first.evaluation.accuracy,
            "macro_f1": first.evaluation.macro_f1,
            "selection_recall": recall,
            "selection_precision": precision,
        }
        return result
    if traced and plain_s:
        layers = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
        _after_trace(tracer, layers)
        traced_s = layers.pop("traced_experiment_s")
        layers["trace.overhead_frac"] = traced_s / statistics.median(plain_s) - 1.0
        result["metrics"] = layers
        result["stress"] = {"layers": list(WORKLOADS[workload]["stress"]),
                            "share": sum(layers[n] for n in WORKLOADS[workload]["stress"]) / traced_s}
    if spans_path is not None:
        with open(spans_path, "w", encoding="utf-8") as handle:
            for s in tracer.spans:
                handle.write(json.dumps(s, sort_keys=True) + "\n")
    return result
