import csv
import json
import os
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cyclonids import forest as forest_mod
from cyclonids import pca as pca_mod
from cyclonids import preprocess
from cyclonids.boruta import BorutaConfig
from cyclonids.dataset import (CATEGORICAL, CategoricalEncoder, encode_categoricals, holdout_rows,
                               kdd99_schema, load_csv, split, write_csv)
from cyclonids.errors import ConfigError
from cyclonids.forest import ForestConfig
from cyclonids.runner import (ExperimentConfig, compare_datasets, comparison_csv, emit_reports,
                              report_dict, run_experiment, run_kfold, strip_timings)
from cyclonids.synthgen import SynthConfig, gen_classification
from oracles import decode_columns


def _cfg(**kwargs):
    defaults = dict(schema="synthetic", synth=SynthConfig(400, 2, 3, 2, 10.0, seed=3),
                    selector="none", classifier="rf", seed=42)
    defaults.update(kwargs)
    return ExperimentConfig.make(**defaults)


def test_separable_rf_run_reaches_accuracy_floor():
    rec = run_experiment(_cfg())
    assert rec.evaluation.accuracy >= 0.95


def test_boruta_prunes_noise_without_hurting_accuracy():
    synth = SynthConfig(500, 3, 20, 2, 5.0, seed=4)
    plain = run_experiment(_cfg(synth=synth, selector="none"))
    selected = run_experiment(_cfg(synth=synth, selector="boruta"))
    assert len(selected.selected_features) < len(plain.selected_features)
    assert abs(selected.evaluation.accuracy - plain.evaluation.accuracy) <= 0.03


def test_pca_path_runs_and_reports_salience():
    rec = run_experiment(_cfg(selector="pca", classifier="svm"))
    assert rec.selector_report["type"] == "pca"
    assert rec.selected_features[0] == "PC1"
    assert rec.selector_report["salience"]
    assert rec.evaluation.accuracy >= 0.9


def test_determinism_modulo_timings():
    a = strip_timings(report_dict(run_experiment(_cfg(selector="boruta"))))
    b = strip_timings(report_dict(run_experiment(_cfg(selector="boruta"))))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("selector", ["none", "boruta", "pca"])
def test_stage_timings_strictly_positive(selector):
    rec = run_experiment(_cfg(selector=selector))
    for stage, seconds in rec.timings.items():
        assert seconds > 0.0, stage
    assert "standardize" in rec.timings


def test_encoding_is_timed_apart_from_loading(monkeypatch):
    from cyclonids import runner

    encode = runner.encode_categoricals
    calls = []

    def slow_encode(*args, **kwargs):
        calls.append(args[0].n)
        time.sleep(0.15)
        return encode(*args, **kwargs)

    monkeypatch.setattr(runner, "encode_categoricals", slow_encode)
    rec = run_experiment(_cfg())
    assert calls == [rec.dataset_summary["n_train"], rec.dataset_summary["n_test"]]
    assert list(rec.timings)[:3] == ["load", "split", "encode"]
    assert rec.timings["encode"] >= 0.3 > max(rec.timings["load"], rec.timings["split"])


@pytest.mark.parametrize("selector,classifier", [("none", "rf"), ("boruta", "rf"), ("pca", "svm")])
def test_each_split_is_encoded_once_and_the_test_split_after_training(monkeypatch, selector, classifier):
    from cyclonids import runner, svm as svm_mod

    events = []

    def logged(name, fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            events.append((name, args[0].n) if name == "encode" else (name,))
            return result
        return call

    monkeypatch.setattr(runner, "encode_categoricals", logged("encode", runner.encode_categoricals))
    monkeypatch.setattr(forest_mod, "train_forest_xy", logged("train", forest_mod.train_forest_xy))
    monkeypatch.setattr(svm_mod, "train_svm", logged("train", svm_mod.train_svm))
    monkeypatch.setattr(forest_mod, "predict", logged("predict", forest_mod.predict))
    monkeypatch.setattr(svm_mod, "predict", logged("predict", svm_mod.predict))
    rec = run_experiment(_cfg(selector=selector, classifier=classifier))
    n_train, n_test = rec.dataset_summary["n_train"], rec.dataset_summary["n_test"]
    assert events == [("encode", n_train), ("train",), ("encode", n_test), ("predict",)]


@pytest.mark.parametrize("selector", ["none", "boruta", "pca"])
def test_one_standardizer_per_run_applied_to_raw_rows(monkeypatch, selector):
    fit, transform = preprocess.fit_standardizer, preprocess.transform
    fits, inputs, outputs, restandardized = [], [], [], []

    def counting_fit(rows):
        fits.append((rows.n, rows.p))
        return fit(rows)

    def checking_transform(s, m, out=None):
        inputs.append(np.array(m))
        restandardized.append(any(np.shares_memory(m, out) for out in outputs))
        outputs.append(transform(s, m))
        return outputs[-1]

    monkeypatch.setattr(preprocess, "fit_standardizer", counting_fit)
    monkeypatch.setattr(preprocess, "transform", checking_transform)
    cfg = _cfg(selector=selector)
    rec = run_experiment(cfg)
    assert fits == [(rec.dataset_summary["n_train"], rec.dataset_summary["n_features"])]
    # Each split is standardized as its encoded rows are read. Without PCA the
    # training split is read once, into the matrix the selector and the classifier
    # take; PCA reads it once for its mean, once for its covariance and once for the
    # projection. Then the test split is read once. Every block standardized is
    # freshly encoded rows, in order, never a standardized one.
    data, _ = gen_classification(cfg.synth)
    pair = split(data, cfg.test_fraction, cfg.seed)
    read = [pair.train.features] * (3 if selector == "pca" else 1) + [pair.test.features]
    assert np.concatenate(inputs).tobytes() == np.concatenate(read).tobytes()
    assert not any(restandardized)


def test_no_leakage_digests_match_train_only_refit():
    cfg = _cfg(selector="pca")
    rec = run_experiment(cfg)

    data, _ = gen_classification(cfg.synth)
    pair = split(data, cfg.test_fraction, cfg.seed)
    standardizer = preprocess.fit_standardizer(pair.train.features)
    model = pca_mod.fit_pca(preprocess.transform(standardizer, pair.train.features))

    import hashlib
    assert rec.component_digests["standardizer"] == hashlib.sha256(
        standardizer.to_text().encode()).hexdigest()
    assert rec.component_digests["selector"] == hashlib.sha256(
        model.to_text().encode()).hexdigest()


def test_no_leakage_classifier_digest():
    cfg = _cfg(selector="none", classifier="rf")
    rec = run_experiment(cfg)

    data, _ = gen_classification(cfg.synth)
    pair = split(data, cfg.test_fraction, cfg.seed)
    standardizer = preprocess.fit_standardizer(pair.train.features)
    x_train = preprocess.transform(standardizer, pair.train.features)
    model = forest_mod.train_forest_xy(x_train, pair.train.labels, 2, cfg.forest,
                                       class_names=list(data.class_names))
    import hashlib
    assert rec.component_digests["classifier"] == hashlib.sha256(
        model.to_text().encode()).hexdigest()


def test_emit_reports_files_and_formats(tmp_path):
    rec = run_experiment(_cfg(selector="boruta"))
    out = str(tmp_path / "run")
    written = emit_reports(rec, out)
    assert os.path.exists(os.path.join(out, "report.json"))
    assert os.path.exists(os.path.join(out, "confusion.csv"))
    assert os.path.exists(os.path.join(out, "selector.csv"))
    assert os.path.exists(os.path.join(out, "charts", "class_distribution.svg"))

    with open(os.path.join(out, "selector.csv")) as handle:
        header = handle.readline().strip()
    assert header == "dataset,elapsed_seconds,iterations,confirmed,tentative,rejected"

    report = json.load(open(os.path.join(out, "report.json")))
    for key in ("config", "selected_features", "selector_report", "confusion_matrix",
                "per_class_metrics", "accuracy", "macro_precision", "macro_recall",
                "macro_f1", "timings", "seed", "versions", "classifier_report"):
        assert key in report, key


def test_infinite_boruta_z_is_null_in_the_report_and_a_full_bar_in_the_chart(tmp_path):
    # One informative column, no noise: its importance is the same nonzero value in every
    # tree, so its Z-score is +inf.
    rec = run_experiment(_cfg(synth=SynthConfig(400, 1, 0, 2, 10.0, seed=3), selector="boruta"))
    out = tmp_path / "run"
    emit_reports(rec, str(out))

    def strict(token):
        raise ValueError(f"report.json holds the non-JSON token {token}")

    report = json.loads((out / "report.json").read_text(), parse_constant=strict)
    assert report["selector_report"]["decisions"] == {"f0": "Confirmed"}
    assert report["selector_report"]["final_z"] == {"f0": None}
    chart = (out / "charts" / "boruta_z.svg").read_text()
    bars = [line for line in chart.splitlines() if 'fill="#4878a8"' in line]
    assert len(bars) == 1 and 'height="320.0"' in bars[0]  # the whole bar area
    assert ">inf</text>" in chart and ">f0</text>" in chart


def test_svm_report_reads_back_each_solve(tmp_path):
    cfg = _cfg(synth=SynthConfig(1500, 3, 5, 3, 1.5, seed=8), classifier="svm")
    rec = run_experiment(cfg)
    emit_reports(rec, str(tmp_path))
    with open(tmp_path / "report.json") as handle:
        report = json.load(handle)["classifier_report"]

    assert report == rec.classifier_report
    assert sorted(report) == ["c0", "c1", "c2"]
    n_train = rec.dataset_summary["n_train"]
    for solve in report.values():
        assert sorted(solve) == ["epochs", "grad_rel", "margin_rows", "stop"]
        assert 1 <= solve["epochs"] <= cfg.svm.max_epochs
        assert solve["stop"] in ("margin_set", "epoch_budget")
        assert 0 <= solve["margin_rows"] <= n_train
        assert 0.0 <= solve["grad_rel"] < 1.0
    # the middle class has no linear separator: every row stays inside its margin
    assert report["c1"]["margin_rows"] == n_train
    assert all(s["stop"] == "margin_set" and s["grad_rel"] < 1e-12 for s in report.values())


def _depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(_depth(tree, tree.left[node]), _depth(tree, tree.left[node] + 1))


def test_forest_report_reads_back_its_shape(tmp_path, monkeypatch):
    trained, original = [], forest_mod.train_forest_xy

    def train(*args, **kwargs):
        trained.append(original(*args, **kwargs))
        return trained[-1]

    monkeypatch.setattr(forest_mod, "train_forest_xy", train)
    cfg = _cfg(synth=SynthConfig(600, 3, 5, 3, 1.5, seed=8),
               forest=ForestConfig(n_trees=9, max_depth=6, seed=8))
    rec = run_experiment(cfg)
    emit_reports(rec, str(tmp_path))
    with open(tmp_path / "report.json") as handle:
        report = json.load(handle)["classifier_report"]

    assert report == rec.classifier_report
    (model,) = trained
    assert report == {"trees": 9, "nodes": sum(t.n_nodes for t in model.trees),
                      "leaves": sum(int((t.feature < 0).sum()) for t in model.trees),
                      "max_depth": max(_depth(t) for t in model.trees)}
    assert 1 <= report["max_depth"] <= 6
    assert report["nodes"] == 2 * report["leaves"] - report["trees"]


def test_perfect_run_confusion_is_diagonal(tmp_path):
    rec = run_experiment(_cfg(synth=SynthConfig(300, 2, 1, 2, 20.0, seed=5)))
    assert rec.evaluation.accuracy == 1.0
    out = str(tmp_path / "run")
    emit_reports(rec, out)
    rows = open(os.path.join(out, "confusion.csv")).read().strip().splitlines()
    counts = np.array([[int(v) for v in row.split(",")[1:]] for row in rows[1:]])
    assert np.array_equal(counts, np.diag(np.diag(counts)))


def test_report_csvs_quote_fields_that_hold_commas(tmp_path):
    path = tmp_path / "commas.csv"
    rng = np.random.default_rng(7)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["f,0", "f1", "label"])
        for i in range(60):
            writer.writerow([repr(rng.normal() + 3.0 * (i % 2)), repr(rng.normal()),
                             ("a,b", 'say "c"')[i % 2]])

    def read(out, name):
        with open(os.path.join(out, name), newline="") as handle:
            rows = list(csv.reader(handle))
        assert len({len(row) for row in rows}) == 1, rows
        return rows

    for selector in ("boruta", "pca", "none"):
        rec = run_experiment(ExperimentConfig.make(
            schema="synthetic", data_path=str(path), selector=selector, name="lab,one", seed=1,
            boruta=BorutaConfig(max_iterations=3, forest=ForestConfig(n_trees=5), seed=1)))
        out = str(tmp_path / selector)
        emit_reports(rec, out)
        assert read(out, "confusion.csv")[0] == ["actual\\predicted", "a,b", 'say "c"']
        rows = read(out, "selector.csv")
        if selector == "boruta":
            assert rows[1][0] == "lab,one"
        else:
            assert {row[0] for row in rows[1:]} == {"f,0", "f1"}

    table = comparison_csv(compare_datasets([_cfg(name="lab,one")]))
    rows = list(csv.reader(table.splitlines()))
    assert [len(row) for row in rows] == [8, 8] and rows[1][0] == "lab,one"


def test_compare_orders_by_accuracy():
    separable = _cfg(synth=SynthConfig(300, 2, 2, 2, 10.0, seed=6), name="separable")
    hopeless = _cfg(synth=SynthConfig(300, 2, 2, 2, 0.0, seed=6), name="hopeless")
    rows = compare_datasets([hopeless, separable])
    assert [r["dataset"] for r in rows] == ["separable", "hopeless"]
    assert rows[0]["accuracy"] >= rows[1]["accuracy"]


def test_compare_single_config():
    rows = compare_datasets([_cfg()])
    assert len(rows) == 1


def test_kfold_summary():
    summary = run_kfold(_cfg(folds=4))
    assert summary["folds"] == 4
    assert len(summary["accuracy_per_fold"]) == 4
    assert 0.9 <= summary["accuracy_mean"] <= 1.0


_PARENT_KFOLD = {  # (accuracy, macro F1) per fold, as recorded when each fold was encoded whole
    "none": ([0.8743718592964824, 0.9899497487437185, 0.455],
             [0.5243770250974793, 0.594, 0.2705768921741925]),
    "pca": ([0.5376884422110553, 0.5326633165829145, 0.535],
            [0.28900567634461194, 0.3116991488926845, 0.3213776326739645]),
    # svm and synthetic re-recorded when the SVM moved to the squared hinge and finite Newton
    "svm": ([1.0, 0.9949748743718593, 1.0],
            [0.6, 0.5969834087481146, 0.6]),
    "synthetic": ([0.64, 0.7333333333333333, 0.72, 0.8266666666666667],
                  [0.601159033796605, 0.7134920634920635, 0.685943085943086, 0.7881263313883485]),
}


@pytest.mark.parametrize("case", sorted(_PARENT_KFOLD))
def test_kfold_per_fold_scores_are_pinned(tmp_path, case):
    if case == "synthetic":
        cfg = _cfg(synth=SynthConfig(300, 2, 3, 3, 1.5, seed=5), folds=4, classifier="svm")
    else:  # ordinal encoding for none+rf and none+svm, one-hot for pca+rf
        path = str(tmp_path / "kdd.csv")
        _write_kdd_like(path, 600, malformed=(5, 321), n_services=40, seed=4)
        cfg = _kdd_cfg(path, "none" if case == "svm" else case)
        if case == "svm":
            cfg.classifier, cfg.encoding = "svm", "ordinal"
        cfg.folds = 3
    summary = run_kfold(cfg)
    assert (summary["accuracy_per_fold"], summary["macro_f1_per_fold"]) == _PARENT_KFOLD[case]


def test_kfold_serializes_no_model(monkeypatch):
    # k-fold keeps each fold's scores; model text and digests are the holdout report's alone
    from cyclonids import runner

    def refuse(*args):
        raise AssertionError("k-fold serialized a model")

    monkeypatch.setattr(runner, "_digest", refuse)
    monkeypatch.setattr(forest_mod.ForestModel, "to_text", refuse)
    summary = run_kfold(_cfg(folds=3))
    assert len(summary["accuracy_per_fold"]) == 3


def test_kfold_needs_folds_in_the_config():
    with pytest.raises(ConfigError, match="folds"):
        run_kfold(_cfg())


def test_synthetic_csv_is_opened_once_per_run(tmp_path, monkeypatch):
    from cyclonids import dataset

    path = str(tmp_path / "synth.csv")
    d, _ = gen_classification(SynthConfig(120, 2, 1, 2, 10.0, seed=8))
    write_csv(d, path)
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(dataset, "open", counting_open, raising=False)
    rec = run_experiment(_cfg(synth=None, data_path=path))
    assert opened == [path]
    assert rec.dataset_summary["n_rows"] == 120


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig.make(schema="synthetic", selector="magic"))
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig.make(schema="kdd99"))  # no data file
    with pytest.raises(ConfigError):
        run_experiment(_cfg(classifier="xgboost"))
    with pytest.raises(ConfigError):
        run_kfold(_cfg(selector="magic", folds=3))


def test_encoding_resolution_rule():
    assert _cfg(selector="pca").resolved_encoding() == "onehot"
    assert _cfg(classifier="svm").resolved_encoding() == "onehot"
    assert _cfg(selector="boruta", classifier="rf").resolved_encoding() == "ordinal"
    assert _cfg(encoding="onehot").resolved_encoding() == "onehot"


def _write_ugransome_like(path, n_rows=90, seed=0):
    """Fabricated rows in the documented 14-column layout with a learnable
    protocol/port pattern per class."""
    rng = np.random.default_rng(seed)
    protos = {"Signature": "TCP", "SyntheticSignature": "UDP", "Anomaly": "ICMP"}
    families = ["WannaCry", "Locky", "SamSam", "APT"]
    lines = []
    for i in range(n_rows):
        label = ["S", "SS", "A"][i % 3]
        full = ["Signature", "SyntheticSignature", "Anomaly"][i % 3]
        port = {"S": 80, "SS": 5062, "A": 6667}[label] + int(rng.integers(0, 3))
        lines.append(",".join([
            label, families[i % 4], f"{rng.uniform(1, 90):.1f}", str(int(rng.integers(100, 900))),
            str(i % 5), f"addr{i % 7}", f"xaddr{i % 6}", str(port), "Bonet",
            str(int(rng.integers(10_000, 2_000_000))), "A", "AF", protos[full],
            str(int(rng.integers(5, 300))),
        ]))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def test_ugransome_shaped_end_to_end(tmp_path):
    path = str(tmp_path / "ug.csv")
    _write_ugransome_like(path)
    for selector, classifier in (("none", "rf"), ("pca", "svm")):
        rec = run_experiment(ExperimentConfig.make(
            schema="ugransome", data_path=path, selector=selector,
            classifier=classifier, seed=42))
        assert set(rec.evaluation.matrix.class_names) == {
            "Signature", "SyntheticSignature", "Anomaly"}
        assert rec.evaluation.accuracy >= 0.9  # port+protocol determine the class
        out = str(tmp_path / f"out_{selector}_{classifier}")
        emit_reports(rec, out)
        assert os.path.exists(os.path.join(out, "report.json"))


def test_token_seen_only_in_test_rows_stays_out_of_the_vocabulary(tmp_path):
    path = tmp_path / "ug.csv"
    _write_ugransome_like(str(path))
    lines = path.read_text().splitlines()
    _, test_rows = holdout_rows(len(lines), 0.2, 42)
    fields = lines[test_rows[0]].split(",")
    fields[12] = "GRE"  # protocol
    lines[test_rows[0]] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")

    rec = run_experiment(ExperimentConfig.make(
        schema="ugransome", data_path=str(path), selector="none", classifier="rf",
        encoding="onehot", seed=42))
    assert "protocol=__unknown__" in rec.selected_features
    assert "protocol=GRE" not in rec.selected_features
    occurrences = report_dict(rec)["dataset"]["categorical_occurrences"]["protocol"]
    assert "GRE" not in occurrences
    assert sum(occurrences.values()) == rec.dataset_summary["n_train"]


def _write_kdd_like(path, n_rows, malformed=(), n_services=60, seed=0):
    """KDD99-layout rows over ``n_services`` service tokens; the 1-based lines in
    ``malformed`` get a src_bytes field that does not parse."""
    rng = np.random.default_rng(seed)
    lines = []
    for line in range(1, n_rows + 1):
        numeric = [str(v) for v in rng.integers(0, 100, 38)]
        fields = ([numeric[0], ("tcp", "udp", "icmp")[line % 3], f"svc{rng.integers(n_services)}",
                   ("SF", "REJ", "S0")[line % 3]] + numeric[1:]
                  + [("normal.", "smurf.", "satan.")[line % 3]])
        if line in malformed:
            fields[4] = "n/a"
        lines.append(",".join(fields))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _kdd_cfg(path, selector):
    return ExperimentConfig.make(schema="kdd99", data_path=path, selector=selector,
                                 classifier="rf", forest=ForestConfig(n_trees=3, max_depth=4, seed=42),
                                 seed=42)


def _encode_whole_file(raw, strategy, train_rows):
    """Every row of ``raw`` encoded with the vocabulary of ``train_rows`` alone: what a run
    did before it split the parsed rows first. Returns the encoder and the encoded rows."""
    encoder = CategoricalEncoder(strategy, raw)
    encoder.occurrences = {col.name: dict(Counter(values[train_rows]))
                           for col, values in zip(raw.schema.feature_columns(), decode_columns(raw))
                           if col.kind == CATEGORICAL}
    return encoder, encode_categoricals(raw, encoder).dataset()


@pytest.mark.parametrize("strategy", ["onehot", "ordinal"])
def test_each_split_encodes_as_the_whole_file_did(tmp_path, strategy):
    path = tmp_path / "kdd.csv"
    _write_kdd_like(str(path), 300)
    lines = path.read_text().splitlines()
    train_rows, test_rows = holdout_rows(len(lines), 0.2, 42)
    fields = lines[test_rows[0]].split(",")
    fields[2] = "gopher"  # a service token that only a test row has
    lines[test_rows[0]] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    raw = load_csv(str(path), kdd99_schema())

    whole_encoder, whole = _encode_whole_file(raw, strategy, train_rows)
    pair = split(raw, 0.2, 42)
    encoder = CategoricalEncoder(strategy, pair.train)
    for part, rows in ((pair.train, train_rows), (pair.test, test_rows)):
        mine, reference = encode_categoricals(part, encoder).dataset(), whole.take(rows)
        assert mine.features.tobytes() == reference.features.tobytes()
        assert np.array_equal(mine.labels, reference.labels)
        assert mine.feature_names == reference.feature_names
    assert encoder.occurrences == whole_encoder.occurrences
    assert "gopher" not in whole_encoder.occurrences["service"]


def test_report_lists_rejected_rows(tmp_path):
    path = str(tmp_path / "kdd.csv")
    _write_kdd_like(path, 200, malformed=(3, 150))
    rec = run_experiment(_kdd_cfg(path, "none"))
    assert rec.dataset_summary["n_rows"] == 198
    out = str(tmp_path / "run")
    emit_reports(rec, out)
    with open(os.path.join(out, "report.json")) as handle:
        report = json.load(handle)
    assert report["dataset"]["rejected_rows"] == {"count": 2, "first": [3, 150]}


def test_pca_run_holds_each_feature_matrix_only_until_its_last_use(tmp_path):
    path = str(tmp_path / "kdd.csv")
    _write_kdd_like(path, 4000)
    tracemalloc.start()
    try:
        rec = run_experiment(_kdd_cfg(path, "pca"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # No matrix of all rows is built: each split is encoded on its own. At
    # this 80/20 split the peak, about 1.99 encoded matrices, is in the
    # training split's projection, beside the loaded rows that both splits
    # index (0.36). Copying each split's parsed rows read 1.94: the copies
    # took the room of the loaded rows, without the row indices and the
    # buffer a split's rows are gathered through.
    matrix = rec.dataset_summary["n_rows"] * rec.dataset_summary["n_features"] * 8
    assert peak < 2.5 * matrix, f"peak {peak / matrix:.2f} encoded matrices"


def test_even_split_pca_run_holds_one_split_matrix_at_a_time(tmp_path):
    path = str(tmp_path / "kdd.csv")
    _write_kdd_like(path, 8000)
    cfg = _kdd_cfg(path, "pca")
    cfg.test_fraction = 0.5
    tracemalloc.start()
    try:
        rec = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The training split is fitted and dropped before the test rows are
    # encoded, and each split is read standardized a block at a time. The
    # peak, about 1.38, is in the training split's projection: the one block
    # buffer, here the whole 4,000-row split (0.5), beside the k-column output
    # and the loaded rows that both splits index (0.37). The test split copies
    # its rows out only after that projection; keeping it an index until the
    # end read 1.404. Copying each split to standardize it, and centring it
    # for PCA, read 1.58; encoding all rows and then splitting them, 2.1.
    assert rec.selector_report["components_retained"] > 0.8 * rec.dataset_summary["n_features"]
    matrix = rec.dataset_summary["n_rows"] * rec.dataset_summary["n_features"] * 8
    assert peak < 1.4 * matrix, f"peak {peak / matrix:.2f} encoded matrices"


def test_even_split_boruta_run_builds_each_matrix_after_its_parsed_rows_are_read(tmp_path):
    path = str(tmp_path / "kdd.csv")
    _write_kdd_like(path, 8000)
    cfg = _kdd_cfg(path, "boruta")
    cfg.test_fraction = 0.5
    cfg.boruta = BorutaConfig(max_iterations=2, seed=42, forest=ForestConfig(
        n_trees=5, max_depth=4, min_samples_split=25, seed=42))
    tracemalloc.start()
    try:
        rec = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The training matrix is filled in the standardize stage; the test split
    # then copies its rows out of the loaded rows, which go before Boruta
    # runs. Boruta holds the training matrix and its shadow copy, beside the
    # test split's rows, at about 3.07. Making that copy after the select
    # stage kept the loaded rows alive while Boruta ran: 3.59. Filling the
    # matrix inside the select stage read 4.1.
    matrix = rec.dataset_summary["n_rows"] * rec.dataset_summary["n_features"] * 8
    assert peak < 3.9 * matrix, f"peak {peak / matrix:.2f} encoded matrices"


def test_pca_run_builds_no_encoded_split(tmp_path):
    path = str(tmp_path / "kdd.csv")
    _write_kdd_like(path, 20000)
    cfg = _kdd_cfg(path, "pca")
    cfg.pca_threshold = 0.1
    tracemalloc.start()
    try:
        rec = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Each split is read encoded and standardized 4,096 rows at a time, so the
    # run holds the parsed rows, one block and the k-column projections. A
    # split is an index into the loaded rows, so the peak, about 0.66, is in
    # the training split's projection. Copying each split's parsed rows at the
    # split held them twice there: 0.77. Encoding the whole training split
    # read 1.24.
    assert rec.selector_report["components_retained"] < 0.1 * rec.dataset_summary["n_features"]
    matrix = rec.dataset_summary["n_rows"] * rec.dataset_summary["n_features"] * 8
    assert peak < 0.72 * matrix, f"peak {peak / matrix:.2f} encoded matrices"
