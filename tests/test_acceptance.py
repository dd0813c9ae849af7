"""Acceptance suite: one test per release criterion, each printing a verdict line.

Criteria 7 and 8 need the real corpora; point CYCLONIDS_DATA_DIR at a
directory containing ugransome.csv / kdd99.csv (documented column layouts in
the README) to enable them. They report SKIPPED otherwise.
"""

import json
import os
import time

import numpy as np
import pytest

from cyclonids.boruta import BorutaConfig, FeatureDecision, run_boruta
from cyclonids.dataset import (class_distribution, encode_categoricals, kdd99_schema,
                               load_csv, ugransome_schema)
from cyclonids.forest import ForestConfig
from cyclonids.metrics import evaluate
from cyclonids.pca import fit_pca, transform as pca_transform
from cyclonids.preprocess import fit_standardizer, transform as std_transform
from cyclonids.runner import ExperimentConfig, report_dict, run_experiment, strip_timings
from cyclonids.svm import SVMConfig, predict as svm_predict, train_svm
from cyclonids.synthgen import SynthConfig, gen_classification
from oracles import (best_linear_rule_accuracy, pair_count_metrics,
                     power_iteration_eigenvalues)

DATA_DIR = os.environ.get("CYCLONIDS_DATA_DIR",
                          os.path.join(os.path.dirname(__file__), "..", "data"))


def _verdict(criterion: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {criterion}: {detail}"


def _skip(criterion: str, why: str) -> None:
    print(f"\nACCEPTANCE {criterion}: SKIPPED - {why}")
    pytest.skip(why)


def _dataset_file(name: str) -> str | None:
    path = os.path.join(DATA_DIR, name)
    return path if os.path.exists(path) else None


def test_criterion_1_metrics_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1000)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        k = int(rng.integers(2, 5))
        actual = rng.integers(0, k, n)
        predicted = rng.integers(0, k, n)
        report = evaluate(actual, predicted, [str(i) for i in range(k)])
        expected = pair_count_metrics(actual, predicted, k)
        assert report.accuracy == expected["accuracy"]
        for m, e in zip(report.per_class, expected["per_class"]):
            assert (m.tp, m.fp, m.fn, m.tn) == (e["tp"], e["fp"], e["fn"], e["tn"])
            worst = max(worst, abs(m.precision - e["precision"]),
                        abs(m.recall - e["recall"]), abs(m.f1 - e["f1"]))
        worst = max(worst, abs(report.macro_precision - expected["macro_precision"]),
                    abs(report.macro_recall - expected["macro_recall"]),
                    abs(report.macro_f1 - expected["macro_f1"]))
    elapsed = time.perf_counter() - start
    _verdict("1 (metrics oracle)", worst <= 1e-12 and elapsed < 5.0,
             f"1000 random pairings, worst metric deviation {worst:.2e}", elapsed)


def test_criterion_2_pca_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2000)
    worst_eig, worst_recon, worst_orth = 0.0, 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        p = int(rng.integers(1, 6))
        m = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0, p) + rng.uniform(-5, 5, p)
        s = fit_standardizer(m)
        x = std_transform(s, m)
        model = fit_pca(x)

        z = (m - s.means) / s.stds
        z[:, s.zero_variance_flags] = 0.0
        cov = np.atleast_2d(np.cov(z, rowvar=False, ddof=1))
        oracle = power_iteration_eigenvalues(cov)
        worst_eig = max(worst_eig, float(np.max(np.abs(model.eigenvalues - oracle))))

        recon = pca_transform(model, x, p) @ model.loadings.T
        worst_recon = max(worst_recon, float(np.max(np.abs(recon - z))))
        gram = model.loadings.T @ model.loadings
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(p)))))
    elapsed = time.perf_counter() - start
    ok = worst_eig < 1e-6 and worst_recon < 1e-8 and worst_orth < 1e-8 and elapsed < 10.0
    _verdict("2 (pca oracle)", ok,
             f"100 matrices: eig dev {worst_eig:.2e}, recon {worst_recon:.2e}, "
             f"orthonormality {worst_orth:.2e}", elapsed)


def test_criterion_3_standardizer():
    start = time.perf_counter()
    rng = np.random.default_rng(3000)
    worst_mean, worst_std = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(2, 200))
        p = int(rng.integers(1, 10))
        m = rng.standard_normal((n, p)) * rng.uniform(1e-3, 1e3, p) + rng.uniform(-100, 100, p)
        if rng.random() < 0.3:
            m[:, 0] = 7.7  # throw in constant columns
        s = fit_standardizer(m)
        out = std_transform(s, m)
        live = ~s.zero_variance_flags
        if live.any():
            worst_mean = max(worst_mean, float(np.max(np.abs(out[:, live].mean(axis=0)))))
            if n >= 2:
                worst_std = max(worst_std,
                                float(np.max(np.abs(out[:, live].std(axis=0, ddof=1) - 1.0))))
        assert np.all(out[:, s.zero_variance_flags] == 0.0)
    elapsed = time.perf_counter() - start
    ok = worst_mean < 1e-9 and worst_std < 1e-9 and elapsed < 1.0
    _verdict("3 (standardizer)", ok,
             f"50 matrices: worst |mean| {worst_mean:.2e}, worst |std-1| {worst_std:.2e}",
             elapsed)


def test_criterion_4_boruta_planted_recovery():
    start = time.perf_counter()
    passes = 0
    for seed in range(10):
        d, informative = gen_classification(SynthConfig(500, 3, 7, 2, 5.0, seed=seed))
        result = run_boruta(d, BorutaConfig(max_iterations=20, alpha=0.05, seed=seed))
        confirmed = {i for i, dec in enumerate(result.decisions)
                     if dec is FeatureDecision.CONFIRMED}
        rejected = {i for i, dec in enumerate(result.decisions)
                    if dec is FeatureDecision.REJECTED}
        noise = set(range(10)) - informative
        if informative <= confirmed and len(rejected & noise) >= 6:
            passes += 1
    elapsed = time.perf_counter() - start
    _verdict("4 (boruta recovery)", passes >= 9 and elapsed < 60.0,
             f"{passes}/10 seeds recovered 3 planted + rejected >=6/7 noise", elapsed)


def test_criterion_5_classifier_floor():
    start = time.perf_counter()
    synth = SynthConfig(750, 2, 3, 2, 10.0, seed=5)

    rf_rec = run_experiment(ExperimentConfig.make(
        schema="synthetic", synth=synth, classifier="rf", seed=42,
        forest=ForestConfig(n_trees=100, seed=42)))
    svm_rec = run_experiment(ExperimentConfig.make(
        schema="synthetic", synth=synth, classifier="svm", seed=42))
    assert rf_rec.dataset_summary["n_train"] == 600
    assert rf_rec.dataset_summary["n_test"] == 150

    xor_x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    xor_y = np.array([0, 0, 1, 1])
    ceiling = best_linear_rule_accuracy(xor_x, xor_y)
    from cyclonids.dataset import Dataset
    xor_d = Dataset(features=xor_x, labels=xor_y, feature_names=["x1", "x2"], class_names=["a", "b"])
    xor_model = train_svm(xor_d, SVMConfig(c=10.0))
    xor_acc = float(np.mean(svm_predict(xor_model, xor_x) == xor_y))

    elapsed = time.perf_counter() - start
    ok = (rf_rec.evaluation.accuracy >= 0.95 and svm_rec.evaluation.accuracy >= 0.95
          and abs(ceiling - 0.75) < 1e-12 and xor_acc <= 0.75 and elapsed < 30.0)
    _verdict("5 (classifier floor)", ok,
             f"rf={rf_rec.evaluation.accuracy:.3f} svm={svm_rec.evaluation.accuracy:.3f} "
             f"xor={xor_acc:.2f} (ceiling {ceiling:.2f})", elapsed)


def test_criterion_6_determinism():
    start = time.perf_counter()
    cfg = dict(schema="synthetic", synth=SynthConfig(400, 3, 5, 2, 5.0, seed=6),
               selector="boruta", classifier="rf", seed=42)
    a = json.dumps(strip_timings(report_dict(run_experiment(ExperimentConfig.make(**cfg)))),
                   sort_keys=True)
    b = json.dumps(strip_timings(report_dict(run_experiment(ExperimentConfig.make(**cfg)))),
                   sort_keys=True)
    elapsed = time.perf_counter() - start
    _verdict("6 (determinism)", a == b and elapsed < 30.0,
             "repeated run byte-identical modulo timing fields", elapsed)


def test_criterion_7_ugransome():
    path = _dataset_file("ugransome.csv")
    if path is None:
        _skip("7 (ugransome)", f"no {os.path.join(DATA_DIR, 'ugransome.csv')}")
    start = time.perf_counter()

    rf_rec = run_experiment(ExperimentConfig.make(
        schema="ugransome", data_path=path, classifier="rf", seed=42,
        forest=ForestConfig(n_trees=100, seed=42)))
    svm_rec = run_experiment(ExperimentConfig.make(
        schema="ugransome", data_path=path, classifier="svm", seed=42))

    d = encode_categoricals(load_csv(path, ugransome_schema()), "ordinal").dataset()
    boruta_res = run_boruta(d, BorutaConfig(max_iterations=20, seed=42))

    classes = set(rf_rec.evaluation.matrix.class_names)
    elapsed = time.perf_counter() - start
    ok = (rf_rec.evaluation.accuracy >= 0.95 and svm_rec.evaluation.accuracy >= 0.90
          and boruta_res.n_rejected == 0
          and classes == {"Signature", "SyntheticSignature", "Anomaly"})
    _verdict("7 (ugransome)", ok and elapsed < 1800.0,
             f"rf={rf_rec.evaluation.accuracy:.3f} svm={svm_rec.evaluation.accuracy:.3f} "
             f"boruta rejected={boruta_res.n_rejected} classes={sorted(classes)}", elapsed)


def test_criterion_8_kdd99_sanity():
    path = _dataset_file("kdd99.csv")
    if path is None:
        _skip("8 (kdd99 sanity)", f"no {os.path.join(DATA_DIR, 'kdd99.csv')}")
    start = time.perf_counter()
    d = encode_categoricals(load_csv(path, kdd99_schema()), "ordinal").dataset()
    dist = class_distribution(d)
    share = (dist["DoS"] + dist["Normal"]) / d.n
    elapsed = time.perf_counter() - start
    _verdict("8 (kdd99 sanity)", share >= 0.9,
             f"DoS+Normal share {share:.4f} of {d.n} rows", elapsed)
