import hashlib

import numpy as np
import pytest

from cyclonids.dataset import Dataset, split
from cyclonids.errors import ConfigError, DataError
from cyclonids.svm import (SVMConfig, SVMModel, _solve_binary, decision_function, margins,
                           predict, train_svm)
from cyclonids.synthgen import SynthConfig, gen_classification
from oracles import (best_linear_rule_accuracy, reference_smo, svm_lattice_minimum,
                     svm_primal_objective)

XOR_POINTS = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_LABELS = np.array([0, 0, 1, 1])


def _dataset(features, labels, k=2):
    features = np.asarray(features, dtype=float)
    return Dataset(features=features, labels=np.asarray(labels, dtype=int),
                   feature_names=[f"f{i}" for i in range(features.shape[1])],
                   schema_id="synthetic", class_names=[f"c{i}" for i in range(k)])


def _separable_instance(rng):
    """Random strictly separable (n<=12, p<=2) instance with margin >= 0.3."""
    p = int(rng.integers(1, 3))
    w_true = rng.standard_normal(p)
    w_true /= np.linalg.norm(w_true)
    b_true = float(rng.uniform(-0.5, 0.5))
    rows, labels = [], []
    while len(rows) < int(rng.integers(4, 13)):
        x = rng.uniform(-2.0, 2.0, p)
        score = float(x @ w_true + b_true)
        if abs(score) < 0.3:
            continue
        rows.append(x)
        labels.append(1 if score > 0 else 0)
    labels = np.array(labels)
    if labels.min() == labels.max():  # need both classes
        return None
    return np.array(rows), labels


def test_two_point_instance_recovers_symmetric_boundary():
    d = _dataset([[-1.0], [1.0]], [0, 1])
    model = train_svm(d, SVMConfig(c=1000.0))
    w, b = model.weights[1][0], model.biases[1]
    assert -0.5 < -b / w < 0.5
    assert np.array_equal(predict(model, d.features), d.labels)
    # functional margin of the positive-class separator on both points
    assert (1.0 * (w * 1.0 + b)) >= 0.9
    assert (-1.0 * (w * -1.0 + b)) >= 0.9


def test_xor_linear_ceiling():
    ceiling = best_linear_rule_accuracy(XOR_POINTS, XOR_LABELS)
    assert ceiling == pytest.approx(0.75)
    d = _dataset(XOR_POINTS, XOR_LABELS)
    model = train_svm(d, SVMConfig(c=10.0))
    train_acc = float(np.mean(predict(model, d.features) == d.labels))
    assert train_acc <= 0.75


def test_separable_synthetic_test_accuracy():
    d, _ = gen_classification(SynthConfig(200, 2, 2, 2, 10.0, seed=13))
    pair = split(d, 0.25, 13)
    model = train_svm(pair.train, SVMConfig())
    acc = float(np.mean(predict(model, pair.test.features) == pair.test.labels))
    assert acc >= 0.95


def test_objective_within_1pct_of_lattice_oracle():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 20:
        instance = _separable_instance(rng)
        if instance is None:
            continue
        x, y = instance
        d = _dataset(x, y)
        model = train_svm(d, SVMConfig(c=1000.0, tolerance=1e-10))
        assert float(np.mean(predict(model, x) == y)) == 1.0
        w, b = model.weights[1], model.biases[1]
        ours = svm_primal_objective(x, np.where(y == 1, 1.0, -1.0), w, b, 1000.0)
        oracle = svm_lattice_minimum(x, np.where(y == 1, 1.0, -1.0), 1000.0)
        assert ours <= oracle * 1.01 + 1e-9
        assert ours >= oracle * 0.99 - 1e-9
        checked += 1


def test_objective_history_is_monotone():
    d, _ = gen_classification(SynthConfig(150, 2, 3, 3, 2.0, seed=14))
    model = train_svm(d, SVMConfig())
    for history in model.objective_histories:
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-6)


def test_decision_function_properties():
    d, _ = gen_classification(SynthConfig(100, 2, 1, 2, 5.0, seed=15))
    model = train_svm(d, SVMConfig())
    # x = 0 -> margins are the biases
    assert np.allclose(decision_function(model, np.zeros(3)), model.biases)
    # a point on the class-1 hyperplane has zero class-1 margin
    w, b = model.weights[1], model.biases[1]
    x_on_plane = -b * w / float(w @ w)
    assert abs(decision_function(model, x_on_plane)[1]) < 1e-9
    # scaling x by 2 doubles margin - bias
    x = np.array([0.3, -1.2, 0.7])
    m1 = decision_function(model, x) - model.biases
    m2 = decision_function(model, 2.0 * x) - model.biases
    assert np.allclose(m2, 2.0 * m1)


def test_predict_tie_breaks_to_lowest_index():
    model = SVMModel(weights=np.zeros((2, 2)), biases=np.array([0.5, 0.5]),
                     class_names=["a", "b"], objective_histories=[[], []])
    assert predict(model, np.zeros((3, 2))).tolist() == [0, 0, 0]


def test_argmax_scale_invariance():
    d, _ = gen_classification(SynthConfig(120, 2, 2, 3, 1.5, seed=16))
    model = train_svm(d, SVMConfig())
    scaled = SVMModel(weights=3.7 * model.weights, biases=3.7 * model.biases,
                      class_names=model.class_names, objective_histories=[[], [], []])
    assert np.array_equal(predict(model, d.features), predict(scaled, d.features))


def test_determinism():
    d, _ = gen_classification(SynthConfig(100, 1, 2, 2, 2.0, seed=17))
    a = train_svm(d, SVMConfig())
    b = train_svm(d, SVMConfig())
    assert a.to_text() == b.to_text()


def test_absent_class_never_wins():
    # class 2 exists in the schema but not in the training rows
    rng = np.random.default_rng(18)
    x = rng.standard_normal((40, 2))
    y = (x[:, 0] > 0).astype(int)
    d = _dataset(x, y, k=3)
    model = train_svm(d, SVMConfig())
    assert not np.any(predict(model, x) == 2)


def test_errors():
    d_single = _dataset([[0.0], [1.0]], [0, 0])
    with pytest.raises(DataError):
        train_svm(d_single, SVMConfig())
    with pytest.raises(ConfigError):
        SVMConfig(c=-1.0).validate()
    d, _ = gen_classification(SynthConfig(60, 1, 1, 2, 2.0, seed=19))
    model = train_svm(d, SVMConfig())
    with pytest.raises(DataError):
        margins(model, np.zeros((2, 9)))
    with pytest.raises(DataError):
        decision_function(model, np.zeros(9))


def _duplicated_rows_dataset():
    """Rows 2k and 2k+1 (k < 20) are equal with opposite labels, so the first
    maximal violating pairs have quad = 0 and the solver clamps it to 1e-12."""
    rng = np.random.default_rng(33)
    x = np.round(rng.standard_normal((60, 3)), 1)
    y = (x[:, 0] + 0.5 * rng.standard_normal(60) > 0).astype(int)
    x = np.vstack([np.repeat(x[:20], 2, axis=0), x[20:]])
    y = np.concatenate([np.stack([y[:20], 1 - y[:20]], axis=1).ravel(), y[20:]])
    return _dataset(x, y)


def _absent_class_dataset():
    rng = np.random.default_rng(34)
    x = rng.standard_normal((120, 4))
    return _dataset(x, (x[:, 1] - x[:, 2] > 0).astype(int), k=3)


# sha256 of train_svm(...).to_text(), recorded with the solver that rebuilt
# the gradient and both index sets from scratch on every step.
PINNED_SVM_DIGESTS = {
    "three_class_n2000": (
        lambda: gen_classification(SynthConfig(2000, 3, 5, 3, 1.5, seed=31))[0],
        SVMConfig(max_epochs=4),
        "5780559182153e503421ea759601cc233a0b0b9a3ac37794bf6d028b05f132b1"),
    "c_1e-3_alphas_at_bound": (
        lambda: gen_classification(SynthConfig(400, 2, 3, 2, 1.0, seed=32))[0],
        SVMConfig(c=1e-3),
        "e70d7708fb448cd631ec91e8142e0d1d6df7325b99446496b3c3f38203bc458d"),
    "duplicated_rows_quad_clamped": (
        _duplicated_rows_dataset, SVMConfig(c=10.0),
        "67e33a4bd76b9a1eda1d167111d2b3bde362d3e9b4dce5bc6077411fbea0637a"),
    "absent_class": (
        _absent_class_dataset, SVMConfig(),
        "69e23192b42d0d2e03ba866cf3f7b468b341d59fea705c827af7fc87c6a4a066"),
}


@pytest.mark.parametrize("case", sorted(PINNED_SVM_DIGESTS))
def test_pinned_model_digests(case):
    make, cfg, expected = PINNED_SVM_DIGESTS[case]
    text = train_svm(make(), cfg).to_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected


def _random_smo_instance(rng):
    n = int(rng.integers(2, 81))
    p = int(rng.integers(1, 6))
    x = rng.standard_normal((n, p))
    if rng.random() < 0.5:  # ties: few distinct values per column
        x = np.round(x, int(rng.integers(0, 2)))
    if rng.random() < 0.25:
        x[:, int(rng.integers(p))] = -0.0
    y_pm = np.where(rng.random(n) < rng.uniform(0.2, 0.8), 1.0, -1.0)
    cfg = SVMConfig(c=float(10.0 ** rng.uniform(-3.0, 3.0)),
                    max_epochs=int(rng.integers(1, 31)),
                    tolerance=float(rng.choice([1e-6, 1e-10])))
    return x, y_pm, cfg


def _smo_instances():
    """600 random instances, then three whose working sets start empty:
    one class only, either sign, and c below _BOX_EPS."""
    rng = np.random.default_rng(2011)
    for _ in range(600):
        yield _random_smo_instance(rng)
    x = np.random.default_rng(7).standard_normal((12, 3))
    yield x, np.ones(12), SVMConfig()
    yield x, -np.ones(12), SVMConfig()
    yield x, np.where(x[:, 0] > 0, 1.0, -1.0), SVMConfig(c=1e-13)


def test_solver_matches_reference_smo_bit_for_bit():
    for x, y_pm, cfg in _smo_instances():
        w, b, history = _solve_binary(x, y_pm, cfg)
        ref_w, ref_b, ref_history = reference_smo(x, y_pm, cfg)
        assert w.tobytes() == ref_w.tobytes()
        assert repr(b) == repr(ref_b)
        assert [repr(v) for v in history] == [repr(v) for v in ref_history]


@pytest.mark.parametrize("settings", [{"c": float("nan")}, {"c": float("inf")},
                                      {"tolerance": float("nan")},
                                      {"tolerance": float("inf")}])
def test_non_finite_settings_rejected(settings):
    with pytest.raises(ConfigError, match="finite"):
        SVMConfig(**settings).validate()
