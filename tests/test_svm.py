import hashlib
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from cyclonids.dataset import Dataset, split
from cyclonids.errors import ConfigError, DataError
from cyclonids.svm import (SVMConfig, SVMModel, _solve_binary, _step_length, margins, predict,
                           train_svm)
from cyclonids.synthgen import SynthConfig, gen_classification
from oracles import (best_linear_rule_accuracy, svm_lattice_minimum, svm_primal_gradient,
                     svm_primal_objective)

XOR_POINTS = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_LABELS = np.array([0, 0, 1, 1])


def _dataset(features, labels, k=2):
    features = np.asarray(features, dtype=float)
    return Dataset(features=features, labels=np.asarray(labels, dtype=int),
                   feature_names=[f"f{i}" for i in range(features.shape[1])],
                   class_names=[f"c{i}" for i in range(k)])


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
        model = train_svm(d, SVMConfig(c=1000.0))
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


def test_margins_properties():
    d, _ = gen_classification(SynthConfig(100, 2, 1, 2, 5.0, seed=15))
    model = train_svm(d, SVMConfig())
    # x = 0 -> margins are the biases
    assert np.allclose(margins(model, np.zeros((1, 3)))[0], model.biases)
    # a point on the class-1 hyperplane has zero class-1 margin
    w, b = model.weights[1], model.biases[1]
    x_on_plane = -b * w / float(w @ w)
    assert abs(margins(model, x_on_plane[None, :])[0, 1]) < 1e-9
    # scaling x by 2 doubles margin - bias
    x = np.array([[0.3, -1.2, 0.7]])
    m1 = margins(model, x) - model.biases
    m2 = margins(model, 2.0 * x) - model.biases
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
        margins(model, np.zeros((1, 9)))


def _duplicated_rows_dataset():
    """Rows 2k and 2k+1 (k < 20) are equal with opposite labels, so each pair
    sits inside the margin of both one-vs-rest problems whatever the model."""
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


# sha256 of train_svm(...).to_text(), recorded when the squared hinge and its
# finite Newton solver replaced the hinge and SMO. In three_class_n2000 the
# 4-iteration budget cuts class c2 short; every other solve stops on its margin set.
PINNED_SVM_DIGESTS = {
    "three_class_n2000": (
        lambda: gen_classification(SynthConfig(2000, 3, 5, 3, 1.5, seed=31))[0],
        SVMConfig(max_epochs=4),
        "62ad9e3f2f88246e6c51d1d73598a248bf072c40caf03d5e95e3150255a4b712"),
    "c_1e-3": (
        lambda: gen_classification(SynthConfig(400, 2, 3, 2, 1.0, seed=32))[0],
        SVMConfig(c=1e-3),
        "aa06a3985cd9ecf5f7d7080baf1aa924387a4c3b67e50b455d00569aa6a1c227"),
    "duplicated_rows_opposite_labels": (
        _duplicated_rows_dataset, SVMConfig(c=10.0),
        "bc940a553765546bb241820eed1771e3b82fc0884fda97bef0c0b343e5e8a4e1"),
    "absent_class": (
        _absent_class_dataset, SVMConfig(),
        "be9751b99cd63c6d803c27ad50fc615dcbfb9bb6c556b93da05d54965b58f8fc"),
}


@pytest.mark.parametrize("case", sorted(PINNED_SVM_DIGESTS))
def test_pinned_model_digests(case):
    make, cfg, expected = PINNED_SVM_DIGESTS[case]
    text = train_svm(make(), cfg).to_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected


def _random_instance(rng):
    n = int(rng.integers(2, 81))
    p = int(rng.integers(1, 6))
    x = rng.standard_normal((n, p))
    if rng.random() < 0.5:  # ties: few distinct values per column
        x = np.round(x, int(rng.integers(0, 2)))
    if rng.random() < 0.25:
        x[:, int(rng.integers(p))] = -0.0
    y_pm = np.where(rng.random(n) < rng.uniform(0.2, 0.8), 1.0, -1.0)
    cfg = SVMConfig(c=float(10.0 ** rng.uniform(-3.0, 3.0)), max_epochs=int(rng.integers(1, 31)))
    return x, y_pm, cfg


def _solver_instances():
    """600 random instances, a few of them with one class only."""
    rng = np.random.default_rng(2011)
    for _ in range(600):
        yield _random_instance(rng)


@pytest.fixture(scope="module")
def solves():
    """(x, y_pm, cfg, (w, b, history, report)) per instance."""
    return [(x, y_pm, cfg, _solve_binary(x, y_pm, cfg)) for x, y_pm, cfg in _solver_instances()]


def _objective_and_gradient(z, x, y_pm, c):
    w, b = z[:-1], z[-1]
    return (svm_primal_objective(x, y_pm, w, b, c), svm_primal_gradient(x, y_pm, w, b, c))


def _lbfgs_minimum(x, y_pm, c) -> float:
    result = minimize(_objective_and_gradient, np.zeros(x.shape[1] + 1), args=(x, y_pm, c),
                      jac=True, method="L-BFGS-B",
                      options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10000})
    return float(result.fun)


def _gradient_scale(x, c) -> float:
    """2c sum_i ||(x_i, 1)||: the size of the terms the gradient sums at w = 0, b = 0,
    where every row's slack is 1. Never 0, so rounding noise is small beside it."""
    return 2.0 * c * float(np.sqrt((x * x).sum(axis=1) + 1.0).sum())


def _assert_certified(x, y_pm, c, w, b):
    """The gradient is zero up to rounding and the objective is L-BFGS-B's."""
    gradient = np.linalg.norm(svm_primal_gradient(x, y_pm, w, b, c))
    assert gradient <= 1e-8 * _gradient_scale(x, c)
    ours, reference = svm_primal_objective(x, y_pm, w, b, c), _lbfgs_minimum(x, y_pm, c)
    assert abs(ours - reference) <= 1e-6 * abs(reference) + 1e-12


def test_margin_set_stop_is_certified(solves):
    """A solve that stops on a repeated margin set is at the optimum: its gradient,
    summed row by row, is zero up to rounding, and no other solver does better.
    The budgets of 1 to 30 iterations cut 5 of the 600 solves short."""
    certified = 0
    for x, y_pm, cfg, (w, b, history, report) in solves:
        assert report["stop"] in ("margin_set", "epoch_budget")
        if report["stop"] == "margin_set":
            certified += 1
            _assert_certified(x, y_pm, cfg.c, w, b)
    assert certified >= 590


def test_report_reads_back_the_returned_model(solves):
    """The history ends at the returned model's objective, the margin set is the rows
    with margin below 1 there, and grad_rel is its gradient relative to the start's."""
    for x, y_pm, cfg, (w, b, history, report) in solves:
        assert len(history) == report["epochs"]
        assert history[-1] == pytest.approx(svm_primal_objective(x, y_pm, w, b, cfg.c),
                                            rel=1e-12, abs=0.0)
        assert report["margin_rows"] == int(np.sum(y_pm * (x @ w + b) < 1.0))
        gradient = np.linalg.norm(svm_primal_gradient(x, y_pm, w, b, cfg.c))
        start = np.linalg.norm(svm_primal_gradient(x, y_pm, np.zeros_like(w), 0.0, cfg.c))
        assert report["grad_rel"] * start == pytest.approx(
            gradient, rel=1e-6, abs=1e-12 * _gradient_scale(x, cfg.c))


def test_epoch_budget_cuts_the_trajectory_short(solves):
    """With max_epochs=k no solve runs more than k iterations; a solve the budget
    cuts short says so, and its history is the first k objectives of the solve
    without a budget, bit for bit."""
    cut = 0
    for x, y_pm, cfg, (w, b, history, report) in solves:
        assert 1 <= report["epochs"] <= cfg.max_epochs
        free = _solve_binary(x, y_pm, SVMConfig(c=cfg.c))
        if free[3]["epochs"] > cfg.max_epochs:
            cut += 1
            assert report["stop"] == "epoch_budget"
            assert history == free[2][:cfg.max_epochs]
        else:
            assert report["stop"] == "margin_set"
            assert w.tobytes() == free[0].tobytes() and repr(b) == repr(free[1])
    assert cut >= 5


def test_budget_of_k_iterations_on_three_classes():
    d, _ = gen_classification(SynthConfig(300, 3, 5, 3, 2.0, seed=5))
    free = train_svm(d, SVMConfig())
    assert max(s["epochs"] for s in free.solves.values()) > 2
    capped = train_svm(d, SVMConfig(max_epochs=2))
    for name, solve in capped.solves.items():
        assert solve["epochs"] <= 2
        if free.solves[name]["epochs"] > 2:
            assert solve["stop"] == "epoch_budget"
    assert [len(h) for h in capped.objective_histories] == [s["epochs"] for s in
                                                            capped.solves.values()]


def test_large_instance_solves_to_the_optimum():
    """3,000 noisy rows with most of them inside the margin."""
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3000, 7))
    y_pm = np.where(x[:, 0] + 0.5 * x[:, 1] + 1.25 * rng.standard_normal(3000) > 0, 1.0, -1.0)
    w, b, history, report = _solve_binary(x, y_pm, SVMConfig(c=0.04))
    assert report["stop"] == "margin_set"
    assert report["epochs"] <= 10
    assert report["margin_rows"] > 1500
    _assert_certified(x, y_pm, 0.04, w, b)


def test_step_length_is_the_exact_line_minimum():
    """Against the derivative along the line, summed row by row: zero at the step,
    or not negative at t = 0. A third of the slacks are exactly 0, half of those
    rows moving into the margin, which only the first piece can count."""
    rng = np.random.default_rng(12)
    for _ in range(300):
        n, p = int(rng.integers(1, 30)), int(rng.integers(1, 4))
        slack = np.round(rng.standard_normal(n), 1)
        slack[rng.random(n) < 0.3] = 0.0
        rate = np.round(rng.standard_normal(n), 1)
        w, dw = rng.standard_normal(p), rng.standard_normal(p)
        lam = float(10.0 ** rng.uniform(-3.0, 3.0))
        t = _step_length(lam, w, dw, slack, rate)

        def derivative(at):
            return lam * float(w @ dw + at * (dw @ dw)) - sum(
                max(s - at * r, 0.0) * r for s, r in zip(slack, rate))

        size = lam * (abs(float(w @ dw)) + float(dw @ dw)) + float(np.abs(slack * rate).sum()
                                                                   + (rate * rate).sum())
        assert t >= 0.0
        if t == 0.0:
            assert derivative(0.0) >= -1e-12 * size
        else:
            assert abs(derivative(t)) <= 1e-12 * size * max(1.0, t)


def _assert_finite(w, b, history, report):
    assert np.all(np.isfinite(w)) and math.isfinite(b)
    assert all(math.isfinite(v) for v in history)
    assert math.isfinite(report["grad_rel"])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_one_class_instance_trains_a_finite_model(sign):
    """Every row can sit on the margin with w = 0 and b = sign: the objective is 0."""
    x = np.random.default_rng(7).standard_normal((12, 3))
    w, b, history, report = _solve_binary(x, np.full(12, sign), SVMConfig())
    _assert_finite(w, b, history, report)
    assert report["stop"] == "margin_set"
    assert np.all(np.abs(w) < 1e-12) and b == pytest.approx(sign, abs=1e-12)
    assert history[-1] < 1e-20


def test_tiny_c_trains_a_finite_model():
    """At c=1e-13 the system's diagonal holds 1/(2c) = 5e12 next to entries near 1."""
    x = np.random.default_rng(7).standard_normal((12, 3))
    y_pm = np.where(x[:, 0] > 0, 1.0, -1.0)
    w, b, history, report = _solve_binary(x, y_pm, SVMConfig(c=1e-13))
    _assert_finite(w, b, history, report)
    assert report["stop"] == "margin_set"
    assert np.all(np.abs(w) < 1e-10) and b == pytest.approx(y_pm.mean(), abs=1e-9)


def test_rows_duplicated_with_opposite_labels_train_a_finite_model():
    d = _duplicated_rows_dataset()
    x = d.features
    for cls in (0, 1):
        y_pm = np.where(d.labels == cls, 1.0, -1.0)
        w, b, history, report = _solve_binary(x, y_pm, SVMConfig(c=10.0))
        _assert_finite(w, b, history, report)
        assert report["stop"] == "margin_set"
        _assert_certified(x, y_pm, 10.0, w, b)


@pytest.mark.parametrize("settings", [{"c": float("nan")}, {"c": float("inf")}])
def test_non_finite_settings_rejected(settings):
    with pytest.raises(ConfigError, match="finite"):
        SVMConfig(**settings).validate()
