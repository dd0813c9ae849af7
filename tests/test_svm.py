import hashlib

import numpy as np
import pytest

from cyclonids.dataset import Dataset, split
from cyclonids.errors import ConfigError, DataError
from cyclonids.svm import SVMConfig, SVMModel, _solve_binary, margins, predict, train_svm
from cyclonids.synthgen import SynthConfig, gen_classification
from oracles import (best_linear_rule_accuracy, reference_smo, svm_lattice_minimum,
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


# sha256 of train_svm(...).to_text(). Only three_class_n2000 shrinks rows
# that would have been picked again, so only its digest moved with shrinking.
# Every case but c_1e-3_alphas_at_bound, which closes the pair gap in its
# first epoch, was re-recorded when the relative duality gap became the
# stopping rule.
PINNED_SVM_DIGESTS = {
    "three_class_n2000": (
        lambda: gen_classification(SynthConfig(2000, 3, 5, 3, 1.5, seed=31))[0],
        SVMConfig(max_epochs=4),
        "3ceebe93d1d0fca4970f41776fd5e8aed39a3e2a4bf4c8c5256b607a46f0281a"),
    "c_1e-3_alphas_at_bound": (
        lambda: gen_classification(SynthConfig(400, 2, 3, 2, 1.0, seed=32))[0],
        SVMConfig(c=1e-3),
        "e70d7708fb448cd631ec91e8142e0d1d6df7325b99446496b3c3f38203bc458d"),
    "duplicated_rows_quad_clamped": (
        _duplicated_rows_dataset, SVMConfig(c=10.0),
        "b7b1d0fe6537749d73890f17ea976c09d3786c6a016fd3cfb2dee70a2fb9ec2c"),
    "absent_class": (
        _absent_class_dataset, SVMConfig(),
        "a968d7bf227ae9b10294414dad5af3b9dd84ffd637964cb26d588beca5eb4496"),
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


@pytest.fixture(scope="module")
def solves_against_reference():
    """(n, ours, reference) per instance; ours = (w, b, history, report)."""
    return [(len(x), _solve_binary(x, y_pm, cfg), reference_smo(x, y_pm, cfg))
            for x, y_pm, cfg in _smo_instances()]


def test_solver_matches_reference_smo_bit_for_bit(solves_against_reference):
    """A solve that never shrinks a row follows reference_smo bit for bit.
    347 of the 603 instances never shrink one."""
    unshrunk = 0
    for n, (w, b, history, report), (ref_w, ref_b, ref_history) in solves_against_reference:
        if report["min_active"] < n:
            continue
        unshrunk += 1
        assert w.tobytes() == ref_w.tobytes()
        assert repr(b) == repr(ref_b)
        assert [repr(v) for v in history] == [repr(v) for v in ref_history]
    assert unshrunk >= 300


# Shrunk instances of _smo_instances() that end more than 1e-3 above
# reference_smo's objective, with the relative difference each one ends at.
# Each stops on the epoch budget: shrinking changed the trajectory, and the
# budget (2 to 30 epochs) ends each with a relative duality gap of
# 0.014 to 0.48, before either is near the optimum. A solve that stops on
# the duality gap cannot be here (test_dual_gap_stop_is_certified).
SHRUNK_ABOVE_REFERENCE = {
    137: 0.0610,
    244: 0.0149,
    280: 0.0027,
    580: 0.0033,
    596: 0.0143,
}


def test_shrunk_solves_end_no_worse_than_reference_smo(solves_against_reference):
    """The other 256 instances shrink rows, which changes the trajectory, so
    the final best objective is compared with reference_smo's at the same
    budget. 228 agree within 1e-9 relative and 3 end more than 1e-3 below,
    each at the epoch budget. Only the instances listed in
    SHRUNK_ABOVE_REFERENCE end more than 1e-3 above it."""
    rel = {}
    for k, (n, (_, _, history, report), (_, _, ref_history)) in enumerate(
            solves_against_reference):
        if report["min_active"] < n:
            rel[k] = (history[-1] - ref_history[-1]) / abs(ref_history[-1])
    assert len(rel) >= 100
    above = {k: r for k, r in rel.items() if r > 1e-3}
    assert sorted(above) == sorted(SHRUNK_ABOVE_REFERENCE)
    for k, r in above.items():
        assert r == pytest.approx(SHRUNK_ABOVE_REFERENCE[k], abs=1e-4), k


def test_dual_gap_stop_is_certified(solves_against_reference):
    """A solve that stops on the duality gap is within the tolerance of the
    optimum, so no more than that above reference_smo's objective, shrunk or not."""
    certified = 0
    for (_, _, cfg), (_, (_, _, history, report), (_, _, ref_history)) in zip(
            _smo_instances(), solves_against_reference):
        assert report["stop"] in ("gap", "no_step", "dual_gap", "epoch_budget")
        if report["stop"] == "dual_gap":
            certified += 1
            assert report["dual_gap"] <= cfg.tolerance
            assert history[-1] <= ref_history[-1] / (1.0 - cfg.tolerance)
    assert certified >= 50


def test_reported_dual_gap_is_never_negative(solves_against_reference):
    """D <= P_best holds in exact arithmetic only: a solve that closes its pair gap
    can compute D a rounding error above P_best, about 1e-16 relative, as 29 of
    these instances do (51, 57 and 71 among them). The report says 0 then."""
    negative = [k for k, (_, (_, _, _, report), _) in enumerate(solves_against_reference)
                if not report["dual_gap"] >= 0.0]
    assert negative == []


def test_reference_smo_does_not_stop_on_a_stalled_primal(solves_against_reference):
    """Instances 339 and 378 once stopped reference_smo at 147.0834 and
    100.4603, when one epoch's best primal objective, which can hold still
    while the dual climbs, improved by less than an absolute tolerance. On
    the duality gap both solvers reach the same optimum."""
    for k, expected in ((339, 127.6573), (378, 76.3311)):
        _, (_, _, history, _), (_, _, ref_history) = solves_against_reference[k]
        assert abs(ref_history[-1] - history[-1]) <= 1e-9 * abs(history[-1]), k
        assert ref_history[-1] == pytest.approx(expected, abs=1e-4), k


def test_shrunk_rows_come_back_before_convergence():
    """Solved to the gap test with most rows shrunk, the objective matches
    reference_smo's: the final check sees every row, so no violator is left out."""
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3000, 7))
    y_pm = np.where(x[:, 0] + 0.5 * x[:, 1] + 1.25 * rng.standard_normal(3000) > 0, 1.0, -1.0)
    cfg = SVMConfig(c=0.04, max_epochs=200, tolerance=1e-12)
    _, _, history, report = _solve_binary(x, y_pm, cfg)
    _, _, ref_history = reference_smo(x, y_pm, cfg)
    assert report["stop"] == "gap"
    assert report["min_active"] < 100
    assert abs(history[-1] - ref_history[-1]) <= 1e-9 * abs(ref_history[-1])


@pytest.mark.parametrize("settings", [{"c": float("nan")}, {"c": float("inf")},
                                      {"tolerance": float("nan")},
                                      {"tolerance": float("inf")}])
def test_non_finite_settings_rejected(settings):
    with pytest.raises(ConfigError, match="finite"):
        SVMConfig(**settings).validate()


@pytest.mark.parametrize("tolerance", [0.0, 1.0])
def test_tolerance_outside_the_unit_interval_rejected(tolerance):
    # the relative duality gap is at most 1, so a tolerance of 1 certifies nothing
    with pytest.raises(ConfigError, match=r"in \(0, 1\)"):
        SVMConfig(tolerance=tolerance).validate()
