import hashlib
import tracemalloc

import numpy as np
import pytest

from cyclonids.boruta import BorutaConfig, run_boruta
from cyclonids.dataset import Dataset
from cyclonids.errors import ConfigError, DataError
from cyclonids.forest import (DecisionTree, ForestConfig, ForestModel, feature_importance,
                              per_tree_importances, predict, train_forest, train_forest_xy)
from cyclonids.synthgen import SynthConfig, gen_classification
from oracles import best_gini_split


def _dataset(features, labels, k=2):
    return Dataset(features=np.asarray(features, dtype=float),
                   labels=np.asarray(labels, dtype=int),
                   feature_names=[f"f{i}" for i in range(np.asarray(features).shape[1])],
                   schema_id="synthetic", class_names=[f"c{i}" for i in range(k)])


def _leaf_tree(class_idx, k=2, p=1):
    counts = np.zeros((1, k))
    counts[0, class_idx] = 1.0
    return DecisionTree(feature=np.array([-1]), threshold=np.array([np.nan]),
                        left=np.array([-1]), right=np.array([-1]), counts=counts,
                        importance=np.zeros(p), bootstrap_indices=np.array([0]))


def _vote_model(classes, k=2):
    trees = [_leaf_tree(c, k=k) for c in classes]
    return ForestModel(trees=trees, normalized_importance=np.zeros(1), class_names=[f"c{i}" for i in range(k)],
                       n_features=1, degenerate=True, config=ForestConfig(n_trees=len(trees)))


def test_single_separating_feature():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.uniform(-2.0, -1.0, 25), rng.uniform(1.0, 2.0, 25)])
    y = (x >= 0).astype(int)
    d = _dataset(x.reshape(-1, 1), y)
    model = train_forest(d, ForestConfig(n_trees=20, seed=1))
    assert np.mean(predict(model, d.features) == y) == 1.0
    assert feature_importance(model).tolist() == [1.0]


def test_importance_prefers_informative_over_noise():
    for seed in range(10):
        d, informative = gen_classification(SynthConfig(500, 1, 1, 2, 5.0, seed=seed))
        inf = informative.pop()
        model = train_forest(d, ForestConfig(n_trees=15, seed=seed))
        importance = feature_importance(model)
        assert importance[inf] > importance[1 - inf]


def test_top3_importance_recovers_planted_features():
    hits = 0
    for seed in range(10):
        d, informative = gen_classification(SynthConfig(500, 3, 7, 2, 5.0, seed=seed))
        model = train_forest(d, ForestConfig(n_trees=25, seed=seed))
        top3 = set(np.argsort(feature_importance(model))[::-1][:3].tolist())
        hits += top3 == informative
    assert hits >= 9


def test_degenerate_single_class():
    d = _dataset(np.random.default_rng(1).standard_normal((20, 3)), np.zeros(20, dtype=int))
    model = train_forest(d, ForestConfig(n_trees=5, seed=0))
    assert model.degenerate
    assert feature_importance(model).tolist() == [0.0, 0.0, 0.0]
    assert np.all(predict(model, d.features) == 0)


def test_single_tree_forest_equals_tree():
    d, _ = gen_classification(SynthConfig(120, 2, 2, 2, 3.0, seed=4))
    model = train_forest(d, ForestConfig(n_trees=1, seed=4))
    assert np.array_equal(predict(model, d.features), model.trees[0].predict(d.features))


def test_plurality_vote():
    model = _vote_model([0, 0, 1])
    assert predict(model, np.zeros((1, 1)))[0] == 0


def test_vote_tie_breaks_to_lowest_class_index():
    model = _vote_model([1, 0])
    assert predict(model, np.zeros((1, 1)))[0] == 0
    model = _vote_model([2, 1], k=3)
    assert predict(model, np.zeros((1, 1)))[0] == 1


def test_every_prediction_is_some_trees_vote():
    d, _ = gen_classification(SynthConfig(200, 2, 4, 3, 1.0, seed=6))
    model = train_forest(d, ForestConfig(n_trees=7, seed=6))
    forest_votes = predict(model, d.features)
    tree_votes = np.stack([t.predict(d.features) for t in model.trees])
    assert np.all((tree_votes == forest_votes).any(axis=0))


def test_determinism():
    d, _ = gen_classification(SynthConfig(150, 2, 3, 2, 2.0, seed=7))
    a = train_forest(d, ForestConfig(n_trees=9, seed=7))
    b = train_forest(d, ForestConfig(n_trees=9, seed=7))
    assert a.to_text() == b.to_text()
    assert np.array_equal(predict(a, d.features), predict(b, d.features))
    assert np.array_equal(feature_importance(a), feature_importance(b))


def test_importance_nonnegative_and_normalized():
    d, _ = gen_classification(SynthConfig(300, 2, 5, 3, 1.5, seed=8))
    model = train_forest(d, ForestConfig(n_trees=12, seed=8))
    imp = feature_importance(model)
    assert np.all(imp >= 0.0)
    assert abs(imp.sum() - 1.0) < 1e-9


def test_purity_stop():
    d, _ = gen_classification(SynthConfig(200, 2, 2, 2, 4.0, seed=9))
    model = train_forest(d, ForestConfig(n_trees=5, seed=9))
    for tree in model.trees:
        internal = tree.feature >= 0
        counts = tree.counts[internal]
        # an internal (split) node must contain at least two classes
        assert np.all((counts > 0).sum(axis=1) >= 2)


def test_bootstrap_excludes_rows():
    d, _ = gen_classification(SynthConfig(50, 1, 1, 2, 1.0, seed=10))
    model = train_forest(d, ForestConfig(n_trees=20, seed=10))
    for tree in model.trees:
        assert len(set(tree.bootstrap_indices.tolist())) < d.n


def test_per_tree_importances_shape_and_normalization():
    d, _ = gen_classification(SynthConfig(150, 2, 2, 2, 2.0, seed=11))
    model = train_forest(d, ForestConfig(n_trees=6, seed=11))
    mat = per_tree_importances(model)
    assert mat.shape == (6, 4)
    sums = mat.sum(axis=1)
    assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))


def test_max_depth_respected():
    d, _ = gen_classification(SynthConfig(400, 1, 3, 2, 0.5, seed=12))
    model = train_forest(d, ForestConfig(n_trees=4, max_depth=2, seed=12))
    for tree in model.trees:
        # depth<=2 means at most 1 + 2 + 4 = 7 nodes
        assert tree.n_nodes <= 7


def test_errors():
    d = _dataset([[0.0], [1.0]], [0, 1])
    with pytest.raises(ConfigError):
        train_forest(d, ForestConfig(n_trees=0))
    with pytest.raises(ConfigError):
        train_forest(d, ForestConfig(mtry=5))
    with pytest.raises(DataError):
        train_forest_xy(np.zeros((0, 2)), np.zeros(0, dtype=int), 2, ForestConfig())
    model = train_forest(d, ForestConfig(n_trees=1))
    with pytest.raises(DataError):
        predict(model, np.zeros((2, 3)))


def test_rejects_non_finite_features():
    for bad in (np.nan, np.inf, -np.inf):
        x = np.arange(8.0).reshape(4, 2)
        x[1, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            train_forest_xy(x, np.array([0, 1, 0, 1]), 2, ForestConfig(n_trees=1))


def test_rejects_labels_outside_class_range():
    x = np.arange(8.0).reshape(4, 2)
    for labels in ([0, 1, 2, 1], [0, -1, 0, 1]):
        with pytest.raises(DataError, match="labels"):
            train_forest_xy(x, np.array(labels), 2, ForestConfig(n_trees=1))


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _matrix(n, informative, noise, k, separation, seed, rounded=False):
    d, _ = gen_classification(SynthConfig(n, informative, noise, k, separation, seed=seed))
    return (np.round(d.features, 1) if rounded else d.features), d.labels, k


# sha256 of ForestModel.to_text() and of the raw per-tree importances (native
# float64 bytes), recorded from the tree-at-a-time grower that sorted each
# candidate column per node. The importances pin every chosen gain to the
# last bit. Rounding to one decimal makes long ties and mixes -0.0 with 0.0
# in the same column.
PINNED_FORESTS = {
    "full_depth_k2": (
        _matrix(300, 3, 5, 2, 1.0, 31), ForestConfig(n_trees=8, seed=31),
        "33423b74462cb3be5138f6d5b8ff82006b6a8ae769bdac68d76990933acaaf1c",
        "4c552ba5126d4457d8c5a3a990324155eb7b15d1467ef32d924951841103dcdb"),
    "boruta_forest_k3": (
        _matrix(400, 3, 5, 3, 1.0, 32),
        ForestConfig(n_trees=12, max_depth=4, min_samples_split=25, seed=32),
        "8eb3d9f203e7f127a191410a35d144d2bfb51d17f49a9a2fdf1904b9810a6806",
        "e619904a5594fc12ede807fd88db9a57655ec41e5a29a9d28d801f8b4520c8c6"),
    "mtry_p_k3": (
        _matrix(200, 2, 3, 3, 1.0, 33), ForestConfig(n_trees=6, mtry=5, seed=33),
        "6d8d63ed7a65cafba46fa55c1e21e8fe1b1cbbc946e5132a2846e093b0a078f7",
        "26e0b9b7fc8d67bb0e18692d7e818c680dc92d390b717daccf1233a753d49bdf"),
    "rounded_ties_k3": (
        _matrix(300, 2, 4, 3, 1.5, 34, rounded=True), ForestConfig(n_trees=8, seed=34),
        "4a0d76ab74b6463490ab1c2594dda035130eaa6c31485817427953fc4a095290",
        "0eb2179182946f0da644e144a4e90992ccb13bda58f1d84656e61ec52143fe18"),
}


@pytest.mark.parametrize("name", sorted(PINNED_FORESTS))
def test_pinned_model_digest(name):
    (x, y, k), cfg, text_digest, importance_digest = PINNED_FORESTS[name]
    model = train_forest_xy(x, y, k, cfg)
    assert _sha(model.to_text()) == text_digest
    raw = per_tree_importances(model, normalize=False)
    assert hashlib.sha256(raw.tobytes()).hexdigest() == importance_digest


def test_pinned_boruta_digest():
    d, _ = gen_classification(SynthConfig(300, 3, 7, 2, 2.0, seed=35))
    result = run_boruta(d, BorutaConfig(max_iterations=8, seed=35))
    assert _sha(result.to_text()) == "7f0c6e23ac001bd2bee6e0cf194b18e3130477427d4898266683af5744e47ffc"


def _check_node(tree, node, x, y, k, depth, cfg):
    """Route the node's rows down the tree and check each split against the oracle."""
    assert tree.counts[node].tolist() == np.bincount(y, minlength=k).tolist()
    best = best_gini_split(x, y, k)
    if tree.feature[node] < 0:
        pure = len(np.unique(y)) == 1
        capped = cfg.max_depth is not None and depth >= cfg.max_depth
        if not pure and not capped and len(y) >= cfg.min_samples_split:
            assert best is None or best[0] <= 1e-12
        return
    assert best is not None and best[0] > 1e-12
    assert (int(tree.feature[node]), float(tree.threshold[node])) == (best[1], best[2])
    left = x[:, tree.feature[node]] <= tree.threshold[node]
    _check_node(tree, tree.left[node], x[left], y[left], k, depth + 1, cfg)
    _check_node(tree, tree.right[node], x[~left], y[~left], k, depth + 1, cfg)


@pytest.mark.parametrize("cfg", [ForestConfig(n_trees=4, mtry=4, seed=51),
                                 ForestConfig(n_trees=4, mtry=4, max_depth=3,
                                              min_samples_split=8, seed=52)])
def test_every_split_is_the_exhaustive_best(cfg):
    x, y, k = _matrix(60, 2, 2, 3, 1.0, 50, rounded=True)
    model = train_forest_xy(x, y, k, cfg)
    for tree in model.trees:
        rows = tree.bootstrap_indices
        _check_node(tree, 0, x[rows], y[rows], k, 0, cfg)


def test_training_memory_stays_flat():
    """Memory in flight stays bounded while the forest's nodes accumulate.

    At n=2000, p=5 and 50 full-depth trees the model holds about 2.4 MB and
    training needs about 1.2 MB more at its peak. Keeping a numpy object per
    node for every tree in flight would need several MB more.
    """
    x, y, k = _matrix(2000, 2, 3, 2, 1.0, 41)
    tracemalloc.start()
    try:
        model = train_forest_xy(x, y, k, ForestConfig(n_trees=50, seed=41))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.trees) == 50
    assert peak - held < 2_000_000
