import hashlib
import tracemalloc

import numpy as np
import pytest

from cyclonids.boruta import BorutaConfig, run_boruta
from cyclonids.dataset import Dataset
from cyclonids.errors import ConfigError, DataError
from cyclonids.forest import (DecisionTree, ForestConfig, ForestModel, per_tree_importances,
                              predict, train_forest_xy)
from cyclonids.synthgen import SynthConfig, gen_classification
from oracles import best_gini_split


def _dataset(features, labels, k=2):
    return Dataset(features=np.asarray(features, dtype=float),
                   labels=np.asarray(labels, dtype=int),
                   feature_names=[f"f{i}" for i in range(np.asarray(features).shape[1])],
                   schema_id="synthetic", class_names=[f"c{i}" for i in range(k)])


def _train(d, cfg):
    return train_forest_xy(d.features, d.labels, len(d.class_names), cfg,
                           class_names=d.class_names)


def _leaf_tree(class_idx, k=2, p=1):
    counts = np.zeros((1, k))
    counts[0, class_idx] = 1.0
    return DecisionTree(feature=np.array([-1]), threshold=np.array([np.nan]),
                        left=np.array([-1]), counts=counts, importance=np.zeros(p))


def _vote_model(classes, k=2):
    trees = [_leaf_tree(c, k=k) for c in classes]
    return ForestModel(trees=trees, normalized_importance=np.zeros(1), class_names=[f"c{i}" for i in range(k)],
                       n_features=1, degenerate=True, config=ForestConfig(n_trees=len(trees)))


def test_single_separating_feature():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.uniform(-2.0, -1.0, 25), rng.uniform(1.0, 2.0, 25)])
    y = (x >= 0).astype(int)
    d = _dataset(x.reshape(-1, 1), y)
    model = _train(d, ForestConfig(n_trees=20, seed=1))
    assert np.mean(predict(model, d.features) == y) == 1.0
    assert model.normalized_importance.tolist() == [1.0]


def test_importance_prefers_informative_over_noise():
    for seed in range(10):
        d, informative = gen_classification(SynthConfig(500, 1, 1, 2, 5.0, seed=seed))
        inf = informative.pop()
        model = _train(d, ForestConfig(n_trees=15, seed=seed))
        importance = model.normalized_importance
        assert importance[inf] > importance[1 - inf]


def test_top3_importance_recovers_planted_features():
    hits = 0
    for seed in range(10):
        d, informative = gen_classification(SynthConfig(500, 3, 7, 2, 5.0, seed=seed))
        model = _train(d, ForestConfig(n_trees=25, seed=seed))
        top3 = set(np.argsort(model.normalized_importance)[::-1][:3].tolist())
        hits += top3 == informative
    assert hits >= 9


def test_degenerate_single_class():
    d = _dataset(np.random.default_rng(1).standard_normal((20, 3)), np.zeros(20, dtype=int))
    model = _train(d, ForestConfig(n_trees=5, seed=0))
    assert model.degenerate
    assert model.normalized_importance.tolist() == [0.0, 0.0, 0.0]
    assert np.all(predict(model, d.features) == 0)


def test_single_tree_forest_equals_tree():
    d, _ = gen_classification(SynthConfig(120, 2, 2, 2, 3.0, seed=4))
    model = _train(d, ForestConfig(n_trees=1, seed=4))
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
    model = _train(d, ForestConfig(n_trees=7, seed=6))
    forest_votes = predict(model, d.features)
    tree_votes = np.stack([t.predict(d.features) for t in model.trees])
    assert np.all((tree_votes == forest_votes).any(axis=0))


def test_determinism():
    d, _ = gen_classification(SynthConfig(150, 2, 3, 2, 2.0, seed=7))
    a = _train(d, ForestConfig(n_trees=9, seed=7))
    b = _train(d, ForestConfig(n_trees=9, seed=7))
    assert a.to_text() == b.to_text()
    assert np.array_equal(predict(a, d.features), predict(b, d.features))
    assert np.array_equal(a.normalized_importance, b.normalized_importance)


def test_importance_nonnegative_and_normalized():
    d, _ = gen_classification(SynthConfig(300, 2, 5, 3, 1.5, seed=8))
    model = _train(d, ForestConfig(n_trees=12, seed=8))
    imp = model.normalized_importance
    assert np.all(imp >= 0.0)
    assert abs(imp.sum() - 1.0) < 1e-9


def test_purity_stop():
    d, _ = gen_classification(SynthConfig(200, 2, 2, 2, 4.0, seed=9))
    model = _train(d, ForestConfig(n_trees=5, seed=9))
    for tree in model.trees:
        internal = tree.feature >= 0
        counts = tree.counts[internal]
        # an internal (split) node must contain at least two classes
        assert np.all((counts > 0).sum(axis=1) >= 2)


def _bootstrap(cfg, i, n):
    """Tree i's bootstrap rows: the first draw of its stream, as the forest module documents."""
    return np.random.default_rng(cfg.seed ^ i).integers(0, n, size=n)


def test_bootstrap_excludes_rows():
    d, _ = gen_classification(SynthConfig(50, 1, 1, 2, 1.0, seed=10))
    cfg = ForestConfig(n_trees=20, seed=10)
    model = _train(d, cfg)
    for i, tree in enumerate(model.trees):
        rows = _bootstrap(cfg, i, d.n)
        assert len(set(rows.tolist())) < d.n
        assert tree.counts[0].tolist() == np.bincount(d.labels[rows], minlength=2).tolist()


def test_per_tree_importances_shape_and_normalization():
    d, _ = gen_classification(SynthConfig(150, 2, 2, 2, 2.0, seed=11))
    model = _train(d, ForestConfig(n_trees=6, seed=11))
    mat = per_tree_importances(model)
    assert mat.shape == (6, 4)
    sums = mat.sum(axis=1)
    assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))


def test_max_depth_respected():
    d, _ = gen_classification(SynthConfig(400, 1, 3, 2, 0.5, seed=12))
    model = _train(d, ForestConfig(n_trees=4, max_depth=2, seed=12))
    for tree in model.trees:
        # depth<=2 means at most 1 + 2 + 4 = 7 nodes
        assert tree.n_nodes <= 7


def test_errors():
    d = _dataset([[0.0], [1.0]], [0, 1])
    with pytest.raises(ConfigError):
        _train(d, ForestConfig(n_trees=0))
    with pytest.raises(ConfigError):
        _train(d, ForestConfig(mtry=5))
    with pytest.raises(DataError):
        train_forest_xy(np.zeros((0, 2)), np.zeros(0, dtype=int), 2, ForestConfig())
    model = _train(d, ForestConfig(n_trees=1))
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
# float64 bytes), recorded from the level-wise grower: each tree draws its
# candidates one depth at a time and stores its nodes breadth-first. The
# importances pin every chosen gain to the last bit. Rounding to one decimal
# makes long ties and mixes -0.0 with 0.0 in the same column.
PINNED_FORESTS = {
    "full_depth_k2": (
        _matrix(300, 3, 5, 2, 1.0, 31), ForestConfig(n_trees=8, seed=31),
        "e815f735aa03be56d0d9155b107594ecdb6639da8959a53034bca44596a9e9b7",
        "c268921cf049b327b2d374567fdb14575939a2e86f5334e3faa47575f13042f2"),
    "boruta_forest_k3": (
        _matrix(400, 3, 5, 3, 1.0, 32),
        ForestConfig(n_trees=12, max_depth=4, min_samples_split=25, seed=32),
        "53ba0a274e2ede64ba4c32334cf6d11ac57d9773971d6f0fd1ca8b6b82611055",
        "29f686465d6d1b5f93f96f0907a4b622a044d9093c272bd3bd38e0f42c600a10"),
    "mtry_p_k3": (
        _matrix(200, 2, 3, 3, 1.0, 33), ForestConfig(n_trees=6, mtry=5, seed=33),
        "3923decdb2674622bf6725ac6edca501fbb884ed867849c8b882e06a52057545",
        "b904e08ec7c919d032c52f300b910de6c35bf19a005d953bbc6ba293c2c3ac04"),
    "rounded_ties_k3": (
        _matrix(300, 2, 4, 3, 1.5, 34, rounded=True), ForestConfig(n_trees=8, seed=34),
        "c3590e3643b4b69a8e85aff66ab53ffcd9175463f4d345b8e03053cb17c4bd3b",
        "9e9b2b7895c438cc75978a0d751b2e467d9b55bf9a6f911d15a974c9d8ea9800"),
}


@pytest.mark.parametrize("name", sorted(PINNED_FORESTS))
def test_pinned_model_digest(name):
    (x, y, k), cfg, text_digest, importance_digest = PINNED_FORESTS[name]
    model = train_forest_xy(x, y, k, cfg)
    assert _sha(model.to_text()) == text_digest
    raw = np.stack([t.importance for t in model.trees])
    assert hashlib.sha256(raw.tobytes()).hexdigest() == importance_digest


def test_pinned_boruta_digest():
    d, _ = gen_classification(SynthConfig(300, 3, 7, 2, 2.0, seed=35))
    result = run_boruta(d, BorutaConfig(max_iterations=8, seed=35))
    assert _sha(result.to_text()) == "ccf3eaa44507f63a37ff7bdb24bf854b0bdfc5c1d68bd02dc4abfff3456a1209"


def test_children_of_a_split_are_adjacent_and_breadth_first():
    x, y, k = _matrix(400, 3, 5, 3, 1.0, 36)
    model = train_forest_xy(x, y, k, ForestConfig(n_trees=30, seed=36))
    for tree in model.trees:
        split = np.flatnonzero(tree.feature >= 0)
        assert np.all(tree.left[split] > split)
        # Breadth-first: the j-th split's children are nodes 2j + 1 and 2j + 2.
        assert np.array_equal(tree.left[split], 1 + 2 * np.arange(len(split)))
        assert np.all(tree.left[tree.feature < 0] == -1)


def _walk(tree, row):
    """The class a single row reaches by following the splits from the root."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] + (not go_left)
    return int(np.argmax(tree.counts[node]))


def _on_thresholds(tree, row):
    """A copy of ``row`` placed exactly on the threshold of each split on its path
    whose column it has not met yet; ties go left."""
    row, seen, node = row.copy(), set(), 0
    while tree.feature[node] >= 0:
        f = tree.feature[node]
        if f not in seen:
            seen.add(f)
            row[f] = tree.threshold[node]
        node = tree.left[node] + (row[f] > tree.threshold[node])
    return row


def test_tree_predict_equals_a_per_row_walk():
    x, y, k = _matrix(300, 2, 4, 3, 1.0, 37)
    model = train_forest_xy(x, y, k, ForestConfig(n_trees=5, seed=37))
    for tree in model.trees:
        tied = np.array([_on_thresholds(tree, row) for row in x[:40]])
        assert np.all(tied[:, tree.feature[0]] == tree.threshold[0])
        m = np.concatenate([x, tied])
        assert np.array_equal(tree.predict(m), [_walk(tree, row) for row in m])


def test_a_tree_does_not_depend_on_its_group():
    x, y, k = _matrix(300, 3, 5, 3, 1.0, 38)
    wide = train_forest_xy(x, y, k, ForestConfig(n_trees=30, seed=38))
    narrow = train_forest_xy(x, y, k, ForestConfig(n_trees=27, seed=38))
    for a, b in zip(wide.trees[:27], narrow.trees, strict=True):
        for field in ("feature", "threshold", "left", "counts", "importance"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


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
    _check_node(tree, tree.left[node] + 1, x[~left], y[~left], k, depth + 1, cfg)


@pytest.mark.parametrize("cfg", [ForestConfig(n_trees=4, mtry=4, seed=51),
                                 ForestConfig(n_trees=4, mtry=4, max_depth=3,
                                              min_samples_split=8, seed=52)])
def test_every_split_is_the_exhaustive_best(cfg):
    x, y, k = _matrix(60, 2, 2, 3, 1.0, 50, rounded=True)
    model = train_forest_xy(x, y, k, cfg)
    for i, tree in enumerate(model.trees):
        rows = _bootstrap(cfg, i, len(y))
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


def test_a_trained_forest_holds_its_nodes_and_not_its_bootstrap_draws():
    """50 depth-3 trees on 20,000 rows hold about 0.18 MB of nodes and importances.
    Keeping each tree's 20,000-row bootstrap draw held about 8.2 MB."""
    x, y, k = _matrix(20000, 3, 7, 2, 1.0, 61)
    tracemalloc.start()
    try:
        model = train_forest_xy(x, y, k, ForestConfig(n_trees=50, max_depth=3, seed=61))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(model.trees) == 50
    assert held < 1_000_000


def test_prediction_tallies_votes_without_a_trees_by_rows_matrix():
    """100 stumps on 20,000 rows: adding each tree's votes into a classes x rows tally
    peaks at about 1.4 MB; stacking every tree's votes first peaked at about 32 MB."""
    x, y, k = _matrix(20000, 3, 7, 2, 1.0, 62)
    model = train_forest_xy(x, y, k, ForestConfig(n_trees=100, max_depth=1, seed=62))
    tracemalloc.start()
    try:
        predicted = predict(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    votes = np.stack([tree.predict(x) for tree in model.trees])
    assert np.array_equal(predicted, np.argmax([(votes == c).sum(axis=0) for c in range(k)], axis=0))
