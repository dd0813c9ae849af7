import numpy as np
import pytest

from cyclonids.errors import ConfigError
from cyclonids.synthgen import SynthConfig, gen_classification
from oracles import best_threshold_errors


def test_single_informative_column_is_threshold_separable():
    d, informative = gen_classification(SynthConfig(100, 1, 0, 2, 10.0, seed=1))
    col = informative.pop()
    assert best_threshold_errors(d.features[:, col], d.labels) == 0


def test_zero_separation_gives_chance_accuracy():
    from cyclonids.dataset import split
    from cyclonids.forest import ForestConfig, train_forest_xy, predict

    d, _ = gen_classification(SynthConfig(600, 3, 2, 2, 0.0, seed=5))
    pair = split(d, 0.25, 5)
    model = train_forest_xy(pair.train.features, pair.train.labels, 2, ForestConfig(n_trees=30, seed=5))
    acc = float(np.mean(predict(model, pair.test.features) == pair.test.labels))
    assert abs(acc - 0.5) <= 0.1


def test_determinism():
    cfg = SynthConfig(200, 2, 2, 3, 1.5, seed=9)
    a, ia = gen_classification(cfg)
    b, ib = gen_classification(cfg)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert ia == ib


@pytest.mark.parametrize("n,k", [(100, 2), (101, 2), (100, 3), (103, 4)])
def test_label_balance(n, k):
    d, _ = gen_classification(SynthConfig(n, 1, 1, k, 1.0, seed=n + k))
    counts = np.bincount(d.labels, minlength=k)
    assert counts.max() - counts.min() <= 1
    assert counts.sum() == n


def test_noise_label_correlation_small():
    for seed in (0, 1, 2):
        d, informative = gen_classification(SynthConfig(500, 1, 4, 2, 3.0, seed=seed))
        noise = [j for j in range(d.p) if j not in informative]
        indicator = (d.labels == 1).astype(float)
        for j in noise:
            corr = np.corrcoef(d.features[:, j], indicator)[0, 1]
            assert abs(corr) < 0.15


def test_informative_indices_point_at_signal():
    d, informative = gen_classification(SynthConfig(400, 2, 6, 2, 4.0, seed=3))
    for j in range(d.p):
        gap = abs(d.features[d.labels == 1, j].mean() - d.features[d.labels == 0, j].mean())
        if j in informative:
            assert gap > 3.0
        else:
            assert gap < 1.0


@pytest.mark.parametrize("kwargs", [
    dict(n_samples=100, n_informative=0, n_noise=1, n_classes=2),
    dict(n_samples=100, n_informative=1, n_noise=1, n_classes=1),
    dict(n_samples=15, n_informative=1, n_noise=1, n_classes=2),
    dict(n_samples=100, n_informative=1, n_noise=-1, n_classes=2),
    dict(n_samples=100, n_informative=1, n_noise=1, n_classes=2, class_separation=float("nan")),
    dict(n_samples=100, n_informative=1, n_noise=1, n_classes=2, class_separation=float("inf")),
])
def test_invalid_configs(kwargs):
    with pytest.raises(ConfigError):
        gen_classification(SynthConfig(**kwargs))
