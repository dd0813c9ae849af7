"""Synthetic labeled datasets with planted informative features.

The generator is the ground-truth oracle for selector and classifier tests:
informative columns are drawn from per-class Gaussians whose means sit
``class_separation`` noise-standard-deviations apart, noise columns ignore
the label entirely, and the returned index set says exactly which is which.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError


@dataclass(frozen=True)
class SynthConfig:
    n_samples: int
    n_informative: int
    n_noise: int
    n_classes: int = 2
    class_separation: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_informative < 1:
            raise ConfigError("n_informative must be >= 1")
        if self.n_noise < 0:
            raise ConfigError("n_noise must be >= 0")
        if self.n_classes < 2:
            raise ConfigError("n_classes must be >= 2")
        if not np.isfinite(self.class_separation):
            raise ConfigError(f"class_separation must be finite, got {self.class_separation}")
        if self.n_samples < self.n_classes * 10:
            raise ConfigError(
                f"n_samples must be >= 10 per class ({self.n_classes * 10}), got {self.n_samples}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def gen_classification(cfg: SynthConfig) -> tuple[Dataset, set[int]]:
    """Generate a labeled dataset and the set of informative column indices.

    Class c's informative columns are N(c * separation, 1); noise columns are
    N(0, 1) regardless of label. Class counts are balanced to within one row.
    Column positions are shuffled (seeded) so selectors cannot rely on order.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)

    n, k = cfg.n_samples, cfg.n_classes
    base, extra = divmod(n, k)
    labels = np.repeat(np.arange(k), base)
    labels = np.concatenate([labels, np.arange(extra)])
    labels = rng.permutation(labels)

    p = cfg.n_informative + cfg.n_noise
    features = rng.standard_normal((n, p))
    means = labels[:, None] * cfg.class_separation
    features[:, :cfg.n_informative] += means

    order = rng.permutation(p)
    features = features[:, order]
    informative = {int(np.where(order == j)[0][0]) for j in range(cfg.n_informative)}

    d = Dataset(
        features=features,
        labels=labels,
        feature_names=[f"f{i}" for i in range(p)],
        class_names=[f"c{i}" for i in range(k)],
    )
    return d, informative
