"""Boruta-style all-relevant feature selection.

Each iteration permutes a fresh shadow copy of every feature column, trains a
random forest on the doubled matrix, and turns per-tree importances into
Z-scores; only one iteration's matrix and forest exist at a time. A real
feature scores a hit when its Z-score beats the maximum shadow Z-score
(MZS); accumulated hits feed a two-sided binomial test (success probability
0.5) that promotes features to Confirmed or demotes them to Rejected. Its
p-values are exact binomial tails: integer sums of binomial coefficients,
each divided by 2**t once. Whatever is still undecided when iteration
budget runs out stays Tentative.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math
import time

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError
from .forest import ForestConfig, per_tree_importances, train_forest_xy


class FeatureDecision(enum.Enum):
    CONFIRMED = "Confirmed"
    TENTATIVE = "Tentative"
    REJECTED = "Rejected"


@dataclasses.dataclass(frozen=True)
class BorutaConfig:
    """Selector parameters.

    The default internal forest uses shallow trees with a node-size floor:
    deep splits of near-pure nodes give uninformative columns small but very
    consistent importances, which inflates their Z-scores and stalls the
    rejection test.
    """

    max_iterations: int = 20
    alpha: float = 0.05
    forest: ForestConfig = dataclasses.field(
        default_factory=lambda: ForestConfig(n_trees=40, max_depth=4, min_samples_split=25))
    seed: int = 0

    def validate(self) -> None:
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not 0.0 < self.alpha <= 0.5:
            raise ConfigError(f"alpha must be in (0, 0.5], got {self.alpha}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclasses.dataclass
class BorutaResult:
    decisions: list[FeatureDecision]
    z_history: list[tuple[np.ndarray, float]]  # per iteration: (real-feature Z, shadow MZS)
    hits: np.ndarray
    iterations_used: int
    elapsed: float

    @property
    def n_confirmed(self) -> int:
        return sum(d is FeatureDecision.CONFIRMED for d in self.decisions)

    @property
    def n_tentative(self) -> int:
        return sum(d is FeatureDecision.TENTATIVE for d in self.decisions)

    @property
    def n_rejected(self) -> int:
        return sum(d is FeatureDecision.REJECTED for d in self.decisions)

    def selected_indices(self) -> list[int]:
        """Confirmed feature indices, ascending."""
        return [i for i, d in enumerate(self.decisions) if d is FeatureDecision.CONFIRMED]

    def to_text(self) -> str:
        lines = [f"boruta iterations={self.iterations_used}"]
        for i, (d, h) in enumerate(zip(self.decisions, self.hits)):
            lines.append(f"feature {i} {d.value} hits={int(h)}")
        return "\n".join(lines)


def augment_with_shadows(m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Append one independently permuted copy of every column: (n, p) -> (n, 2p)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 2:
        raise DataError(f"need a 2-D matrix with at least 2 rows, got shape {m.shape}")
    n, p = m.shape
    out = np.empty((n, 2 * p))
    out[:, :p] = m
    for j in range(p):
        out[:, p + j] = m[rng.permutation(n), j]
    return out


def z_scores(per_tree: np.ndarray) -> np.ndarray:
    """Per-feature mean importance over trees divided by its std (n-1 divisor).

    A column that is constant across trees has std 0 by definition (detected
    as max == min, which is immune to summation round-off): nonzero constants
    get the +inf sentinel, all-zero columns get 0.
    """
    per_tree = np.asarray(per_tree, dtype=np.float64)
    if per_tree.ndim != 2 or per_tree.shape[0] < 2:
        raise DataError(f"need importances from at least 2 trees, got shape {per_tree.shape}")
    means = per_tree.mean(axis=0)
    constant = per_tree.max(axis=0) == per_tree.min(axis=0)
    stds = per_tree.std(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = means / stds
    z[constant & (means != 0.0)] = np.inf
    z[constant & (means == 0.0)] = 0.0
    return z


def binomial_upper_tails(t: int) -> np.ndarray:
    """P(X >= k) for k = 0..t, X ~ Binomial(t, 1/2).

    Each tail is summed exactly in Python ints and divided by 2**t once, so
    it is the correctly rounded double, for any t. By symmetry
    P(X <= k) = P(X >= t - k).
    """
    whole = 2**t
    sums = itertools.accumulate(math.comb(t, i) for i in range(t, -1, -1))
    return np.array([s / whole for s in sums][::-1])


def run_boruta(d: Dataset, cfg: BorutaConfig) -> BorutaResult:
    """Run the iterative shadow-feature selection loop on an encoded dataset.

    The nested forest config's seed is re-derived every iteration from
    cfg.seed so each round trains a genuinely fresh ensemble. Once a feature
    is Confirmed or Rejected it stops accumulating hits and never changes.
    """
    cfg.validate()
    x, y = d.features, d.labels
    p = d.p
    n_classes = len(d.class_names)

    TENT, CONF, REJ = 0, 1, -1
    state = np.zeros(p, dtype=np.int64)
    hits = np.zeros(p, dtype=np.int64)
    z_history: list[tuple[np.ndarray, float]] = []
    start = time.perf_counter()

    for t in range(1, cfg.max_iterations + 1):
        rng = np.random.default_rng([cfg.seed, t])
        forest_cfg = dataclasses.replace(cfg.forest, seed=int(rng.integers(0, 2**31 - 1)))
        augmented = augment_with_shadows(x, rng)
        model = train_forest_xy(augmented, y, n_classes, forest_cfg)
        z = z_scores(per_tree_importances(model))
        del augmented, model  # before the next iteration builds its own
        z_real, z_shadow = z[:p], z[p:]
        mzs = float(np.max(z_shadow))
        z_history.append((z_real.copy(), mzs))

        undecided = state == TENT
        hits[undecided & (z_real > mzs)] += 1

        # Two-sided binomial test on the hit counts of undecided features.
        idx = np.nonzero(undecided)[0]
        if len(idx):
            tails = binomial_upper_tails(t)
            p_high = tails[hits[idx]]
            p_low = tails[t - hits[idx]]
            state[idx[p_high <= cfg.alpha / 2.0]] = CONF
            state[idx[p_low <= cfg.alpha / 2.0]] = REJ

        if not (state == TENT).any():
            break

    elapsed = time.perf_counter() - start
    mapping = {TENT: FeatureDecision.TENTATIVE, CONF: FeatureDecision.CONFIRMED,
               REJ: FeatureDecision.REJECTED}
    return BorutaResult(decisions=[mapping[s] for s in state], z_history=z_history,
                        hits=hits, iterations_used=t, elapsed=elapsed)
