"""Principal component analysis over standardized columns.

Fit standardizes the raw matrix (zero mean, unit sample std per column),
then eigendecomposes its covariance; ``transform`` applies the same
standardizer to raw rows before projecting them. A run with the PCA selector
fits no other standardizer. Components are sorted by descending
eigenvalue, and each loading column is sign-fixed so its largest-magnitude
entry is non-negative, which makes results deterministic across BLAS builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import preprocess
from .errors import ConfigError, NumericError
from .preprocess import Standardizer

_EIG_CLAMP = -1e-10


@dataclass(frozen=True)
class PCAModel:
    standardizer: Standardizer
    loadings: np.ndarray  # (p, p), columns = components
    eigenvalues: np.ndarray  # descending, >= 0
    explained_variance_ratio: np.ndarray

    @property
    def p(self) -> int:
        return self.loadings.shape[0]

    def to_text(self) -> str:
        lines = ["pca", self.standardizer.to_text()]
        lines.append(" ".join(repr(float(v)) for v in self.eigenvalues))
        for row in self.loadings:
            lines.append(" ".join(repr(float(v)) for v in row))
        return "\n".join(lines)


def fit_pca(m: np.ndarray) -> PCAModel:
    standardizer = preprocess.fit_standardizer(m)
    x = preprocess.transform(standardizer, m)
    # np.cov's arithmetic, without its centred copy: x is a fresh array, so
    # centre it in place (fit_standardizer has already refused fewer than 2 rows).
    x -= x.mean(axis=0)
    cov = x.T @ x
    cov *= np.true_divide(1, x.shape[0] - 1)

    eigenvalues, vectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]

    if eigenvalues.min() < _EIG_CLAMP:
        raise NumericError(f"covariance produced eigenvalue {eigenvalues.min()}, not a valid Gram matrix")
    eigenvalues = np.clip(eigenvalues, 0.0, None)

    # Sign convention: largest-|entry| of every component is non-negative.
    pivot = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[pivot, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors = vectors * signs

    total = eigenvalues.sum()
    if total > 0.0:
        ratios = eigenvalues / total
    else:
        ratios = np.full_like(eigenvalues, 1.0 / len(eigenvalues))
    return PCAModel(standardizer=standardizer, loadings=vectors,
                    eigenvalues=eigenvalues, explained_variance_ratio=ratios)


def transform(model: PCAModel, m: np.ndarray, k: int) -> np.ndarray:
    """Project raw rows, standardized by the model, onto the first k components."""
    if not 1 <= k <= model.p:
        raise ConfigError(f"k must be in [1, {model.p}], got {k}")
    return preprocess.transform(model.standardizer, m) @ model.loadings[:, :k]


def select_components(model: PCAModel, cumulative_threshold: float) -> int:
    """Smallest k whose cumulative explained-variance ratio reaches the threshold."""
    if not 0.0 < cumulative_threshold <= 1.0:
        raise ConfigError(f"threshold must be in (0, 1], got {cumulative_threshold}")
    cumulative = np.cumsum(model.explained_variance_ratio)
    reached = np.nonzero(cumulative >= cumulative_threshold - 1e-12)[0]
    return int(reached[0]) + 1 if len(reached) else model.p


def feature_salience(model: PCAModel) -> list[tuple[str | int, float]]:
    """Rank original features by variance-weighted absolute loadings.

    salience[l] = sum_j ratio[j] * |loadings[l, j]|, sorted descending with
    ties broken by feature index. Feature identifiers are column indices;
    callers with names attach them.
    """
    scores = np.abs(model.loadings) @ model.explained_variance_ratio
    order = sorted(range(model.p), key=lambda l: (-scores[l], l))
    return [(l, float(scores[l])) for l in order]
