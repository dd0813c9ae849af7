"""Principal component analysis of the rows it is given.

Fit eigendecomposes the sample covariance of its input, summed over blocks
of rows so that no centred copy of the input is made; ``transform``
projects rows onto the leading components, one block of rows at a time
into its output: a product over a whole split makes OpenBLAS start its
worker threads, whose buffers then stay resident for the rest of the
process. Both take rows that are already standardized: the runner fits the
run's only standardizer and applies it before selection, whatever the
selector. Components are sorted by descending eigenvalue, and each loading
column is sign-fixed so its largest-magnitude entry is non-negative, which
makes results deterministic for one BLAS build and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .preprocess import _BLOCK_ROWS

_EIG_CLAMP = -1e-10


@dataclass(frozen=True)
class PCAModel:
    loadings: np.ndarray  # (p, p), columns = components
    eigenvalues: np.ndarray  # descending, >= 0
    explained_variance_ratio: np.ndarray

    @property
    def p(self) -> int:
        return self.loadings.shape[0]

    def to_text(self) -> str:
        lines = ["pca"]
        lines.append(" ".join(repr(float(v)) for v in self.eigenvalues))
        for row in self.loadings:
            lines.append(" ".join(repr(float(v)) for v in row))
        return "\n".join(lines)


def fit_pca(x: np.ndarray) -> PCAModel:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DataError(f"need a 2-D matrix with at least 2 rows, got shape {x.shape}")
    # np.cov's centred cross-products, summed a block of rows at a time in one
    # buffer, so no centred copy of the input exists. The blocked sum rounds
    # differently from one product: about 1e-15 relative.
    n, p = x.shape
    mean = x.mean(axis=0)
    cov = np.zeros((p, p))
    buffer = np.empty((min(n, _BLOCK_ROWS), p))
    for start in range(0, n, _BLOCK_ROWS):
        rows = x[start:start + _BLOCK_ROWS]
        block = np.subtract(rows, mean, out=buffer[:len(rows)])
        cov += block.T @ block
    cov *= np.true_divide(1, n - 1)

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
    return PCAModel(loadings=vectors, eigenvalues=eigenvalues, explained_variance_ratio=ratios)


def transform(model: PCAModel, m: np.ndarray, k: int) -> np.ndarray:
    """Project standardized rows onto the first k components, ``_BLOCK_ROWS`` rows at a time.

    Each output row is its input row's product with the same loadings, so
    the blocks give the rows that one whole-matrix product would."""
    if not 1 <= k <= model.p:
        raise ConfigError(f"k must be in [1, {model.p}], got {k}")
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != model.p:
        raise DataError(f"matrix has {m.shape[1] if m.ndim == 2 else '?'} columns, "
                        f"model expects {model.p}")
    loadings = model.loadings[:, :k]
    out = np.empty((len(m), k))
    for start in range(0, len(m), _BLOCK_ROWS):
        np.matmul(m[start:start + _BLOCK_ROWS], loadings, out=out[start:start + _BLOCK_ROWS])
    return out


def check_threshold(cumulative_threshold: float) -> None:
    """Reject a cumulative explained-variance threshold outside (0, 1]."""
    if not 0.0 < cumulative_threshold <= 1.0:
        raise ConfigError(f"threshold must be in (0, 1], got {cumulative_threshold}")


def select_components(model: PCAModel, cumulative_threshold: float) -> int:
    """Smallest k whose cumulative explained-variance ratio reaches the threshold."""
    check_threshold(cumulative_threshold)
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
