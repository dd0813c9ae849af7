"""Principal component analysis of the rows it is given.

Fit eigendecomposes the sample covariance of its input, which it reads as
``preprocess.Rows``, a block of rows at a time: once for the mean, then
once for the centred cross-products, so no centred copy of the input is
made. ``transform`` projects rows onto the leading components, one block of
rows at a time into its output: a product over a whole split makes OpenBLAS
start its worker threads, whose buffers then stay resident for the rest of
the process. The runner hands both a split's rows as they are encoded and
standardized, block by block, so no split is ever built on the PCA path.
Both take rows that are already standardized: the runner fits the run's
only standardizer and applies it before selection, whatever the selector.
Components are sorted by descending eigenvalue, and each loading column is
sign-fixed so its largest-magnitude entry is non-negative, which makes
results deterministic for one BLAS build and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .preprocess import _BLOCK_ROWS, Rows, as_rows, column_sums

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


def fit_pca(x: np.ndarray | Rows) -> PCAModel:
    rows = as_rows(x, least=2)
    # np.cov's centred cross-products, summed over blocks of ``_BLOCK_ROWS`` rows
    # centred in place, so no centred copy of the input exists. The blocked sum
    # rounds differently from one product: about 1e-15 relative.
    mean = column_sums(rows) / rows.n
    cov = np.zeros((rows.p, rows.p))
    for _, block in rows.blocks(_BLOCK_ROWS):
        np.subtract(block, mean, out=block)
        cov += block.T @ block
    cov *= np.true_divide(1, rows.n - 1)

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


def transform(model: PCAModel, m: np.ndarray | Rows, k: int) -> np.ndarray:
    """Project standardized rows onto the first k components, ``_BLOCK_ROWS`` rows at a time.

    Each output row is its input row's product with the same loadings, so
    the blocks give the rows that one whole-matrix product would."""
    if not 1 <= k <= model.p:
        raise ConfigError(f"k must be in [1, {model.p}], got {k}")
    rows = as_rows(m)
    if rows.p != model.p:
        raise DataError(f"matrix has {rows.p} columns, model expects {model.p}")
    loadings = model.loadings[:, :k]
    out = np.empty((rows.n, k))
    for start, block in rows.blocks(_BLOCK_ROWS):
        np.matmul(block, loadings, out=out[start:start + len(block)])
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
