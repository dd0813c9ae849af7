"""Column-wise standardization fitted on training data.

Each column is shifted to zero mean and scaled to unit sample standard
deviation (n-1 divisor). Constant columns are flagged and mapped to zeros
instead of blowing up: intrusion datasets routinely contain columns that are
constant on a subset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

_BLOCK_ROWS = 4096  # rows a blocked loop here, in pca or in dataset works on at once


@dataclass(frozen=True)
class Standardizer:
    means: np.ndarray
    stds: np.ndarray  # 1.0 where zero-variance
    zero_variance_flags: np.ndarray

    @property
    def p(self) -> int:
        return len(self.means)

    def to_text(self) -> str:
        lines = ["standardizer"]
        for m, s, z in zip(self.means, self.stds, self.zero_variance_flags):
            lines.append(f"{m!r} {s!r} {int(z)}")
        return "\n".join(lines)


def fit_standardizer(m: np.ndarray) -> Standardizer:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 2:
        raise DataError(f"need a 2-D matrix with at least 2 rows, got shape {m.shape}")
    means = m.mean(axis=0)
    # m.std(axis=0, ddof=1) without its n x p temporary: the squared deviations
    # are summed a block of rows at a time, each block's first row carrying
    # the sum so far. numpy reduces a C-contiguous matrix of two or more
    # columns over axis 0 row after row, so this is the same sum, bit for bit.
    # A single column (or another layout) it sums pairwise: one block then.
    # Each block of deviations goes into one buffer laid out like m, as
    # ``m - means`` would be.
    n, p = m.shape
    step = _BLOCK_ROWS if m.flags.c_contiguous and p > 1 else n
    total = np.zeros(p)
    buffer = np.empty_like(m, shape=(min(n, step), p))
    for start in range(0, n, step):
        rows = m[start:start + step]
        block = np.subtract(rows, means, out=buffer[:len(rows)])
        np.multiply(block, block, out=block)
        block[0] += total
        total = np.add.reduce(block, axis=0)
    stds = np.sqrt(total / (n - 1))
    # A constant column must be flagged even when summation round-off keeps
    # the computed std a hair above zero; max == min is the exact test.
    flags = m.max(axis=0) == m.min(axis=0)
    stds = np.where(flags, 1.0, stds)
    return Standardizer(means=means, stds=stds, zero_variance_flags=flags)


def transform(s: Standardizer, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(m - means) / stds`` with the constant columns zeroed, in a new matrix or in ``out``.

    ``out=m`` standardizes a writeable float64 ``m`` in place: the same
    elementwise operations, so the same bits, without a second matrix.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != s.p:
        raise DataError(f"matrix has {m.shape[1] if m.ndim == 2 else '?'} columns, standardizer expects {s.p}")
    out = np.subtract(m, s.means, out=out)
    out /= s.stds
    if s.zero_variance_flags.any():
        out[:, s.zero_variance_flags] = 0.0
    return out
