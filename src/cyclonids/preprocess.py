"""Column-wise standardization fitted on training data.

Each column is shifted to zero mean and scaled to unit sample standard
deviation (n-1 divisor). Constant columns are flagged and mapped to zeros
instead of blowing up: intrusion datasets routinely contain columns that are
constant on a subset.

The fits here and in ``pca`` read their input as ``Rows``: an n x p matrix
that is read a block of rows at a time into one reused buffer, so that a
split can be encoded, standardized and summed block by block without ever
existing whole. They take a matrix too, through ``as_rows``. The runner
reads every split's encoded rows through ``standardized``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError

_BLOCK_ROWS = 4096  # rows a blocked loop here or in pca works on at once


@dataclass(frozen=True)
class Rows:
    """An n x p float64 matrix read a block at a time: ``fill(start, stop, out)`` writes its
    rows start..stop into ``out`` and returns it. ``order`` is the layout of the buffers
    they are read into: the matrix's own, so numpy sums a block as it would the matrix."""

    n: int
    p: int
    fill: Callable[[int, int, np.ndarray], np.ndarray]
    order: str = "C"

    def blocks(self, step: int):
        """(start, block) for each ``step`` rows in turn, each read into one buffer: a block
        holds until the next is read, and may be overwritten."""
        buffer = np.empty((min(self.n, step), self.p), order=self.order)
        for start in range(0, self.n, step):
            stop = min(start + step, self.n)
            yield start, self.fill(start, stop, buffer[:stop - start])


def as_rows(m: np.ndarray | Rows, least: int = 1) -> Rows:
    """``m`` as Rows, which must number at least ``least``: a matrix is copied into each block."""
    if not isinstance(m, Rows):
        matrix = np.asarray(m, dtype=np.float64)
        if matrix.ndim != 2:
            raise DataError(f"need a 2-D matrix, got shape {matrix.shape}")

        def fill(start: int, stop: int, out: np.ndarray) -> np.ndarray:
            out[...] = matrix[start:stop]
            return out
        m = Rows(len(matrix), matrix.shape[1], fill, "C" if matrix.flags.c_contiguous else "F")
    if m.n < least:
        raise DataError(f"need a 2-D matrix with at least {least} rows, got shape {(m.n, m.p)}")
    return m


def column_sums(rows: Rows, prepare=None) -> np.ndarray:
    """Sum of each column, as ``numpy.sum(axis=0)`` of the matrix gives it, of the blocks
    after ``prepare(block)``, if given, has changed each in place.

    numpy reduces a C-contiguous matrix of two or more columns over axis 0
    row after row, so ``_BLOCK_ROWS`` blocks, each block's first row carrying
    the sum so far, add in the same order. A single column (or another
    layout) it sums pairwise: one block of all rows then."""
    total = None
    for start, block in rows.blocks(_BLOCK_ROWS if rows.order == "C" and rows.p > 1 else rows.n):
        if prepare is not None:
            prepare(block)
        if start:
            block[0] += total
        total = np.add.reduce(block, axis=0)
    return total


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


def fit_standardizer(m: np.ndarray | Rows) -> Standardizer:
    """Fit on the rows of a matrix or of ``Rows``, which are read twice: once for each
    column's sum, then once for its squared deviations, max and min. A non-finite mean
    or std (a sum that overflowed) raises DataError before any row is standardized."""
    rows = as_rows(m, least=2)
    high, low = np.full(rows.p, -np.inf), np.full(rows.p, np.inf)

    def squared_deviations(block: np.ndarray) -> None:
        np.maximum(high, block.max(axis=0), out=high)
        np.minimum(low, block.min(axis=0), out=low)
        np.subtract(block, means, out=block)
        np.multiply(block, block, out=block)

    with np.errstate(over="ignore", invalid="ignore"):
        means = column_sums(rows) / rows.n
        # m.std(axis=0, ddof=1) without its n x p temporary, summed as the means were.
        stds = np.sqrt(column_sums(rows, squared_deviations) / (rows.n - 1))
    if not (np.isfinite(means).all() and np.isfinite(stds).all()):
        raise DataError("feature matrix contains NaN or infinite entries")
    # A constant column must be flagged even when summation round-off keeps
    # the computed std a hair above zero; max == min is the exact test.
    flags = high == low
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


def all_finite(m: np.ndarray) -> bool:
    """Whether the non-empty ``m`` is all finite, from its min and max, which NaN and inf reach."""
    return bool(np.isfinite(m.min()) and np.isfinite(m.max()))


def standardized(s: Standardizer, rows: Rows) -> Rows:
    """``rows`` read through ``transform`` in place."""
    def fill(start: int, stop: int, out: np.ndarray) -> np.ndarray:
        return transform(s, rows.fill(start, stop, out), out=out)
    return Rows(rows.n, rows.p, fill, rows.order)
