"""Block-level views and checks for N:M structured sparsity.

An N:M structured sparse matrix constrains every block of M consecutive
elements along a row to contain at most N non-zeros (Section II-C of the
paper).  This module provides the low-level helpers for slicing matrices into
blocks, checking whether a matrix satisfies a given pattern, and determining
the tightest N:4 pattern that covers each row — the primitive behind the
unstructured -> row-wise transformation of Section III-D.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import SparsityError
from ..types import BLOCK_SIZE_M, SparsityPattern


def as_blocks(matrix: np.ndarray, block_size: int = BLOCK_SIZE_M) -> np.ndarray:
    """Reshape a 2-D matrix into row-major blocks along the column axis.

    Returns an array of shape ``(rows, cols // block_size, block_size)``.
    The number of columns must be a multiple of ``block_size``.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise SparsityError(f"expected a 2-D matrix, got ndim={matrix.ndim}")
    rows, cols = matrix.shape
    if cols % block_size != 0:
        raise SparsityError(
            f"column count {cols} is not a multiple of the block size {block_size}"
        )
    return matrix.reshape(rows, cols // block_size, block_size)


def block_nnz(matrix: np.ndarray, block_size: int = BLOCK_SIZE_M) -> np.ndarray:
    """Count non-zeros in each block; shape ``(rows, cols // block_size)``."""
    blocks = as_blocks(matrix, block_size)
    return np.count_nonzero(blocks, axis=2)


def satisfies_nm(
    matrix: np.ndarray, n: int, m: int = BLOCK_SIZE_M
) -> bool:
    """Return True if every block of ``m`` elements has at most ``n`` non-zeros."""
    if n < 0 or n > m:
        raise SparsityError(f"invalid N:M pattern {n}:{m}")
    return bool(np.all(block_nnz(matrix, m) <= n))


def satisfies_pattern(matrix: np.ndarray, pattern: SparsityPattern) -> bool:
    """Return True if ``matrix`` satisfies the given fixed N:4 pattern.

    For :attr:`SparsityPattern.ROW_WISE` this is trivially true for any matrix
    whose column count is a multiple of 4, because every row can be covered by
    some N:4 choice (4:4 in the worst case).
    """
    if pattern is SparsityPattern.ROW_WISE:
        cols = np.asarray(matrix).shape[1]
        return cols % BLOCK_SIZE_M == 0
    return satisfies_nm(matrix, pattern.n, pattern.m)


def row_pattern_requirements(
    matrix: np.ndarray, block_size: int = BLOCK_SIZE_M
) -> np.ndarray:
    """Maximum per-block non-zero count for each row.

    This is the smallest N such that the row satisfies N:``block_size``
    sparsity; a zero row reports 0.
    """
    return block_nnz(matrix, block_size).max(axis=1)


def minimal_row_patterns(matrix: np.ndarray) -> List[SparsityPattern]:
    """Tightest supported N:4 pattern covering every non-zero of each row.

    Each row gets :meth:`SparsityPattern.covering` of its densest block, so a
    row needing 3 non-zeros per block is rounded up to 4:4 and an all-zero
    row is reported as 1:4 (the cheapest representation that still occupies
    a lane).  This is the transformation of Section III-D.
    """
    return [
        SparsityPattern.covering(int(requirement))
        for requirement in row_pattern_requirements(matrix)
    ]


def tile_pattern(matrix: np.ndarray) -> SparsityPattern:
    """Tightest supported N:4 pattern that covers every non-zero of the tile.

    This is the tile-wise granularity of Figure 1(b): one pattern, the
    :meth:`SparsityPattern.covering` of the tile's densest block, chosen for
    the whole tile.
    """
    return SparsityPattern.covering(int(block_nnz(matrix).max(initial=0)))


def density(matrix: np.ndarray) -> float:
    """Fraction of non-zero elements in the matrix."""
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        raise SparsityError("cannot compute density of an empty matrix")
    return float(np.count_nonzero(matrix)) / matrix.size


def sparsity_degree(matrix: np.ndarray) -> float:
    """Fraction of zero elements in the matrix (the paper's 'sparsity degree')."""
    return 1.0 - density(matrix)
