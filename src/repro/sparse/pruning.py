"""Pruning utilities: turning dense matrices into structured sparse ones.

The paper assumes weights have already been pruned offline (Section VI-B);
runtime never depends on weight values, only on the sparsity pattern.  To
drive the simulator we therefore need synthetic pruned matrices, and this
module provides the standard magnitude-pruning procedures used by the N:M
sparsity literature the paper cites ([52], [55]):

* :func:`prune_nm` — keep the N largest-magnitude entries of every block of
  M elements (produces layer-/tile-wise N:M sparsity),
* :func:`prune_unstructured` — keep the globally largest entries to reach a
  target sparsity degree (produces unstructured sparsity).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import SparsityError
from ..types import BLOCK_SIZE_M, SparsityPattern
from .blocks import as_blocks


def prune_nm(
    matrix: np.ndarray,
    n: int,
    m: int = BLOCK_SIZE_M,
) -> np.ndarray:
    """Magnitude-prune a matrix to N:M structured sparsity.

    Within every block of ``m`` consecutive elements along a row, only the
    ``n`` largest-magnitude elements are kept; the rest are zeroed.  Ties are
    broken toward lower column indices (numpy argsort stability).
    """
    if not 0 < n <= m:
        raise SparsityError(f"invalid N:M pruning target {n}:{m}")
    matrix = np.asarray(matrix, dtype=np.float32)
    blocks = as_blocks(matrix, m).copy()
    magnitudes = np.abs(blocks)
    # Indices of the (m - n) smallest magnitudes in each block get zeroed.
    order = np.argsort(magnitudes, axis=2, kind="stable")
    drop = order[:, :, : m - n]
    rows_idx, blocks_idx = np.meshgrid(
        np.arange(blocks.shape[0]), np.arange(blocks.shape[1]), indexing="ij"
    )
    for k in range(m - n):
        blocks[rows_idx, blocks_idx, drop[:, :, k]] = 0.0
    return blocks.reshape(matrix.shape)


def prune_to_pattern(
    matrix: np.ndarray, pattern: SparsityPattern
) -> np.ndarray:
    """Prune to one of the fixed hardware-supported patterns (1:4/2:4/4:4)."""
    if pattern is SparsityPattern.ROW_WISE:
        raise SparsityError(
            "row-wise sparsity comes from transform_unstructured, not pruning"
        )
    if pattern is SparsityPattern.DENSE_4_4:
        return np.asarray(matrix, dtype=np.float32).copy()
    return prune_nm(matrix, pattern.n, pattern.m)


def prune_unstructured(
    matrix: np.ndarray,
    sparsity_degree: float,
    *,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Prune to a target unstructured sparsity degree by global magnitude.

    ``sparsity_degree`` is the fraction of elements to zero (e.g. 0.95 keeps
    the top 5 % magnitudes).  When several elements tie at the threshold the
    choice among them is randomised with ``rng`` to avoid systematic column
    bias in synthetic integer-valued matrices.
    """
    if not 0.0 <= sparsity_degree < 1.0:
        raise SparsityError(
            f"sparsity degree must be in [0, 1), got {sparsity_degree}"
        )
    matrix = np.asarray(matrix, dtype=np.float32)
    total = matrix.size
    n_zero = int(round(total * sparsity_degree))
    if n_zero == 0:
        return matrix.copy()
    flat = np.abs(matrix).ravel()
    if rng is not None:
        # Random tie-break: add tiny noise strictly below the magnitude gap.
        jitter = rng.random(total) * 1e-12
        flat = flat + jitter
    order = np.argsort(flat, kind="stable")
    pruned = matrix.copy().ravel()
    pruned[order[:n_zero]] = 0.0
    return pruned.reshape(matrix.shape)
