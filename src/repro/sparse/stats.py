"""Sparsity statistics and reporting helpers.

Small, composable measurements of one matrix, exported by
:mod:`repro.sparse` for interactive use: sparsity degree, per-row/block
histograms, storage savings from compression, and the distribution of
minimal row patterns in an unstructured matrix (which determines how well
the row-wise transformation of Section III-D can exploit it).  No analysis
model or benchmark reads them; Figure 15 comes from
:mod:`repro.analysis.granularity`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..types import BLOCK_SIZE_M, SparsityPattern
from .blocks import block_nnz, density, minimal_row_patterns, sparsity_degree


@dataclass(frozen=True)
class SparsitySummary:
    """Aggregate sparsity statistics for a single matrix."""

    rows: int
    cols: int
    nnz: int
    density: float
    sparsity_degree: float
    block_nnz_histogram: Dict[int, int]
    row_pattern_histogram: Dict[SparsityPattern, int]

    @property
    def total_elements(self) -> int:
        """Total number of elements in the matrix."""
        return self.rows * self.cols


def summarize(matrix: np.ndarray) -> SparsitySummary:
    """Compute a :class:`SparsitySummary` for a 2-D matrix."""
    matrix = np.asarray(matrix)
    nnz_per_block = block_nnz(matrix)
    block_histogram = {
        count: int(np.count_nonzero(nnz_per_block == count))
        for count in range(BLOCK_SIZE_M + 1)
    }
    pattern_histogram: Dict[SparsityPattern, int] = {
        SparsityPattern.SPARSE_1_4: 0,
        SparsityPattern.SPARSE_2_4: 0,
        SparsityPattern.DENSE_4_4: 0,
    }
    for pattern in minimal_row_patterns(matrix):
        pattern_histogram[pattern] += 1
    return SparsitySummary(
        rows=matrix.shape[0],
        cols=matrix.shape[1],
        nnz=int(np.count_nonzero(matrix)),
        density=density(matrix),
        sparsity_degree=sparsity_degree(matrix),
        block_nnz_histogram=block_histogram,
        row_pattern_histogram=pattern_histogram,
    )


def storage_savings(
    matrix: np.ndarray,
    pattern: SparsityPattern,
    element_bytes: int = 2,
) -> float:
    """Fractional storage saved by compressing with a fixed N:4 pattern.

    Includes the metadata cost (2 bits per stored element).  A 2:4 tile saves
    roughly 43.75 % (half the values, plus an eighth of a byte of metadata per
    stored BF16 value).
    """
    rows, cols = np.asarray(matrix).shape
    dense_bytes = rows * cols * element_bytes
    stored = rows * cols // pattern.compression_ratio
    compressed_bytes = stored * element_bytes + stored * 2 // 8
    return 1.0 - compressed_bytes / dense_bytes


def rowwise_storage_bytes(matrix: np.ndarray, element_bytes: int = 2) -> int:
    """Bytes needed to store a matrix row-wise compressed (values + metadata)."""
    total = 0
    cols = np.asarray(matrix).shape[1]
    for pattern in minimal_row_patterns(matrix):
        stored = cols // pattern.compression_ratio
        total += stored * element_bytes + stored * 2 // 8
    # Per-row pattern selector: 2 bits per row.
    total += (np.asarray(matrix).shape[0] * 2 + 7) // 8
    return total


def effectual_mac_fraction(matrix: np.ndarray) -> float:
    """Fraction of dense MACs that involve a non-zero weight.

    This is the compute-skipping opportunity an ideal sparse engine has when
    the matrix is used as the stationary (weight) operand.
    """
    return density(matrix)
