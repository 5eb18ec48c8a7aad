"""Row-wise N:M sparsity and the unstructured -> row-wise transformation.

Section III-D of the paper observes that any unstructured sparse tile can be
covered *losslessly* by choosing, for each row independently, the tightest
supported N:4 pattern that includes all the row's non-zeros.  Section V-E
then maps such tiles onto the VEGETA-S engine: a 4:4 row occupies a whole SPE
column, a 2:4 row half of one, a 1:4 row a quarter (the pattern's
:attr:`~repro.types.SparsityPattern.density`), so the number of stored rows
(``HA``) and occupied SPE columns (``Ncols``) vary with the mix.

This module implements:

* :class:`RowWiseTile` — per-row compressed representation with per-row
  pattern metadata (the "extra metadata, 32x2 bits, or 8B, at most" of
  Section IV-B),
* :func:`transform_unstructured` — the lossless covering transformation,
* :func:`group_rows_for_pseudo` — the row reordering that produces the
  *pseudo* row-wise layout the hardware requires (consecutive rows sharing a
  pattern); the row-wise SPMM kernel takes its row order from it,
* :func:`spe_column_occupancy` — a tile's ``Ncols``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import CompressionError, SparsityError
from ..types import BLOCK_SIZE_M, SparsityPattern, TileShape
from .blocks import minimal_row_patterns
from .compress import compress


#: Canonical ordering used when grouping rows for the pseudo row-wise layout.
_PATTERN_ORDER: Tuple[SparsityPattern, ...] = (
    SparsityPattern.DENSE_4_4,
    SparsityPattern.SPARSE_2_4,
    SparsityPattern.SPARSE_1_4,
)


@dataclass(frozen=True)
class RowWiseTile:
    """A tile compressed with a potentially different N:4 pattern per row.

    Attributes
    ----------
    row_values:
        Per-row stored values; row ``i`` has ``effective_cols // ratio_i``
        entries where ``ratio_i`` is that row's compression ratio.
    row_indices:
        Per-row block positions matching ``row_values``.
    row_patterns:
        The pattern chosen for each row.
    effective_shape:
        Shape of the original (uncompressed) tile.
    """

    row_values: Tuple[np.ndarray, ...]
    row_indices: Tuple[np.ndarray, ...]
    row_patterns: Tuple[SparsityPattern, ...]
    effective_shape: TileShape

    def __post_init__(self) -> None:
        if not (
            len(self.row_values)
            == len(self.row_indices)
            == len(self.row_patterns)
            == self.effective_shape.rows
        ):
            raise CompressionError(
                "row-wise tile must have one values/indices/pattern entry per row"
            )
        for row, (values, indices, pattern) in enumerate(
            zip(self.row_values, self.row_indices, self.row_patterns)
        ):
            expected = self.effective_shape.cols // pattern.compression_ratio
            if values.shape != (expected,) or indices.shape != (expected,):
                raise CompressionError(
                    f"row {row}: stored length {values.shape} inconsistent with "
                    f"pattern {pattern.value} over {self.effective_shape.cols} columns"
                )

    @property
    def pattern_counts(self) -> Dict[SparsityPattern, int]:
        """Number of rows using each pattern (N4:4, N2:4, N1:4 of Section V-E)."""
        counts = {pattern: 0 for pattern in _PATTERN_ORDER}
        for pattern in self.row_patterns:
            counts[pattern] += 1
        return counts

    def decompress(self) -> np.ndarray:
        """Reconstruct the dense effective tile."""
        dense = np.zeros(
            (self.effective_shape.rows, self.effective_shape.cols),
            dtype=np.float32,
        )
        for row, (values, indices, pattern) in enumerate(
            zip(self.row_values, self.row_indices, self.row_patterns)
        ):
            n = pattern.n
            blocks = self.effective_shape.cols // BLOCK_SIZE_M
            for block in range(blocks):
                base = block * BLOCK_SIZE_M
                for slot in range(n):
                    stored = block * n + slot
                    value = values[stored]
                    if value != 0.0:
                        dense[row, base + int(indices[stored])] = value
        return dense


def transform_unstructured(matrix: np.ndarray) -> RowWiseTile:
    """Losslessly cover an unstructured sparse tile with row-wise N:4 sparsity.

    For each row the tightest supported pattern containing all of that row's
    non-zeros is selected (Section III-D); the result decompresses to exactly
    the input matrix.
    """
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise SparsityError(f"expected a 2-D matrix, got ndim={matrix.ndim}")
    if matrix.shape[1] % BLOCK_SIZE_M != 0:
        raise SparsityError(
            f"column count {matrix.shape[1]} is not a multiple of {BLOCK_SIZE_M}"
        )
    return compress_rowwise(matrix, minimal_row_patterns(matrix))


def compress_rowwise(
    matrix: np.ndarray, row_patterns: Sequence[SparsityPattern]
) -> RowWiseTile:
    """Compress a matrix whose rows already satisfy the given per-row patterns."""
    matrix = np.asarray(matrix, dtype=np.float32)
    if len(row_patterns) != matrix.shape[0]:
        raise SparsityError(
            f"need {matrix.shape[0]} row patterns, got {len(row_patterns)}"
        )
    row_values: List[np.ndarray] = []
    row_indices: List[np.ndarray] = []
    for row, pattern in enumerate(row_patterns):
        compressed = compress(matrix[row : row + 1], pattern)
        row_values.append(compressed.values[0])
        row_indices.append(compressed.indices[0])
    return RowWiseTile(
        row_values=tuple(row_values),
        row_indices=tuple(row_indices),
        row_patterns=tuple(row_patterns),
        effective_shape=TileShape(rows=matrix.shape[0], cols=matrix.shape[1]),
    )


def spe_column_occupancy(tile: RowWiseTile) -> float:
    """Occupied SPE columns, Ncols = N4:4 + N2:4/2 + N1:4/4 (Section V-E)."""
    return sum(pattern.density for pattern in tile.row_patterns)


def group_rows_for_pseudo(row_patterns: Sequence[SparsityPattern]) -> List[int]:
    """Reorder rows so rows sharing a pattern become consecutive.

    Rows are grouped as 4:4, then 2:4, then 1:4, each group in row-index
    order.  Returns the permutation: ``permutation[i]`` is the original
    index of the row placed at position ``i``.
    """
    for pattern in row_patterns:
        if pattern not in _PATTERN_ORDER:
            raise SparsityError(f"unsupported row pattern {pattern!r}")
    permutation: List[int] = []
    for pattern in _PATTERN_ORDER:
        permutation.extend(
            index for index, p in enumerate(row_patterns) if p is pattern
        )
    return permutation
