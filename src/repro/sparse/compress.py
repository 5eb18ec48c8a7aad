"""Compression and decompression of N:M structured sparse tiles.

The VEGETA ISA stores a sparse tile as (a) the non-zero values packed densely
into a tile register and (b) 2-bit positional metadata in a metadata register
(Figure 2).  :class:`CompressedTile` is the in-memory equivalent of that
pair, together with enough bookkeeping (the pattern and effective shape) to
reconstruct the original matrix exactly.

Compression is defined for matrices that already satisfy the target pattern;
blocks holding fewer than N non-zeros are padded with explicit zero values so
that every block contributes exactly N stored entries, keeping the stored
layout rectangular — exactly what the fixed-size tile registers require.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CompressionError
from ..types import BLOCK_SIZE_M, SparsityPattern, TileShape
from . import metadata as metadata_mod
from .blocks import satisfies_nm


@dataclass(frozen=True)
class CompressedTile:
    """A compressed N:4 structured sparse tile.

    Attributes
    ----------
    values:
        Stored (non-zero plus padding) values, shape
        ``(rows, effective_cols // compression_ratio)``, float32.
    indices:
        Block position of each stored value, same shape as ``values``,
        values in ``[0, 4)``.
    pattern:
        The N:4 pattern the tile was compressed with.
    effective_shape:
        Shape of the original (uncompressed) tile.
    """

    values: np.ndarray
    indices: np.ndarray
    pattern: SparsityPattern
    effective_shape: TileShape

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float32)
        indices = np.asarray(self.indices, dtype=np.int64)
        if values.shape != indices.shape:
            raise CompressionError(
                f"values shape {values.shape} != indices shape {indices.shape}"
            )
        if values.ndim != 2:
            raise CompressionError("compressed tile data must be 2-D")
        expected_cols = (
            self.effective_shape.cols // self.pattern.compression_ratio
        )
        if values.shape != (self.effective_shape.rows, expected_cols):
            raise CompressionError(
                f"stored shape {values.shape} inconsistent with effective shape "
                f"{self.effective_shape} under pattern {self.pattern.value}"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "indices", indices)

    @property
    def stored_shape(self) -> TileShape:
        """Shape of the stored (compressed) value array."""
        return TileShape(rows=self.values.shape[0], cols=self.values.shape[1])

    @property
    def nnz_per_block(self) -> int:
        """Stored entries per block of 4 effective elements (the pattern's N)."""
        return self.pattern.n

    def metadata_bytes(self) -> bytes:
        """Pack the positional indices into the mreg byte layout."""
        return metadata_mod.pack_indices(self.indices)

    def decompress(self) -> np.ndarray:
        """Reconstruct the dense (effective) tile as a float32 matrix."""
        rows, stored_cols = self.values.shape
        n = self.pattern.n
        dense = np.zeros(
            (rows, self.effective_shape.cols), dtype=np.float32
        )
        blocks = stored_cols // n
        for row in range(rows):
            for block in range(blocks):
                base = block * BLOCK_SIZE_M
                for slot in range(n):
                    stored = block * n + slot
                    position = int(self.indices[row, stored])
                    value = self.values[row, stored]
                    if value != 0.0:
                        dense[row, base + position] = value
        return dense


def compress(matrix: np.ndarray, pattern: SparsityPattern) -> CompressedTile:
    """Compress an N:4 structured sparse matrix into a :class:`CompressedTile`.

    Parameters
    ----------
    matrix:
        The dense representation of the tile; its column count must be a
        multiple of 4 and it must satisfy ``pattern`` (a block with more than
        N non-zeros raises :class:`CompressionError`).
    pattern:
        One of the fixed N:4 patterns.  ``ROW_WISE`` is not accepted here;
        use :mod:`repro.sparse.rowwise` for row-wise compression.
    """
    if pattern is SparsityPattern.ROW_WISE:
        raise CompressionError(
            "row-wise tiles must be compressed with repro.sparse.rowwise"
        )
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise CompressionError(f"expected a 2-D matrix, got ndim={matrix.ndim}")
    rows, cols = matrix.shape
    if cols % BLOCK_SIZE_M != 0:
        raise CompressionError(
            f"column count {cols} is not a multiple of the block size {BLOCK_SIZE_M}"
        )
    n = pattern.n
    if not satisfies_nm(matrix, n):
        raise CompressionError(
            f"matrix does not satisfy {pattern.value} structured sparsity"
        )
    blocks = cols // BLOCK_SIZE_M
    values = np.zeros((rows, blocks * n), dtype=np.float32)
    indices = np.zeros((rows, blocks * n), dtype=np.int64)
    for row in range(rows):
        for block in range(blocks):
            base = block * BLOCK_SIZE_M
            block_values = matrix[row, base : base + BLOCK_SIZE_M]
            nonzero_positions = np.flatnonzero(block_values)
            # Fill the stored slots: real non-zeros first, then padding slots
            # pointing at (necessarily zero) remaining positions so indices
            # stay strictly increasing within the block.
            slot_positions = list(nonzero_positions)
            for candidate in range(BLOCK_SIZE_M):
                if len(slot_positions) == n:
                    break
                if candidate not in slot_positions:
                    slot_positions.append(candidate)
            slot_positions = sorted(slot_positions[:n])
            for slot, position in enumerate(slot_positions):
                stored = block * n + slot
                values[row, stored] = block_values[position]
                indices[row, stored] = position
    return CompressedTile(
        values=values,
        indices=indices,
        pattern=pattern,
        effective_shape=TileShape(rows=rows, cols=cols),
    )


def decompress(tile: CompressedTile) -> np.ndarray:
    """Functional alias for :meth:`CompressedTile.decompress`."""
    return tile.decompress()


def compressed_nbytes(tile: CompressedTile, element_bytes: int = 2) -> int:
    """Bytes needed to store the compressed values plus metadata.

    ``element_bytes`` defaults to 2 (BF16 weights).  Metadata costs 2 bits per
    stored value.
    """
    stored = tile.values.size
    return stored * element_bytes + stored * 2 // 8


def dense_nbytes(tile: CompressedTile, element_bytes: int = 2) -> int:
    """Bytes needed to store the effective tile densely."""
    return tile.effective_shape.size * element_bytes


def roundtrip_equal(matrix: np.ndarray, pattern: SparsityPattern) -> bool:
    """Check that compression followed by decompression is lossless."""
    tile = compress(matrix, pattern)
    return bool(np.array_equal(tile.decompress(), np.asarray(matrix, np.float32)))


def from_dense_auto(matrix: np.ndarray) -> CompressedTile:
    """Compress with the tightest fixed pattern the matrix satisfies."""
    from .blocks import tile_pattern

    return compress(matrix, tile_pattern(matrix))
