"""Metadata encoding for compressed N:M sparse tiles.

Figure 2 of the paper shows the compression scheme: the non-zero values of
each block are stored contiguously and a pair of bits per non-zero records
its position within its block of M = 4 elements.  A metadata register (mreg)
holds 16 rows x 64 bits = 128 bytes, i.e. 2 bits for each of the 32 non-zeros
a tile-register row can hold.

This module provides the packing/unpacking between index arrays (one entry
per stored non-zero, value in ``[0, M)``) and the packed byte representation
loaded by ``TILE_LOAD_M``.
"""

from __future__ import annotations

import numpy as np

from ..errors import CompressionError
from ..types import BLOCK_SIZE_M, DEFAULT_GEOMETRY, METADATA_BITS_PER_NNZ


def pack_indices(indices: np.ndarray) -> bytes:
    """Pack an array of block positions into the mreg byte layout.

    ``indices`` has shape ``(rows, nnz_per_row)`` with values in
    ``[0, BLOCK_SIZE_M)``.  Each row is packed little-endian, two bits per
    index, into ``nnz_per_row / 4`` bytes; rows are concatenated in order.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 2:
        raise CompressionError(f"expected 2-D index array, got ndim={indices.ndim}")
    if indices.size and (indices.min() < 0 or indices.max() >= BLOCK_SIZE_M):
        raise CompressionError(
            f"metadata indices must lie in [0, {BLOCK_SIZE_M}), "
            f"got range [{indices.min()}, {indices.max()}]"
        )
    rows, nnz_per_row = indices.shape
    if (nnz_per_row * METADATA_BITS_PER_NNZ) % 8 != 0:
        raise CompressionError(
            f"{nnz_per_row} indices per row do not pack into whole bytes"
        )
    packed = bytearray()
    for row in range(rows):
        value = 0
        for position, index in enumerate(indices[row]):
            value |= int(index) << (METADATA_BITS_PER_NNZ * position)
        packed.extend(
            value.to_bytes(nnz_per_row * METADATA_BITS_PER_NNZ // 8, "little")
        )
    return bytes(packed)


def unpack_indices(data: bytes, rows: int, nnz_per_row: int) -> np.ndarray:
    """Inverse of :func:`pack_indices`.

    Returns an ``(rows, nnz_per_row)`` int array of block positions.
    """
    bytes_per_row = nnz_per_row * METADATA_BITS_PER_NNZ // 8
    expected = rows * bytes_per_row
    if len(data) < expected:
        raise CompressionError(
            f"metadata buffer too small: need {expected} bytes, got {len(data)}"
        )
    indices = np.zeros((rows, nnz_per_row), dtype=np.int64)
    for row in range(rows):
        chunk = data[row * bytes_per_row : (row + 1) * bytes_per_row]
        value = int.from_bytes(chunk, "little")
        for position in range(nnz_per_row):
            indices[row, position] = (
                value >> (METADATA_BITS_PER_NNZ * position)
            ) & (BLOCK_SIZE_M - 1)
    return indices


def metadata_nbytes(
    rows: int = DEFAULT_GEOMETRY.rows, nnz_per_row: int = DEFAULT_GEOMETRY.bf16_cols
) -> int:
    """Size in bytes of the metadata for a compressed tile.

    The default arguments describe a full tile register (16 rows of 32 stored
    non-zeros), which is exactly one 128-byte metadata register.
    """
    return rows * nnz_per_row * METADATA_BITS_PER_NNZ // 8


def validate_mreg_size(data: bytes) -> None:
    """Check that a metadata buffer fits in a single metadata register."""
    capacity = DEFAULT_GEOMETRY.metadata_reg_bytes
    if len(data) > capacity:
        raise CompressionError(
            f"metadata of {len(data)} bytes exceeds the {capacity}-byte mreg"
        )


def indices_are_sorted_within_blocks(
    indices: np.ndarray, nnz_per_block: int
) -> bool:
    """Check that the stored indices of each block are strictly increasing.

    The compression of Figure 2 stores the non-zeros of a block in their
    original order, so their positional indices must be strictly increasing
    within each group of ``nnz_per_block`` entries.
    """
    indices = np.asarray(indices)
    if indices.ndim != 2:
        raise CompressionError(f"expected 2-D index array, got ndim={indices.ndim}")
    if nnz_per_block <= 1:
        return True
    rows, nnz_per_row = indices.shape
    if nnz_per_row % nnz_per_block != 0:
        raise CompressionError(
            f"{nnz_per_row} indices per row do not divide into blocks of {nnz_per_block}"
        )
    grouped = indices.reshape(rows, nnz_per_row // nnz_per_block, nnz_per_block)
    return bool(np.all(np.diff(grouped, axis=2) > 0))
