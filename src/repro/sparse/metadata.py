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
from ..types import BLOCK_SIZE_M, METADATA_BITS_PER_NNZ


def _check_whole_bytes(nnz_per_row: int) -> None:
    if (nnz_per_row * METADATA_BITS_PER_NNZ) % 8 != 0:
        raise CompressionError(
            f"{nnz_per_row} indices per row do not pack into whole bytes"
        )


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
    _check_whole_bytes(nnz_per_row)
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
    _check_whole_bytes(nnz_per_row)
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
