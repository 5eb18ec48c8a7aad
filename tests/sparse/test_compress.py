"""Tests for N:4 tile compression/decompression."""

import numpy as np
import pytest

from repro.errors import CompressionError
from repro.sparse import blocks
from repro.sparse.compress import CompressedTile, compress
from repro.sparse.pruning import prune_to_pattern
from repro.types import SparsityPattern, TileShape


def _make_sparse(rng, rows, cols, pattern):
    return prune_to_pattern(
        rng.random((rows, cols), dtype=np.float32) + 0.1, pattern
    )


class TestCompress:
    @pytest.mark.parametrize(
        "pattern", [SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4]
    )
    def test_roundtrip(self, rng, pattern):
        matrix = _make_sparse(rng, 16, 64, pattern)
        assert np.array_equal(compress(matrix, pattern).decompress(), matrix)

    def test_dense_roundtrip(self, rng):
        matrix = rng.random((16, 32), dtype=np.float32)
        tile = compress(matrix, SparsityPattern.DENSE_4_4)
        assert np.array_equal(tile.decompress(), matrix)

    def test_stored_shape_2_4(self, rng):
        matrix = _make_sparse(rng, 16, 64, SparsityPattern.SPARSE_2_4)
        tile = compress(matrix, SparsityPattern.SPARSE_2_4)
        assert tile.values.shape == (16, 32)
        assert tile.effective_shape == TileShape(16, 64)

    def test_stored_shape_1_4(self, rng):
        matrix = _make_sparse(rng, 16, 128, SparsityPattern.SPARSE_1_4)
        tile = compress(matrix, SparsityPattern.SPARSE_1_4)
        assert tile.values.shape == (16, 32)
        assert tile.effective_shape == TileShape(16, 128)

    def test_metadata_bytes_length(self, rng):
        matrix = _make_sparse(rng, 16, 64, SparsityPattern.SPARSE_2_4)
        tile = compress(matrix, SparsityPattern.SPARSE_2_4)
        assert len(tile.metadata_bytes()) == 128

    def test_rejects_violating_matrix(self, rng):
        dense = rng.random((8, 16), dtype=np.float32) + 0.1
        with pytest.raises(CompressionError):
            compress(dense, SparsityPattern.SPARSE_2_4)

    def test_rejects_rowwise_pattern(self, rng):
        with pytest.raises(CompressionError):
            compress(np.zeros((4, 8)), SparsityPattern.ROW_WISE)

    def test_rejects_bad_column_count(self):
        with pytest.raises(CompressionError):
            compress(np.zeros((4, 6)), SparsityPattern.SPARSE_2_4)

    def test_zero_blocks_are_padded(self):
        matrix = np.zeros((1, 8), dtype=np.float32)
        matrix[0, 5] = 3.0
        tile = compress(matrix, SparsityPattern.SPARSE_2_4)
        assert np.array_equal(tile.decompress(), matrix)
        # Exactly two stored slots per block even when the block is empty.
        assert tile.values.shape == (1, 4)


class TestCompressedTileValidation:
    def test_mismatched_shapes_rejected(self):
        with pytest.raises(CompressionError):
            CompressedTile(
                values=np.zeros((2, 4), dtype=np.float32),
                indices=np.zeros((2, 3), dtype=np.int64),
                pattern=SparsityPattern.SPARSE_2_4,
                effective_shape=TileShape(2, 8),
            )

    def test_inconsistent_effective_shape_rejected(self):
        with pytest.raises(CompressionError):
            CompressedTile(
                values=np.zeros((2, 4), dtype=np.float32),
                indices=np.zeros((2, 4), dtype=np.int64),
                pattern=SparsityPattern.SPARSE_2_4,
                effective_shape=TileShape(2, 16),
            )


class TestStorageAccounting:
    @staticmethod
    def _stored_bytes(tile):
        # bf16 values plus the packed 2-bit positional metadata.
        return tile.values.size * 2 + len(tile.metadata_bytes())

    def test_compressed_smaller_than_dense(self, rng):
        matrix = _make_sparse(rng, 16, 64, SparsityPattern.SPARSE_2_4)
        tile = compress(matrix, SparsityPattern.SPARSE_2_4)
        assert self._stored_bytes(tile) < matrix.size * 2

    def test_compressed_bytes_value(self, rng):
        matrix = _make_sparse(rng, 16, 64, SparsityPattern.SPARSE_2_4)
        tile = compress(matrix, SparsityPattern.SPARSE_2_4)
        # 512 stored bf16 values + 128 bytes of metadata.
        assert self._stored_bytes(tile) == 512 * 2 + 128


class TestAutoCompression:
    def test_tile_pattern_picks_tightest(self, rng):
        matrix = _make_sparse(rng, 16, 64, SparsityPattern.SPARSE_1_4)
        pattern = blocks.tile_pattern(matrix)
        assert pattern is SparsityPattern.SPARSE_1_4
        tile = compress(matrix, pattern)
        assert tile.values.shape == (16, 16)
        assert np.array_equal(tile.decompress(), matrix)


class TestSortedWithinBlocks:
    def test_sorted(self, rng):
        matrix = _make_sparse(rng, 16, 64, SparsityPattern.SPARSE_2_4)
        indices = compress(matrix, SparsityPattern.SPARSE_2_4).indices
        # Figure 2 keeps each block's non-zeros in their original order.
        assert np.all(np.diff(indices.reshape(16, 16, 2), axis=2) > 0)
