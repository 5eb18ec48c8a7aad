"""Tests for metadata packing/unpacking."""

import numpy as np
import pytest

from repro.errors import CompressionError
from repro.sparse import metadata
from repro.types import DEFAULT_GEOMETRY


class TestPackUnpack:
    def test_roundtrip(self, rng):
        indices = rng.integers(0, 4, size=(16, 32))
        packed = metadata.pack_indices(indices)
        assert np.array_equal(metadata.unpack_indices(packed, 16, 32), indices)

    def test_full_tile_metadata_is_128_bytes(self, rng):
        indices = rng.integers(0, 4, size=(16, 32))
        assert len(metadata.pack_indices(indices)) == DEFAULT_GEOMETRY.metadata_reg_bytes

    def test_small_roundtrip(self):
        indices = np.array([[0, 1, 2, 3]])
        packed = metadata.pack_indices(indices)
        assert len(packed) == 1
        assert np.array_equal(metadata.unpack_indices(packed, 1, 4), indices)

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(CompressionError):
            metadata.pack_indices(np.array([[0, 4, 0, 0]]))

    def test_rejects_negative_indices(self):
        with pytest.raises(CompressionError):
            metadata.pack_indices(np.array([[-1, 0, 0, 0]]))

    def test_rejects_partial_bytes(self):
        with pytest.raises(CompressionError):
            metadata.pack_indices(np.array([[0, 1, 2]]))

    def test_unpack_rejects_short_buffer(self):
        with pytest.raises(CompressionError):
            metadata.unpack_indices(b"\x00", 2, 32)


class TestMetadataSize:
    def test_default_is_one_mreg(self):
        assert metadata.metadata_nbytes() == DEFAULT_GEOMETRY.metadata_reg_bytes

    def test_scales_with_rows(self):
        assert metadata.metadata_nbytes(rows=8, nnz_per_row=32) == 64

    def test_validate_mreg_size(self):
        metadata.validate_mreg_size(b"\x00" * DEFAULT_GEOMETRY.metadata_reg_bytes)
        with pytest.raises(CompressionError):
            metadata.validate_mreg_size(
                b"\x00" * (DEFAULT_GEOMETRY.metadata_reg_bytes + 1)
            )


class TestSortedWithinBlocks:
    def test_sorted(self):
        indices = np.array([[0, 2, 1, 3]])
        assert metadata.indices_are_sorted_within_blocks(indices, 2)

    def test_unsorted(self):
        indices = np.array([[2, 0, 1, 3]])
        assert not metadata.indices_are_sorted_within_blocks(indices, 2)

    def test_single_nnz_blocks_trivially_sorted(self):
        indices = np.array([[3, 0, 1, 2]])
        assert metadata.indices_are_sorted_within_blocks(indices, 1)
