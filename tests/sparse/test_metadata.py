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

    @pytest.mark.parametrize(
        ("data", "rows", "nnz_per_row"),
        # The last case fills one whole byte, but neither of its rows does.
        [(b"\xff\xff", 2, 3), (b"\xff", 1, 5), (b"\xff", 2, 2)],
    )
    def test_unpack_rejects_partial_bytes(self, data, rows, nnz_per_row):
        with pytest.raises(CompressionError, match="do not pack into whole bytes"):
            metadata.unpack_indices(data, rows, nnz_per_row)

    def test_unpack_rejects_short_buffer(self):
        with pytest.raises(CompressionError):
            metadata.unpack_indices(b"\x00", 2, 32)


class TestMetadataSize:
    def test_scales_with_rows(self, rng):
        indices = rng.integers(0, 4, size=(8, 32))
        assert len(metadata.pack_indices(indices)) == 64
