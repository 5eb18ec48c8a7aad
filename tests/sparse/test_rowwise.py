"""Tests for row-wise sparsity and the unstructured -> row-wise transform."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SparsityError
from repro.sparse.pruning import prune_unstructured
from repro.sparse.rowwise import (
    RowWiseTile,
    compress_rowwise,
    group_rows_for_pseudo,
    spe_column_occupancy,
    transform_unstructured,
)
from repro.types import SparsityPattern


def _unstructured(rng, rows=16, cols=64, degree=0.9):
    matrix = rng.standard_normal((rows, cols)).astype(np.float32)
    return prune_unstructured(matrix, degree, rng=rng)


class TestTransformUnstructured:
    def test_lossless(self, rng):
        matrix = _unstructured(rng)
        tile = transform_unstructured(matrix)
        assert np.array_equal(tile.decompress(), matrix)

    def test_lossless_across_degrees(self, rng):
        for degree in (0.5, 0.7, 0.95):
            matrix = _unstructured(rng, degree=degree)
            assert np.array_equal(transform_unstructured(matrix).decompress(), matrix)

    def test_pattern_counts_sum_to_rows(self, rng):
        tile = transform_unstructured(_unstructured(rng, rows=24))
        assert sum(tile.pattern_counts.values()) == 24

    def test_high_sparsity_prefers_1_4(self, rng):
        matrix = _unstructured(rng, rows=64, cols=256, degree=0.97)
        tile = transform_unstructured(matrix)
        counts = tile.pattern_counts
        assert counts[SparsityPattern.SPARSE_1_4] > counts[SparsityPattern.DENSE_4_4]

    def test_dense_matrix_maps_to_4_4(self, rng):
        matrix = rng.standard_normal((8, 16)).astype(np.float32) + 1.0
        tile = transform_unstructured(matrix)
        assert all(p is SparsityPattern.DENSE_4_4 for p in tile.row_patterns)

    def test_rejects_bad_columns(self, rng):
        with pytest.raises(SparsityError):
            transform_unstructured(rng.standard_normal((4, 7)))

    def test_stored_elements_smaller_for_sparser(self, rng):
        sparse = transform_unstructured(_unstructured(rng, degree=0.95))
        dense = transform_unstructured(_unstructured(rng, degree=0.3))
        assert sum(map(len, sparse.row_values)) < sum(map(len, dense.row_values))


class TestTransformUnstructuredEdgeRows:
    def test_all_zero_rows_round_trip(self, rng):
        matrix = np.zeros((8, 32), dtype=np.float32)
        tile = transform_unstructured(matrix)
        assert np.array_equal(tile.decompress(), matrix)
        # A zero row needs no stored values beyond 1:4's mandatory slots.
        assert all(p is SparsityPattern.SPARSE_1_4 for p in tile.row_patterns)

    def test_mixed_zero_and_dense_rows(self, rng):
        matrix = np.zeros((4, 16), dtype=np.float32)
        matrix[1] = rng.standard_normal(16).astype(np.float32) + 2.0  # fully dense
        matrix[3, ::4] = 1.0  # exactly one non-zero per block
        tile = transform_unstructured(matrix)
        assert np.array_equal(tile.decompress(), matrix)
        assert tile.row_patterns[0] is SparsityPattern.SPARSE_1_4
        assert tile.row_patterns[1] is SparsityPattern.DENSE_4_4
        assert tile.row_patterns[3] is SparsityPattern.SPARSE_1_4

    def test_fully_dense_rows_use_4_4_and_round_trip(self, rng):
        matrix = rng.standard_normal((16, 64)).astype(np.float32)
        matrix[matrix == 0.0] = 1.0  # guarantee every element non-zero
        tile = transform_unstructured(matrix)
        assert all(p is SparsityPattern.DENSE_4_4 for p in tile.row_patterns)
        assert np.array_equal(tile.decompress(), matrix)

    def test_three_nonzeros_per_block_needs_4_4(self, rng):
        # 3 non-zeros in a block exceeds 2:4, so the covering must fall back
        # to the 4:4 pattern even though the row is not fully dense.
        matrix = np.zeros((1, 8), dtype=np.float32)
        matrix[0, [0, 1, 2]] = 1.0
        tile = transform_unstructured(matrix)
        assert tile.row_patterns[0] is SparsityPattern.DENSE_4_4
        assert np.array_equal(tile.decompress(), matrix)


@st.composite
def edge_biased_tiles(draw, max_rows=12, max_blocks=10):
    """Random unstructured tiles with forced all-zero and fully-dense rows."""
    rows = draw(st.integers(min_value=2, max_value=max_rows))
    blocks = draw(st.integers(min_value=1, max_value=max_blocks))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    degree = draw(st.floats(min_value=0.0, max_value=1.0))
    generator = np.random.default_rng(seed)
    matrix = generator.standard_normal((rows, blocks * 4)).astype(np.float32)
    matrix *= generator.random(matrix.shape) < degree
    zero_row = draw(st.integers(min_value=0, max_value=rows - 1))
    dense_row = draw(st.integers(min_value=0, max_value=rows - 1))
    matrix[zero_row] = 0.0
    matrix[dense_row] = np.abs(matrix[dense_row]) + 1.0
    return matrix.astype(np.float32)


@settings(max_examples=60, deadline=None)
@given(matrix=edge_biased_tiles())
def test_transform_round_trips_tiles_with_edge_rows(matrix):
    # decompress() == input even with all-zero and fully-dense (4:4) rows.
    tile = transform_unstructured(matrix)
    assert np.array_equal(tile.decompress(), matrix)
    assert len(tile.row_patterns) == matrix.shape[0]


class TestCompressRowwise:
    def test_roundtrip_with_explicit_patterns(self, rng):
        matrix = np.zeros((2, 8), dtype=np.float32)
        matrix[0, 0] = 1.0
        matrix[1] = [1, 2, 3, 4, 5, 6, 7, 8]
        tile = compress_rowwise(
            matrix, [SparsityPattern.SPARSE_1_4, SparsityPattern.DENSE_4_4]
        )
        assert np.array_equal(tile.decompress(), matrix)

    def test_pattern_count_mismatch(self, rng):
        with pytest.raises(SparsityError):
            compress_rowwise(np.zeros((2, 8)), [SparsityPattern.SPARSE_1_4])


class TestOccupancy:
    def test_spe_column_occupancy_formula(self, rng):
        matrix = np.zeros((4, 16), dtype=np.float32)
        matrix[0] = 1.0  # 4:4
        matrix[1, [0, 1]] = 1.0  # 2:4
        matrix[2, 0] = 1.0  # 1:4
        matrix[3, 4] = 1.0  # 1:4
        tile = transform_unstructured(matrix)
        assert spe_column_occupancy(tile) == pytest.approx(1 + 0.5 + 0.25 + 0.25)


class TestPseudoGrouping:
    def test_grouped_input_needs_no_reorder(self):
        patterns = [SparsityPattern.DENSE_4_4] * 2 + [SparsityPattern.SPARSE_1_4] * 3
        permutation = group_rows_for_pseudo(patterns)
        assert sorted(permutation) == list(range(5))
        assert permutation == list(range(5))

    def test_interleaved_input_needs_reorder(self):
        patterns = [
            SparsityPattern.SPARSE_1_4,
            SparsityPattern.DENSE_4_4,
            SparsityPattern.SPARSE_1_4,
        ]
        permutation = group_rows_for_pseudo(patterns)
        assert permutation != list(range(3))
        # Permuted order groups the two 1:4 rows together.
        grouped_patterns = [patterns[i] for i in permutation]
        assert grouped_patterns == sorted(
            grouped_patterns, key=lambda p: p is SparsityPattern.SPARSE_1_4
        )

    def test_rejects_rowwise_pattern(self):
        with pytest.raises(SparsityError):
            group_rows_for_pseudo([SparsityPattern.ROW_WISE])


class TestRowWiseTileValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(Exception):
            RowWiseTile(
                row_values=(np.zeros(4, dtype=np.float32),),
                row_indices=(),
                row_patterns=(SparsityPattern.SPARSE_1_4,),
                effective_shape=None,
            )
