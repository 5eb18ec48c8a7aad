"""Tests for block-level N:M sparsity checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SparsityError
from repro.sparse import blocks
from repro.types import SparsityPattern


class TestAsBlocks:
    def test_shape(self):
        matrix = np.arange(32, dtype=np.float32).reshape(4, 8)
        assert blocks.as_blocks(matrix).shape == (4, 2, 4)

    def test_values_preserved(self):
        matrix = np.arange(8, dtype=np.float32).reshape(1, 8)
        result = blocks.as_blocks(matrix)
        assert np.array_equal(result[0, 1], [4, 5, 6, 7])

    def test_rejects_non_multiple_columns(self):
        with pytest.raises(SparsityError):
            blocks.as_blocks(np.zeros((2, 6)))

    def test_rejects_1d(self):
        with pytest.raises(SparsityError):
            blocks.as_blocks(np.zeros(8))


class TestBlockNnz:
    def test_counts(self):
        matrix = np.array([[1, 0, 0, 2, 0, 0, 0, 0]], dtype=np.float32)
        assert np.array_equal(blocks.block_nnz(matrix), [[2, 0]])

    def test_full_blocks(self):
        matrix = np.ones((2, 8), dtype=np.float32)
        assert np.array_equal(blocks.block_nnz(matrix), [[4, 4], [4, 4]])


class TestSatisfiesNm:
    def test_dense_satisfies_4_4(self):
        assert blocks.satisfies_nm(np.ones((4, 8)), 4)

    def test_dense_fails_2_4(self):
        assert not blocks.satisfies_nm(np.ones((4, 8)), 2)

    def test_2_4_matrix(self):
        matrix = np.array([[1, 2, 0, 0, 0, 3, 0, 4]], dtype=np.float32)
        assert blocks.satisfies_nm(matrix, 2)
        assert not blocks.satisfies_nm(matrix, 1)

    def test_invalid_n(self):
        with pytest.raises(SparsityError):
            blocks.satisfies_nm(np.ones((1, 4)), 5)


class TestSatisfiesPattern:
    def test_fixed_patterns(self):
        matrix = np.array([[1, 0, 0, 0, 0, 2, 0, 0]], dtype=np.float32)
        assert blocks.satisfies_pattern(matrix, SparsityPattern.SPARSE_1_4)
        assert blocks.satisfies_pattern(matrix, SparsityPattern.SPARSE_2_4)
        assert blocks.satisfies_pattern(matrix, SparsityPattern.DENSE_4_4)

    def test_rowwise_only_needs_block_multiple(self):
        assert blocks.satisfies_pattern(np.ones((3, 8)), SparsityPattern.ROW_WISE)
        assert not blocks.satisfies_pattern(np.ones((3, 6)), SparsityPattern.ROW_WISE)


class TestRowPatterns:
    def test_minimal_row_patterns(self):
        matrix = np.array(
            [
                [1, 1, 1, 1, 0, 0, 0, 0],  # needs 4:4
                [1, 1, 0, 0, 1, 0, 0, 0],  # needs 2:4
                [1, 0, 0, 0, 0, 0, 0, 1],  # needs 1:4
                [0, 0, 0, 0, 0, 0, 0, 0],  # zero row -> 1:4
            ],
            dtype=np.float32,
        )
        patterns = blocks.minimal_row_patterns(matrix)
        assert patterns == [
            SparsityPattern.DENSE_4_4,
            SparsityPattern.SPARSE_2_4,
            SparsityPattern.SPARSE_1_4,
            SparsityPattern.SPARSE_1_4,
        ]

    def test_three_nnz_block_rounds_to_dense(self):
        matrix = np.array([[1, 1, 1, 0]], dtype=np.float32)
        assert blocks.minimal_row_patterns(matrix) == [SparsityPattern.DENSE_4_4]

    def test_row_pattern_requirements(self):
        matrix = np.array([[1, 1, 0, 0, 1, 1, 1, 0]], dtype=np.float32)
        assert blocks.row_pattern_requirements(matrix)[0] == 3


class TestTilePattern:
    def test_tile_pattern_is_tightest_covering(self):
        matrix = np.zeros((4, 8), dtype=np.float32)
        matrix[0, 0] = 1.0
        assert blocks.tile_pattern(matrix) is SparsityPattern.SPARSE_1_4
        matrix[0, 1] = 1.0
        assert blocks.tile_pattern(matrix) is SparsityPattern.SPARSE_2_4
        matrix[0, 2] = 1.0
        assert blocks.tile_pattern(matrix) is SparsityPattern.DENSE_4_4


@st.composite
def unstructured_matrices(draw, max_rows=10, max_blocks=8):
    """Random matrices whose blocks hold anywhere from 0 to 4 non-zeros."""
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = 4 * draw(st.integers(min_value=1, max_value=max_blocks))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    keep = draw(st.floats(min_value=0.0, max_value=1.0))
    generator = np.random.default_rng(seed)
    matrix = generator.standard_normal((rows, cols)).astype(np.float32) + 3.0
    return matrix * (generator.random((rows, cols)) < keep)


class TestCoveringRule:
    @settings(max_examples=60, deadline=None)
    @given(matrix=unstructured_matrices())
    def test_row_and_tile_patterns_cover_the_densest_block(self, matrix):
        per_block = blocks.block_nnz(matrix)
        patterns = blocks.minimal_row_patterns(matrix)
        assert len(patterns) == matrix.shape[0]
        for row, pattern in enumerate(patterns):
            assert pattern is SparsityPattern.covering(int(per_block[row].max()))
            assert blocks.satisfies_pattern(matrix[row : row + 1], pattern)
        assert blocks.tile_pattern(matrix) is SparsityPattern.covering(int(per_block.max()))


class TestDensity:
    def test_density_and_degree_sum_to_one(self, rng):
        matrix = rng.random((8, 16))
        matrix[matrix < 0.5] = 0
        assert blocks.density(matrix) + blocks.sparsity_degree(matrix) == pytest.approx(1.0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(SparsityError):
            blocks.density(np.zeros((0, 4)))
