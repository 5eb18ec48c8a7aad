"""Tests for magnitude pruning to structured / unstructured sparsity."""

import numpy as np
import pytest

from repro.errors import SparsityError
from repro.sparse import blocks
from repro.sparse.pruning import (
    prune_nm,
    prune_to_pattern,
    prune_unstructured,
)
from repro.types import SparsityPattern


class TestPruneNm:
    def test_result_satisfies_pattern(self, rng):
        matrix = rng.standard_normal((16, 64)).astype(np.float32)
        pruned = prune_nm(matrix, 2)
        assert blocks.satisfies_nm(pruned, 2)

    def test_keeps_largest_magnitudes(self):
        matrix = np.array([[1.0, -5.0, 2.0, 0.5]], dtype=np.float32)
        pruned = prune_nm(matrix, 2)
        assert pruned[0, 1] == -5.0
        assert pruned[0, 2] == 2.0
        assert pruned[0, 0] == 0.0 and pruned[0, 3] == 0.0

    def test_keeps_original_untouched(self, rng):
        matrix = rng.standard_normal((4, 8)).astype(np.float32)
        original = matrix.copy()
        prune_nm(matrix, 1)
        assert np.array_equal(matrix, original)

    def test_invalid_n_rejected(self):
        with pytest.raises(SparsityError):
            prune_nm(np.ones((2, 4)), 0)

    def test_n_equals_m_is_identity(self, rng):
        matrix = rng.standard_normal((4, 8)).astype(np.float32)
        assert np.array_equal(prune_nm(matrix, 4), matrix)


class TestPruneToPattern:
    def test_dense_is_copy(self, rng):
        matrix = rng.standard_normal((4, 8)).astype(np.float32)
        result = prune_to_pattern(matrix, SparsityPattern.DENSE_4_4)
        assert np.array_equal(result, matrix)
        assert result is not matrix

    def test_1_4(self, rng):
        matrix = rng.standard_normal((8, 32)).astype(np.float32)
        assert blocks.satisfies_nm(prune_to_pattern(matrix, SparsityPattern.SPARSE_1_4), 1)

    def test_rowwise_rejected(self):
        with pytest.raises(SparsityError):
            prune_to_pattern(np.ones((2, 4)), SparsityPattern.ROW_WISE)


class TestPruneUnstructured:
    def test_reaches_target_degree(self, rng):
        matrix = rng.standard_normal((32, 32)).astype(np.float32)
        pruned = prune_unstructured(matrix, 0.75, rng=rng)
        assert np.mean(pruned == 0) == pytest.approx(0.75, abs=0.01)

    def test_zero_degree_is_copy(self, rng):
        matrix = rng.standard_normal((8, 8)).astype(np.float32)
        assert np.array_equal(prune_unstructured(matrix, 0.0), matrix)

    def test_keeps_largest(self):
        matrix = np.array([[10.0, 1.0], [0.5, -20.0]], dtype=np.float32)
        pruned = prune_unstructured(matrix, 0.5)
        assert pruned[0, 0] == 10.0 and pruned[1, 1] == -20.0
        assert pruned[0, 1] == 0.0 and pruned[1, 0] == 0.0

    def test_invalid_degree(self):
        with pytest.raises(SparsityError):
            prune_unstructured(np.ones((2, 2)), 1.0)
