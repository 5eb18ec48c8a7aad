"""Tests for synthetic operand generation."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sparse.blocks import satisfies_nm
from repro.types import GemmShape, SparsityPattern
from repro.workloads.generator import (
    generate_dense,
    generate_dual_sparse,
    generate_structured,
    generate_unstructured,
    scaled_problem,
)


class TestGenerateDense:
    def test_shapes(self):
        shape = GemmShape(32, 48, 64)
        data = generate_dense(shape)
        assert data.a.shape == (32, 64) and data.b.shape == (64, 48)
        assert data.shape == shape

    def test_deterministic(self):
        shape = GemmShape(16, 16, 32)
        assert np.array_equal(generate_dense(shape, seed=5).a, generate_dense(shape, seed=5).a)

    def test_different_seeds_differ(self):
        shape = GemmShape(16, 16, 32)
        assert not np.array_equal(generate_dense(shape, seed=1).a, generate_dense(shape, seed=2).a)


class TestGenerateStructured:
    @pytest.mark.parametrize(
        "pattern", [SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4]
    )
    def test_a_satisfies_pattern(self, pattern):
        data = generate_structured(GemmShape(32, 32, 64), pattern, seed=0)
        assert satisfies_nm(data.a, pattern.n)
        assert data.sparsity_degree == pytest.approx(1 - pattern.density, abs=0.05)

    def test_rowwise_rejected(self):
        with pytest.raises(WorkloadError):
            generate_structured(GemmShape(16, 16, 32), SparsityPattern.ROW_WISE)


class TestGenerateUnstructured:
    def test_target_degree_reached(self):
        data = generate_unstructured(GemmShape(64, 64, 64), 0.9, seed=0)
        assert np.mean(data.a == 0) == pytest.approx(0.9, abs=0.01)
        assert data.pattern is SparsityPattern.ROW_WISE

    def test_invalid_degree(self):
        with pytest.raises(WorkloadError):
            generate_unstructured(GemmShape(16, 16, 16), 1.5)


class TestGenerateDualSparse:
    @pytest.mark.parametrize(
        "pattern_a, pattern_b",
        [
            (SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_2_4),
            (SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4),
            (SparsityPattern.SPARSE_1_4, SparsityPattern.SPARSE_2_4),
        ],
    )
    def test_a_rows_and_b_columns_satisfy_patterns(self, pattern_a, pattern_b):
        data = generate_dual_sparse(GemmShape(32, 48, 64), pattern_a, pattern_b, seed=2)
        assert satisfies_nm(data.a, pattern_a.n)
        # B is pruned column-wise along K: its transpose satisfies the pattern.
        assert satisfies_nm(data.b.T, pattern_b.n)
        assert data.shape == GemmShape(32, 48, 64)
        assert data.density_a == pytest.approx(pattern_a.density, abs=0.05)
        assert data.density_b == pytest.approx(pattern_b.density, abs=0.05)

    def test_deterministic(self):
        shape = GemmShape(16, 16, 64)
        first = generate_dual_sparse(
            shape, SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4, seed=9
        )
        second = generate_dual_sparse(
            shape, SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4, seed=9
        )
        assert np.array_equal(first.a, second.a)
        assert np.array_equal(first.b, second.b)

    def test_rowwise_rejected(self):
        with pytest.raises(WorkloadError):
            generate_dual_sparse(
                GemmShape(16, 16, 64),
                SparsityPattern.ROW_WISE,
                SparsityPattern.SPARSE_2_4,
            )


class TestScaledProblem:
    def test_small_problem_unchanged(self):
        shape = GemmShape(64, 64, 128)
        assert scaled_problem(shape) == shape

    def test_large_problem_shrinks_under_budget(self):
        shape = GemmShape(4096, 4096, 8192)
        scaled = scaled_problem(shape, max_elements=1 << 18)
        assert max(scaled.m * scaled.k, scaled.k * scaled.n) <= (1 << 18) * 1.5
        assert scaled.m % 16 == 0 and scaled.n % 16 == 0 and scaled.k % 128 == 0

    def test_preserves_tile_divisibility_minimums(self):
        scaled = scaled_problem(GemmShape(100000, 16, 100000), max_elements=1 << 10)
        assert scaled.m >= 16 and scaled.k >= 128

    def test_never_grows_a_dimension(self):
        # Regression: max(multiple, ...) used to round a small K *up* to its
        # tile multiple (64 -> 128) when another dimension blew the budget,
        # changing the problem shape and overshooting max_elements.
        shape = GemmShape(100000, 100000, 64)
        scaled = scaled_problem(shape, max_elements=1 << 12)
        assert scaled.k == 64
        assert scaled.m <= shape.m and scaled.n <= shape.n

    def test_sub_multiple_dimensions_survive(self):
        shape = GemmShape(8, 100000, 96)
        scaled = scaled_problem(shape, max_elements=1 << 10)
        assert scaled.m == 8  # below the 16-multiple: left alone, not grown
        assert scaled.k == 96  # below the 128-multiple: left alone, not grown
        assert scaled.n <= shape.n

    def test_result_dimensions_bounded_by_input(self):
        for shape in (
            GemmShape(24, 4096, 40),
            GemmShape(4096, 24, 200),
            GemmShape(512, 512, 100000),
        ):
            scaled = scaled_problem(shape, max_elements=1 << 12)
            assert scaled.m <= shape.m
            assert scaled.n <= shape.n
            assert scaled.k <= shape.k
