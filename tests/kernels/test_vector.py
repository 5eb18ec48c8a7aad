"""Tests for the vector (SIMD) baseline kernel."""

import pytest

from repro.errors import KernelError
from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.vector import build_vector_gemm_kernel
from repro.types import GemmShape


class TestVectorKernel:
    def test_fma_count_matches_mac_budget(self):
        shape = GemmShape(32, 32, 32)
        program = build_vector_gemm_kernel(shape, mr=4)
        summary = program.summary()
        # One 32-wide FMA per (row, k) pair per column block.
        assert summary.vector_fma == 32 * 32 * (32 // 32)

    @pytest.mark.parametrize("dim", [32, 64, 128])
    def test_estimate_matches_builder(self, dim):
        # Per (row block, column block): 5 loop-overhead ops, mr C loads, per
        # k one B load + mr broadcast FMAs + 2 loop ops, mr C stores.
        mr = 4
        per_block = 5 + mr + dim * (1 + mr + 2) + mr
        expected = (dim // mr) * (dim // 32) * per_block
        program = build_vector_gemm_kernel(GemmShape(dim, dim, dim), mr=mr)
        assert program.instruction_count == expected

    def test_many_more_instructions_than_matrix_kernel(self):
        shape = GemmShape(64, 64, 64)
        vector = build_vector_gemm_kernel(shape)
        matrix = build_dense_gemm_kernel(shape)
        assert vector.instruction_count > 10 * matrix.instruction_count

    def test_ratio_grows_with_gemm_size(self):
        ratios = []
        for dim in (32, 64, 128):
            shape = GemmShape(dim, dim, dim)
            ratios.append(
                build_vector_gemm_kernel(shape).instruction_count
                / build_dense_gemm_kernel(shape).instruction_count
            )
        assert ratios[0] < ratios[1] < ratios[2]

    def test_truncation(self):
        shape = GemmShape(64, 32, 32)
        truncated = build_vector_gemm_kernel(shape, max_row_blocks=4)
        assert truncated.simulated_fraction == pytest.approx(4 / 16)

    def test_invalid_blocking(self):
        with pytest.raises(KernelError):
            build_vector_gemm_kernel(GemmShape(16, 16, 16), mr=0)
