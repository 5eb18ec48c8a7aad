"""Figure 4's dynamic instruction counts, read from the built kernels.

Figure 4 counts the instructions of trace-only builds, so a count must not
depend on whether the kernel carries data.  The vector-vs-matrix ratios
themselves are also asserted by ``benchmarks/test_fig04_vector_vs_matrix.py``.
"""

import pytest

from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.spmm import build_spmm_kernel
from repro.kernels.vector import build_vector_gemm_kernel
from repro.types import GemmShape, SparsityPattern
from repro.workloads.generator import generate_structured

FIGURE4_DIMENSIONS = (32, 64, 128)


def _build_matrix_kernel(shape, pattern, data=None):
    operands = {} if data is None else {"a": data.a, "b": data.b}
    if pattern is SparsityPattern.DENSE_4_4:
        return build_dense_gemm_kernel(shape, **operands)
    return build_spmm_kernel(shape, pattern, **operands)


class TestMatrixKernelCounts:
    @pytest.mark.parametrize(
        "pattern",
        [SparsityPattern.DENSE_4_4, SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4],
        ids=lambda pattern: pattern.value,
    )
    def test_trace_only_build_issues_the_data_builds_instructions(self, pattern):
        shape = GemmShape(64, 64, 256)
        data = generate_structured(shape, pattern, seed=0)
        trace_only = _build_matrix_kernel(shape, pattern)
        with_data = _build_matrix_kernel(shape, pattern, data)
        assert trace_only.instruction_count == with_data.instruction_count
        assert trace_only.summary() == with_data.summary()

    def test_sparse_kernels_need_fewer_instructions(self):
        shape = GemmShape(64, 64, 512)
        dense = build_dense_gemm_kernel(shape).instruction_count
        half = build_spmm_kernel(shape, SparsityPattern.SPARSE_2_4).instruction_count
        quarter = build_spmm_kernel(shape, SparsityPattern.SPARSE_1_4).instruction_count
        assert quarter < half < dense


def _figure4_kernels():
    for dimension in FIGURE4_DIMENSIONS:
        shape = GemmShape(dimension, dimension, dimension)
        yield dimension, build_vector_gemm_kernel(shape), build_dense_gemm_kernel(shape)


class TestFigure4:
    def test_ratios_in_the_tens(self):
        # Figure 4 reports vector/matrix instruction ratios between ~20 and ~60.
        for dimension, vector, matrix in _figure4_kernels():
            ratio = vector.instruction_count / matrix.instruction_count
            assert 10 < ratio < 150, f"dimension {dimension} ratio {ratio}"

    def test_each_kernel_issues_only_its_engines_instructions(self):
        for dimension, vector, matrix in _figure4_kernels():
            vector_mix = vector.summary()
            matrix_mix = matrix.summary()
            assert vector_mix.tile_compute + vector_mix.tile_load + vector_mix.tile_store == 0, dimension
            assert vector_mix.vector_fma > 0, dimension
            assert matrix_mix.vector_fma + matrix_mix.vector_load + matrix_mix.vector_store == 0, dimension
            assert matrix_mix.tile_compute > 0, dimension
