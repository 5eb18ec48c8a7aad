"""Tests for the structured-sparse and row-wise SPMM kernel generators."""

import numpy as np
import pytest
from reference_checks import validate_kernel

from repro.errors import KernelError
from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.spmm import build_rowwise_spmm_kernel, build_spmm_kernel
from repro.sparse.blocks import minimal_row_patterns
from repro.sparse.rowwise import group_rows_for_pseudo
from repro.types import GemmShape, SparsityPattern
from repro.workloads.generator import generate_structured, generate_unstructured


class TestTraceStructure:
    def test_2_4_kernel_halves_compute_instructions(self):
        shape = GemmShape(64, 64, 256)
        dense = build_dense_gemm_kernel(shape)
        sparse = build_spmm_kernel(shape, SparsityPattern.SPARSE_2_4)
        assert sparse.summary().tile_compute * 2 == dense.summary().tile_compute

    def test_1_4_kernel_quarters_compute_instructions(self):
        shape = GemmShape(64, 64, 256)
        dense = build_dense_gemm_kernel(shape)
        sparse = build_spmm_kernel(shape, SparsityPattern.SPARSE_1_4)
        assert sparse.summary().tile_compute * 4 == dense.summary().tile_compute

    def test_metadata_loads_accompany_each_spmm(self):
        program = build_spmm_kernel(GemmShape(32, 32, 128), SparsityPattern.SPARSE_2_4)
        summary = program.summary()
        # One metadata load per compressed A tile load, i.e. per SPMM issued.
        assert summary.by_opcode["TILE_LOAD_M"] == summary.by_opcode["TILE_SPMM_U"]
        assert summary.by_opcode["TILE_LOAD_M"] > 0

    def test_b_loads_use_wider_registers(self):
        program_u = build_spmm_kernel(GemmShape(32, 32, 128), SparsityPattern.SPARSE_2_4)
        program_v = build_spmm_kernel(GemmShape(32, 32, 256), SparsityPattern.SPARSE_1_4)
        assert "TILE_LOAD_U" in program_u.summary().by_opcode
        assert "TILE_LOAD_V" in program_v.summary().by_opcode

    def test_dense_pattern_rejected(self):
        with pytest.raises(KernelError):
            build_spmm_kernel(GemmShape(16, 16, 64), SparsityPattern.DENSE_4_4)

    def test_unpruned_a_rejected(self, rng):
        shape = GemmShape(16, 16, 64)
        a = rng.standard_normal((16, 64)).astype(np.float32) + 1.0
        b = rng.standard_normal((64, 16)).astype(np.float32)
        with pytest.raises(KernelError):
            build_spmm_kernel(shape, SparsityPattern.SPARSE_2_4, a=a, b=b)

    def test_truncation_fraction(self):
        program = build_spmm_kernel(
            GemmShape(128, 128, 128), SparsityPattern.SPARSE_2_4, max_output_tiles=2
        )
        assert program.simulated_fraction == pytest.approx(2 / 64)


class TestNumericalCorrectness:
    @pytest.mark.parametrize(
        "pattern,dims",
        [
            (SparsityPattern.SPARSE_2_4, (32, 32, 64)),
            (SparsityPattern.SPARSE_2_4, (48, 16, 128)),
            (SparsityPattern.SPARSE_2_4, (16, 48, 192)),
            (SparsityPattern.SPARSE_1_4, (32, 32, 128)),
            (SparsityPattern.SPARSE_1_4, (16, 32, 256)),
            (SparsityPattern.SPARSE_1_4, (48, 16, 128)),
        ],
    )
    def test_matches_reference(self, pattern, dims):
        shape = GemmShape(*dims)
        data = generate_structured(shape, pattern, seed=sum(dims))
        program = build_spmm_kernel(shape, pattern, a=data.a, b=data.b)
        matches, error = validate_kernel(program, data.a, data.b)
        assert matches, f"max error {error}"

    def test_unpadded_dimensions(self):
        shape = GemmShape(m=30, n=20, k=100)
        data = generate_structured(shape, SparsityPattern.SPARSE_2_4, seed=5)
        program = build_spmm_kernel(shape, SparsityPattern.SPARSE_2_4, a=data.a, b=data.b)
        matches, _ = validate_kernel(program, data.a, data.b)
        assert matches


class TestRowWiseKernel:
    @pytest.mark.parametrize("degree", [0.5, 0.8, 0.95])
    def test_matches_reference(self, degree):
        shape = GemmShape(m=32, n=32, k=128)
        data = generate_unstructured(shape, degree, seed=int(degree * 100))
        program = build_rowwise_spmm_kernel(data.a, data.b)
        matches, error = validate_kernel(program, data.a, data.b)
        assert matches, f"max error {error}"

    def test_larger_m_than_group_limit(self):
        shape = GemmShape(m=80, n=16, k=64)
        data = generate_unstructured(shape, 0.9, seed=3)
        program = build_rowwise_spmm_kernel(data.a, data.b)
        matches, error = validate_kernel(program, data.a, data.b)
        assert matches, f"max error {error}"

    def test_rows_take_the_pseudo_row_wise_order(self, rng):
        # Rows cycle through 1:4, 4:4 and 2:4, so the kernel must regroup them.
        a = np.zeros((24, 64), dtype=np.float32)
        for row in range(24):
            a[row].reshape(-1, 4)[:, : (1, 4, 2)[row % 3]] = 1.0 + row
        b = rng.standard_normal((64, 16)).astype(np.float32)
        order = group_rows_for_pseudo(minimal_row_patterns(a))
        assert order != sorted(order)
        program = build_rowwise_spmm_kernel(a, b)
        assert program.c_row_permutation == tuple(order)
        matches, error = validate_kernel(program, a, b)
        assert matches, f"max error {error}"

    def test_emits_spmm_r_instructions(self):
        data = generate_unstructured(GemmShape(m=16, n=16, k=64), 0.9, seed=1)
        program = build_rowwise_spmm_kernel(data.a, data.b)
        assert program.summary().by_opcode.get("TILE_SPMM_R", 0) > 0

    def test_sparser_matrix_needs_fewer_instructions(self):
        shape = GemmShape(m=64, n=16, k=128)
        sparse = generate_unstructured(shape, 0.95, seed=2)
        dense = generate_unstructured(shape, 0.2, seed=2)
        sparse_count = build_rowwise_spmm_kernel(sparse.a, sparse.b).summary().tile_compute
        dense_count = build_rowwise_spmm_kernel(dense.a, dense.b).summary().tile_compute
        assert sparse_count < dense_count

    def test_k_must_be_multiple_of_64(self, rng):
        with pytest.raises(KernelError):
            build_rowwise_spmm_kernel(
                rng.standard_normal((16, 32)).astype(np.float32),
                rng.standard_normal((32, 16)).astype(np.float32),
            )

    def test_n_must_be_multiple_of_16(self, rng):
        with pytest.raises(KernelError):
            build_rowwise_spmm_kernel(
                rng.standard_normal((16, 64)).astype(np.float32),
                rng.standard_normal((64, 8)).astype(np.float32),
            )
