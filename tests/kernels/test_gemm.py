"""Tests for the dense TILE_GEMM kernel generator."""

import numpy as np
import pytest
from reference_checks import validate_kernel

from repro.errors import KernelError
from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.validate import reference_gemm, run_functional
from repro.types import GemmShape
from repro.workloads.generator import generate_dense


class TestTraceStructure:
    def test_compute_instruction_count(self):
        shape = GemmShape(64, 64, 128)
        program = build_dense_gemm_kernel(shape)
        summary = program.summary()
        assert summary.tile_compute == 4 * 4 * 4  # 16 output tiles x 4 K-steps

    def test_stores_once_per_output_tile(self):
        program = build_dense_gemm_kernel(GemmShape(64, 64, 64))
        assert program.summary().tile_store == 16

    def test_listing1_variant_reloads_c_every_k_step(self):
        shape = GemmShape(32, 32, 128)
        optimized = build_dense_gemm_kernel(shape, variant="optimized")
        listing1 = build_dense_gemm_kernel(shape, variant="listing1")
        assert listing1.summary().tile_store > optimized.summary().tile_store
        assert listing1.summary().tile_compute == optimized.summary().tile_compute

    def test_truncation_records_fraction(self):
        shape = GemmShape(128, 128, 64)
        truncated = build_dense_gemm_kernel(shape, max_output_tiles=4)
        assert truncated.simulated_fraction == pytest.approx(4 / 64)
        assert truncated.summary().tile_compute == 4 * 2

    def test_truncation_fraction_counts_whole_blocks(self):
        # Asking for fewer tiles than one 2x2 register block still traces the
        # whole block and records the larger covered fraction.
        shape = GemmShape(128, 128, 64)
        truncated = build_dense_gemm_kernel(shape, max_output_tiles=2)
        assert truncated.simulated_fraction == pytest.approx(4 / 64)

    def test_trace_only_build_has_no_memory(self):
        program = build_dense_gemm_kernel(GemmShape(32, 32, 32))
        assert not program.has_data
        with pytest.raises(KernelError):
            program.read_result()

    def test_unknown_variant_rejected(self):
        with pytest.raises(KernelError):
            build_dense_gemm_kernel(GemmShape(16, 16, 32), variant="bogus")

    def test_mismatched_operands_rejected(self):
        with pytest.raises(KernelError):
            build_dense_gemm_kernel(
                GemmShape(16, 16, 32), a=np.zeros((8, 8)), b=np.zeros((8, 8))
            )

    def test_single_operand_rejected(self):
        with pytest.raises(KernelError):
            build_dense_gemm_kernel(GemmShape(16, 16, 32), a=np.zeros((16, 32)))


class TestNumericalCorrectness:
    @pytest.mark.parametrize(
        "dims",
        [(16, 16, 32), (32, 32, 64), (48, 32, 96), (16, 64, 32), (80, 16, 160)],
    )
    def test_matches_reference(self, dims):
        shape = GemmShape(*dims)
        data = generate_dense(shape, seed=hash(dims) % 1000)
        program = build_dense_gemm_kernel(shape, a=data.a, b=data.b)
        matches, error = validate_kernel(program, data.a, data.b)
        assert matches, f"max error {error}"

    def test_unpadded_dimensions(self):
        shape = GemmShape(m=20, n=25, k=40)
        data = generate_dense(shape, seed=7)
        program = build_dense_gemm_kernel(shape, a=data.a, b=data.b)
        result = run_functional(program)
        assert result.shape == (20, 25)
        assert np.allclose(result, reference_gemm(data.a, data.b), rtol=1e-3, atol=1e-3)

    def test_listing1_variant_is_also_correct(self):
        shape = GemmShape(32, 32, 64)
        data = generate_dense(shape, seed=11)
        program = build_dense_gemm_kernel(shape, a=data.a, b=data.b, variant="listing1")
        matches, _ = validate_kernel(program, data.a, data.b)
        assert matches
