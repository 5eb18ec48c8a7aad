"""Cross-model consistency checks between independent parts of the library."""

import math

import pytest

from repro.analysis.granularity import row_wise_speedup
from repro.core.rowwise_mapping import pack_rows
from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.spmm import build_spmm_kernel
from repro.sparse.blocks import minimal_row_patterns
from repro.types import DEFAULT_GEOMETRY, GemmShape, SparsityPattern
from repro.workloads.generator import generate_unstructured
from repro.workloads.layers import all_layers


class TestKernelVsAnalyticalModels:
    def test_compute_instruction_ratio_matches_compression_ratio(self):
        """The kernel generator and the pattern's compression ratio agree."""
        shape = GemmShape(m=128, n=128, k=512)
        dense = build_dense_gemm_kernel(shape).summary().tile_compute
        for pattern in (SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4):
            sparse = build_spmm_kernel(shape, pattern).summary().tile_compute
            assert dense == sparse * pattern.compression_ratio

    def test_layer_kernels_issue_one_compute_per_padded_tile_step(self):
        """Across Table IV layers, the dense kernel's compute count is the tile count."""
        geometry = DEFAULT_GEOMETRY
        for layer in all_layers()[:4]:
            shape = layer.gemm
            program = build_dense_gemm_kernel(shape)
            summary = program.summary()
            tile_steps = (
                math.ceil(shape.m / geometry.rows)
                * math.ceil(shape.n / geometry.fp32_cols)
                * math.ceil(shape.k / geometry.bf16_cols)
            )
            assert summary.tile_compute == tile_steps, layer.name
            assert summary.total == program.instruction_count, layer.name


class TestGranularityVsMapping:
    def test_rowwise_speedup_agrees_with_packing_plan(self, rng):
        """The Figure 15 model and the Section V-E packing agree on occupancy."""
        shape = GemmShape(m=64, n=16, k=64)
        data = generate_unstructured(shape, 0.9, seed=0)
        analytical = row_wise_speedup(data.a)
        patterns = minimal_row_patterns(data.a)
        plan = pack_rows(patterns)
        # Column shares: the packing plan's average occupancy corresponds to
        # 1/analytical-speedup per covered row (up to the plan's group
        # quantisation, hence the loose tolerance).
        covered = [p for group in plan.groups for p in group.row_patterns]
        occupancy = sum(p.density for p in covered) / len(patterns)
        assert occupancy == pytest.approx(1.0 / analytical, rel=0.25)
