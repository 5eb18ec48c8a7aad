"""Tests for the sparse x sparse ``TILE_SPGEMM`` kernels."""

import itertools

import numpy as np
import pytest

from repro.core.isa import Opcode
from repro.cpu.simulator import CycleApproximateSimulator
from repro.cpu.trace import TraceOpKind
from repro.errors import KernelError, SimulationError
from repro.kernels.spgemm import (
    SPGEMM_PATTERNS,
    build_spgemm_kernel,
    spgemm_joint_pattern,
)
from repro.kernels.spmm import build_spmm_kernel
from repro.kernels.validate import (
    reference_spgemm,
    run_functional,
    validate_spgemm_kernel,
)
from repro.types import GemmShape, SparsityPattern
from repro.workloads.generator import generate_dual_sparse
from repro.workloads.sweeps import SPGEMM_SWEEP_PATTERNS

SPGEMM_ENGINE_NAME = "VEGETA-S-16-2+OF+SPGEMM"


def _engine(name=SPGEMM_ENGINE_NAME):
    from repro.analysis.runtime import resolve_engine

    return resolve_engine(name)


class TestJointPattern:
    def test_equal_patterns(self):
        assert (
            spgemm_joint_pattern(
                SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_2_4
            )
            is SparsityPattern.SPARSE_2_4
        )
        assert (
            spgemm_joint_pattern(
                SparsityPattern.SPARSE_1_4, SparsityPattern.SPARSE_1_4
            )
            is SparsityPattern.SPARSE_1_4
        )

    def test_mixed_patterns_take_the_looser(self):
        assert (
            spgemm_joint_pattern(
                SparsityPattern.SPARSE_1_4, SparsityPattern.SPARSE_2_4
            )
            is SparsityPattern.SPARSE_2_4
        )

    def test_dense_operand_rejected(self):
        with pytest.raises(KernelError):
            spgemm_joint_pattern(
                SparsityPattern.DENSE_4_4, SparsityPattern.SPARSE_2_4
            )

    def test_rowwise_operand_rejected(self):
        with pytest.raises(KernelError):
            spgemm_joint_pattern(
                SparsityPattern.ROW_WISE, SparsityPattern.SPARSE_2_4
            )


class TestBuilder:
    def test_rejects_dense_pattern(self):
        with pytest.raises(KernelError):
            build_spgemm_kernel(GemmShape(16, 16, 64), SparsityPattern.DENSE_4_4)

    def test_rejects_half_provided_operands(self):
        with pytest.raises(KernelError):
            build_spgemm_kernel(
                GemmShape(16, 16, 64),
                SparsityPattern.SPARSE_2_4,
                a=np.zeros((16, 64), dtype=np.float32),
            )

    def test_rejects_unpruned_a(self):
        shape = GemmShape(16, 16, 64)
        dense = np.ones((16, 64), dtype=np.float32)
        b = np.zeros((64, 16), dtype=np.float32)
        with pytest.raises(KernelError):
            build_spgemm_kernel(shape, SparsityPattern.SPARSE_2_4, a=dense, b=b)

    def test_rejects_unpruned_b_columns(self):
        shape = GemmShape(16, 16, 64)
        operands = generate_dual_sparse(
            shape, SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_2_4
        )
        with pytest.raises(KernelError):
            build_spgemm_kernel(
                shape,
                SparsityPattern.SPARSE_2_4,
                a=operands.a,
                b=np.ones((64, 16), dtype=np.float32),
            )

    def test_b_loads_are_single_tregs(self):
        # The structural win over SPMM: B streams as 1 KB compressed tiles
        # (plus 128 B metadata) instead of 2 KB / 4 KB dense ureg/vreg images.
        program = build_spgemm_kernel(
            GemmShape(32, 32, 128), SparsityPattern.SPARSE_2_4
        )
        b_loads = [
            op.tile
            for op in program.trace.ops()
            if op.kind is TraceOpKind.TILE and op.tile.label == "load B"
        ]
        assert b_loads
        assert all(inst.opcode is Opcode.TILE_LOAD_T for inst in b_loads)
        assert any(
            op.kind is TraceOpKind.TILE and op.tile.label == "load B-MD"
            for op in program.trace.ops()
        )

    def test_spgemm_moves_fewer_bytes_than_spmm(self):
        shape = GemmShape(64, 64, 512)
        for pattern in SPGEMM_PATTERNS:
            spgemm = build_spgemm_kernel(shape, pattern)
            spmm = build_spmm_kernel(shape, pattern)
            assert spgemm.summary().memory_bytes < spmm.summary().memory_bytes

    def test_block_starts_cover_every_output_block(self):
        program = build_spgemm_kernel(
            GemmShape(64, 48, 128), SparsityPattern.SPARSE_2_4
        )
        # Two interleaved tile rows per block: ceil(4/2) row blocks x 3 cols.
        block_starts = program.trace.block_starts
        assert len(block_starts) == 2 * 3
        assert block_starts[0] == 0
        assert list(block_starts) == sorted(set(block_starts))
        assert program.simulated_fraction == 1.0

    def test_truncation_records_fraction(self):
        program = build_spgemm_kernel(
            GemmShape(64, 64, 128), SparsityPattern.SPARSE_2_4, max_output_tiles=2
        )
        assert 0.0 < program.simulated_fraction < 1.0


class TestFunctional:
    @pytest.mark.parametrize(
        "pattern_a, pattern_b", list(itertools.product(SPGEMM_SWEEP_PATTERNS, repeat=2))
    )
    def test_matches_sparse_reference(self, pattern_a, pattern_b):
        shape = GemmShape(32, 32, 256)
        operands = generate_dual_sparse(shape, pattern_a, pattern_b, seed=7)
        joint = spgemm_joint_pattern(pattern_a, pattern_b)
        program = build_spgemm_kernel(shape, joint, a=operands.a, b=operands.b)
        matches, error = validate_spgemm_kernel(program, operands.a, operands.b)
        assert matches, f"max abs error {error}"

    def test_padded_problem(self):
        # Non-multiple M/N/K exercise the zero-padded tile edges.
        shape = GemmShape(24, 20, 192)
        operands = generate_dual_sparse(
            shape, SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_2_4, seed=1
        )
        program = build_spgemm_kernel(
            shape, SparsityPattern.SPARSE_2_4, a=operands.a, b=operands.b
        )
        result = run_functional(program)
        reference = reference_spgemm(operands.a, operands.b)
        assert result.shape == (24, 20)
        assert np.allclose(result, reference, rtol=1e-3, atol=1e-3)

    def test_reference_spgemm_agrees_with_dense_product(self):
        operands = generate_dual_sparse(
            GemmShape(16, 16, 64),
            SparsityPattern.SPARSE_2_4,
            SparsityPattern.SPARSE_1_4,
        )
        from repro.kernels.validate import reference_gemm

        assert np.allclose(
            reference_spgemm(operands.a, operands.b),
            reference_gemm(operands.a, operands.b),
            rtol=1e-5,
            atol=1e-5,
        )


class TestSimulation:
    @pytest.mark.parametrize("pattern", SPGEMM_PATTERNS)
    def test_fast_matches_exact_bit_for_bit(self, pattern):
        program = build_spgemm_kernel(GemmShape(96, 96, 512), pattern)
        simulator = CycleApproximateSimulator(engine=_engine())
        fast = simulator.run(program.trace)
        exact = simulator.run(program.trace, mode="exact")
        assert fast.core_cycles == exact.core_cycles
        assert fast.memory_counters == exact.memory_counters

    def test_requires_spgemm_capable_engine(self):
        program = build_spgemm_kernel(
            GemmShape(32, 32, 128), SparsityPattern.SPARSE_2_4
        )
        simulator = CycleApproximateSimulator(engine=_engine("VEGETA-S-16-2+OF"))
        with pytest.raises(SimulationError):
            simulator.run(program.trace, mode="exact")

    def test_merge_overhead_slows_spgemm_vs_spmm_compute(self):
        # With data prefetched into the L2 the kernels are compute-bound, so
        # the stream-merge Feed-First overhead makes SpGEMM slower per
        # instruction than SPMM while moving fewer bytes (the latency model
        # of the dual-operand intersection).
        shape = GemmShape(64, 64, 512)
        engine = _engine()
        simulator = CycleApproximateSimulator(engine=engine)
        spgemm = build_spgemm_kernel(shape, SparsityPattern.SPARSE_2_4)
        spmm = build_spmm_kernel(shape, SparsityPattern.SPARSE_2_4)
        spgemm_cycles = simulator.run(spgemm.trace).core_cycles
        spmm_cycles = simulator.run(spmm.trace).core_cycles
        assert spgemm_cycles > spmm_cycles

    def test_faster_than_dense_gemm(self):
        from repro.kernels.gemm import build_dense_gemm_kernel

        shape = GemmShape(64, 64, 512)
        simulator = CycleApproximateSimulator(engine=_engine())
        dense = build_dense_gemm_kernel(shape)
        spgemm = build_spgemm_kernel(shape, SparsityPattern.SPARSE_1_4)
        dense_cycles = simulator.run(dense.trace).core_cycles
        spgemm_cycles = simulator.run(spgemm.trace).core_cycles
        assert spgemm_cycles < dense_cycles
