"""Tests for trace records and summaries."""

import numpy as np
import pytest
from reference_ops import footprint_lines, is_memory, summarize_ops

from repro.core.isa import Instruction, Opcode
from repro.core.registers import treg
from repro.cpu.columnar import TraceBuilder
from repro.cpu.trace import TraceOp, TraceOpKind
from repro.errors import SimulationError


def one_op(emit):
    """The materialised op of a one-row trace, and the bytes it moves."""
    builder = TraceBuilder()
    emit(builder)
    trace = builder.finish()
    (op,) = trace.ops()
    return op, trace.summarize().memory_bytes


class TestTraceOpConstruction:
    def test_tile_op(self):
        op, _ = one_op(lambda b: b.tile_compute(Opcode.TILE_GEMM, treg(0), treg(1), treg(2)))
        assert op.kind is TraceOpKind.TILE
        assert not is_memory(op)

    def test_tile_load_is_memory(self):
        op, nbytes = one_op(lambda b: b.tile_load_t(treg(0), 0x1000))
        assert is_memory(op) and nbytes == 1024

    def test_vector_load(self):
        op, nbytes = one_op(lambda b: b.vector_load(3, 0x2000))
        assert is_memory(op) and nbytes == 64 and op.dst_reg == 3

    def test_vector_store(self):
        op, _ = one_op(lambda b: b.vector_store(5, 0x3000))
        assert op.src_regs == (5,)

    def test_vector_fma(self):
        op, nbytes = one_op(lambda b: b.vector_fma(1, (2, 3)))
        assert not is_memory(op) and nbytes == 0

    def test_vector_fma_without_destination(self):
        op, _ = one_op(lambda b: b.vector_fma(None, (2, 3)))
        assert op.dst_reg is None and op.src_regs == (2, 3)

    def test_scalar_and_branch(self):
        assert one_op(TraceBuilder.scalar)[0].kind is TraceOpKind.SCALAR
        assert one_op(TraceBuilder.branch)[0].kind is TraceOpKind.BRANCH

    def test_tile_kind_requires_instruction(self):
        with pytest.raises(SimulationError):
            TraceOp(kind=TraceOpKind.TILE)

    def test_non_tile_kind_rejects_instruction(self):
        gemm = Instruction(Opcode.TILE_GEMM, dst=treg(0), src_a=treg(1), src_b=treg(2))
        with pytest.raises(SimulationError):
            TraceOp(kind=TraceOpKind.SCALAR, tile=gemm)

    def test_vector_load_needs_address(self):
        with pytest.raises(SimulationError):
            TraceOp(kind=TraceOpKind.VECTOR_LOAD, dst_reg=0)


class TestSummarize:
    def test_mix_counts(self):
        builder = TraceBuilder()
        builder.tile_load_t(treg(0), 0)
        builder.tile_load_t(treg(1), 1024)
        builder.tile_compute(Opcode.TILE_GEMM, treg(2), treg(0), treg(1))
        builder.tile_store_t(0x8000, treg(2))
        builder.vector_load(0, 0x100)
        builder.vector_fma(1, (0,))
        builder.scalar()
        builder.branch()
        trace = builder.finish()
        summary = trace.summarize()
        assert summary == summarize_ops(trace.ops())
        assert summary.total == 8
        assert summary.tile_load == 2 and summary.tile_compute == 1 and summary.tile_store == 1
        assert summary.vector_load == 1 and summary.vector_fma == 1
        assert summary.scalar == 1 and summary.branch == 1
        assert summary.vector_store == 0
        assert summary.by_opcode["TILE_GEMM"] == 1
        assert summary.memory_bytes == 1024 * 3 + 64

    def test_summaries_are_not_shared(self):
        builder = TraceBuilder()
        builder.tile_compute(Opcode.TILE_GEMM, treg(2), treg(0), treg(1))
        trace = builder.finish()
        first = trace.summarize()
        first.total += 1
        first.by_opcode["TILE_GEMM"] += 1
        second = trace.summarize()
        assert second.total == 1 and second.by_opcode == {"TILE_GEMM": 1}

    def test_footprint_deduplicates(self):
        builder = TraceBuilder()
        builder.tile_load_t(treg(0), 0x1000)
        builder.tile_load_t(treg(1), 0x1000)
        builder.vector_load(0, 0x9000, 64)
        trace = builder.finish()
        lines = trace.footprint_line_numbers(64)
        assert np.array_equal(lines, footprint_lines(trace.ops(), 64))
        assert lines.tolist() == list(range(0x1000 // 64, 0x1400 // 64)) + [0x9000 // 64]
