"""Tests for trace records and summaries."""

import numpy as np
import pytest
from reference_ops import footprint_lines, summarize_ops

from repro.core import isa
from repro.core.registers import treg
from repro.cpu.columnar import ColumnarTrace
from repro.cpu.trace import (
    TraceOp,
    TraceOpKind,
    branch_op,
    scalar_op,
    tile_op,
    vector_fma,
    vector_load,
    vector_store,
)
from repro.errors import SimulationError


def encoded_bytes(op):
    """Bytes the op moves, as the columnar encoding of it summarizes them."""
    return ColumnarTrace.from_ops([op]).summarize().memory_bytes


class TestTraceOpConstruction:
    def test_tile_op(self):
        op = tile_op(isa.tile_gemm(treg(0), treg(1), treg(2)))
        assert op.kind is TraceOpKind.TILE
        assert not op.is_memory

    def test_tile_load_is_memory(self):
        op = tile_op(isa.tile_load_t(treg(0), 0x1000))
        assert op.is_memory and encoded_bytes(op) == 1024

    def test_vector_load(self):
        op = vector_load(3, 0x2000)
        assert op.is_memory and encoded_bytes(op) == 64 and op.dst_reg == 3

    def test_vector_store(self):
        op = vector_store(5, 0x3000)
        assert op.src_regs == (5,)

    def test_vector_fma(self):
        op = vector_fma(1, (2, 3))
        assert not op.is_memory and encoded_bytes(op) == 0

    def test_scalar_and_branch(self):
        assert scalar_op().kind is TraceOpKind.SCALAR
        assert branch_op().kind is TraceOpKind.BRANCH

    def test_tile_kind_requires_instruction(self):
        with pytest.raises(SimulationError):
            TraceOp(kind=TraceOpKind.TILE)

    def test_non_tile_kind_rejects_instruction(self):
        with pytest.raises(SimulationError):
            TraceOp(kind=TraceOpKind.SCALAR, tile=isa.tile_gemm(treg(0), treg(1), treg(2)))

    def test_vector_load_needs_address(self):
        with pytest.raises(SimulationError):
            TraceOp(kind=TraceOpKind.VECTOR_LOAD, dst_reg=0)


class TestSummarize:
    def test_mix_counts(self):
        trace = [
            tile_op(isa.tile_load_t(treg(0), 0)),
            tile_op(isa.tile_load_t(treg(1), 1024)),
            tile_op(isa.tile_gemm(treg(2), treg(0), treg(1))),
            tile_op(isa.tile_store_t(0x8000, treg(2))),
            vector_load(0, 0x100),
            vector_fma(1, (0,)),
            scalar_op(),
            branch_op(),
        ]
        summary = ColumnarTrace.from_ops(trace).summarize()
        assert summary == summarize_ops(trace)
        assert summary.total == 8
        assert summary.tile_load == 2 and summary.tile_compute == 1 and summary.tile_store == 1
        assert summary.vector_load == 1 and summary.vector_fma == 1
        assert summary.scalar == 1 and summary.branch == 1
        assert summary.tile_total == 4 and summary.vector_total == 2
        assert summary.by_opcode["TILE_GEMM"] == 1
        assert summary.memory_bytes == 1024 * 3 + 64

    def test_footprint_deduplicates(self):
        trace = [
            tile_op(isa.tile_load_t(treg(0), 0x1000)),
            tile_op(isa.tile_load_t(treg(1), 0x1000)),
            vector_load(0, 0x9000, 64),
        ]
        lines = ColumnarTrace.from_ops(trace).footprint_line_numbers(64)
        assert np.array_equal(lines, footprint_lines(trace, 64))
        assert lines.tolist() == list(range(0x1000 // 64, 0x1400 // 64)) + [0x9000 // 64]
