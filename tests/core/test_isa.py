"""Tests for the VEGETA instruction set definitions."""

import pytest

from instructions import (
    tile_gemm,
    tile_load_m,
    tile_load_t,
    tile_load_u,
    tile_load_v,
    tile_spgemm_u,
    tile_spgemm_v,
    tile_spmm_r,
    tile_spmm_u,
    tile_spmm_v,
    tile_store_t,
)

from repro.core.isa import Instruction, MemoryOperand, Opcode, memory_bytes_for
from repro.core.registers import mreg, treg, ureg, vreg
from repro.errors import IsaError
from repro.types import DEFAULT_GEOMETRY, TileGeometry


class TestOpcode:
    def test_classification(self):
        assert Opcode.TILE_LOAD_T.is_load
        assert Opcode.TILE_STORE_T.is_store
        assert Opcode.TILE_GEMM.is_compute
        assert not Opcode.TILE_GEMM.is_sparse_compute
        assert Opcode.TILE_SPMM_U.is_sparse_compute
        assert Opcode.TILE_SPMM_R.is_sparse_compute

    def test_memory_bytes(self):
        def transfer(opcode):
            return memory_bytes_for(opcode, DEFAULT_GEOMETRY)

        assert transfer(Opcode.TILE_LOAD_T) == 1024
        assert transfer(Opcode.TILE_LOAD_U) == 2048
        assert transfer(Opcode.TILE_LOAD_V) == 4096
        assert transfer(Opcode.TILE_LOAD_M) == 128
        assert transfer(Opcode.TILE_STORE_T) == 1024
        assert transfer(Opcode.TILE_GEMM) == 0


class TestMemoryOperand:
    def test_rejects_negative_address(self):
        with pytest.raises(IsaError):
            MemoryOperand(-1, 64)

    def test_rejects_zero_size(self):
        with pytest.raises(IsaError):
            MemoryOperand(0, 0)


class TestConstructors:
    def test_tile_load_t(self):
        inst = tile_load_t(treg(1), 0x1000)
        assert inst.opcode is Opcode.TILE_LOAD_T
        assert inst.dst == treg(1)
        assert inst.memory.nbytes == 1024

    def test_tile_load_v_needs_vreg(self):
        with pytest.raises(IsaError):
            tile_load_v(treg(0), 0x1000)

    def test_tile_load_m(self):
        inst = tile_load_m(mreg(2), 0x2000)
        assert inst.memory.nbytes == 128

    def test_instruction_carries_the_geometry_it_was_validated_against(self):
        renamed = TileGeometry(name="renamed")
        assert tile_load_t(treg(1), 0x1000).geometry is DEFAULT_GEOMETRY
        assert tile_gemm(treg(0), treg(1), treg(2)).geometry is DEFAULT_GEOMETRY
        assert tile_store_t(0x3000, treg(4), geometry=renamed).geometry is renamed
        inst = Instruction(
            Opcode.TILE_LOAD_M, dst=mreg(2), memory=MemoryOperand(0x2000, 128), geometry=renamed
        )
        assert inst.geometry is renamed

    def test_tile_store(self):
        inst = tile_store_t(0x3000, treg(4))
        assert inst.opcode.is_store
        assert inst.src_a == treg(4) and inst.dst is None

    def test_tile_gemm_operand_kinds(self):
        inst = tile_gemm(treg(0), treg(1), treg(2))
        assert inst.dst == treg(0)
        with pytest.raises(IsaError):
            tile_gemm(treg(0), treg(1), ureg(0))

    def test_tile_spmm_u_signature(self):
        inst = tile_spmm_u(treg(0), treg(3), ureg(2))
        assert inst.src_b == ureg(2)
        with pytest.raises(IsaError):
            tile_spmm_u(treg(0), treg(3), treg(2))

    def test_tile_spmm_v_signature(self):
        inst = tile_spmm_v(treg(0), treg(2), vreg(1))
        assert inst.src_b == vreg(1)

    def test_tile_spmm_r_signature(self):
        inst = tile_spmm_r(ureg(0), treg(2), ureg(2))
        assert inst.dst == ureg(0)
        with pytest.raises(IsaError):
            tile_spmm_r(treg(0), treg(2), ureg(2))

    def test_tile_spgemm_signatures_are_all_tregs(self):
        inst = tile_spgemm_u(treg(0), treg(2), treg(4))
        assert inst.src_b == treg(4)
        with pytest.raises(IsaError):
            tile_spgemm_u(treg(0), treg(2), ureg(2))
        with pytest.raises(IsaError):
            tile_spgemm_v(treg(0), treg(2), vreg(1))


class TestDependenceInfo:
    def test_implicit_metadata_pairs_with_a_register(self):
        inst = tile_spmm_u(treg(0), treg(3), ureg(2))
        assert inst.implicit_metadata == mreg(3)

    def test_dense_gemm_has_no_metadata(self):
        assert tile_gemm(treg(0), treg(1), treg(2)).implicit_metadata is None

    def test_backing_treg_sets(self):
        inst = tile_spmm_v(treg(0), treg(2), vreg(1))
        assert inst.src_b.backing_tregs() == (4, 5, 6, 7)
        assert inst.implicit_metadata == mreg(2)

    def test_load_writes_no_reads(self):
        inst = tile_load_u(ureg(1), 0x8000)
        assert inst.src_a is None and inst.src_b is None
        assert inst.dst.backing_tregs() == (2, 3)

    def test_spgemm_carries_two_implicit_metadata_registers(self):
        inst = tile_spgemm_u(treg(0), treg(2), treg(4))
        assert inst.implicit_metadata == mreg(2)
        assert inst.implicit_metadata_b == mreg(4)

    def test_spmm_has_no_b_metadata(self):
        assert tile_spmm_u(treg(0), treg(3), ureg(2)).implicit_metadata_b is None

    def test_spgemm_classification(self):
        assert Opcode.TILE_SPGEMM_U.is_compute
        assert Opcode.TILE_SPGEMM_U.is_sparse_compute
        assert Opcode.TILE_SPGEMM_U.is_spgemm
        assert Opcode.TILE_SPGEMM_V.is_spgemm
        assert not Opcode.TILE_SPMM_U.is_spgemm
        assert Opcode.TILE_SPGEMM_U.spgemm_effective_k == 64
        assert Opcode.TILE_SPGEMM_V.spgemm_effective_k == 128
        assert Opcode.TILE_GEMM.spgemm_effective_k == 0


class TestValidation:
    def test_load_size_must_match(self):
        with pytest.raises(IsaError):
            Instruction(
                Opcode.TILE_LOAD_T, dst=treg(0), memory=MemoryOperand(0, 512)
            )

    def test_compute_rejects_memory_operand(self):
        with pytest.raises(IsaError):
            Instruction(
                Opcode.TILE_GEMM,
                dst=treg(0),
                src_a=treg(1),
                src_b=treg(2),
                memory=MemoryOperand(0, 64),
            )

    def test_missing_operand(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.TILE_GEMM, dst=treg(0), src_a=treg(1))

    def test_store_source_must_be_treg(self):
        with pytest.raises(IsaError):
            Instruction(
                Opcode.TILE_STORE_T, src_a=ureg(0), memory=MemoryOperand(0, 1024)
            )


class TestAssembly:
    def test_load_rendering(self):
        text = tile_load_t(treg(1), 0x1000).to_assembly()
        assert "TILE_LOAD_T" in text and "treg1" in text and "0x1000" in text

    def test_compute_rendering(self):
        text = tile_spmm_u(treg(0), treg(3), ureg(2)).to_assembly()
        assert text == "TILE_SPMM_U treg0, treg3, ureg2"

    def test_store_rendering(self):
        text = tile_store_t(0x2000, treg(5)).to_assembly()
        assert text.startswith("TILE_STORE_T [0x2000]")
