"""Tests for the functional (timing-free) execution model."""

import numpy as np
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

from repro.core.functional import FunctionalMachine
from repro.core.memory_image import ByteMemory
from repro.core.registers import mreg, treg, ureg, vreg
from repro.errors import ExecutionError
from repro.sparse.compress import compress
from repro.sparse.pruning import prune_to_pattern
from repro.types import DType, SparsityPattern, bf16_round


def run_program(instructions, memory, rowwise_patterns=None):
    """Execute ``instructions`` on a fresh machine over ``memory``; return it."""
    machine = FunctionalMachine(memory)
    for address, patterns in (rowwise_patterns or {}).items():
        machine.register_rowwise_patterns(address, patterns)
    machine.execute(instructions)
    return machine


def _reference(a, b):
    return (bf16_round(a) @ bf16_round(b)).astype(np.float32)


def _write_bt(memory, address, b):
    """Store B transposed, the register layout the compute instructions expect."""
    memory.write_matrix(address, np.asarray(b, dtype=np.float32).T, DType.BF16)


class TestLoadsAndStores:
    def test_load_then_store_copies_memory(self, rng):
        memory = ByteMemory()
        payload = rng.integers(0, 255, 1024, dtype=np.uint8).tobytes()
        memory.write(0x1000, payload)
        machine = FunctionalMachine(memory)
        machine.execute(
            [tile_load_t(treg(0), 0x1000), tile_store_t(0x9000, treg(0))]
        )
        assert memory.read(0x9000, 1024) == payload

    def test_stats_count_loads_and_bytes(self):
        machine = FunctionalMachine()
        machine.execute([tile_load_u(ureg(0), 0x0), tile_load_m(mreg(0), 0x4000)])
        assert machine.stats.loads == 2
        assert machine.stats.bytes_loaded == 2048 + 128

    def test_vreg_load_sets_all_backing_tregs(self, rng):
        memory = ByteMemory()
        memory.write(0, bytes(rng.integers(0, 255, 4096, dtype=np.uint8)))
        machine = FunctionalMachine(memory)
        machine.execute([tile_load_v(vreg(1), 0)])
        assert machine.registers.read_bytes(treg(7)) == memory.read(3072, 1024)


class TestTileGemm:
    def test_matches_reference(self, rng):
        a = rng.standard_normal((16, 32)).astype(np.float32)
        b = rng.standard_normal((32, 16)).astype(np.float32)
        memory = ByteMemory()
        memory.write_matrix(0x1000, a, DType.BF16)
        _write_bt(memory, 0x2000, b)
        program = [
            tile_load_t(treg(1), 0x1000),
            tile_load_t(treg(2), 0x2000),
            tile_gemm(treg(0), treg(1), treg(2)),
            tile_store_t(0x3000, treg(0)),
        ]
        machine = run_program(program, memory)
        result = memory.read_matrix(0x3000, 16, 16, DType.FP32)
        assert np.allclose(result, _reference(a, b), rtol=1e-3, atol=1e-3)

    def test_accumulates_into_c(self, rng):
        a = rng.standard_normal((16, 32)).astype(np.float32)
        b = rng.standard_normal((32, 16)).astype(np.float32)
        memory = ByteMemory()
        memory.write_matrix(0x1000, a, DType.BF16)
        _write_bt(memory, 0x2000, b)
        program = [
            tile_load_t(treg(1), 0x1000),
            tile_load_t(treg(2), 0x2000),
            tile_gemm(treg(0), treg(1), treg(2)),
            tile_gemm(treg(0), treg(1), treg(2)),
            tile_store_t(0x3000, treg(0)),
        ]
        machine = run_program(program, memory)
        result = memory.read_matrix(0x3000, 16, 16, DType.FP32)
        assert np.allclose(result, 2 * _reference(a, b), rtol=1e-3, atol=1e-3)

    def test_mac_accounting(self, rng):
        machine = FunctionalMachine()
        machine.execute([tile_gemm(treg(0), treg(1), treg(2))])
        assert machine.stats.effectual_macs == 8192


class TestTileSpmm:
    @pytest.mark.parametrize(
        "pattern,k,b_kind",
        [
            (SparsityPattern.SPARSE_2_4, 64, "u"),
            (SparsityPattern.SPARSE_1_4, 128, "v"),
        ],
    )
    def test_matches_reference(self, rng, pattern, k, b_kind):
        a = prune_to_pattern(rng.standard_normal((16, k)).astype(np.float32), pattern)
        b = rng.standard_normal((k, 16)).astype(np.float32)
        tile = compress(a, pattern)
        memory = ByteMemory()
        memory.write_matrix(0x1000, tile.values, DType.BF16)
        memory.write(0x2000, tile.metadata_bytes())
        _write_bt(memory, 0x4000, b)
        if b_kind == "u":
            load_b = tile_load_u(ureg(2), 0x4000)
            compute = tile_spmm_u(treg(0), treg(1), ureg(2))
        else:
            load_b = tile_load_v(vreg(1), 0x4000)
            compute = tile_spmm_v(treg(0), treg(1), vreg(1))
        program = [
            tile_load_t(treg(1), 0x1000),
            tile_load_m(mreg(1), 0x2000),
            load_b,
            compute,
            tile_store_t(0x8000, treg(0)),
        ]
        machine = run_program(program, memory)
        result = memory.read_matrix(0x8000, 16, 16, DType.FP32)
        assert np.allclose(result, _reference(a, b), rtol=1e-3, atol=1e-3)

    def test_spmm_r_requires_registered_patterns(self):
        machine = FunctionalMachine()
        machine.execute([tile_load_t(treg(1), 0x0), tile_load_u(ureg(2), 0x4000)])
        with pytest.raises(ExecutionError):
            machine.step(tile_spmm_r(ureg(0), treg(1), ureg(2)))


class TestTileSpgemm:
    @pytest.mark.parametrize(
        "pattern,k,compute",
        [
            (SparsityPattern.SPARSE_2_4, 64, tile_spgemm_u),
            (SparsityPattern.SPARSE_1_4, 128, tile_spgemm_v),
        ],
    )
    def test_matches_reference(self, rng, pattern, k, compute):
        a = prune_to_pattern(rng.standard_normal((16, k)).astype(np.float32), pattern)
        # B sparse column-block-wise along K: prune its transpose row-wise.
        b = prune_to_pattern(
            rng.standard_normal((16, k)).astype(np.float32), pattern
        ).T.copy()
        a_tile = compress(a, pattern)
        b_tile = compress(b.T, pattern)
        memory = ByteMemory()
        memory.write_matrix(0x1000, a_tile.values, DType.BF16)
        memory.write(0x2000, a_tile.metadata_bytes())
        memory.write_matrix(0x4000, b_tile.values, DType.BF16)
        memory.write(0x5000, b_tile.metadata_bytes())
        program = [
            tile_load_t(treg(1), 0x1000),
            tile_load_m(mreg(1), 0x2000),
            tile_load_t(treg(2), 0x4000),
            tile_load_m(mreg(2), 0x5000),
            compute(treg(0), treg(1), treg(2)),
            tile_store_t(0x8000, treg(0)),
        ]
        run_program(program, memory)
        result = memory.read_matrix(0x8000, 16, 16, DType.FP32)
        assert np.allclose(result, _reference(a, b), rtol=1e-3, atol=1e-3)

    def test_effectual_macs_count_the_intersection(self, rng):
        pattern = SparsityPattern.SPARSE_1_4
        a = prune_to_pattern(rng.standard_normal((16, 128)).astype(np.float32), pattern)
        b_t = prune_to_pattern(
            rng.standard_normal((16, 128)).astype(np.float32), pattern
        )
        a_tile = compress(a, pattern)
        b_tile = compress(b_t, pattern)
        memory = ByteMemory()
        memory.write_matrix(0x1000, a_tile.values, DType.BF16)
        memory.write(0x2000, a_tile.metadata_bytes())
        memory.write_matrix(0x4000, b_tile.values, DType.BF16)
        memory.write(0x5000, b_tile.metadata_bytes())
        machine = run_program(
            [
                tile_load_t(treg(1), 0x1000),
                tile_load_m(mreg(1), 0x2000),
                tile_load_t(treg(2), 0x4000),
                tile_load_m(mreg(2), 0x5000),
                tile_spgemm_v(treg(0), treg(1), treg(2)),
            ],
            memory,
        )
        expected = int(((a != 0).astype(np.int64) @ (b_t != 0).astype(np.int64).T).sum())
        assert machine.stats.effectual_macs == expected
        # Dual 1:4 operands intersect far below the dense 16*16*128 MACs.
        assert machine.stats.effectual_macs < 16 * 16 * 128 // 4


class TestStatsByOpcode:
    def test_by_opcode_counts(self):
        machine = FunctionalMachine()
        machine.execute(
            [
                tile_load_t(treg(0), 0),
                tile_load_t(treg(1), 1024),
                tile_gemm(treg(2), treg(0), treg(1)),
            ]
        )
        assert machine.stats.by_opcode["TILE_LOAD_T"] == 2
        assert machine.stats.by_opcode["TILE_GEMM"] == 1
        assert machine.stats.instructions == 3
