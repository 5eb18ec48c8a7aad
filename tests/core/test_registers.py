"""Tests for the tile / metadata register file and aliasing."""

import numpy as np
import pytest

from repro.core.registers import (
    NUM_UTILE_REGS,
    NUM_VTILE_REGS,
    RegisterRef,
    TileRegisterFile,
    mreg,
    treg,
    ureg,
    vreg,
)
from repro.errors import RegisterError
from repro.types import DEFAULT_GEOMETRY, DType


class TestRegisterRef:
    def test_names(self):
        assert treg(3).name == "treg3"
        assert ureg(1).name == "ureg1"
        assert vreg(0).name == "vreg0"
        assert mreg(7).name == "mreg7"

    def test_sizes(self):
        def size(ref):
            return DEFAULT_GEOMETRY.register_bytes(ref.kind)

        assert size(treg(0)) == 1024
        assert size(ureg(0)) == 2048
        assert size(vreg(0)) == 4096
        assert size(mreg(0)) == 128

    def test_counts(self):
        assert NUM_UTILE_REGS == 4
        assert NUM_VTILE_REGS == 2

    def test_backing_tregs(self):
        assert treg(5).backing_tregs() == (5,)
        assert ureg(1).backing_tregs() == (2, 3)
        assert vreg(1).backing_tregs() == (4, 5, 6, 7)

    def test_mreg_has_no_backing_tregs(self):
        with pytest.raises(RegisterError):
            mreg(0).backing_tregs()

    def test_out_of_range(self):
        with pytest.raises(RegisterError):
            treg(8)
        with pytest.raises(RegisterError):
            vreg(2)

    def test_unknown_kind(self):
        with pytest.raises(RegisterError):
            RegisterRef("xreg", 0)


class TestTileRegisterFile:
    def test_bytes_roundtrip(self):
        rf = TileRegisterFile()
        data = bytes(range(256)) * 4
        rf.write_bytes(treg(2), data)
        assert rf.read_bytes(treg(2)) == data

    def test_short_write_zero_extends(self):
        rf = TileRegisterFile()
        rf.write_bytes(treg(0), b"\xff" * 10)
        contents = rf.read_bytes(treg(0))
        assert contents[:10] == b"\xff" * 10
        assert contents[10:] == b"\x00" * (1024 - 10)

    def test_long_write_rejected(self):
        rf = TileRegisterFile()
        with pytest.raises(RegisterError):
            rf.write_bytes(treg(0), b"\x00" * 2048)

    def test_long_mreg_write_rejected(self):
        rf = TileRegisterFile()
        rf.write_bytes(mreg(3), b"\x00" * DEFAULT_GEOMETRY.metadata_reg_bytes)
        with pytest.raises(RegisterError):
            rf.write_bytes(mreg(3), b"\x00" * (DEFAULT_GEOMETRY.metadata_reg_bytes + 1))

    def test_ureg_aliases_tregs(self):
        rf = TileRegisterFile()
        rf.write_bytes(ureg(0), b"\xab" * 2048)
        assert rf.read_bytes(treg(0)) == b"\xab" * 1024
        assert rf.read_bytes(treg(1)) == b"\xab" * 1024

    def test_treg_write_visible_in_vreg(self):
        rf = TileRegisterFile()
        rf.write_bytes(treg(5), b"\x11" * 1024)
        vreg_data = rf.read_bytes(vreg(1))
        assert vreg_data[1024:2048] == b"\x11" * 1024

    def test_mreg_independent_of_tregs(self):
        rf = TileRegisterFile()
        rf.write_bytes(mreg(0), b"\x77" * 128)
        assert rf.read_bytes(treg(0)) == b"\x00" * 1024
        assert rf.read_bytes(mreg(0)) == b"\x77" * 128

    def test_fp32_matrix_roundtrip(self, rng):
        rf = TileRegisterFile()
        matrix = rng.standard_normal((16, 16)).astype(np.float32)
        rf.write_matrix(treg(1), matrix, DType.FP32)
        assert np.array_equal(rf.read_matrix(treg(1), DType.FP32), matrix)

    def test_bf16_matrix_roundtrip_of_exact_values(self):
        rf = TileRegisterFile()
        matrix = np.full((16, 32), 1.5, dtype=np.float32)
        rf.write_matrix(treg(0), matrix, DType.BF16)
        assert np.array_equal(rf.read_matrix(treg(0), DType.BF16), matrix)

    def test_bf16_matrix_rounds_inexact_values(self, rng):
        rf = TileRegisterFile()
        matrix = rng.standard_normal((16, 32)).astype(np.float32)
        rf.write_matrix(treg(0), matrix, DType.BF16)
        read = rf.read_matrix(treg(0), DType.BF16)
        assert np.allclose(read, matrix, rtol=2 ** -7)

    def test_matrix_shape_checked(self):
        rf = TileRegisterFile()
        with pytest.raises(RegisterError):
            rf.write_matrix(treg(0), np.zeros((4, 4)), DType.FP32)

    def test_ureg_matrix_has_32_rows(self, rng):
        rf = TileRegisterFile()
        matrix = rng.standard_normal((32, 16)).astype(np.float32)
        rf.write_matrix(ureg(1), matrix, DType.FP32)
        assert np.array_equal(rf.read_matrix(ureg(1), DType.FP32), matrix)

    def test_clear(self):
        rf = TileRegisterFile()
        rf.write_bytes(treg(0), b"\x01" * 1024)
        rf.write_bytes(mreg(3), b"\x02" * 128)
        rf.clear()
        assert rf.read_bytes(treg(0)) == b"\x00" * 1024
        assert rf.read_bytes(mreg(3)) == b"\x00" * 128
