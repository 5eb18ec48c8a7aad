"""Tests for the flat byte memory image."""

import numpy as np
import pytest

from repro.core.memory_image import ByteMemory
from repro.errors import ExecutionError
from repro.types import DType


class TestByteMemory:
    def test_untouched_memory_reads_zero(self):
        memory = ByteMemory()
        assert memory.read(0x5000, 16) == b"\x00" * 16

    def test_write_read_roundtrip(self):
        memory = ByteMemory()
        memory.write(0x1234, b"hello world")
        assert memory.read(0x1234, 11) == b"hello world"

    def test_cross_page_write(self):
        memory = ByteMemory()
        data = bytes(range(200)) * 30  # 6000 bytes, crosses a 4 KiB boundary
        memory.write(4000, data)
        assert memory.read(4000, len(data)) == data

    def test_partial_overlap(self):
        memory = ByteMemory()
        memory.write(0, b"\x01" * 8)
        memory.write(4, b"\x02" * 8)
        assert memory.read(0, 12) == b"\x01" * 4 + b"\x02" * 8

    def test_negative_read_rejected(self):
        with pytest.raises(ExecutionError):
            ByteMemory().read(-1, 4)

    def test_negative_write_rejected(self):
        with pytest.raises(ExecutionError):
            ByteMemory().write(-4, b"data")

    def test_fp32_matrix_roundtrip(self, rng):
        memory = ByteMemory()
        matrix = rng.standard_normal((8, 16)).astype(np.float32)
        memory.write_matrix(0x4000, matrix, DType.FP32)
        assert np.array_equal(memory.read_matrix(0x4000, 8, 16, DType.FP32), matrix)

    def test_bf16_matrix_roundtrip_of_representable_values(self):
        memory = ByteMemory()
        matrix = np.array([[1.0, -2.5, 0.125, 3.0]], dtype=np.float32)
        memory.write_matrix(0, matrix, DType.BF16)
        assert np.array_equal(memory.read_matrix(0, 1, 4, DType.BF16), matrix)


class TestBf16Serialization:
    def test_roundtrip(self, rng):
        memory = ByteMemory()
        matrix = rng.standard_normal((4, 8)).astype(np.float32)
        memory.write_matrix(0, matrix, DType.BF16)
        recovered = memory.read_matrix(0, 4, 8, DType.BF16)
        assert np.allclose(recovered, matrix, rtol=2 ** -7)
