"""Tests for the shared value types in repro.types."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.types import (
    BLOCK_SIZE_M,
    DEFAULT_GEOMETRY,
    DType,
    GemmShape,
    SparsityPattern,
    TileShape,
    bf16_round,
)


class TestDType:
    def test_bf16_size(self):
        assert DType.BF16.nbytes == 2

    def test_fp32_size(self):
        assert DType.FP32.nbytes == 4

    def test_elements_per_row_bf16(self):
        assert DEFAULT_GEOMETRY.cols(DType.BF16) == 32

    def test_elements_per_row_fp32(self):
        assert DEFAULT_GEOMETRY.cols(DType.FP32) == 16


class TestSparsityPattern:
    def test_n_values(self):
        assert SparsityPattern.DENSE_4_4.n == 4
        assert SparsityPattern.SPARSE_2_4.n == 2
        assert SparsityPattern.SPARSE_1_4.n == 1

    def test_m_is_four(self):
        for pattern in (SparsityPattern.DENSE_4_4, SparsityPattern.SPARSE_2_4):
            assert pattern.m == BLOCK_SIZE_M == 4

    def test_compression_ratio(self):
        assert SparsityPattern.DENSE_4_4.compression_ratio == 1
        assert SparsityPattern.SPARSE_2_4.compression_ratio == 2
        assert SparsityPattern.SPARSE_1_4.compression_ratio == 4

    def test_density(self):
        assert SparsityPattern.SPARSE_2_4.density == pytest.approx(0.5)
        assert SparsityPattern.SPARSE_1_4.density == pytest.approx(0.25)

    def test_from_n(self):
        assert SparsityPattern.from_n(2) is SparsityPattern.SPARSE_2_4
        assert SparsityPattern.from_n(4) is SparsityPattern.DENSE_4_4

    def test_from_n_rejects_unsupported(self):
        with pytest.raises(ConfigurationError):
            SparsityPattern.from_n(3)

    @pytest.mark.parametrize("count", range(BLOCK_SIZE_M + 1))
    def test_covering_is_the_tightest_supported_pattern(self, count):
        fixed = (
            SparsityPattern.SPARSE_1_4,
            SparsityPattern.SPARSE_2_4,
            SparsityPattern.DENSE_4_4,
        )
        tightest = min((p for p in fixed if p.n >= count), key=lambda p: p.n)
        assert SparsityPattern.covering(count) is tightest

    def test_rowwise_has_no_single_n(self):
        with pytest.raises(ConfigurationError):
            _ = SparsityPattern.ROW_WISE.n

    def test_rowwise_has_no_density(self):
        with pytest.raises(ConfigurationError):
            _ = SparsityPattern.ROW_WISE.density


class TestTileShape:
    def test_size(self):
        assert TileShape(16, 32).size == 512

    def test_nbytes(self):
        assert TileShape(16, 32).nbytes(DType.BF16) == DEFAULT_GEOMETRY.tile_reg_bytes

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            TileShape(0, 4)


class TestGemmShape:
    def test_macs(self):
        assert GemmShape(16, 16, 32).macs == DEFAULT_GEOMETRY.macs_per_tile_instruction

    def test_flops_is_twice_macs(self):
        shape = GemmShape(8, 8, 8)
        assert shape.flops == 2 * shape.macs

    def test_padded_rounds_up(self):
        padded = GemmShape(m=17, n=30, k=65).padded(16, 16, 32)
        assert (padded.m, padded.n, padded.k) == (32, 32, 96)

    def test_padded_keeps_exact_multiples(self):
        shape = GemmShape(32, 32, 64)
        assert shape.padded(16, 16, 32) == shape

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            GemmShape(0, 1, 1)


class TestBf16Round:
    def test_preserves_exact_bf16_values(self):
        values = np.array([1.0, 0.5, -2.0, 0.0], dtype=np.float32)
        assert np.array_equal(bf16_round(values), values)

    def test_rounds_mantissa(self):
        value = np.float32(1.0 + 2 ** -10)  # not representable in bf16
        rounded = bf16_round(np.array([value]))[0]
        assert rounded in (np.float32(1.0), np.float32(1.0078125))

    def test_relative_error_bound(self, rng):
        values = rng.standard_normal(1000).astype(np.float32)
        rounded = bf16_round(values)
        mask = values != 0
        relative = np.abs((rounded[mask] - values[mask]) / values[mask])
        assert np.all(relative <= 2 ** -8)

    def test_preserves_shape(self, rng):
        values = rng.standard_normal((7, 5)).astype(np.float32)
        assert bf16_round(values).shape == (7, 5)
