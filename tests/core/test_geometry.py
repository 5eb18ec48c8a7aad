"""Tests for the flexible tile geometry carried by engine backends."""

import pytest

from repro.core.engine import AMX_GEOMETRY, SME_GEOMETRY, EngineConfig, get_engine
from repro.errors import ConfigurationError
from repro.types import DEFAULT_GEOMETRY, DType, TileGeometry


class TestDefaultGeometry:
    def test_matches_paper_constants(self):
        assert DEFAULT_GEOMETRY.rows == 16
        assert DEFAULT_GEOMETRY.row_bytes == 64
        assert DEFAULT_GEOMETRY.tile_reg_bytes == 1024
        assert DEFAULT_GEOMETRY.metadata_reg_bytes == 128
        assert DEFAULT_GEOMETRY.fp32_cols == 16
        assert DEFAULT_GEOMETRY.bf16_cols == 32

    def test_is_default(self):
        assert DEFAULT_GEOMETRY.is_default
        assert TileGeometry(name="renamed").is_default

    def test_register_bytes(self):
        assert DEFAULT_GEOMETRY.register_bytes("treg") == 1024
        assert DEFAULT_GEOMETRY.register_bytes("ureg") == 2048
        assert DEFAULT_GEOMETRY.register_bytes("vreg") == 4096
        assert DEFAULT_GEOMETRY.register_bytes("mreg") == 128
        with pytest.raises(ConfigurationError):
            DEFAULT_GEOMETRY.register_bytes("zreg")

    def test_cols_per_dtype(self):
        assert DEFAULT_GEOMETRY.cols(DType.BF16) == 32
        assert DEFAULT_GEOMETRY.cols(DType.FP32) == 16


class TestForeignGeometries:
    def test_amx_shares_the_tile_image_but_not_metadata(self):
        assert AMX_GEOMETRY.rows == 16
        assert AMX_GEOMETRY.row_bytes == 64
        assert not AMX_GEOMETRY.supports_metadata
        assert AMX_GEOMETRY.num_metadata_regs == 0

    def test_sme_scales_every_derived_size(self):
        assert SME_GEOMETRY.rows == 32
        assert SME_GEOMETRY.row_bytes == 128
        assert SME_GEOMETRY.tile_reg_bytes == 4096
        assert SME_GEOMETRY.fp32_cols == 32
        assert SME_GEOMETRY.bf16_cols == 64
        assert SME_GEOMETRY.macs_per_tile_instruction == 32 * 32 * 64
        assert not SME_GEOMETRY.is_default

    def test_amx_is_structurally_default_except_metadata(self):
        # The AMX tile image matches VEGETA's; only the metadata registers
        # differ, so AMX is not the default geometry through them.
        assert not AMX_GEOMETRY.is_default
        assert (AMX_GEOMETRY.rows, AMX_GEOMETRY.row_bytes) == (
            DEFAULT_GEOMETRY.rows,
            DEFAULT_GEOMETRY.row_bytes,
        )

    def test_describe_carries_geometry_columns(self):
        info = SME_GEOMETRY.describe()
        assert info["geometry"] == "sme"
        assert info["tile_rows"] == 32
        assert info["tile_reg_bytes"] == 4096
        assert info["metadata_reg_bytes"] == 0


class TestValidation:
    def test_rejects_non_square_geometry(self):
        with pytest.raises(ConfigurationError, match="square"):
            TileGeometry(name="wide", rows=16, row_bytes=128)

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ConfigurationError):
            TileGeometry(name="bad", rows=0, row_bytes=0)

    def test_rejects_partial_fp32_rows(self):
        with pytest.raises(ConfigurationError):
            TileGeometry(name="bad", rows=1, row_bytes=6)

    def test_rejects_mismatched_metadata_size_and_count(self):
        with pytest.raises(ConfigurationError, match="zero together"):
            TileGeometry(name="bad", metadata_reg_bytes=0, num_metadata_regs=8)
        with pytest.raises(ConfigurationError, match="zero together"):
            TileGeometry(name="bad", metadata_reg_bytes=128, num_metadata_regs=0)

    def test_rejects_too_few_tile_registers(self):
        with pytest.raises(ConfigurationError, match="at least 8"):
            TileGeometry(name="bad", num_tile_regs=4)

    def test_sparse_engine_requires_metadata_registers(self):
        with pytest.raises(ConfigurationError, match="metadata"):
            EngineConfig(name="bad", sparse=True, alpha=1, beta=2, geometry=AMX_GEOMETRY)


class TestEngineGeometry:
    def test_catalog_backends_carry_their_geometry(self):
        assert get_engine("AMX-like").geometry is AMX_GEOMETRY
        assert get_engine("SME-like").geometry is SME_GEOMETRY
        assert get_engine("VEGETA-S-16-2").geometry.is_default

    def test_busy_cycles_scale_with_tile_macs(self):
        # The SME-like tile holds 8x the default tile's MACs but the engine
        # only has 4x the MAC throughput: each instruction keeps the engine
        # busy twice as long as a VEGETA instruction on its 2048-MAC array.
        sme = get_engine("SME-like")
        assert sme.geometry.macs_per_tile_instruction == 8 * 16 * 16 * 32
        assert sme.busy_cycles_per_instruction == 32
        vegeta = get_engine("VEGETA-S-16-2")
        assert vegeta.busy_cycles_per_instruction == 16

    def test_feed_latency_follows_geometry_rows(self):
        assert get_engine("SME-like").feed_first_latency == SME_GEOMETRY.rows
