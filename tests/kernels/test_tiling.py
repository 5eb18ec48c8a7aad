"""Tests for tile grids and matrix layouts."""

import pytest
from reference_emitters import iterate_output_tiles

from repro.errors import KernelError
from repro.kernels.tiling import (
    MatrixTileLayout,
    TileGrid,
    _process_grid,
    align_up,
    tile_k_for_pattern,
)
from repro.types import GemmShape, SparsityPattern


class TestTileK:
    def test_values(self):
        assert tile_k_for_pattern(SparsityPattern.DENSE_4_4) == 32
        assert tile_k_for_pattern(SparsityPattern.SPARSE_2_4) == 64
        assert tile_k_for_pattern(SparsityPattern.SPARSE_1_4) == 128
        assert tile_k_for_pattern(SparsityPattern.ROW_WISE) == 64


class TestTileGrid:
    def test_dense_grid(self):
        grid = TileGrid(GemmShape(64, 48, 96), SparsityPattern.DENSE_4_4)
        assert (grid.tiles_m, grid.tiles_n, grid.tiles_k) == (4, 3, 3)
        assert grid.output_tiles == 12
        assert grid.compute_instructions == 36

    def test_sparse_grid_needs_fewer_k_steps(self):
        shape = GemmShape(64, 64, 256)
        dense = TileGrid(shape, SparsityPattern.DENSE_4_4)
        sparse = TileGrid(shape, SparsityPattern.SPARSE_2_4)
        quarter = TileGrid(shape, SparsityPattern.SPARSE_1_4)
        assert dense.tiles_k == 2 * sparse.tiles_k == 4 * quarter.tiles_k

    def test_padding(self):
        grid = TileGrid(GemmShape(17, 18, 33), SparsityPattern.DENSE_4_4)
        assert grid.padded_shape == GemmShape(32, 32, 64)

    def test_iterate_output_tiles(self):
        grid = TileGrid(GemmShape(32, 32, 32), SparsityPattern.DENSE_4_4)
        assert list(iterate_output_tiles(grid)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_rowwise_rejected(self):
        with pytest.raises(KernelError):
            TileGrid(GemmShape(16, 16, 64), SparsityPattern.ROW_WISE)

    def test_describe(self):
        description = TileGrid(GemmShape(32, 32, 64), SparsityPattern.SPARSE_2_4).describe()
        assert description["pattern"] == "2:4"
        assert description["tile_k"] == 64


class TestMatrixTileLayout:
    def test_addresses_are_contiguous(self):
        layout = MatrixTileLayout(base_address=0x1000, tiles_rows=2, tiles_cols=3, tile_bytes=1024)
        assert layout.tile_address(0, 0) == 0x1000
        assert layout.tile_address(0, 1) == 0x1400
        assert layout.tile_address(1, 0) == 0x1000 + 3 * 1024
        assert layout.total_bytes == 6 * 1024
        assert layout.end_address == 0x1000 + 6 * 1024

    def test_out_of_range_rejected(self):
        layout = MatrixTileLayout(base_address=0, tiles_rows=1, tiles_cols=1, tile_bytes=128)
        with pytest.raises(KernelError):
            layout.tile_address(0, 1)

    def test_invalid_layout_rejected(self):
        with pytest.raises(KernelError):
            MatrixTileLayout(base_address=-1, tiles_rows=1, tiles_cols=1, tile_bytes=64)


class TestProcessGrid:
    """Regression pins for the explicit squareness tie-break.

    Perfect squares and unambiguous factorisations aside, a squareness tie
    — ``(2, 4)`` vs ``(4, 2)`` — must resolve to the wider grid (more
    columns): process-grid rows are runs of consecutive core indices, which
    contiguous-band placement packs into one locality domain.  The pin keeps
    planner results stable against refactors of the factor enumeration.
    """

    def test_perfect_square(self):
        assert _process_grid(16) == (4, 4)

    def test_tie_prefers_more_columns(self):
        assert _process_grid(2) == (1, 2)
        assert _process_grid(8) == (2, 4)
        assert _process_grid(32) == (4, 8)

    def test_group_alignment_keeps_the_tie_break(self):
        # Both (2, 4) and (4, 2) have columns dividing the group; the wider
        # grid must still win.
        assert _process_grid(8, 4) == (2, 4)
        assert _process_grid(32, 8) == (4, 8)

    def test_group_alignment_can_override_squareness(self):
        # (4, 8) is nearest-square but 8 does not divide a group of 4; the
        # best aligned pair is (8, 4).
        assert _process_grid(32, 4) == (8, 4)

    def test_awkward_group_degrades_to_single_column(self):
        # No multi-column factor of 8 divides a group of 3, but a single
        # column always aligns, so the grid degrades to one shard per row.
        assert _process_grid(8, 3) == (8, 1)

    def test_no_group_matches_the_plain_factorisation(self):
        assert _process_grid(8, None) == _process_grid(8)


class TestAlignUp:
    def test_rounds_to_page(self):
        assert align_up(1) == 4096
        assert align_up(4096) == 4096
        assert align_up(4097) == 8192

    def test_custom_alignment(self):
        assert align_up(65, 64) == 128

    def test_invalid_alignment(self):
        with pytest.raises(KernelError):
            align_up(10, 0)
