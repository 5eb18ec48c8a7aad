"""Property tests for multi-core sharding: exact coverage and fast==exact.

The coverage property is verified *independently* of the partitioner's own
bookkeeping: the C tiles each per-core program touches are recovered from the
``TILE_STORE_T`` addresses in its trace and mapped back to tile coordinates
through the C layout, so a builder that silently dropped or duplicated a tile
would fail even if the partition lists looked right.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.runtime import resolve_engine
from repro.cpu.params import TOPOLOGY_PRESETS, dual_socket_machine, get_topology
from repro.cpu.simulator import CycleApproximateSimulator
from repro.errors import KernelError
from repro.kernels.gemm import dense_block_grid
from repro.kernels.memo import build_kernel
from repro.kernels.sharding import _block_axes, shard_kernel
from repro.kernels.tiling import PARTITION_STRATEGIES, TileGrid, partition_grid
from repro.types import GemmShape, SparsityPattern

ENGINE = resolve_engine("VEGETA-S-16-2+OF+SPGEMM")

KINDS = st.sampled_from(
    [
        ("gemm", SparsityPattern.DENSE_4_4),
        ("spmm", SparsityPattern.SPARSE_2_4),
        ("spmm", SparsityPattern.SPARSE_1_4),
        ("spgemm", SparsityPattern.SPARSE_2_4),
        ("spgemm", SparsityPattern.SPARSE_1_4),
    ]
)


def owned_tiles(partition):
    """The output tiles of every core's cells, core by core, cell by cell."""
    row_tiles, col_tiles = _block_axes(partition.kind, partition.grid)
    return [
        (i, j)
        for cells in partition.blocks
        for row, col in cells
        for i in row_tiles[row]
        for j in col_tiles[col]
    ]


def stored_tiles(program):
    """C-tile coordinates recovered from the store addresses of a trace."""
    layout = program.c_layout
    tiles = []
    for op in program.trace.ops():
        if op.tile is not None and op.tile.opcode.is_store:
            offset = op.tile.memory.address - layout.base_address
            row, remainder = divmod(offset, layout.effective_row_stride)
            col, sub_tile = divmod(remainder, layout.effective_tile_stride)
            assert sub_tile == 0
            tiles.append((row, col))
    return tiles


class TestPartitionGrid:
    @given(
        rows=st.integers(min_value=1, max_value=12),
        cols=st.integers(min_value=1, max_value=12),
        cores=st.integers(min_value=1, max_value=20),
        strategy=st.sampled_from(PARTITION_STRATEGIES),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_cell_assigned_exactly_once(self, rows, cols, cores, strategy):
        assignments = partition_grid(rows, cols, cores, strategy)
        assert len(assignments) == cores
        cells = [cell for share in assignments for cell in share]
        assert len(cells) == rows * cols
        assert set(cells) == {(r, c) for r in range(rows) for c in range(cols)}

    @given(
        rows=st.integers(min_value=1, max_value=12),
        cols=st.integers(min_value=1, max_value=12),
        strategy=st.sampled_from(PARTITION_STRATEGIES),
    )
    @settings(max_examples=30, deadline=None)
    def test_one_core_partition_is_row_major(self, rows, cols, strategy):
        (share,) = partition_grid(rows, cols, 1, strategy)
        assert share == [(r, c) for r in range(rows) for c in range(cols)]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(KernelError):
            partition_grid(0, 4, 2)
        with pytest.raises(KernelError):
            partition_grid(4, 4, 0)
        with pytest.raises(KernelError):
            partition_grid(4, 4, 2, "diagonal")


class TestShardCoverage:
    @given(
        kind_pattern=KINDS,
        m_tiles=st.integers(min_value=1, max_value=6),
        n_tiles=st.integers(min_value=1, max_value=6),
        k_tiles=st.integers(min_value=1, max_value=2),
        cores=st.integers(min_value=1, max_value=6),
        strategy=st.sampled_from(PARTITION_STRATEGIES),
    )
    @settings(max_examples=40, deadline=None)
    def test_shards_cover_output_grid_exactly_once(
        self, kind_pattern, m_tiles, n_tiles, k_tiles, cores, strategy
    ):
        kind, pattern = kind_pattern
        grid_pattern = SparsityPattern.DENSE_4_4 if kind == "gemm" else pattern
        tile_k = 32 * grid_pattern.compression_ratio
        shape = GemmShape(m=m_tiles * 16, n=n_tiles * 16, k=k_tiles * tile_k)
        sharded = shard_kernel(kind, shape, pattern, cores, strategy)

        grid = TileGrid(shape=shape, pattern=grid_pattern)
        expected = {
            (i, j) for i in range(grid.tiles_m) for j in range(grid.tiles_n)
        }
        # The partitioner's own bookkeeping covers the grid exactly once...
        owned = owned_tiles(sharded)
        assert len(owned) == len(expected)
        assert set(owned) == expected
        # ...and so do the C tiles actually stored by the emitted traces.
        stored = [
            tile for program in sharded.programs for tile in stored_tiles(program)
        ]
        assert len(stored) == len(expected)
        assert set(stored) == expected

    @given(
        kind_pattern=KINDS,
        cores=st.integers(min_value=2, max_value=5),
        strategy=st.sampled_from(PARTITION_STRATEGIES),
    )
    @settings(max_examples=15, deadline=None)
    def test_one_core_shard_is_bit_identical_to_builder(
        self, kind_pattern, cores, strategy
    ):
        kind, pattern = kind_pattern
        shape = GemmShape(m=64, n=64, k=256)
        single = shard_kernel(kind, shape, pattern, 1, strategy).programs[0]
        parts = shard_kernel(kind, shape, pattern, cores, strategy).programs
        # Concatenating a partition's traces must reproduce the single-core
        # instruction mix (the op multiset, not the order across cores).
        assert sum(len(program.trace) for program in parts) == len(single.trace)


class TestLocalitySharding:
    """Hierarchy-aware sharding: locality columns and domain-aligned grids."""

    SHAPE = GemmShape(m=256, n=256, k=256)

    def test_flat_shard_has_no_locality_columns(self):
        sharded = shard_kernel(
            "gemm", self.SHAPE, SparsityPattern.DENSE_4_4, 8, "2d-cyclic"
        )
        assert sharded.locality == ()
        assert sharded.domains == ()

    def test_topology_shard_records_contiguous_domains(self):
        sharded = shard_kernel(
            "gemm",
            self.SHAPE,
            SparsityPattern.DENSE_4_4,
            128,
            "row-block",
            topology=dual_socket_machine(),
        )
        assert len(sharded.locality) == 128
        assert sharded.locality[0] == "socket0/l3-00"
        assert sharded.locality[-1] == "socket1/l3-11"
        assert list(sharded.domains) == sorted(sharded.domains)
        assert len(set(sharded.domains)) == 4

    @pytest.mark.parametrize("strategy", ("row-block", "column-block"))
    def test_band_strategies_keep_the_flat_partition(self, strategy):
        flat = shard_kernel("gemm", self.SHAPE, SparsityPattern.DENSE_4_4, 8, strategy)
        topo = shard_kernel(
            "gemm",
            self.SHAPE,
            SparsityPattern.DENSE_4_4,
            8,
            strategy,
            topology=dual_socket_machine(),
        )
        assert topo.blocks == flat.blocks

    def test_2d_cyclic_aligns_process_rows_to_the_domain(self):
        # 128 cores over 4 slices of 32: the process-grid columns must
        # divide the common domain size so whole process rows pack inside
        # one slice (the shards of a slice then share A-operand rows).
        sharded = shard_kernel(
            "gemm",
            self.SHAPE,
            SparsityPattern.DENSE_4_4,
            128,
            "2d-cyclic",
            topology=dual_socket_machine(),
        )
        grid = TileGrid(shape=self.SHAPE, pattern=SparsityPattern.DENSE_4_4)
        block_rows, block_cols = dense_block_grid(grid)
        assert sharded.blocks == tuple(
            tuple(cells)
            for cells in partition_grid(
                len(block_rows), len(block_cols), 128, "2d-cyclic", group_size=32
            )
        )

    def test_unalignable_domain_split_falls_back_to_flat(self):
        # Two cores land one-per-slice (common domain size 1): there is no
        # alignment to express, so the partition must stay bit-identical to
        # the flat 2d-cyclic factorisation.
        flat = shard_kernel(
            "gemm", self.SHAPE, SparsityPattern.DENSE_4_4, 2, "2d-cyclic"
        )
        topo = shard_kernel(
            "gemm",
            self.SHAPE,
            SparsityPattern.DENSE_4_4,
            2,
            "2d-cyclic",
            topology=dual_socket_machine(),
        )
        assert topo.blocks == flat.blocks
        assert len(set(topo.domains)) == 2

    @pytest.mark.parametrize("preset", list(TOPOLOGY_PRESETS))
    def test_every_preset_still_partitions_exactly_once(self, preset):
        sharded = shard_kernel(
            "spmm",
            GemmShape(m=128, n=128, k=256),
            SparsityPattern.SPARSE_2_4,
            16,
            "2d-cyclic",
            topology=get_topology(preset),
        )
        grid = TileGrid(shape=GemmShape(m=128, n=128, k=256), pattern=SparsityPattern.SPARSE_2_4)
        expected = {(i, j) for i in range(grid.tiles_m) for j in range(grid.tiles_n)}
        owned = owned_tiles(sharded)
        assert len(owned) == len(expected)
        assert set(owned) == expected


class TestSharedBuilds:
    """Re-sharding reuses memoized traces without aliasing program state."""

    SHAPE = GemmShape(m=128, n=128, k=256)

    def test_shards_of_the_same_cells_keep_independent_labels(self):
        first = shard_kernel("gemm", self.SHAPE, SparsityPattern.DENSE_4_4, 2)
        second = shard_kernel("gemm", self.SHAPE, SparsityPattern.DENSE_4_4, 2)
        for core in range(2):
            assert second.programs[core].trace is first.programs[core].trace
            assert second.programs[core] is not first.programs[core]
            assert first.programs[core].label == f"dense-gemm-optimized@core{core}/2"
            assert second.programs[core].label == first.programs[core].label
        plain = build_kernel("gemm", self.SHAPE, blocks=first.blocks[0])
        assert plain.trace is first.programs[0].trace
        assert plain.label == "dense-gemm-optimized"

    def test_shard_trace_columns_are_read_only(self):
        program = shard_kernel(
            "spgemm", self.SHAPE, SparsityPattern.SPARSE_2_4, 4
        ).programs[1]
        with pytest.raises(ValueError):
            program.trace.columns["address"][0] = 0


class TestShardGeometry:
    """Sharding with a foreign tile geometry (the planner's AMX/SME path)."""

    SHAPE = GemmShape(m=128, n=128, k=256)

    def test_default_geometry_argument_matches_the_default(self):
        from repro.types import DEFAULT_GEOMETRY

        explicit = shard_kernel(
            "gemm", self.SHAPE, SparsityPattern.DENSE_4_4, 4, "row-block",
            geometry=DEFAULT_GEOMETRY,
        )
        implicit = shard_kernel(
            "gemm", self.SHAPE, SparsityPattern.DENSE_4_4, 4, "row-block"
        )
        assert explicit.blocks == implicit.blocks
        assert [len(p.trace) for p in explicit.programs] == [
            len(p.trace) for p in implicit.programs
        ]

    def test_foreign_geometry_shard_covers_its_own_grid(self):
        geometry = resolve_engine("SME-like").geometry
        sharded = shard_kernel(
            "gemm", self.SHAPE, SparsityPattern.DENSE_4_4, 4, "2d-cyclic",
            geometry=geometry,
        )
        grid = TileGrid(
            shape=self.SHAPE, pattern=SparsityPattern.DENSE_4_4, geometry=geometry
        )
        expected = {(i, j) for i in range(grid.tiles_m) for j in range(grid.tiles_n)}
        owned = owned_tiles(sharded)
        assert len(owned) == len(expected)
        assert set(owned) == expected
        stored = [
            tile for program in sharded.programs for tile in stored_tiles(program)
        ]
        assert set(stored) == expected

    def test_sparse_kinds_reject_foreign_geometry(self):
        geometry = resolve_engine("SME-like").geometry
        for kind, pattern in (
            ("spmm", SparsityPattern.SPARSE_2_4),
            ("spgemm", SparsityPattern.SPARSE_2_4),
        ):
            with pytest.raises(KernelError):
                shard_kernel(
                    kind, self.SHAPE, pattern, 2, "row-block", geometry=geometry
                )


class TestFastMatchesExact:
    @given(
        kind_pattern=KINDS,
        m_tiles=st.integers(min_value=2, max_value=5),
        n_tiles=st.integers(min_value=2, max_value=5),
        cores=st.integers(min_value=1, max_value=4),
        strategy=st.sampled_from(PARTITION_STRATEGIES),
    )
    @settings(max_examples=12, deadline=None)
    def test_per_core_fast_cycles_match_exact_bit_for_bit(
        self, kind_pattern, m_tiles, n_tiles, cores, strategy
    ):
        kind, pattern = kind_pattern
        grid_pattern = SparsityPattern.DENSE_4_4 if kind == "gemm" else pattern
        tile_k = 32 * grid_pattern.compression_ratio
        shape = GemmShape(m=m_tiles * 16, n=n_tiles * 16, k=4 * tile_k)
        sharded = shard_kernel(kind, shape, pattern, cores, strategy)
        fast_sim = CycleApproximateSimulator(engine=ENGINE, mode="fast")
        exact_sim = CycleApproximateSimulator(engine=ENGINE, mode="exact")
        for program in sharded.programs:
            fast = fast_sim.run(program.trace)
            exact = exact_sim.run(program.trace)
            assert fast.core_cycles == exact.core_cycles
            assert fast.memory_counters == exact.memory_counters
