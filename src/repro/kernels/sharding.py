"""Multi-core sharding of the tiled kernels.

One GEMM/SPMM/SPGEMM problem is split across N simulated cores by
partitioning the kernel's *block grid* — the builder's register-blocking unit
(a 2x2 group of C tiles for the dense kernel, an interleaved row-pair x one
tile column for the sparse kernels) — with one of the
:data:`~repro.kernels.tiling.PARTITION_STRATEGIES`.  Partitioning whole
blocks keeps every per-core program a valid instance of its builder: the
core's trace is exactly what the single-core builder would emit for its share
of blocks, so the one-core shard is bit-identical to the unsharded kernel and
the union of all shards covers the output-tile grid exactly once.

The partition itself (:func:`partition_kernel`: the grid, the core
placement, each core's cells and tiles) is cheap and builds no trace, and
the kernel's block templates count what each core's cells touch
(:meth:`KernelPartition.cell_totals`), so a caller that only prices a
partition never builds it.  :func:`shard_kernel` adds the per-core builds.

The per-core programs are then simulated together by
:func:`repro.cpu.multicore.simulate_multicore`, which adds the shared-L3 /
DRAM bandwidth arbitration the private per-core simulators cannot see.
Because the builders emit columnar traces
(:class:`repro.cpu.columnar.ColumnarTrace`), the per-core programs carry
content-derived simulation keys: the address-shifted shards of one kernel
collapse into a few signature-equivalence classes, of which the multi-core
simulator runs one representative each (see the block-signature
memoization notes in ``repro.cpu.multicore``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from ..cpu.topology import TopologyNode, place_cores
from ..errors import KernelError
from ..types import DEFAULT_GEOMETRY, GemmShape, SparsityPattern, TileGeometry
from .gemm import build_dense_gemm_kernel, dense_block_grid  # noqa: F401
from .gemm import dense_block_coords, dense_templates
from .memo import KERNEL_KINDS, build_kernel
from .program import KernelProgram
from .spgemm import build_spgemm_kernel, spgemm_templates  # noqa: F401
from .spmm import build_spmm_kernel, spmm_templates  # noqa: F401
from .template import CellTotals, cell_totals, interleaved_coords
from .tiling import TileGrid, interleaved_block_rows, partition_grid

# The builders stay bound here (and in ``repro.analysis.runtime``) for code
# that addresses them through these modules, e.g. perfbench's tracer tests;
# every build itself goes through :func:`build_kernel`.

#: Kernel kinds the sharding layer knows how to build.
SHARDABLE_KERNELS = KERNEL_KINDS


def _block_axes(kind: str, grid: TileGrid) -> Tuple[List[tuple], List[tuple]]:
    """The distinct output-tile rows and columns of each block-grid row / column."""
    if kind == "gemm":
        block_rows, block_cols = dense_block_grid(grid)
        return (
            [tuple(dict.fromkeys(pair)) for pair in block_rows],
            [tuple(dict.fromkeys(pair)) for pair in block_cols],
        )
    return interleaved_block_rows(grid.tiles_m), [(j,) for j in range(grid.tiles_n)]


@dataclass(frozen=True)
class KernelPartition:
    """One kernel's output-tile grid split across cores, before any build.

    ``blocks[c]`` is core ``c``'s block-grid cells (possibly none when the
    partition left the core idle) and ``tiles[c]`` the output-tile
    coordinates those cells cover.  ``tiles`` always partitions the full
    padded output-tile grid.
    """

    kind: str
    shape: GemmShape
    pattern: SparsityPattern
    strategy: str
    blocks: Tuple[Tuple[Tuple[int, int], ...], ...]
    #: Per-core locality path when sharded against a topology (e.g.
    #: ``"socket0/l3-00"``), empty otherwise.
    locality: Tuple[str, ...] = ()
    #: Per-core leaf-domain index matching ``locality``.
    domains: Tuple[int, ...] = ()
    geometry: TileGeometry = DEFAULT_GEOMETRY

    @property
    def grid(self) -> TileGrid:
        """The output-tile grid the blocks tile."""
        return TileGrid(shape=self.shape, pattern=self.pattern, geometry=self.geometry)

    @property
    def cores(self) -> int:
        """Number of simulated cores the kernel was partitioned over."""
        return len(self.blocks)

    @property
    def tiles_per_core(self) -> Tuple[int, ...]:
        """Output tiles owned by each core (the static load balance)."""
        row_tiles, col_tiles = _block_axes(self.kind, self.grid)
        return tuple(
            sum(len(row_tiles[row]) * len(col_tiles[col]) for row, col in cells)
            for cells in self.blocks
        )

    def cell_totals(self, line_bytes: int) -> CellTotals:
        """Each core's tile computes, bytes and distinct ``line_bytes``
        lines, and the lines of all cores together, counted from the
        kernel's block templates (:func:`repro.kernels.template.cell_totals`):
        what the per-core builds of :func:`shard_kernel` would stamp,
        without a build."""
        grid = self.grid
        cells = np.array(
            [cell for core_cells in self.blocks for cell in core_cells], dtype=np.int64
        ).reshape(-1, 2)
        owners = np.repeat(
            np.arange(self.cores, dtype=np.int64), [len(core_cells) for core_cells in self.blocks]
        )
        if self.kind == "gemm":
            templates = dense_templates(grid)
            classes, coords, _ = dense_block_coords(cells, grid.tiles_m, grid.tiles_n)
        else:
            templates = (spmm_templates if self.kind == "spmm" else spgemm_templates)(grid)
            classes, coords, _ = interleaved_coords(cells, grid.tiles_m)
        return cell_totals(templates, classes, coords, owners, self.cores, line_bytes)


@dataclass(frozen=True)
class ShardedKernel(KernelPartition):
    """The per-core decomposition of one kernel: a :class:`KernelPartition`
    and ``programs[c]``, core ``c``'s :class:`KernelProgram` (with an empty
    trace when the partition left the core idle)."""

    programs: Tuple[KernelProgram, ...] = ()


def partition_kernel(
    kind: str,
    shape: GemmShape,
    pattern: SparsityPattern,
    cores: int,
    strategy: str = "row-block",
    *,
    topology: Optional[TopologyNode] = None,
    geometry: TileGeometry = DEFAULT_GEOMETRY,
) -> KernelPartition:
    """Partition one kernel's block grid across ``cores`` simulated cores.

    ``kind``, ``shape`` and ``pattern`` name the kernel as for
    :func:`shard_kernel`, which builds the programs of exactly this
    partition; ``strategy`` is one of the
    :data:`~repro.kernels.tiling.PARTITION_STRATEGIES`.

    ``topology`` makes the partition hierarchy-aware: cores are placed on
    the topology's leaf locality domains
    (:func:`repro.cpu.topology.place_cores`, contiguous index bands), each
    core's ``locality`` path and ``domains`` index are recorded on the
    partition, and the 2D-cyclic process grid is aligned so whole process
    rows pack inside one domain — a socket's shards then share their
    A-operand footprint, which the per-domain shared-cache model rewards.
    The band strategies already keep each domain's shards adjacent, so
    their cell assignment is unchanged; with ``topology=None`` every
    strategy is bit-identical to the flat partition.

    ``geometry`` partitions the dense kernel for a foreign tile geometry
    (the AMX-like / SME-like backends): the block grid, per-core builds and
    the resulting traces all use that geometry's tile sizes.  The sparse
    builders are VEGETA-only, so a non-default geometry on ``spmm`` /
    ``spgemm`` is an error rather than a silently mis-partitioned grid.
    """
    if kind not in SHARDABLE_KERNELS:
        raise KernelError(
            f"unknown kernel kind {kind!r}; expected one of {SHARDABLE_KERNELS}"
        )
    if kind != "gemm" and geometry != DEFAULT_GEOMETRY:
        raise KernelError(
            f"the {kind} kernel builder is VEGETA-only; "
            f"geometry {geometry.name!r} can only shard the dense kernel"
        )
    grid_pattern = SparsityPattern.DENSE_4_4 if kind == "gemm" else pattern
    grid = TileGrid(shape=shape, pattern=grid_pattern, geometry=geometry)
    row_tiles, col_tiles = _block_axes(kind, grid)
    locality: Tuple[str, ...] = ()
    domains: Tuple[int, ...] = ()
    group_size: Optional[int] = None
    if topology is not None:
        placement = place_cores(topology, cores)
        locality = placement.paths
        domains = placement.leaf_index
        common = math.gcd(*placement.domain_sizes())
        # A one-core common domain size carries no alignment information —
        # aligning to it would only perturb the process grid, so the flat
        # factorization stands.
        group_size = common if common > 1 else None
    assignments = partition_grid(
        len(row_tiles), len(col_tiles), cores, strategy, group_size=group_size
    )
    return KernelPartition(
        kind=kind,
        shape=shape,
        pattern=grid_pattern,
        strategy=strategy,
        blocks=tuple(tuple(cells) for cells in assignments),
        locality=locality,
        domains=domains,
        geometry=geometry,
    )


def shard_kernel(
    kind: str,
    shape: GemmShape,
    pattern: SparsityPattern,
    cores: int,
    strategy: str = "row-block",
    *,
    max_output_tiles: Optional[int] = None,
    topology: Optional[TopologyNode] = None,
    geometry: TileGeometry = DEFAULT_GEOMETRY,
) -> ShardedKernel:
    """Shard one kernel's output-tile grid across ``cores`` simulated cores.

    ``kind`` selects the builder (``"gemm"`` / ``"spmm"`` / ``"spgemm"``);
    ``pattern`` is the A pattern for SPMM and the joint operand pattern for
    SPGEMM (ignored for the dense kernel).  With ``cores=1`` the single
    program is bit-identical to the unsharded builder output.

    The partition — and what ``strategy``, ``topology`` and ``geometry``
    do to it — is :func:`partition_kernel`'s; ``max_output_tiles``
    truncates every core's build.  Per-core builds go through
    :func:`repro.kernels.memo.build_kernel`, so re-sharding the same cells
    (another topology, a baseline, a planner candidate) reuses their traces,
    and every core's build stamps its cells from the kernel's one set of
    block templates; each core's label lives on its own program wrapper.
    """
    partition = partition_kernel(
        kind, shape, pattern, cores, strategy, topology=topology, geometry=geometry
    )
    programs: List[KernelProgram] = []
    for core, cells in enumerate(partition.blocks):
        program = build_kernel(
            kind,
            shape,
            pattern,
            max_output_tiles=max_output_tiles,
            blocks=cells,
            geometry=geometry,
        )
        programs.append(replace(program, label=f"{program.label}@core{core}/{cores}"))
    return ShardedKernel(**vars(partition), programs=tuple(programs))
