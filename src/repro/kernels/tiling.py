"""Tiling and memory-layout decisions shared by the kernel generators.

A GEMM/SPMM kernel partitions C(MxN) += A(MxK) x B(KxN) into tiles that fit
the VEGETA registers (Section IV-B):

* C tiles are always 16 x 16 (FP32, 1 KB),
* A tiles are 16 x Tk where Tk = 32 x (compression ratio): 32 for dense 4:4,
  64 for 2:4 and 128 for 1:4 (the stored non-zeros always fit a 1 KB treg),
* B tiles are Tk x 16 and are stored *transposed* so each one is a contiguous
  1 / 2 / 4 KB register image.

:class:`TileGrid` rounds the problem up to whole tiles and enumerates tile
coordinates; :class:`MatrixTileLayout` assigns every tile a byte address in
the flat kernel memory image so loads/stores can be emitted (and the
functional model can verify results).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..core.rowwise_mapping import ROWWISE_EFFECTIVE_COLS
from ..errors import KernelError
from ..types import DEFAULT_GEOMETRY, GemmShape, SparsityPattern, TileGeometry


def tile_k_for_pattern(
    pattern: SparsityPattern, geometry: TileGeometry = DEFAULT_GEOMETRY
) -> int:
    """Effective K covered by one tile instruction for a given A pattern."""
    if pattern is SparsityPattern.ROW_WISE:
        # TILE_SPMM_R always covers an effective width of 64 (Section IV-B).
        return ROWWISE_EFFECTIVE_COLS
    return geometry.bf16_cols * pattern.compression_ratio


@dataclass(frozen=True)
class TileGrid:
    """The tile decomposition of one GEMM problem for one A-sparsity pattern.

    All tile extents derive from ``geometry``; the default geometry gives the
    paper's 16x16 C tiles and 32-element dense K-steps.
    """

    shape: GemmShape
    pattern: SparsityPattern
    geometry: TileGeometry = DEFAULT_GEOMETRY

    def __post_init__(self) -> None:
        if self.pattern is SparsityPattern.ROW_WISE:
            raise KernelError(
                "row-wise kernels use their own packing; TileGrid handles fixed N:4"
            )
        if self.pattern is not SparsityPattern.DENSE_4_4 and not self.geometry.supports_metadata:
            raise KernelError(
                f"geometry {self.geometry.name!r} has no metadata registers; "
                f"only dense kernels can target it"
            )

    @property
    def tile_m(self) -> int:
        """Rows of C covered per tile."""
        return self.geometry.rows

    @property
    def tile_n(self) -> int:
        """Columns of C covered per tile."""
        return self.geometry.fp32_cols

    @property
    def tile_k(self) -> int:
        """Effective K covered per tile instruction."""
        return tile_k_for_pattern(self.pattern, self.geometry)

    @property
    def padded_shape(self) -> GemmShape:
        """Problem dimensions rounded up to whole tiles."""
        return self.shape.padded(self.tile_m, self.tile_n, self.tile_k)

    @property
    def tiles_m(self) -> int:
        """Number of tile rows of C."""
        return self.padded_shape.m // self.tile_m

    @property
    def tiles_n(self) -> int:
        """Number of tile columns of C."""
        return self.padded_shape.n // self.tile_n

    @property
    def tiles_k(self) -> int:
        """Number of K-steps (tile instructions per C tile)."""
        return self.padded_shape.k // self.tile_k

    @property
    def output_tiles(self) -> int:
        """Number of C tiles."""
        return self.tiles_m * self.tiles_n

    @property
    def compute_instructions(self) -> int:
        """Total tile GEMM/SPMM instructions the kernel will issue."""
        return self.output_tiles * self.tiles_k

    def iterate_output_tiles(self) -> Iterator[Tuple[int, int]]:
        """Yield (i, j) tile coordinates of C in row-major order."""
        for i in range(self.tiles_m):
            for j in range(self.tiles_n):
                yield i, j

    def describe(self) -> dict:
        """Human-readable summary used by examples and benchmarks."""
        return {
            "pattern": self.pattern.value,
            "tile_m": self.tile_m,
            "tile_n": self.tile_n,
            "tile_k": self.tile_k,
            "tiles_m": self.tiles_m,
            "tiles_n": self.tiles_n,
            "tiles_k": self.tiles_k,
            "compute_instructions": self.compute_instructions,
        }


@dataclass(frozen=True)
class MatrixTileLayout:
    """Byte addresses of a matrix stored tile-by-tile in the kernel image.

    Tiles are stored in row-major tile order.  ``tile_bytes`` is the size of
    one tile's register image; by default tiles are contiguous
    (``tile_stride`` = ``tile_bytes``) and rows follow each other directly
    (``row_stride`` = ``tiles_cols * tile_stride``).  A builder may widen
    either stride (0 keeps the default) to pad tiles or tile rows out to a
    cache-friendly alignment — e.g. a multiple of the L1's set span, so
    every tile row induces the same set-index pattern and the per-block
    cache behaviour of a periodic kernel stays periodic too.  Padding bytes
    are never addressed: loads and stores still touch ``tile_bytes`` per
    tile, so the kernel's cache footprint is unchanged.
    """

    base_address: int
    tiles_rows: int
    tiles_cols: int
    tile_bytes: int
    name: str = ""
    tile_stride: int = 0
    row_stride: int = 0

    def __post_init__(self) -> None:
        if self.base_address < 0 or self.tile_bytes <= 0:
            raise KernelError(f"invalid layout for {self.name or 'matrix'}")
        if self.tiles_rows <= 0 or self.tiles_cols <= 0:
            raise KernelError(f"empty tile grid for {self.name or 'matrix'}")
        if self.tile_stride and self.tile_stride < self.tile_bytes:
            raise KernelError(
                f"tile stride {self.tile_stride} of {self.name or 'matrix'} "
                f"overlaps its {self.tile_bytes}-byte tiles"
            )
        if self.row_stride and self.row_stride < self.tiles_cols * self.effective_tile_stride:
            raise KernelError(
                f"row stride {self.row_stride} of {self.name or 'matrix'} "
                f"overlaps its {self.tiles_cols}-tile rows"
            )

    @property
    def effective_tile_stride(self) -> int:
        """Distance between neighbouring tiles of one row."""
        return self.tile_stride or self.tile_bytes

    @property
    def effective_row_stride(self) -> int:
        """Distance between the first tiles of neighbouring rows."""
        return self.row_stride or self.tiles_cols * self.effective_tile_stride

    def tile_address(self, row: int, col: int) -> int:
        """Address of tile (row, col)."""
        if not (0 <= row < self.tiles_rows and 0 <= col < self.tiles_cols):
            raise KernelError(
                f"tile ({row}, {col}) outside grid "
                f"{self.tiles_rows}x{self.tiles_cols} of {self.name or 'matrix'}"
            )
        return (
            self.base_address
            + row * self.effective_row_stride
            + col * self.effective_tile_stride
        )

    @property
    def total_bytes(self) -> int:
        """Bytes spanned by the whole matrix image (padding included)."""
        return (
            (self.tiles_rows - 1) * self.effective_row_stride
            + (self.tiles_cols - 1) * self.effective_tile_stride
            + self.tile_bytes
        )

    @property
    def end_address(self) -> int:
        """One past the last byte of the matrix image."""
        return self.base_address + self.total_bytes


def align_up(address: int, alignment: int = 4096) -> int:
    """Round an address up to the given alignment (page-aligned by default)."""
    if alignment <= 0:
        raise KernelError(f"invalid alignment {alignment}")
    return int(math.ceil(address / alignment) * alignment)


#: Partition strategies the multi-core sharding supports.
#:
#: * ``"row-block"`` — contiguous bands of grid rows per core (each core owns
#:   whole output rows, maximising its B reuse across the row),
#: * ``"column-block"`` — contiguous bands of grid columns per core (whole
#:   output columns, maximising A reuse down the column),
#: * ``"2d-cyclic"`` — the cores form a near-square process grid and cells are
#:   dealt round-robin along both axes (the tiled-MM default: balanced even
#:   when the grid is much smaller than ``cores`` along one axis).
PARTITION_STRATEGIES = ("row-block", "column-block", "2d-cyclic")


def _process_grid(cores: int, group_size: Optional[int] = None) -> Tuple[int, int]:
    """Near-square (rows, cols) factorisation of ``cores`` for 2D-cyclic.

    ``group_size`` (the number of consecutive core indices sharing one
    locality domain — a socket or an L3 slice) asks for a factorisation
    whose process-grid *rows* (runs of ``cols`` consecutive cores) pack
    wholly inside one domain: the nearest-square factor pair whose column
    count divides the group.  The cores of one process row handle the same
    block-grid rows, so domain-aligned rows make a domain's shards share
    their A-operand footprint — which the per-domain cache model rewards.
    Without a satisfiable group (or with ``group_size=None``) this is the
    plain near-square factorisation.

    Squareness ties — ``(2, 4)`` vs ``(4, 2)`` for 8 cores — resolve to the
    factorisation with **more columns** (fewer rows).  A process-grid row is
    a run of ``cols`` consecutive core indices sharing the same block-grid
    rows, and consecutive indices are what contiguous-band core placement
    packs into one locality domain: wider rows keep more of a domain's
    cores on shared A-operand rows, which the per-domain cache model
    rewards.  The tie-break is explicit (not iteration-order luck) so
    planner results stay stable across refactors.
    """

    def squareness(pair: Tuple[int, int]) -> Tuple[int, int]:
        grid_rows, grid_cols = pair
        return (abs(grid_rows - grid_cols), grid_rows)

    factorizations = [
        (rows, cores // rows) for rows in range(1, cores + 1) if cores % rows == 0
    ]
    if group_size and group_size > 0:
        aligned = [
            (rows, cols)
            for rows, cols in factorizations
            if cols <= group_size and group_size % cols == 0
        ]
        if aligned:
            return min(aligned, key=squareness)
    return min(factorizations, key=squareness)


def _band_bounds(extent: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``extent`` indices into ``parts`` contiguous balanced bands."""
    base, remainder = divmod(extent, parts)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for part in range(parts):
        size = base + (1 if part < remainder else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def partition_grid(
    rows: int,
    cols: int,
    cores: int,
    strategy: str = "row-block",
    *,
    group_size: Optional[int] = None,
) -> List[List[Tuple[int, int]]]:
    """Assign every cell of a ``rows x cols`` grid to exactly one core.

    Returns one list of ``(row, col)`` cells per core, each in row-major
    order — the order the kernel builders emit blocks in, so a one-core
    partition reproduces the unsharded builder iteration exactly.  The
    partition is always exact: every cell appears in exactly one core's list
    (cores may receive an empty list when ``cores`` exceeds the grid).

    ``group_size`` is the locality-domain hint forwarded to the 2D-cyclic
    process-grid factorisation (see :func:`_process_grid`); the band
    strategies are hierarchy-aware by construction — contiguous bands on
    contiguous core indices already keep each domain's shards adjacent.
    """
    if rows <= 0 or cols <= 0:
        raise KernelError(f"invalid grid {rows}x{cols}")
    if cores <= 0:
        raise KernelError(f"core count must be positive, got {cores}")
    if strategy not in PARTITION_STRATEGIES:
        raise KernelError(
            f"unknown partition strategy {strategy!r}; "
            f"expected one of {PARTITION_STRATEGIES}"
        )
    assignments: List[List[Tuple[int, int]]] = [[] for _ in range(cores)]
    if strategy == "row-block":
        for core, (start, end) in enumerate(_band_bounds(rows, cores)):
            assignments[core] = [
                (row, col) for row in range(start, end) for col in range(cols)
            ]
    elif strategy == "column-block":
        for core, (start, end) in enumerate(_band_bounds(cols, cores)):
            assignments[core] = [
                (row, col) for row in range(rows) for col in range(start, end)
            ]
    else:  # 2d-cyclic
        grid_rows, grid_cols = _process_grid(cores, group_size)
        for row in range(rows):
            for col in range(cols):
                core = (row % grid_rows) * grid_cols + (col % grid_cols)
                assignments[core].append((row, col))
    return assignments


def validate_blocks(blocks, rows: int, cols: int, name: str) -> List[Tuple[int, int]]:
    """Check a builder's ``blocks`` argument against its block grid.

    Every entry must be an in-range ``(row, col)`` cell and no cell may
    repeat; the (possibly empty) validated list is returned in the caller's
    order, which is the emission order of the sharded kernel.
    """
    seen = set()
    validated: List[Tuple[int, int]] = []
    for block in blocks:
        row, col = block
        if not (0 <= row < rows and 0 <= col < cols):
            raise KernelError(
                f"{name}: block ({row}, {col}) outside the {rows}x{cols} block grid"
            )
        if (row, col) in seen:
            raise KernelError(f"{name}: block ({row}, {col}) assigned twice")
        seen.add((row, col))
        validated.append((row, col))
    return validated


def interleaved_block_rows(tiles_m: int) -> list:
    """Pairs of C tile-row indices for two-accumulator interleaved kernels.

    The SPMM/SPGEMM kernels keep two live C accumulators and interleave two
    output-tile rows sharing one B tile per K-step; an odd trailing row
    yields a single-element pair.  Shared by the sparse kernel builders so
    their block structure (and truncation accounting) cannot drift apart.
    """
    if tiles_m <= 0:
        raise KernelError(f"tiles_m must be positive, got {tiles_m}")
    return [
        tuple(dict.fromkeys((i, min(i + 1, tiles_m - 1))))
        for i in range(0, tiles_m, 2)
    ]
