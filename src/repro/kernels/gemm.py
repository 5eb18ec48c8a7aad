"""Dense tiled GEMM kernels using the VEGETA ``TILE_GEMM`` instruction.

Two kernel variants are provided, matching the paper's methodology:

* ``"listing1"`` — the straightforward kernel of Listing 1, which reloads and
  stores the C tile on every K-step,
* ``"optimized"`` — the register-blocked kernel actually used for the
  evaluation: C is loaded once per output tile, kept in ``treg0`` across the
  K loop (creating the accumulator dependence chain that output forwarding
  resolves), and A/B loads are double-buffered across alternating registers
  so they overlap with compute.

Kernels can be built *with data* (a full memory image for functional
validation) or *trace-only* (for large Table IV layers where only timing is
needed).  Either way the trace is stamped from block templates
(:mod:`repro.kernels.template`): each block class's body is emitted once and
laid across the chosen cells with NumPy.  ``max_output_tiles`` truncates the
trace to the first few C tiles so big layers stay tractable in the
pure-Python simulator; the resulting
:class:`~repro.kernels.program.KernelProgram` records the covered fraction so
runtimes can be scaled back up.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.isa import Opcode
from ..core.memory_image import ByteMemory
from ..core.registers import treg
from ..errors import KernelError
from ..types import DEFAULT_GEOMETRY, DType, GemmShape, SparsityPattern, TileGeometry
from .memo import block_templates
from .program import KernelProgram
from .template import (
    I0,
    I1,
    J0,
    J1,
    BlockTemplate,
    BlockTemplates,
    TemplateBuilder,
    address_form,
    block_cells,
    constant,
    stamp_blocks,
)
from .tiling import MatrixTileLayout, TileGrid, align_up

#: Scalar ops charged per K-iteration of the tiled loop nest (plus one branch).
K_LOOP_SCALARS = 2

#: Scalar ops charged per output tile (loop setup, address math; plus one
#: branch).
TILE_LOOP_SCALARS = 4


def _plan_layouts(grid: TileGrid) -> dict:
    """Assign non-overlapping memory regions to A, B^T and C tile images."""
    treg_bytes = grid.geometry.tile_reg_bytes
    a_tile_bytes = treg_bytes
    b_tile_bytes = (
        treg_bytes * grid.pattern.compression_ratio
        if grid.pattern is not SparsityPattern.DENSE_4_4
        else treg_bytes
    )
    c_tile_bytes = treg_bytes
    base = 0x10000
    a_layout = MatrixTileLayout(
        base_address=base,
        tiles_rows=grid.tiles_m,
        tiles_cols=grid.tiles_k,
        tile_bytes=a_tile_bytes,
        name="A",
    )
    b_base = align_up(a_layout.end_address)
    b_layout = MatrixTileLayout(
        base_address=b_base,
        tiles_rows=grid.tiles_n,
        tiles_cols=grid.tiles_k,
        tile_bytes=b_tile_bytes,
        name="B^T",
    )
    c_base = align_up(b_layout.end_address)
    c_layout = MatrixTileLayout(
        base_address=c_base,
        tiles_rows=grid.tiles_m,
        tiles_cols=grid.tiles_n,
        tile_bytes=c_tile_bytes,
        name="C",
    )
    metadata_base = align_up(c_layout.end_address)
    return {
        "a": a_layout,
        "b": b_layout,
        "c": c_layout,
        "metadata_base": metadata_base,
    }


def _fill_dense_operands(
    memory: ByteMemory,
    grid: TileGrid,
    layouts: dict,
    a: np.ndarray,
    b: np.ndarray,
) -> None:
    """Write padded A tiles and transposed B tiles into the memory image."""
    padded = grid.padded_shape
    a_padded = np.zeros((padded.m, padded.k), dtype=np.float32)
    a_padded[: a.shape[0], : a.shape[1]] = a
    b_padded = np.zeros((padded.k, padded.n), dtype=np.float32)
    b_padded[: b.shape[0], : b.shape[1]] = b
    tile_m, tile_n, tile_k = grid.tile_m, grid.tile_n, grid.tile_k
    for i in range(grid.tiles_m):
        for k in range(grid.tiles_k):
            tile = a_padded[
                i * tile_m : (i + 1) * tile_m, k * tile_k : (k + 1) * tile_k
            ]
            memory.write_matrix(layouts["a"].tile_address(i, k), tile, DType.BF16)
    for j in range(grid.tiles_n):
        for k in range(grid.tiles_k):
            tile = b_padded[
                k * tile_k : (k + 1) * tile_k, j * tile_n : (j + 1) * tile_n
            ]
            memory.write_matrix(layouts["b"].tile_address(j, k), tile.T, DType.BF16)


def dense_block_grid(grid: TileGrid) -> Tuple[list, list]:
    """The optimized dense kernel's block grid: 2x2 output-tile blocks.

    Returns the ``(block_rows, block_cols)`` lists of clamped tile-index
    pairs; block ``(bi, bj)`` of the emission loop covers the (deduplicated)
    C tiles ``block_rows[bi] x block_cols[bj]``.  The multi-core sharding
    partitions this grid so a block — the builder's register-blocking unit —
    is never split across cores.
    """
    tiles_m, tiles_n = grid.tiles_m, grid.tiles_n
    block_rows = [(i, min(i + 1, tiles_m - 1)) for i in range(0, tiles_m, 2)]
    block_cols = [(j, min(j + 1, tiles_n - 1)) for j in range(0, tiles_n, 2)]
    return block_rows, block_cols


def dense_block_coords(
    cells: np.ndarray, tiles_m: int, tiles_n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(classes, coords, tiles)`` of the optimized kernel's ``(B, 2)`` cells.

    The class of a block is ``2 * single_row + single_col`` (see
    :func:`_dense_templates`); an edge block clamps its second tile row /
    column onto its first.
    """
    i0, j0 = 2 * cells[:, 0], 2 * cells[:, 1]
    i1, j1 = np.minimum(i0 + 1, tiles_m - 1), np.minimum(j0 + 1, tiles_n - 1)
    single_row, single_col = i1 == i0, j1 == j0
    coords = np.stack((i0, i1, j0, j1, np.ones_like(i0)), axis=1)
    return 2 * single_row + single_col, coords, (2 - single_row) * (2 - single_col)


def _block_tiles(i_pair: Tuple, j_pair: Tuple) -> List[Tuple]:
    """Deduplicated (slot, i, j) C tiles of one 2x2 block (edge blocks clamp)."""
    i0, i1 = i_pair
    j0, j1 = j_pair
    tiles: List[Tuple] = []
    for slot, (i, j) in enumerate(((i0, j0), (i0, j1), (i1, j0), (i1, j1))):
        if (i, j) not in [t[1:] for t in tiles]:
            tiles.append((slot, i, j))
    return tiles


def _loop_overhead(trace: TemplateBuilder, scalars: int, label: str) -> None:
    for _ in range(scalars):
        trace.scalar(label)
    trace.branch(label)


def _optimized_block(
    grid: TileGrid, layouts: dict, two_rows: bool, two_cols: bool
) -> BlockTemplate:
    """One block class of the register-blocked kernel.

    Register blocking: a 2x2 block of C tiles is kept live in treg0-3, the
    two A tiles of the current K-step in treg4-5 and the two B tiles in
    treg6-7.  Four independent accumulator chains hide the engine's
    instruction latency even without output forwarding, which is why a
    dense RASA-DM baseline runs near full throughput (Section VI-C).  An
    edge block (one tile row or column) clamps onto its first row / column.
    """
    c_regs = (treg(0), treg(1), treg(2), treg(3))
    a_regs = (treg(4), treg(5))
    b_regs = (treg(6), treg(7))
    i0, i1 = I0, I1 if two_rows else I0
    j0, j1 = J0, J1 if two_cols else J0
    tiles = _block_tiles((i0, i1), (j0, j1))
    rows = tuple(dict.fromkeys((i0, i1)))
    cols = tuple(dict.fromkeys((j0, j1)))
    trace = TemplateBuilder(geometry=grid.geometry)
    _loop_overhead(trace, TILE_LOOP_SCALARS, "tile-loop")
    for slot, i, j in tiles:
        trace.tile_load_t(c_regs[slot], address_form(layouts["c"], i, j), "load C")
    for k in range(grid.tiles_k):
        step = constant(k)
        for index, i in enumerate(rows):
            trace.tile_load_t(a_regs[index], address_form(layouts["a"], i, step), "load A")
        for index, j in enumerate(cols):
            trace.tile_load_t(b_regs[index], address_form(layouts["b"], j, step), "load B")
        for slot, i, j in tiles:
            trace.tile_compute(
                Opcode.TILE_GEMM, c_regs[slot], a_regs[rows.index(i)], b_regs[cols.index(j)]
            )
        _loop_overhead(trace, K_LOOP_SCALARS, "k-loop")
    for slot, i, j in tiles:
        trace.tile_store_t(address_form(layouts["c"], i, j), c_regs[slot], "store C")
    return trace.template()


def _listing1_block(grid: TileGrid, layouts: dict) -> BlockTemplate:
    """The Listing 1 body of one output tile: C is reloaded and stored per K-step."""
    c_reg = treg(0)
    a_reg = treg(2)
    b_reg = treg(4)
    c_address = address_form(layouts["c"], I0, J0)
    trace = TemplateBuilder(geometry=grid.geometry)
    _loop_overhead(trace, TILE_LOOP_SCALARS, "tile-loop")
    for k in range(grid.tiles_k):
        step = constant(k)
        trace.tile_load_t(b_reg, address_form(layouts["b"], J0, step), "load B")
        trace.tile_load_t(c_reg, c_address, "load C")
        trace.tile_load_t(a_reg, address_form(layouts["a"], I0, step), "load A")
        trace.tile_compute(Opcode.TILE_GEMM, c_reg, a_reg, b_reg)
        trace.tile_store_t(c_address, c_reg, "store C")
        _loop_overhead(trace, K_LOOP_SCALARS, "k-loop")
    return trace.template()


def _dense_templates(
    grid: TileGrid, layouts: dict, variant: str
) -> Tuple[Optional[BlockTemplate], ...]:
    """The kernel's block templates, indexed by block class.

    Optimized classes are ``2 * single_row + single_col``: full, column edge,
    row edge, corner.  Only the classes the grid contains are built: a
    two-tile side needs two tiles along its axis, a single-tile side an odd
    tile count.
    """
    if variant == "listing1":
        return (_listing1_block(grid, layouts),)

    def occurs(tiles: int, two: bool) -> bool:
        return tiles >= 2 if two else tiles % 2 == 1

    return tuple(
        _optimized_block(grid, layouts, two_rows, two_cols)
        if occurs(grid.tiles_m, two_rows) and occurs(grid.tiles_n, two_cols)
        else None
        for two_rows in (True, False)
        for two_cols in (True, False)
    )


def dense_templates(grid: TileGrid, variant: str = "optimized") -> BlockTemplates:
    """The ``variant`` kernel's block templates for ``grid``, built once per kernel."""
    return block_templates(
        (f"gemm-{variant}", grid.shape, SparsityPattern.DENSE_4_4, grid.geometry),
        lambda: _dense_templates(grid, _plan_layouts(grid), variant),
    )


def build_dense_gemm_kernel(
    shape: GemmShape,
    *,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    variant: str = "optimized",
    max_output_tiles: Optional[int] = None,
    blocks: Optional[Sequence[Tuple[int, int]]] = None,
    geometry: TileGeometry = DEFAULT_GEOMETRY,
) -> KernelProgram:
    """Build a dense (4:4) tiled GEMM kernel.

    Parameters
    ----------
    shape:
        The C(MxN) += A(MxK) x B(KxN) problem dimensions.
    a, b:
        Optional operand matrices; when both are provided the kernel carries
        a memory image and can be validated functionally.
    variant:
        ``"optimized"`` (default) or ``"listing1"``.
    max_output_tiles:
        If set, only the first ``max_output_tiles`` C tiles are traced and the
        program's ``simulated_fraction`` records the truncation.
    blocks:
        Restrict emission to these block-grid cells (one core's share of a
        multi-core partition; see :func:`repro.kernels.sharding.shard_kernel`).
        For ``"optimized"`` a cell indexes the 2x2-tile block grid of
        :func:`dense_block_grid`; for ``"listing1"`` it is an output-tile
        coordinate directly.  ``None`` (default) emits the whole kernel and
        is bit-identical to the pre-sharding builder.
    geometry:
        Tile geometry of the target backend; every tile extent, register
        image size and trace transfer size follows it.  The default geometry
        reproduces the VEGETA kernel byte for byte.
    """
    if variant not in ("optimized", "listing1"):
        raise KernelError(f"unknown GEMM kernel variant {variant!r}")
    grid = TileGrid(shape=shape, pattern=SparsityPattern.DENSE_4_4, geometry=geometry)
    layouts = _plan_layouts(grid)

    memory: Optional[ByteMemory] = None
    if a is not None or b is not None:
        if a is None or b is None:
            raise KernelError("provide both A and B, or neither")
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        if a.shape != (shape.m, shape.k) or b.shape != (shape.k, shape.n):
            raise KernelError(
                f"operand shapes {a.shape} / {b.shape} do not match GEMM {shape}"
            )
        memory = ByteMemory()
        _fill_dense_operands(memory, grid, layouts, a, b)

    tiles_m, tiles_n = grid.tiles_m, grid.tiles_n
    if variant == "optimized":
        cells = block_cells(blocks, -(-tiles_m // 2), -(-tiles_n // 2), "dense-gemm")
        classes, coords, tiles = dense_block_coords(cells, tiles_m, tiles_n)
    else:
        cells = block_cells(blocks, tiles_m, tiles_n, "dense-gemm-listing1")
        i, j = cells[:, 0], cells[:, 1]
        classes = np.zeros(len(cells), dtype=np.int64)
        tiles = np.ones(len(cells), dtype=np.int64)
        coords = np.stack((i, i, j, j, np.ones_like(i)), axis=1)
    templates = dense_templates(grid, variant)
    trace, fraction = stamp_blocks(
        templates, classes, coords, tiles, max_output_tiles, geometry=geometry
    )
    return KernelProgram(
        trace=trace,
        shape=shape,
        pattern=SparsityPattern.DENSE_4_4,
        memory=memory,
        c_layout=layouts["c"],
        simulated_fraction=fraction,
        label=f"dense-gemm-{variant}",
    )
