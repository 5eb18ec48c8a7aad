"""Per-op reference emitters for the tiled kernel builders.

These are the builders' original block loops: one :class:`TraceBuilder`
call per trace row, walking the chosen block-grid cells in order.  The
library stamps each block class from a template instead
(:mod:`repro.kernels.template`); the differential tests require both to
produce byte-identical programs.  Only the trace side is reproduced — the
memory images are written by the library's own fill helpers, which the
stamping does not touch.
"""

from typing import List, Optional

import numpy as np

from repro.core.isa import Opcode
from repro.core.registers import mreg, treg, ureg, vreg
from repro.cpu.columnar import TraceBuilder, frozen_trace
from repro.errors import KernelError
from repro.kernels.gemm import (
    K_LOOP_SCALARS,
    TILE_LOOP_SCALARS,
    _block_tiles,
    _plan_layouts,
    dense_block_grid,
)
from repro.kernels.program import KernelProgram
from repro.kernels.spgemm import (
    SPGEMM_PATTERNS,
    _ISSUE_ALIGN,
    _pad_operands,
    _plan_spgemm_layouts,
    _spgemm_feed_overheads,
)
from repro.kernels.tiling import (
    MatrixTileLayout,
    TileGrid,
    interleaved_block_rows,
    validate_blocks,
)
from repro.types import DEFAULT_GEOMETRY, SparsityPattern


def iterate_output_tiles(grid):
    """Yield the (i, j) coordinates of every C tile of ``grid``, row-major."""
    for i in range(grid.tiles_m):
        for j in range(grid.tiles_n):
            yield i, j


def _truncation(total_tiles: int, max_output_tiles: Optional[int]) -> int:
    return total_tiles if max_output_tiles is None else min(max_output_tiles, total_tiles)


def _program(trace, shape, pattern, emitted, total_tiles, max_output_tiles, label, block_starts):
    traced = emitted if max_output_tiles is not None else total_tiles
    rows = trace.finish()
    return KernelProgram(
        trace=frozen_trace(rows.columns, rows.labels, rows.geometry, tuple(block_starts)),
        shape=shape,
        pattern=pattern,
        simulated_fraction=traced / total_tiles if total_tiles else 1.0,
        label=label,
    )


def reference_dense_gemm(
    shape,
    *,
    variant: str = "optimized",
    max_output_tiles: Optional[int] = None,
    blocks=None,
    geometry=DEFAULT_GEOMETRY,
) -> KernelProgram:
    """The dense kernel, emitted op by op."""
    grid = TileGrid(shape=shape, pattern=SparsityPattern.DENSE_4_4, geometry=geometry)
    layouts = _plan_layouts(grid)
    trace = TraceBuilder(geometry=geometry)
    block_starts: List[int] = []
    emitted = 0
    if variant == "optimized":
        c_regs = (treg(0), treg(1), treg(2), treg(3))
        a_regs = (treg(4), treg(5))
        b_regs = (treg(6), treg(7))
        block_rows, block_cols = dense_block_grid(grid)
        if blocks is None:
            chosen = [
                (bi, bj) for bi in range(len(block_rows)) for bj in range(len(block_cols))
            ]
        else:
            chosen = validate_blocks(blocks, len(block_rows), len(block_cols), "dense-gemm")
        total_tiles = sum(
            len(_block_tiles(block_rows[bi], block_cols[bj])) for bi, bj in chosen
        )
        traced_tiles = _truncation(total_tiles, max_output_tiles)
        for bi, bj in chosen:
            if emitted >= traced_tiles:
                break
            i0, i1 = block_rows[bi]
            j0, j1 = block_cols[bj]
            tiles = _block_tiles((i0, i1), (j0, j1))
            emitted += len(tiles)
            block_starts.append(len(trace))
            for _ in range(TILE_LOOP_SCALARS):
                trace.scalar("tile-loop")
            trace.branch("tile-loop")
            for slot, i, j in tiles:
                trace.tile_load_t(c_regs[slot], layouts["c"].tile_address(i, j), "load C")
            for k in range(grid.tiles_k):
                for index, i in enumerate(dict.fromkeys((i0, i1))):
                    trace.tile_load_t(a_regs[index], layouts["a"].tile_address(i, k), "load A")
                for index, j in enumerate(dict.fromkeys((j0, j1))):
                    trace.tile_load_t(b_regs[index], layouts["b"].tile_address(j, k), "load B")
                row_index = {i: idx for idx, i in enumerate(dict.fromkeys((i0, i1)))}
                col_index = {j: idx for idx, j in enumerate(dict.fromkeys((j0, j1)))}
                for slot, i, j in tiles:
                    trace.tile_compute(
                        Opcode.TILE_GEMM, c_regs[slot], a_regs[row_index[i]], b_regs[col_index[j]]
                    )
                for _ in range(K_LOOP_SCALARS):
                    trace.scalar("k-loop")
                trace.branch("k-loop")
            for slot, i, j in tiles:
                trace.tile_store_t(layouts["c"].tile_address(i, j), c_regs[slot], "store C")
    elif variant == "listing1":
        c_reg, a_reg, b_reg = treg(0), treg(2), treg(4)
        if blocks is None:
            chosen = list(iterate_output_tiles(grid))
        else:
            chosen = validate_blocks(blocks, grid.tiles_m, grid.tiles_n, "dense-gemm-listing1")
        total_tiles = len(chosen)
        traced_tiles = _truncation(total_tiles, max_output_tiles)
        for i, j in chosen:
            if emitted >= traced_tiles:
                break
            emitted += 1
            block_starts.append(len(trace))
            c_address = layouts["c"].tile_address(i, j)
            for _ in range(TILE_LOOP_SCALARS):
                trace.scalar("tile-loop")
            trace.branch("tile-loop")
            for k in range(grid.tiles_k):
                trace.tile_load_t(b_reg, layouts["b"].tile_address(j, k), "load B")
                trace.tile_load_t(c_reg, c_address, "load C")
                trace.tile_load_t(a_reg, layouts["a"].tile_address(i, k), "load A")
                trace.tile_compute(Opcode.TILE_GEMM, c_reg, a_reg, b_reg)
                trace.tile_store_t(c_address, c_reg, "store C")
                for _ in range(K_LOOP_SCALARS):
                    trace.scalar("k-loop")
                trace.branch("k-loop")
    else:
        raise KernelError(f"unknown GEMM kernel variant {variant!r}")
    return _program(
        trace, shape, SparsityPattern.DENSE_4_4, emitted, total_tiles, max_output_tiles,
        f"dense-gemm-{variant}", block_starts,
    )


def reference_spmm(
    shape,
    pattern,
    *,
    max_output_tiles: Optional[int] = None,
    blocks=None,
) -> KernelProgram:
    """The 2:4 / 1:4 SPMM kernel, emitted op by op."""
    grid = TileGrid(shape=shape, pattern=pattern)
    layouts = _plan_layouts(grid)
    metadata_layout = MatrixTileLayout(
        base_address=layouts["metadata_base"],
        tiles_rows=grid.tiles_m,
        tiles_cols=grid.tiles_k,
        tile_bytes=128,
        name="A-metadata",
    )
    c_regs = (treg(0), treg(1))
    a_regs = (treg(2), treg(3))
    if pattern is SparsityPattern.SPARSE_2_4:
        b_reg, load_b_opcode, spmm_opcode = ureg(2), Opcode.TILE_LOAD_U, Opcode.TILE_SPMM_U
    else:
        b_reg, load_b_opcode, spmm_opcode = vreg(1), Opcode.TILE_LOAD_V, Opcode.TILE_SPMM_V
    block_rows = interleaved_block_rows(grid.tiles_m)
    if blocks is None:
        chosen = [(bi, j) for bi in range(len(block_rows)) for j in range(grid.tiles_n)]
    else:
        chosen = validate_blocks(blocks, len(block_rows), grid.tiles_n, "spmm")
    total_tiles = sum(len(block_rows[bi]) for bi, _ in chosen)
    traced_tiles = _truncation(total_tiles, max_output_tiles)
    trace = TraceBuilder()
    block_starts: List[int] = []
    emitted = 0
    for bi, j in chosen:
        if emitted >= traced_tiles:
            break
        i_block = block_rows[bi]
        emitted += len(i_block)
        block_starts.append(len(trace))
        for _ in range(TILE_LOOP_SCALARS):
            trace.scalar("tile-loop")
        trace.branch("tile-loop")
        for slot, i in enumerate(i_block):
            trace.tile_load_t(c_regs[slot], layouts["c"].tile_address(i, j), "load C")
        for k in range(grid.tiles_k):
            for slot, i in enumerate(i_block):
                trace.tile_load_t(a_regs[slot], layouts["a"].tile_address(i, k), "load A")
                trace.tile_load_m(
                    mreg(a_regs[slot].index), metadata_layout.tile_address(i, k), "load MD"
                )
            trace.tile_load(load_b_opcode, b_reg, layouts["b"].tile_address(j, k), "load B")
            for slot, i in enumerate(i_block):
                trace.tile_compute(spmm_opcode, c_regs[slot], a_regs[slot], b_reg)
            for _ in range(K_LOOP_SCALARS):
                trace.scalar("k-loop")
            trace.branch("k-loop")
        for slot, i in enumerate(i_block):
            trace.tile_store_t(layouts["c"].tile_address(i, j), c_regs[slot], "store C")
    return _program(
        trace, shape, pattern, emitted, total_tiles, max_output_tiles,
        f"spmm-{pattern.value}", block_starts,
    )


def reference_spgemm(
    shape,
    pattern,
    *,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    feeds: Optional[np.ndarray] = None,
    max_output_tiles: Optional[int] = None,
    blocks=None,
) -> KernelProgram:
    """The SpGEMM kernel, emitted op by op.

    With operands the per-(i, j, k) feed overheads are derived from them as
    the builder does; ``feeds`` overrides them directly.
    """
    if pattern not in SPGEMM_PATTERNS:
        raise KernelError(f"no SPGEMM instruction for {pattern.value}")
    grid = TileGrid(shape=shape, pattern=pattern)
    layouts = _plan_spgemm_layouts(grid)
    if feeds is None and a is not None:
        a_padded, b_padded = _pad_operands(
            grid, np.asarray(a, dtype=np.float32), np.asarray(b, dtype=np.float32)
        )
        feeds = _spgemm_feed_overheads(grid, a_padded, b_padded)
    c_regs = (treg(0), treg(1))
    a_regs = (treg(2), treg(3))
    b_reg = treg(4)
    spgemm_opcode = (
        Opcode.TILE_SPGEMM_U if pattern is SparsityPattern.SPARSE_2_4 else Opcode.TILE_SPGEMM_V
    )
    block_rows = interleaved_block_rows(grid.tiles_m)
    if blocks is None:
        chosen = [(bi, j) for bi in range(len(block_rows)) for j in range(grid.tiles_n)]
    else:
        chosen = validate_blocks(blocks, len(block_rows), grid.tiles_n, "spgemm")
    total_tiles = sum(len(block_rows[bi]) for bi, _ in chosen)
    traced_tiles = _truncation(total_tiles, max_output_tiles)
    trace = TraceBuilder()
    block_starts: List[int] = []
    emitted = 0
    for bi, j in chosen:
        if emitted >= traced_tiles:
            break
        i_block = block_rows[bi]
        emitted += len(i_block)
        block_starts.append(len(trace))
        for _ in range(TILE_LOOP_SCALARS):
            trace.scalar("tile-loop")
        trace.branch("tile-loop")
        for slot, i in enumerate(i_block):
            trace.tile_load_t(c_regs[slot], layouts["c"].tile_address(i, j), "load C")
        for k in range(grid.tiles_k):
            for slot, i in enumerate(i_block):
                trace.tile_load_t(a_regs[slot], layouts["a"].tile_address(i, k), "load A")
                trace.tile_load_m(
                    mreg(a_regs[slot].index), layouts["a_metadata"].tile_address(i, k), "load A-MD"
                )
            trace.tile_load_t(b_reg, layouts["b"].tile_address(j, k), "load B")
            trace.tile_load_m(
                mreg(b_reg.index), layouts["b_metadata"].tile_address(j, k), "load B-MD"
            )
            for slot, i in enumerate(i_block):
                trace.tile_compute(
                    spgemm_opcode,
                    c_regs[slot],
                    a_regs[slot],
                    b_reg,
                    feed_overhead=int(feeds[i, j, k]) if feeds is not None else -1,
                )
            for _ in range(K_LOOP_SCALARS):
                trace.scalar("k-loop")
            trace.branch("k-loop")
        for slot, i in enumerate(i_block):
            trace.tile_store_t(layouts["c"].tile_address(i, j), c_regs[slot], "store C")
        for _ in range(-(len(trace) - block_starts[-1]) % _ISSUE_ALIGN):
            trace.scalar("block-align")
    return _program(
        trace, shape, pattern, emitted, total_tiles, max_output_tiles,
        f"spgemm-{pattern.value}", block_starts,
    )
