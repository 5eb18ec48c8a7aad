"""Structured sparse x sparse GEMM kernels (``TILE_SPGEMM_U/V``).

SpGEMM — both operands sparse — dominates graph analytics and shows up in
pruned-transformer inference whenever activations are sparsified too.
SparseZipper ("Enhancing Matrix Extensions to Accelerate SpGEMM on CPUs")
observes that a tile-register ISA like VEGETA's extends naturally to this
case; :func:`build_spgemm_kernel` realises that extension on our substrate:

* **A** is compressed exactly as for SPMM: a 1 KB value image per tile plus a
  128-byte metadata image, rows compressed N:4 along K;
* **B** is compressed *column-block-wise*: every logical column of B is
  compressed along K with the same N:4 scheme.  Because B tiles are stored
  transposed (column ``j`` of B in register row ``j``), the compressed B tile
  has exactly the shape of a compressed A tile — 1 KB of values plus 128 B of
  metadata — instead of the 2 KB / 4 KB dense ureg/vreg images the SPMM
  kernels stream;
* one ``TILE_SPGEMM_U`` covers an effective K of 64 (2:4 x 2:4) and one
  ``TILE_SPGEMM_V`` an effective K of 128 (1:4 x 1:4), matching the SPMM
  instructions' K coverage while halving / quartering the B bytes loaded.

Both operands must satisfy a *common* N:4 pattern; :func:`spgemm_joint_pattern`
derives the loosest pattern a (pattern_a, pattern_b) pair supports, which is
what the sparsity x sparsity sweep of the ``spgemm`` experiment executes.

The engine models the dual-operand metadata intersection as extra Feed-First
latency (:meth:`repro.core.engine.EngineConfig.spgemm_feed_overhead`), so the
per-instruction cost is slightly higher than SPMM — the win comes from the
smaller B footprint and fewer bytes through the cache hierarchy.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.engine import BLOCK_SIZE_M, spgemm_merge_overhead
from ..core.isa import Opcode
from ..core.memory_image import ByteMemory
from ..core.registers import mreg, treg
from ..errors import KernelError
from ..sparse.blocks import satisfies_pattern
from ..sparse.compress import compress
from ..types import (
    DEFAULT_GEOMETRY,
    DType,
    GemmShape,
    SparsityPattern,
    TileGeometry,
)
from .gemm import K_LOOP_SCALARS, TILE_LOOP_SCALARS, _loop_overhead
from .memo import block_templates
from .program import KernelProgram
from .template import (
    I0,
    I1,
    J0,
    BlockTemplate,
    BlockTemplates,
    TemplateBuilder,
    address_form,
    affine,
    constant,
    interleaved_cells,
    interleaved_templates,
    stamp_blocks,
)
from .tiling import MatrixTileLayout, TileGrid, align_up

#: Patterns the SPGEMM instructions support as the joint operand pattern.
SPGEMM_PATTERNS = (SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4)

#: One L1 set span: 96 sets x 64-byte lines (48 KB / 8-way).  Layout strides
#: that are multiples of this map every tile row to the same set-index
#: pattern, so the per-block L1 behaviour of the periodic kernel is itself
#: periodic — which is what lets the simulator's steady-state fast path lock
#: onto the block structure and skip it in closed form.
_L1_SET_SPAN = 96 * 64

#: Base-address alignment: lcm of the page alignment (4096) and the set span.
_BASE_ALIGN = 12288

#: The core's front end issues 4 ops per cycle; padding every block to a
#: multiple of this keeps the issue-slot phase identical at all block
#: boundaries (otherwise a block of ``4n + r`` ops rotates the phase by
#: ``r`` every iteration and the steady state only recurs every 4 blocks).
_ISSUE_ALIGN = 4


def spgemm_joint_pattern(
    pattern_a: SparsityPattern, pattern_b: SparsityPattern
) -> SparsityPattern:
    """The loosest N:4 pattern both operands of a SpGEMM satisfy.

    A 1:4 operand trivially satisfies 2:4, so a (1:4, 2:4) pair executes with
    ``TILE_SPGEMM_U``.  Dense (4:4) operands have no SPGEMM instruction —
    use the dense GEMM / SPMM kernels for those — and row-wise operands are
    not supported.
    """
    for pattern in (pattern_a, pattern_b):
        if pattern not in (
            SparsityPattern.SPARSE_2_4,
            SparsityPattern.SPARSE_1_4,
            SparsityPattern.DENSE_4_4,
        ):
            raise KernelError(
                f"SpGEMM kernels support fixed N:4 operands, got {pattern.value}"
            )
    joint_n = max(pattern_a.n, pattern_b.n)
    joint = SparsityPattern.from_n(joint_n)
    if joint not in SPGEMM_PATTERNS:
        raise KernelError(
            f"no SPGEMM instruction for a {pattern_a.value} x {pattern_b.value} "
            "product; a dense operand needs the TILE_GEMM / TILE_SPMM kernels"
        )
    return joint


def _plan_spgemm_layouts(grid: TileGrid) -> dict:
    """Non-overlapping regions for A/B values, A/B metadata and C tiles.

    Unlike the SPMM planner, *both* operands are treg-sized (1 KB)
    compressed tiles with an mreg-sized (128-byte) metadata image each.
    Every tile row is padded out to the L1 set span and every region base
    to the span/page lcm, so identical (row, col)
    offsets inside different rows map to identical L1 sets.  The kernel walks
    the grid with a fixed per-block access shape, so this makes consecutive
    steady-state blocks hit the same sets in the same order — the property
    the simulator's fast path certifies before skipping blocks.
    """
    treg_bytes = grid.geometry.register_bytes("treg")
    mreg_bytes = grid.geometry.register_bytes("mreg")
    base = align_up(0x10000, _BASE_ALIGN)
    a_layout = MatrixTileLayout(
        base_address=base,
        tiles_rows=grid.tiles_m,
        tiles_cols=grid.tiles_k,
        tile_bytes=treg_bytes,
        tile_stride=treg_bytes,
        row_stride=align_up(grid.tiles_k * treg_bytes, _L1_SET_SPAN),
        name="A",
    )
    a_metadata = MatrixTileLayout(
        base_address=align_up(a_layout.end_address, _BASE_ALIGN),
        tiles_rows=grid.tiles_m,
        tiles_cols=grid.tiles_k,
        tile_bytes=mreg_bytes,
        tile_stride=mreg_bytes,
        row_stride=align_up(grid.tiles_k * mreg_bytes, _L1_SET_SPAN),
        name="A-metadata",
    )
    b_layout = MatrixTileLayout(
        base_address=align_up(a_metadata.end_address, _BASE_ALIGN),
        tiles_rows=grid.tiles_n,
        tiles_cols=grid.tiles_k,
        tile_bytes=treg_bytes,
        tile_stride=treg_bytes,
        row_stride=align_up(grid.tiles_k * treg_bytes, _L1_SET_SPAN),
        name="B^T",
    )
    b_metadata = MatrixTileLayout(
        base_address=align_up(b_layout.end_address, _BASE_ALIGN),
        tiles_rows=grid.tiles_n,
        tiles_cols=grid.tiles_k,
        tile_bytes=mreg_bytes,
        tile_stride=mreg_bytes,
        row_stride=align_up(grid.tiles_k * mreg_bytes, _L1_SET_SPAN),
        name="B-metadata",
    )
    c_layout = MatrixTileLayout(
        base_address=align_up(b_metadata.end_address, _BASE_ALIGN),
        tiles_rows=grid.tiles_m,
        tiles_cols=grid.tiles_n,
        tile_bytes=treg_bytes,
        tile_stride=_L1_SET_SPAN,
        name="C",
    )
    return {
        "a": a_layout,
        "a_metadata": a_metadata,
        "b": b_layout,
        "b_metadata": b_metadata,
        "c": c_layout,
    }


def _pad_operands(
    grid: TileGrid, a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Zero-pad A and B up to the grid's whole-tile shape."""
    padded = grid.padded_shape
    a_padded = np.zeros((padded.m, padded.k), dtype=np.float32)
    a_padded[: a.shape[0], : a.shape[1]] = a
    b_padded = np.zeros((padded.k, padded.n), dtype=np.float32)
    b_padded[: b.shape[0], : b.shape[1]] = b
    return a_padded, b_padded


def _spgemm_feed_overheads(
    grid: TileGrid, a_padded: np.ndarray, b_padded: np.ndarray
) -> np.ndarray:
    """Per-(i, j, k) Feed-First overhead of every tile SpGEMM instruction.

    The engine merges the two operands' metadata K-block by K-block; a block
    contributes merge work only when *both* the A tile and the B tile have a
    non-zero anywhere inside it (an all-zero side short-circuits the
    intersection).  The overhead is the occupied-block count fed through
    :func:`repro.core.engine.spgemm_merge_overhead`, so fully occupied
    operands reproduce the engine's worst-case formula exactly.
    """
    blocks_per_tile = grid.tile_k // BLOCK_SIZE_M
    # (tiles_m, tiles_k, blocks): does any of the tile's 16 rows touch block b?
    a_occupied = a_padded.reshape(
        grid.tiles_m, grid.tile_m, grid.tiles_k, blocks_per_tile, BLOCK_SIZE_M
    ).any(axis=(1, 4))
    # (tiles_n, tiles_k, blocks): does any of the tile's 16 columns touch it?
    b_occupied = (
        b_padded.reshape(
            grid.tiles_k, blocks_per_tile, BLOCK_SIZE_M, grid.tiles_n, grid.tile_n
        )
        .any(axis=(2, 4))
        .transpose(2, 0, 1)
    )
    intersections = (
        a_occupied[:, None, :, :] & b_occupied[None, :, :, :]
    ).sum(axis=3)
    merge = np.vectorize(spgemm_merge_overhead, otypes=[np.int64])
    return merge(intersections)


def _fill_dual_sparse_operands(
    memory: ByteMemory,
    grid: TileGrid,
    layouts: dict,
    a_padded: np.ndarray,
    b_padded: np.ndarray,
) -> None:
    """Write compressed A tiles and column-block-compressed B tiles."""
    pattern = grid.pattern
    tile_m, tile_n, tile_k = grid.tile_m, grid.tile_n, grid.tile_k
    for i in range(grid.tiles_m):
        for k in range(grid.tiles_k):
            tile = a_padded[
                i * tile_m : (i + 1) * tile_m, k * tile_k : (k + 1) * tile_k
            ]
            compressed = compress(tile, pattern)
            memory.write_matrix(
                layouts["a"].tile_address(i, k), compressed.values, DType.BF16
            )
            memory.write(
                layouts["a_metadata"].tile_address(i, k), compressed.metadata_bytes()
            )
    for j in range(grid.tiles_n):
        for k in range(grid.tiles_k):
            # Transposed B tile: register row j holds logical column j of B
            # along K, so compressing its rows N:4 compresses B's columns
            # block-wise along K — the SPGEMM operand encoding.
            tile_t = b_padded[
                k * tile_k : (k + 1) * tile_k, j * tile_n : (j + 1) * tile_n
            ].T
            compressed = compress(tile_t, pattern)
            memory.write_matrix(
                layouts["b"].tile_address(j, k), compressed.values, DType.BF16
            )
            memory.write(
                layouts["b_metadata"].tile_address(j, k), compressed.metadata_bytes()
            )


def _spgemm_block(layouts: dict, grid: TileGrid, two_rows: bool) -> BlockTemplate:
    """One block class of the SpGEMM kernel: a row pair, or a trailing single row.

    Register blocking: with both operands in 1 KB tregs the register file
    fits two live C accumulators (treg0-1), two A tiles (treg2-3) and one
    shared B tile (treg4) with its metadata in mreg4 — the same two-row
    interleave as the SPMM kernels, but with every B load shrunk to 1 KB.
    Each compute carries the form of its ``feeds[i, j, k]`` index.
    """
    c_regs = (treg(0), treg(1))
    a_regs = (treg(2), treg(3))
    b_reg = treg(4)
    spgemm_opcode = (
        Opcode.TILE_SPGEMM_U
        if grid.pattern is SparsityPattern.SPARSE_2_4
        else Opcode.TILE_SPGEMM_V
    )
    i_block = (I0, I1) if two_rows else (I0,)
    tiles_k = grid.tiles_k
    trace = TemplateBuilder()
    _loop_overhead(trace, TILE_LOOP_SCALARS, "tile-loop")
    for slot, i in enumerate(i_block):
        trace.tile_load_t(c_regs[slot], address_form(layouts["c"], i, J0), "load C")
    for k in range(tiles_k):
        step = constant(k)
        for slot, i in enumerate(i_block):
            trace.tile_load_t(a_regs[slot], address_form(layouts["a"], i, step), "load A")
            trace.tile_load_m(
                mreg(a_regs[slot].index),
                address_form(layouts["a_metadata"], i, step),
                "load A-MD",
            )
        trace.tile_load_t(b_reg, address_form(layouts["b"], J0, step), "load B")
        trace.tile_load_m(
            mreg(b_reg.index), address_form(layouts["b_metadata"], J0, step), "load B-MD"
        )
        for slot, i in enumerate(i_block):
            # Without operand data the feed overhead stays -1 (unknown) and
            # the simulator falls back to the engine's worst-case formula;
            # with data it is the exact metadata-intersection cost of this
            # (i, j, k) instruction.
            trace.tile_compute(
                spgemm_opcode,
                c_regs[slot],
                a_regs[slot],
                b_reg,
                feed_index=affine((grid.tiles_n * tiles_k, i), (tiles_k, J0), (1, step)),
            )
        _loop_overhead(trace, K_LOOP_SCALARS, "k-loop")
    for slot, i in enumerate(i_block):
        trace.tile_store_t(address_form(layouts["c"], i, J0), c_regs[slot], "store C")
    # Pad the block to a whole number of issue groups so every block starts
    # at the same front-end issue phase (see _ISSUE_ALIGN).
    for _ in range(-len(trace) % _ISSUE_ALIGN):
        trace.scalar("block-align")
    return trace.template()


def spgemm_templates(grid: TileGrid) -> BlockTemplates:
    """The SpGEMM kernel's block templates for ``grid``, built once per kernel."""

    def make() -> Tuple[Optional[BlockTemplate], ...]:
        layouts = _plan_spgemm_layouts(grid)
        return interleaved_templates(
            grid.tiles_m, lambda two_rows: _spgemm_block(layouts, grid, two_rows)
        )

    return block_templates(("spgemm", grid.shape, grid.pattern, grid.geometry), make)


def build_spgemm_kernel(
    shape: GemmShape,
    pattern: SparsityPattern,
    *,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    max_output_tiles: Optional[int] = None,
    blocks: Optional[Sequence[Tuple[int, int]]] = None,
    geometry: TileGeometry = DEFAULT_GEOMETRY,
) -> KernelProgram:
    """Build a sparse x sparse GEMM kernel for a joint 2:4 or 1:4 pattern.

    ``pattern`` is the joint N:4 pattern *both* operands satisfy (derive it
    with :func:`spgemm_joint_pattern` when A and B were pruned differently):
    A along its rows, B along its columns (both along the K dimension).

    ``blocks`` restricts emission to the given cells of the kernel's block
    grid — ``(interleaved row-pair index, output tile column)`` — for one
    core's share of a multi-core partition; ``None`` emits the full kernel,
    bit-identically to the pre-sharding builder.

    SpGEMM kernels are VEGETA-only: the dual compressed operands and their
    metadata streams assume the default geometry, so any other ``geometry``
    is rejected.
    """
    if not geometry.is_default:
        raise KernelError(
            f"SpGEMM kernels target the default VEGETA geometry; "
            f"geometry {geometry.name!r} is not supported"
        )
    if pattern not in SPGEMM_PATTERNS:
        raise KernelError(
            "build_spgemm_kernel handles joint 2:4 and 1:4 operand patterns; "
            "use build_dense_gemm_kernel / build_spmm_kernel when an operand "
            "is dense"
        )
    grid = TileGrid(shape=shape, pattern=pattern)
    layouts = _plan_spgemm_layouts(grid)

    memory: Optional[ByteMemory] = None
    feeds: Optional[np.ndarray] = None
    if a is not None or b is not None:
        if a is None or b is None:
            raise KernelError("provide both A and B, or neither")
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        if a.shape != (shape.m, shape.k) or b.shape != (shape.k, shape.n):
            raise KernelError(
                f"operand shapes {a.shape} / {b.shape} do not match GEMM {shape}"
            )
        if not satisfies_pattern(a, pattern):
            raise KernelError(
                f"A does not satisfy {pattern.value} structured sparsity along "
                "its rows; prune it first"
            )
        if not satisfies_pattern(b.T, pattern):
            raise KernelError(
                f"B does not satisfy {pattern.value} structured sparsity along "
                "its columns; prune it first"
            )
        memory = ByteMemory()
        a_padded, b_padded = _pad_operands(grid, a, b)
        _fill_dual_sparse_operands(memory, grid, layouts, a_padded, b_padded)
        feeds = _spgemm_feed_overheads(grid, a_padded, b_padded)

    classes, coords, tiles = interleaved_cells(blocks, grid.tiles_m, grid.tiles_n, "spgemm")
    trace, fraction = stamp_blocks(
        spgemm_templates(grid), classes, coords, tiles, max_output_tiles, feeds=feeds
    )
    return KernelProgram(
        trace=trace,
        shape=shape,
        pattern=pattern,
        memory=memory,
        c_layout=layouts["c"],
        simulated_fraction=fraction,
        label=f"spgemm-{pattern.value}",
    )
