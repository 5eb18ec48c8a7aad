"""Structured-sparse SPMM kernels (``TILE_SPMM_U/V/R``).

:func:`build_spmm_kernel` handles the fixed 2:4 and 1:4 patterns: each A tile
is compressed into a 1 KB value image plus a 128-byte metadata image, B tiles
grow to 2 KB (ureg) or 4 KB (vreg), and each tile instruction covers an
effective K of 64 or 128 — which is where the Figure 13 speed-ups come from
(half / a quarter of the tile instructions of the dense kernel).

:func:`build_rowwise_spmm_kernel` demonstrates ``TILE_SPMM_R`` end-to-end on
matrices with per-row N:4 patterns (including unstructured matrices covered
losslessly by the Section III-D transformation).  It applies the pseudo
row-wise DMA reorder (rows grouped by pattern), packs consecutive rows into
instruction groups that fit the treg's 512 stored values, and un-permutes the
output when reading results back.  The paper evaluates this path analytically
(Section VI-E); we additionally provide the executable kernel so the ISA
semantics are exercised.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.isa import Opcode
from ..core.memory_image import ByteMemory
from ..core.registers import mreg, treg, ureg, vreg
from ..core.rowwise_mapping import (
    ROWWISE_EFFECTIVE_COLS,
    TREG_STORED_CAPACITY,
    pack_rows,
)
from ..cpu.columnar import TraceBuilder
from ..errors import KernelError
from ..sparse.blocks import minimal_row_patterns, satisfies_pattern
from ..sparse.compress import compress
from ..sparse.metadata import pack_indices
from ..sparse.rowwise import group_rows_for_pseudo
from ..types import DEFAULT_GEOMETRY, DType, GemmShape, SparsityPattern, TileGeometry
from .gemm import K_LOOP_SCALARS, TILE_LOOP_SCALARS, _loop_overhead, _plan_layouts
from .memo import block_templates
from .program import KernelProgram
from .template import (
    I0,
    I1,
    J0,
    BlockTemplate,
    TemplateBuilder,
    address_form,
    constant,
    interleaved_cells,
    interleaved_templates,
    stamp_blocks,
)
from .tiling import MatrixTileLayout, TileGrid, align_up


def _fill_sparse_operands(
    memory: ByteMemory,
    grid: TileGrid,
    layouts: dict,
    metadata_layout: MatrixTileLayout,
    a: np.ndarray,
    b: np.ndarray,
) -> None:
    """Write compressed A tiles (+metadata) and transposed B tiles to memory."""
    padded = grid.padded_shape
    pattern = grid.pattern
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
            compressed = compress(tile, pattern)
            memory.write_matrix(
                layouts["a"].tile_address(i, k), compressed.values, DType.BF16
            )
            memory.write(
                metadata_layout.tile_address(i, k), compressed.metadata_bytes()
            )
    for j in range(grid.tiles_n):
        for k in range(grid.tiles_k):
            tile = b_padded[
                k * tile_k : (k + 1) * tile_k, j * tile_n : (j + 1) * tile_n
            ]
            memory.write_matrix(layouts["b"].tile_address(j, k), tile.T, DType.BF16)


def _spmm_block(
    layouts: dict,
    metadata_layout: MatrixTileLayout,
    grid: TileGrid,
    two_rows: bool,
) -> BlockTemplate:
    """One block class of the SPMM kernel: a row pair, or a trailing single row.

    Register blocking: the wider B operands (ureg/vreg) leave room for only
    two live C accumulators (treg0-1) and two A tiles (treg2-3), so the
    SPMM kernels interleave two output tiles along the M dimension sharing
    one B tile per K-step.  The shorter (2-deep) accumulator chains are what
    make output forwarding matter much more for the sparse instructions
    than for the dense kernel (Section V-C, Figure 10).
    """
    c_regs = (treg(0), treg(1))
    a_regs = (treg(2), treg(3))
    if grid.pattern is SparsityPattern.SPARSE_2_4:
        b_reg = ureg(2)  # tregs 4-5
        load_b_opcode = Opcode.TILE_LOAD_U
        spmm_opcode = Opcode.TILE_SPMM_U
    else:
        b_reg = vreg(1)  # tregs 4-7
        load_b_opcode = Opcode.TILE_LOAD_V
        spmm_opcode = Opcode.TILE_SPMM_V
    i_block = (I0, I1) if two_rows else (I0,)
    trace = TemplateBuilder()
    _loop_overhead(trace, TILE_LOOP_SCALARS, "tile-loop")
    for slot, i in enumerate(i_block):
        trace.tile_load_t(c_regs[slot], address_form(layouts["c"], i, J0), "load C")
    for k in range(grid.tiles_k):
        step = constant(k)
        for slot, i in enumerate(i_block):
            trace.tile_load_t(a_regs[slot], address_form(layouts["a"], i, step), "load A")
            trace.tile_load_m(
                mreg(a_regs[slot].index), address_form(metadata_layout, i, step), "load MD"
            )
        trace.tile_load(load_b_opcode, b_reg, address_form(layouts["b"], J0, step), "load B")
        for slot in range(len(i_block)):
            trace.tile_compute(spmm_opcode, c_regs[slot], a_regs[slot], b_reg)
        _loop_overhead(trace, K_LOOP_SCALARS, "k-loop")
    for slot, i in enumerate(i_block):
        trace.tile_store_t(address_form(layouts["c"], i, J0), c_regs[slot], "store C")
    return trace.template()


def build_spmm_kernel(
    shape: GemmShape,
    pattern: SparsityPattern,
    *,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    max_output_tiles: Optional[int] = None,
    blocks: Optional[Sequence[Tuple[int, int]]] = None,
    geometry: TileGeometry = DEFAULT_GEOMETRY,
) -> KernelProgram:
    """Build a 2:4 or 1:4 structured-sparse SPMM kernel.

    The A operand must already satisfy ``pattern`` when data is provided
    (prune it first with :func:`repro.sparse.prune_to_pattern`).

    ``blocks`` restricts emission to the given cells of the kernel's block
    grid — ``(interleaved row-pair index, output tile column)`` — for one
    core's share of a multi-core partition; ``None`` emits the full kernel,
    bit-identically to the pre-sharding builder.

    Sparse kernels are VEGETA-only: their metadata packing and aliased
    ureg/vreg operands assume the default geometry, so any other
    ``geometry`` is rejected.
    """
    if not geometry.is_default:
        raise KernelError(
            f"structured-sparse kernels target the default VEGETA geometry; "
            f"geometry {geometry.name!r} is not supported"
        )
    if pattern not in (SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4):
        raise KernelError(
            "build_spmm_kernel handles 2:4 and 1:4; use build_dense_gemm_kernel "
            "for 4:4 and build_rowwise_spmm_kernel for row-wise tiles"
        )
    grid = TileGrid(shape=shape, pattern=pattern)
    layouts = _plan_layouts(grid)
    metadata_layout = MatrixTileLayout(
        base_address=layouts["metadata_base"],
        tiles_rows=grid.tiles_m,
        tiles_cols=grid.tiles_k,
        tile_bytes=geometry.metadata_reg_bytes,
        name="A-metadata",
    )

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
        if not satisfies_pattern(a, pattern):
            raise KernelError(
                f"A does not satisfy {pattern.value} structured sparsity; prune it first"
            )
        memory = ByteMemory()
        _fill_sparse_operands(memory, grid, layouts, metadata_layout, a, b)

    classes, coords, tiles = interleaved_cells(blocks, grid.tiles_m, grid.tiles_n, "spmm")
    templates = block_templates(
        ("spmm", shape, pattern, geometry),
        lambda: interleaved_templates(
            grid.tiles_m,
            lambda two_rows: _spmm_block(layouts, metadata_layout, grid, two_rows),
        ),
    )
    trace, fraction = stamp_blocks(
        templates, classes, coords, tiles, max_output_tiles
    )
    return KernelProgram(
        trace=trace,
        shape=shape,
        pattern=pattern,
        memory=memory,
        c_layout=layouts["c"],
        simulated_fraction=fraction,
        label=f"spmm-{pattern.value}",
    )


# ---------------------------------------------------------------------------
# Row-wise SPMM (TILE_SPMM_R)
# ---------------------------------------------------------------------------

def build_rowwise_spmm_kernel(a: np.ndarray, b: np.ndarray) -> KernelProgram:
    """Build an executable row-wise SPMM kernel for an unstructured sparse A.

    The kernel (1) derives each row's minimal N:4 pattern, (2) reorders rows
    so equal patterns are consecutive (pseudo row-wise), (3) packs consecutive
    rows into ``TILE_SPMM_R`` groups bounded by the treg's 512 stored values
    and the 32-row output limit, and (4) emits loads/compute/stores per group
    and K-chunk.  The resulting C rows are stored in the permuted order; the
    program records the permutation so :meth:`KernelProgram.read_result`
    restores the original order.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise KernelError(f"incompatible operand shapes {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    tile_m, tile_n = DEFAULT_GEOMETRY.rows, DEFAULT_GEOMETRY.fp32_cols
    tile_k = ROWWISE_EFFECTIVE_COLS  # effective K of one TILE_SPMM_R
    treg_bytes = DEFAULT_GEOMETRY.register_bytes("treg")
    if k % tile_k != 0:
        raise KernelError(
            f"row-wise kernels require K to be a multiple of {tile_k}, got {k}"
        )
    if n % tile_n != 0:
        raise KernelError(f"row-wise kernels require N to be a multiple of {tile_n}")

    shape = GemmShape(m=m, n=n, k=k)
    patterns = minimal_row_patterns(a)

    # Pseudo row-wise DMA reorder: rows grouped by pattern, stable in index.
    order = group_rows_for_pseudo(patterns)[0]
    permuted_a = a[order]
    permuted_patterns = [patterns[index] for index in order]
    plan = pack_rows(permuted_patterns)

    # -- memory layout ---------------------------------------------------------
    # A: one treg (1 KB) compressed image + one mreg (128 B) of metadata per
    #    (group, k-chunk).
    # B: transposed ureg (2 KB) tiles per (j-block, k-chunk).
    # C: permuted row-major panels of m x 16 per j-block, padded to 32 rows
    #    per group so the ureg-wide loads/stores stay in bounds.
    k_chunks = k // tile_k
    n_blocks = n // tile_n
    groups = plan.groups

    a_layout = MatrixTileLayout(
        base_address=0x10000,
        tiles_rows=len(groups),
        tiles_cols=k_chunks,
        tile_bytes=treg_bytes,
        name="A-rowwise",
    )
    metadata_layout = MatrixTileLayout(
        base_address=align_up(a_layout.end_address),
        tiles_rows=len(groups),
        tiles_cols=k_chunks,
        tile_bytes=DEFAULT_GEOMETRY.register_bytes("mreg"),
        name="A-rowwise-metadata",
    )
    b_layout = MatrixTileLayout(
        base_address=align_up(metadata_layout.end_address),
        tiles_rows=n_blocks,
        tiles_cols=k_chunks,
        tile_bytes=DEFAULT_GEOMETRY.register_bytes("ureg"),
        name="B^T",
    )
    # C: tile layout with 16-row tiles over the padded permuted row space.
    padded_rows = ((m + tile_m - 1) // tile_m) * tile_m
    c_layout = MatrixTileLayout(
        base_address=align_up(b_layout.end_address),
        tiles_rows=padded_rows // tile_m,
        tiles_cols=n_blocks,
        tile_bytes=treg_bytes,
        name="C",
    )

    memory = ByteMemory()
    rowwise_patterns: Dict[int, Tuple[SparsityPattern, ...]] = {}

    # Fill B tiles (transposed).
    for j in range(n_blocks):
        for chunk in range(k_chunks):
            tile = b[
                chunk * tile_k : (chunk + 1) * tile_k,
                j * tile_n : (j + 1) * tile_n,
            ]
            memory.write_matrix(b_layout.tile_address(j, chunk), tile.T, DType.BF16)

    # Fill compressed A group images and metadata.
    stored_shape = (DEFAULT_GEOMETRY.rows, DEFAULT_GEOMETRY.bf16_cols)
    for group_index, group in enumerate(groups):
        for chunk in range(k_chunks):
            stored_values = np.zeros(TREG_STORED_CAPACITY, dtype=np.float32)
            stored_indices = np.zeros(TREG_STORED_CAPACITY, dtype=np.int64)
            cursor = 0
            for permuted_row in group.row_indices:
                pattern = permuted_patterns[permuted_row]
                row_slice = permuted_a[
                    permuted_row, chunk * tile_k : (chunk + 1) * tile_k
                ].reshape(1, -1)
                compressed = compress(row_slice, pattern)
                count = compressed.values.size
                stored_values[cursor : cursor + count] = compressed.values[0]
                stored_indices[cursor : cursor + count] = compressed.indices[0]
                cursor += count
            address = a_layout.tile_address(group_index, chunk)
            memory.write_matrix(
                address, stored_values.reshape(stored_shape), DType.BF16
            )
            memory.write(
                metadata_layout.tile_address(group_index, chunk),
                pack_indices(stored_indices.reshape(stored_shape)),
            )
            rowwise_patterns[address] = tuple(
                permuted_patterns[row] for row in group.row_indices
            )

    # -- trace emission ------------------------------------------------------------
    trace = TraceBuilder()
    c_acc = ureg(0)  # tregs 0-1: up to 32 output rows
    a_reg = treg(2)
    b_reg = ureg(2)  # tregs 4-5

    # Starting output row (in the permuted space) of each group.
    group_start_rows: List[int] = []
    cursor = 0
    for group in groups:
        group_start_rows.append(cursor)
        cursor += group.output_rows

    for j in range(n_blocks):
        for group_index, group in enumerate(groups):
            start_row = group_start_rows[group_index]
            c_address = c_layout.base_address + (
                (start_row * tile_n) + j * padded_rows * tile_n
            ) * 4
            for _ in range(TILE_LOOP_SCALARS):
                trace.scalar("group-loop")
            trace.branch("group-loop")
            trace.tile_load_u(c_acc, c_address, "load C group")
            for chunk in range(k_chunks):
                trace.tile_load_t(
                    a_reg, a_layout.tile_address(group_index, chunk), "load A"
                )
                trace.tile_load_m(
                    mreg(a_reg.index),
                    metadata_layout.tile_address(group_index, chunk),
                    "load MD",
                )
                trace.tile_load_u(b_reg, b_layout.tile_address(j, chunk), "load B")
                trace.tile_compute(Opcode.TILE_SPMM_R, c_acc, a_reg, b_reg)
                for _ in range(K_LOOP_SCALARS):
                    trace.scalar("k-loop")
                trace.branch("k-loop")
            # Store back the group's rows (two tregs cover the 32-row window).
            trace.tile_store_t(c_address, treg(0), "store C lo")
            if group.output_rows > tile_m:
                trace.tile_store_t(c_address + treg_bytes, treg(1), "store C hi")

    # The C image is organised as column panels of padded_rows x 16; express it
    # through the standard tile layout for read_result by noting that panel j,
    # tile-row r starts at base + (j * padded_rows + r * 16) * 16 * 4 — i.e. a
    # column-major tile order.  MatrixTileLayout is row-major over (row, col),
    # so we re-declare it with the panel-major ordering baked into the address
    # arithmetic below.
    c_read_layout = _ColumnPanelLayout(
        base_address=c_layout.base_address,
        tiles_rows=padded_rows // tile_m,
        tiles_cols=n_blocks,
        tile_bytes=treg_bytes,
        name="C",
        padded_rows=padded_rows,
    )

    permutation = tuple(order)
    return KernelProgram(
        trace=trace.finish(),
        shape=shape,
        pattern=SparsityPattern.ROW_WISE,
        memory=memory,
        c_layout=c_read_layout,
        c_row_permutation=permutation,
        rowwise_patterns=rowwise_patterns,
        label="spmm-rowwise",
    )


class _ColumnPanelLayout(MatrixTileLayout):
    """C layout for the row-wise kernel: column panels of padded_rows x 16."""

    def __init__(self, *, base_address, tiles_rows, tiles_cols, tile_bytes, name, padded_rows):
        super().__init__(
            base_address=base_address,
            tiles_rows=tiles_rows,
            tiles_cols=tiles_cols,
            tile_bytes=tile_bytes,
            name=name,
        )
        object.__setattr__(self, "_padded_rows", padded_rows)

    def tile_address(self, row: int, col: int) -> int:
        if not (0 <= row < self.tiles_rows and 0 <= col < self.tiles_cols):
            raise KernelError(
                f"tile ({row}, {col}) outside grid {self.tiles_rows}x{self.tiles_cols}"
            )
        padded_rows = getattr(self, "_padded_rows")
        tile_m, tile_n = DEFAULT_GEOMETRY.rows, DEFAULT_GEOMETRY.fp32_cols
        return self.base_address + (
            col * padded_rows * tile_n + row * tile_m * tile_n
        ) * 4
