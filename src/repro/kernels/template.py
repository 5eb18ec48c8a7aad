"""Block templates: emit each block class once, stamp the block grid with NumPy.

Every tiled kernel is a periodic loop nest: its register-blocked output
blocks repeat one fixed load / compute / store body (Listing 1), and only
the tile coordinates the body addresses change from block to block.  A
builder therefore emits the body of each *block class* once — the dense
kernel's full 2x2 block, row edge, column edge and corner; the sparse
kernels' row pair and single row — into a :class:`TemplateBuilder`, which
records ordinary :class:`~repro.cpu.columnar.TraceBuilder` rows plus, for
every memory row, an integer **affine form** of the block coordinates::

    address = form . (i0, i1, j0, j1, 1)

i.e. layout base + row x row stride + column x tile stride, with the row
and column each one of the block's tile coordinates or a constant K-step
(see :func:`address_form`).  ``i0, i1`` are the block's two tile rows and
``j0, j1`` its two tile columns, clamped at the grid edge, so a single-row
block has ``i1 == i0``.  A data-carrying SpGEMM compute row carries a second
form: its flat index into the kernel's ``feeds[i, j, k]`` overheads.

:func:`stamp_blocks` then lays the chosen blocks out in emission order: it
gathers every content column in one ``take`` from the stacked templates and
computes each class's addresses with one ``int64`` matrix product over its
blocks' coordinates.  Templates depend only on the kernel (kind, shape,
pattern, geometry, loop overhead) — never on which cells are stamped — so
every per-core build of a sharded kernel stamps from the same templates
(:func:`repro.kernels.memo.block_templates`).

The templates are also the one statement of what a block *touches*:
:func:`cell_totals` counts the compute rows, bytes and distinct cache lines
of any set of cells from them, without stamping a row.  A memory row's
region is its form's tile row or column times a layout stride plus a
constant (the layout base and the K step), so one family of regions — one
row stride, column stride and size — is the product of the tile rows /
columns its rows read and its constants, and deduplicating the cells'
coordinates deduplicates the regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from ..cpu.columnar import (
    TRACE_DTYPE,
    ColumnarTrace,
    TraceBuilder,
    check_feed_overheads,
    frozen_trace,
    sorted_unique,
)
from ..errors import KernelError, SimulationError
from ..types import DEFAULT_GEOMETRY, TileGeometry
from .tiling import MatrixTileLayout, validate_blocks

#: An affine form over the block coordinates ``(i0, i1, j0, j1, 1)``.
Form = Tuple[int, int, int, int, int]

I0: Form = (1, 0, 0, 0, 0)
I1: Form = (0, 1, 0, 0, 0)
J0: Form = (0, 0, 1, 0, 0)
J1: Form = (0, 0, 0, 1, 0)


def constant(value: int) -> Form:
    """The constant form ``value``."""
    return (0, 0, 0, 0, value)


def affine(*terms: Tuple[int, Form]) -> Form:
    """The form ``sum(coefficient * form)`` over ``(coefficient, form)`` terms."""
    return tuple(  # type: ignore[return-value]
        sum(coefficient * form[axis] for coefficient, form in terms) for axis in range(5)
    )


def address_form(layout: MatrixTileLayout, row: Form, col: Form) -> Form:
    """:meth:`MatrixTileLayout.tile_address` of the tile at forms ``(row, col)``."""
    row_stride = layout.effective_row_stride
    tile_stride = layout.effective_tile_stride
    return (
        row_stride * row[0] + tile_stride * col[0],
        row_stride * row[1] + tile_stride * col[1],
        row_stride * row[2] + tile_stride * col[2],
        row_stride * row[3] + tile_stride * col[3],
        layout.base_address + row_stride * row[4] + tile_stride * col[4],
    )


@dataclass(frozen=True, eq=False)
class BlockTemplate:
    """One block class: its trace rows and the affine maps that place them.

    ``rows`` hold every content column; the ``address`` of a memory row is a
    placeholder that :func:`stamp_blocks` overwrites from ``address_forms``
    (one form per entry of ``address_rows``), and the ``feed`` of a row in
    ``feed_rows`` is filled from ``feed_forms`` when the build carries
    feed overheads.  ``oplabel`` / ``ilabel`` index the template's own
    ``labels``, in first-appearance order.
    """

    rows: np.ndarray
    labels: Tuple[str, ...]
    address_rows: np.ndarray
    address_forms: np.ndarray
    feed_rows: np.ndarray
    feed_forms: np.ndarray


def _split(entries: List[Tuple[int, Form]]) -> Tuple[np.ndarray, np.ndarray]:
    rows = np.array([row for row, _ in entries], dtype=np.int64)
    forms = np.array([form for _, form in entries], dtype=np.int64).reshape(-1, 5)
    return rows, forms


class TemplateBuilder(TraceBuilder):
    """A :class:`TraceBuilder` whose tile addresses are affine forms.

    Rows are encoded exactly as :class:`TraceBuilder` encodes them (labels
    included); each load / store takes a :data:`Form` in place of its
    address, and a compute may name the form of its ``feeds`` index.
    """

    __slots__ = ("_address_forms", "_feed_forms")

    def __init__(self, geometry: TileGeometry = DEFAULT_GEOMETRY) -> None:
        super().__init__(geometry)
        self._address_forms: List[Tuple[int, Form]] = []
        self._feed_forms: List[Tuple[int, Form]] = []

    def tile_load(self, opcode, dst, address: Form, label: str = "") -> None:
        self._address_forms.append((len(self), address))
        super().tile_load(opcode, dst, 0, label)

    def tile_store_t(self, address: Form, src, label: str = "") -> None:
        self._address_forms.append((len(self), address))
        super().tile_store_t(0, src, label)

    def tile_compute(
        self, opcode, dst, src_a, src_b, label: str = "", feed_index: Optional[Form] = None
    ) -> None:
        if feed_index is not None:
            self._feed_forms.append((len(self), feed_index))
        super().tile_compute(opcode, dst, src_a, src_b, label)

    def template(self) -> BlockTemplate:
        """The recorded block as a :class:`BlockTemplate`."""
        address_rows, address_forms = _split(self._address_forms)
        feed_rows, feed_forms = _split(self._feed_forms)
        return BlockTemplate(
            rows=np.array(self._rows, dtype=TRACE_DTYPE),
            labels=tuple(self._labels),
            address_rows=address_rows,
            address_forms=address_forms,
            feed_rows=feed_rows,
            feed_forms=feed_forms,
        )


#: The block coordinates a form's tile row may read: ``i0``, ``i1``, or the
#: constant 1 (column 4) when it reads no tile row; likewise its tile column.
_ROW_AXES = (0, 1, 4)
_COL_AXES = (2, 3, 4)


def _axis(form: Sequence[int], axes: Tuple[int, int, int]) -> Tuple[int, int]:
    """``(a, stride)`` when ``form`` reads tile coordinate ``axes[a]`` with
    ``stride``; the constant axis (``a = 2``) with stride 0 when it reads
    neither of the two tile coordinates."""
    used = [a for a in range(2) if form[axes[a]]]
    if len(used) > 1:
        raise KernelError(f"address form {tuple(form)} reads two tile rows or columns")
    return (used[0], form[axes[used[0]]]) if used else (2, 0)


class _Regions(NamedTuple):
    """A kernel's memory rows as region families (see :func:`cell_totals`).

    Family ``f`` holds every region of row stride ``row_stride[f]``, column
    stride ``col_stride[f]`` and size ``nbytes[f]``.  When
    ``uses[c, f, a, b]`` is set, each block of class ``c`` puts one region at
    ``row_stride[f] * coords[_ROW_AXES[a]] + col_stride[f] *
    coords[_COL_AXES[b]] + offset`` for each of the family's offsets
    (``offsets[first[f] : first[f] + counts[f]]``).
    """

    row_stride: np.ndarray
    col_stride: np.ndarray
    nbytes: np.ndarray
    offsets: np.ndarray
    first: np.ndarray
    counts: np.ndarray
    uses: np.ndarray


class BlockTemplates(tuple):
    """One kernel's :class:`BlockTemplate` s indexed by block class (``None``
    for a class the grid does not contain), with what each class touches."""

    @cached_property
    def class_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Tile compute rows and transferred bytes of one block of each class."""
        summaries = [
            ColumnarTrace(template.rows, template.labels).summarize() if template else None
            for template in self
        ]
        return (
            np.array([s.tile_compute if s else 0 for s in summaries], dtype=np.int64),
            np.array([s.memory_bytes if s else 0 for s in summaries], dtype=np.int64),
        )

    @cached_property
    def regions(self) -> _Regions:
        """The memory rows of every class grouped into region families.

        Within a family every use must carry the same offsets: that is what
        makes the family's regions a product of coordinates and offsets.
        """
        families: Dict[Tuple[int, int, int], Dict[Tuple[int, int, int], Set[int]]] = {}
        for cls, template in enumerate(self):
            if template is None:
                continue
            memory = np.flatnonzero(template.rows["address"] >= 0)
            if not np.array_equal(memory, np.sort(template.address_rows)):
                raise KernelError("a block template has a memory row without an address form")
            sizes = template.rows["nbytes"][template.address_rows]
            for form, size in zip(template.address_forms.tolist(), sizes.tolist()):
                row_axis, row_stride = _axis(form, _ROW_AXES)
                col_axis, col_stride = _axis(form, _COL_AXES)
                uses = families.setdefault((row_stride, col_stride, size), {})
                uses.setdefault((cls, row_axis, col_axis), set()).add(form[-1])
        offsets: List[List[int]] = []
        table = np.zeros((len(self), len(families), len(_ROW_AXES), len(_COL_AXES)), dtype=bool)
        for family, (key, uses) in enumerate(families.items()):
            distinct = {frozenset(values) for values in uses.values()}
            if len(distinct) != 1:
                raise KernelError(
                    f"the regions of stride/size {key} are not one product of "
                    "tile coordinates and offsets"
                )
            offsets.append(sorted(distinct.pop()))
            for cls, row_axis, col_axis in uses:
                table[cls, family, row_axis, col_axis] = True
        keys = np.array(list(families), dtype=np.int64).reshape(-1, 3)
        counts = np.array([len(values) for values in offsets], dtype=np.int64)
        return _Regions(
            row_stride=keys[:, 0],
            col_stride=keys[:, 1],
            nbytes=keys[:, 2],
            offsets=np.array([value for values in offsets for value in values], dtype=np.int64),
            first=np.cumsum(counts) - counts,
            counts=counts,
            uses=table,
        )

    @cached_property
    def checked_bytes(self) -> Dict[tuple, int]:
        """Bytes of region sets already checked by :func:`cell_totals`, keyed
        by line size and content: every partition of a kernel covers the same
        grid, so each kernel's combined regions are checked once."""
        return {}


def block_cells(blocks, rows: int, cols: int, name: str) -> np.ndarray:
    """The ``(B, 2)`` cells to emit: the row-major grid, or validated ``blocks``."""
    if blocks is None:
        return np.stack(np.divmod(np.arange(rows * cols, dtype=np.int64), cols), axis=1)
    return np.array(validate_blocks(blocks, rows, cols, name), dtype=np.int64).reshape(-1, 2)


def interleaved_templates(
    tiles_m: int, block: Callable[[bool], BlockTemplate]
) -> Tuple[Optional[BlockTemplate], ...]:
    """A sparse kernel's templates by class, ``block(two_rows)`` for each
    class the grid contains: the row pair (class 0) and the trailing single
    row of an odd grid (class 1)."""
    return (
        block(True) if tiles_m >= 2 else None,
        block(False) if tiles_m % 2 == 1 else None,
    )


def interleaved_cells(
    blocks, tiles_m: int, tiles_n: int, name: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(classes, coords, tiles)`` of a sparse kernel's validated ``blocks``."""
    return interleaved_coords(block_cells(blocks, -(-tiles_m // 2), tiles_n, name), tiles_m)


def interleaved_coords(
    cells: np.ndarray, tiles_m: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(classes, coords, tiles)`` of a sparse kernel's ``(B, 2)`` cells.

    A cell is (row pair, tile column) of the two-accumulator interleave
    (:func:`repro.kernels.tiling.interleaved_block_rows`): class 0 covers a
    row pair, class 1 the trailing single row of an odd grid.
    """
    i0 = 2 * cells[:, 0]
    i1 = np.minimum(i0 + 1, tiles_m - 1)
    single = (i1 == i0).astype(np.int64)
    j = cells[:, 1]
    return single, np.stack((i0, i1, j, j, np.ones_like(i0)), axis=1), 2 - single


def stamp_blocks(
    templates: Sequence[Optional[BlockTemplate]],
    classes: np.ndarray,
    coords: np.ndarray,
    tiles: np.ndarray,
    max_output_tiles: Optional[int],
    geometry: TileGeometry = DEFAULT_GEOMETRY,
    feeds: Optional[np.ndarray] = None,
) -> Tuple[ColumnarTrace, float]:
    """Stamp block ``b`` as ``templates[classes[b]]`` at ``coords[b]``, in order.

    ``coords`` is ``(B, 5)``: each block's ``(i0, i1, j0, j1, 1)``; block
    ``b`` covers ``tiles[b]`` output tiles.  Blocks are stamped until
    ``max_output_tiles`` output tiles are covered (the block that crosses the
    limit is stamped whole).  Returns the frozen trace, which carries the
    row offset of every stamped block as its ``block_starts``, and the
    fraction of the blocks' output tiles the trace covers.

    The content columns are one gather from the stacked templates; each
    class's addresses (and feeds) are then one matrix product over its
    blocks' coordinates.  Labels are numbered in first-appearance order over
    the stamped trace, as a row-by-row emission numbers them: classes are
    merged in the order of their first block, since a later block of a class
    adds no label its first did not.
    """
    ends = np.cumsum(tiles)
    total_tiles = int(ends[-1]) if len(ends) else 0
    limit = total_tiles if max_output_tiles is None else min(max_output_tiles, total_tiles)
    count = int(np.count_nonzero(ends - tiles < limit))
    emitted = int(ends[count - 1]) if count else 0
    classes, coords = classes[:count], coords[:count]

    present, first = np.unique(classes, return_index=True)
    present = present[np.argsort(first)]
    label_ids: Dict[str, int] = {}
    stacked = []
    offsets = np.zeros(len(templates), dtype=np.int64)
    for cls in present:
        template = templates[cls]
        remap = np.array(
            [label_ids.setdefault(label, len(label_ids)) for label in template.labels],
            dtype=np.int32,
        )
        rows = template.rows.copy()
        rows["oplabel"] = remap[rows["oplabel"]]
        rows["ilabel"] = remap[rows["ilabel"]]
        offsets[cls] = sum(len(block) for block in stacked)
        stacked.append(rows)

    lengths = np.array([0 if t is None else len(t.rows) for t in templates], dtype=np.int64)
    sizes = lengths[classes]
    starts = np.cumsum(sizes) - sizes
    table = np.concatenate(stacked) if stacked else np.empty(0, dtype=TRACE_DTYPE)
    columns = table.take(
        np.arange(int(sizes.sum()), dtype=np.int64) + np.repeat(offsets[classes] - starts, sizes)
    )

    for cls in present:
        template = templates[cls]
        members = np.flatnonzero(classes == cls)
        block_coords = coords[members]
        addresses = block_coords @ template.address_forms.T
        if addresses.size and addresses.min() < 0:
            # A negative address would alias the "no memory operand" sentinel.
            raise SimulationError(f"negative memory address {addresses.min()}")
        columns["address"][starts[members, None] + template.address_rows] = addresses
        if feeds is not None and len(template.feed_rows):
            values = feeds.reshape(-1)[block_coords @ template.feed_forms.T]
            check_feed_overheads(values)
            columns["feed"][starts[members, None] + template.feed_rows] = values
    trace = frozen_trace(columns, tuple(label_ids), geometry, tuple(starts.tolist()))
    return trace, emitted / total_tiles if total_tiles else 1.0


class CellTotals(NamedTuple):
    """What the cells of each owner touch: tile compute rows, transferred
    bytes and distinct cache lines per owner, and the distinct lines of all
    owners together."""

    computes: np.ndarray
    memory_bytes: np.ndarray
    lines: np.ndarray
    combined_lines: int


def cell_totals(
    templates: BlockTemplates,
    classes: np.ndarray,
    coords: np.ndarray,
    owners: np.ndarray,
    owner_count: int,
    line_bytes: int,
) -> CellTotals:
    """Count what stamping each owner's cells would touch, without stamping.

    Cell ``b`` is block class ``classes[b]`` at ``coords[b]`` (as for
    :func:`stamp_blocks`) and belongs to owner ``owners[b]``.  Compute rows
    and bytes are each class's per-block counts times its cells.  Distinct
    lines come from the region families (:attr:`BlockTemplates.regions`):
    the distinct ``(row, column)`` coordinates a family's uses read, times
    its offsets, times the lines per region.  That count needs every region
    to start on a line, span whole lines and overlap no other region; the
    regions of all cells together are checked for all three (once per
    distinct region set, :attr:`BlockTemplates.checked_bytes`), and a
    kernel that breaks one raises :class:`~repro.errors.KernelError`.
    """
    class_count = len(templates)
    per_class = np.bincount(
        owners * class_count + classes, minlength=owner_count * class_count
    ).reshape(owner_count, class_count)
    class_computes, class_bytes = templates.class_counts
    regions = templates.regions
    families = len(regions.counts)

    # One code per (owner, family, row, column) that some use of a cell reads.
    radix = int(coords.max(initial=1)) + 1
    area = radix * radix
    pairs = coords[:, _ROW_AXES, None] * radix + coords[:, None, _COL_AXES]
    owner_family = owners[:, None] * families + np.arange(families, dtype=np.int64)
    codes = (owner_family[:, :, None, None] * area + pairs[:, None])[regions.uses[classes]]
    owner_family, tile = np.divmod(sorted_unique(codes), area)
    per_family = np.bincount(owner_family, minlength=owner_count * families)

    combined = sorted_unique(owner_family % families * area + tile)
    key = (line_bytes, radix, combined.tobytes())
    combined_bytes = templates.checked_bytes.get(key)
    if combined_bytes is None:
        combined_bytes = templates.checked_bytes[key] = _disjoint_region_bytes(
            regions, combined, radix, line_bytes
        )
    return CellTotals(
        computes=per_class @ class_computes,
        memory_bytes=per_class @ class_bytes,
        lines=per_family.reshape(owner_count, families)
        @ (regions.counts * regions.nbytes // line_bytes),
        combined_lines=combined_bytes // line_bytes,
    )


def _disjoint_region_bytes(
    regions: _Regions, codes: np.ndarray, radix: int, line_bytes: int
) -> int:
    """Bytes of the regions that ``(family, row, column)`` ``codes`` touch,
    after checking that they are line-aligned, whole lines and disjoint."""
    family, tile = np.divmod(codes, radix * radix)
    row, col = np.divmod(tile, radix)
    bases = regions.row_stride[family] * row + regions.col_stride[family] * col
    counts = regions.counts[family]
    ends = np.cumsum(counts)
    picks = np.repeat(regions.first[family] - (ends - counts), counts) + np.arange(
        int(ends[-1]) if len(ends) else 0, dtype=np.int64
    )
    starts = np.repeat(bases, counts) + regions.offsets[picks]
    sizes = np.repeat(regions.nbytes[family], counts)
    order = np.argsort(starts, kind="stable")
    starts, sizes = starts[order], sizes[order]
    if (starts % line_bytes).any() or (sizes % line_bytes).any():
        raise KernelError(f"a block region is not whole {line_bytes}-byte lines")
    if (starts[1:] < starts[:-1] + sizes[:-1]).any():
        raise KernelError("two block regions overlap")
    return int(sizes.sum())
