"""Columnar trace representation: NumPy structured arrays as the trace format.

The kernel builders used to materialise one :class:`~repro.cpu.trace.TraceOp`
(and, for tile ops, one :class:`~repro.core.isa.Instruction`) per dynamic
instruction.  Python object construction dominated the build time of every
sweep, and every consumer that needed a whole-trace view — signature
lowering, instruction-mix summaries, memory footprints — re-walked the ops in
Python loops.

This module stores a trace as one structured NumPy array (:data:`TRACE_DTYPE`)
plus a small label table, the tile geometry and, for the tiled kernels, the
row at which each output-tile block starts.  :class:`TraceBuilder` is the
one encoder: the vector and row-wise builders and hand-written traces append
plain integer rows through it.  The tiled GEMM / SPMM / SpGEMM builders emit
each block class once, through the
:class:`~repro.kernels.template.TemplateBuilder` subclass, and stamp the
block grid with NumPy (:mod:`repro.kernels.template`), so building a kernel
costs a few blocks' worth of Python calls, not one per row.  Either way the
rows are frozen into a read-only :class:`ColumnarTrace` (:func:`frozen_trace`),
which then answers the whole-trace questions as vectorised array operations:

* ``signature_ids`` — the per-op timing signature (kind, opcode, register
  operands, access size, op label and feed overhead; never the address)
  lowered to an ``int64`` id array in one shot (ids are *content-derived*:
  the packed signature word is factorised and remapped to first-appearance
  order, so equal ops get equal ids in every process and every run — no
  interning table whose order could depend on construction history),
* ``summarize`` — the instruction-mix summary via ``bincount``,
* ``footprint_line_numbers`` — the distinct cache lines, via a sort
  (``sorted_unique``; lines are expanded from the distinct regions only),
* ``simulation_key`` — a content hash of everything that can influence a
  simulation's outcome, with raw addresses *normalized out* (only the
  cache-line collision structure they induce is kept).  Two traces with equal
  keys are simulated bit-identically by the cycle simulator, which is what
  licenses the cross-core block memoization in
  :mod:`repro.cpu.multicore`.

A :class:`ColumnarTrace` is the simulator's only input, and no simulation
path builds a :class:`TraceOp` per op.  The simulator decodes one
representative op per distinct signature id
(:meth:`ColumnarTrace.signature_ops`) and then steps the packed rows as
``(signature id, address)`` pairs.  :meth:`ColumnarTrace.ops` is the one
object view of a whole trace (materialised once and cached); it serves
functional validation, the golden-trace text format and the tests.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import isa
from ..core.isa import Instruction, Opcode, memory_bytes_for
from ..core.registers import RegisterRef
from ..errors import SimulationError
from ..types import DEFAULT_GEOMETRY, TileGeometry
from .trace import (
    TraceOp,
    TraceOpKind,
    TraceSummary,
    branch_op,
    scalar_op,
    tile_op,
    vector_fma,
    vector_load,
    vector_store,
)

#: Bump when the simulation-key derivation changes meaning (invalidates every
#: persisted block-result cache entry at once).
#: v3: tile-op transfer sizes follow the trace's tile geometry (the flexible
#: ISA refactor) instead of the fixed default-geometry opcode constants.
#: v4: the persistent store's entries became checksummed envelopes
#: (crash-consistency layer in ``repro.experiments.cache``); new keys let
#: pre-envelope entries age out unread instead of flooding the quarantine.
#: v5: the identity part is :func:`repro.cpu.simulator.simulation_identity`:
#: the engine enters only by its timing (equal timings share entries), and
#: the super-period cap enters too (a store warmed at one cap serves no
#: other).  The machine dict lost four unread ``CoreParams`` fields.
SIMULATION_KEY_SCHEMA = "5"

#: The columnar trace record.  ``opcode`` is -1 for non-tile ops; ``dst`` /
#: ``src_a`` / ``src_b`` hold encoded register references (-1 for none);
#: ``address`` is -1 for non-memory ops; ``nbytes`` is the op's memory
#: transfer size (0 for non-memory ops); ``oplabel`` / ``ilabel`` index the
#: label table (the trace-op label used by signatures, and the instruction /
#: memory-operand label used only when materialising objects); ``feed`` is the
#: per-op data-dependent Feed-First overhead of a tile compute (-1 when the
#: instruction leaves it to the engine's worst-case formula, and for every
#: non-compute op).
TRACE_DTYPE = np.dtype(
    [
        ("kind", np.int8),
        ("opcode", np.int16),
        ("dst", np.int32),
        ("src_a", np.int32),
        ("src_b", np.int32),
        ("address", np.int64),
        ("nbytes", np.int32),
        ("oplabel", np.int32),
        ("ilabel", np.int32),
        ("feed", np.int16),
    ]
)

#: Stable numeric codes, fixed by enum definition order (code-defined, so the
#: mapping is identical in every process — unlike ``hash()`` of an enum).
KIND_CODES: Dict[TraceOpKind, int] = {
    kind: code for code, kind in enumerate(TraceOpKind)
}
KINDS_BY_CODE: Tuple[TraceOpKind, ...] = tuple(TraceOpKind)
OPCODE_CODES: Dict[Opcode, int] = {op: code for code, op in enumerate(Opcode)}
OPCODES_BY_CODE: Tuple[Opcode, ...] = tuple(Opcode)

_KIND_TILE = KIND_CODES[TraceOpKind.TILE]
_KIND_VLOAD = KIND_CODES[TraceOpKind.VECTOR_LOAD]
_KIND_VSTORE = KIND_CODES[TraceOpKind.VECTOR_STORE]
_KIND_VFMA = KIND_CODES[TraceOpKind.VECTOR_FMA]
_KIND_SCALAR = KIND_CODES[TraceOpKind.SCALAR]
_KIND_BRANCH = KIND_CODES[TraceOpKind.BRANCH]

#: Register-reference encoding: ``kind_code * 64 + index`` (64 comfortably
#: exceeds every architectural register count); -1 encodes "no register".
#: Vector ops use their plain integer register namespace directly — the
#: ``kind`` column disambiguates the two encodings.
_REG_KIND_CODES = {"treg": 0, "ureg": 1, "vreg": 2, "mreg": 3}
_REG_KINDS_BY_CODE = ("treg", "ureg", "vreg", "mreg")
_NO_REG = -1

#: Field bounds of the packed signature word (63 bits total, see
#: ``_packed_signatures``): regs after the +1 shift, nbytes, label ids.
_REG_BOUND = 512
_NBYTES_BOUND = 8192
_LABEL_BOUND = 65536
#: Addresses stay below 2**50: distinct regions pack ``address * 8192 + nbytes``.
_ADDRESS_BOUND = 2**63 // _NBYTES_BOUND
#: Bound on the per-op feed overhead after the +1 shift.  The packed word is
#: full at 63 bits, so feed is folded into the signature ids via a second
#: factorisation stage instead (see ``signature_ids``).
_FEED_BOUND = 512


def encode_register(ref: Optional[RegisterRef]) -> int:
    """Encode a tile-register reference (or None) as a small integer."""
    if ref is None:
        return _NO_REG
    return _REG_KIND_CODES[ref.kind] * 64 + ref.index


_DECODE_CACHE: Dict[int, RegisterRef] = {}


def decode_register(code: int) -> Optional[RegisterRef]:
    """Invert :func:`encode_register` (refs are cached: there are few)."""
    if code < 0:
        return None
    ref = _DECODE_CACHE.get(code)
    if ref is None:
        ref = RegisterRef(_REG_KINDS_BY_CODE[code // 64], code % 64)
        _DECODE_CACHE[code] = ref
    return ref


class TraceBuilder:
    """The one trace encoder: appends rows, finishes into a :class:`ColumnarTrace`.

    The emission methods mirror the :mod:`repro.core.isa` constructors, but
    append a plain integer tuple instead of constructing
    ``Instruction``/``TraceOp`` objects — building a trace this way is an
    order of magnitude cheaper, and the objects are materialised later only
    if something asks for them (the simulator never does).  An op the
    columns cannot hold raises :class:`~repro.errors.SimulationError`, at
    emission or at :meth:`finish`.
    """

    __slots__ = ("_rows", "_labels", "_label_ids", "geometry")

    def __init__(self, geometry: TileGeometry = DEFAULT_GEOMETRY) -> None:
        self._rows: List[tuple] = []
        self._labels: List[str] = []
        self._label_ids: Dict[str, int] = {}
        self.geometry = geometry

    def __len__(self) -> int:
        return len(self._rows)

    def _label(self, label: str) -> int:
        label_id = self._label_ids.get(label)
        if label_id is None:
            label_id = len(self._labels)
            self._label_ids[label] = label_id
            self._labels.append(label)
        return label_id

    # -- tile ops ---------------------------------------------------------------

    def tile_load(self, opcode: Opcode, dst: RegisterRef, address: int, label: str = "") -> None:
        """Append a tile load (``TILE_LOAD_T/U/V/M``)."""
        if address < 0:
            # A negative address would alias the "no memory operand" sentinel
            # in every vectorised view; the isa constructors used to reject
            # it at emission time, so keep that property.
            raise SimulationError(f"negative memory address {address}")
        self._rows.append(
            (
                _KIND_TILE,
                OPCODE_CODES[opcode],
                encode_register(dst),
                _NO_REG,
                _NO_REG,
                address,
                memory_bytes_for(opcode, self.geometry),
                self._label(""),
                self._label(label),
                -1,
            )
        )

    def tile_load_t(self, dst: RegisterRef, address: int, label: str = "") -> None:
        self.tile_load(Opcode.TILE_LOAD_T, dst, address, label)

    def tile_load_u(self, dst: RegisterRef, address: int, label: str = "") -> None:
        self.tile_load(Opcode.TILE_LOAD_U, dst, address, label)

    def tile_load_v(self, dst: RegisterRef, address: int, label: str = "") -> None:
        self.tile_load(Opcode.TILE_LOAD_V, dst, address, label)

    def tile_load_m(self, dst: RegisterRef, address: int, label: str = "") -> None:
        self.tile_load(Opcode.TILE_LOAD_M, dst, address, label)

    def tile_store_t(self, address: int, src: RegisterRef, label: str = "") -> None:
        """Append a ``TILE_STORE_T``."""
        if address < 0:
            raise SimulationError(f"negative memory address {address}")
        opcode = Opcode.TILE_STORE_T
        self._rows.append(
            (
                _KIND_TILE,
                OPCODE_CODES[opcode],
                _NO_REG,
                encode_register(src),
                _NO_REG,
                address,
                memory_bytes_for(opcode, self.geometry),
                self._label(""),
                self._label(label),
                -1,
            )
        )

    def tile_compute(
        self,
        opcode: Opcode,
        dst: RegisterRef,
        src_a: RegisterRef,
        src_b: RegisterRef,
        label: str = "",
        feed_overhead: int = -1,
    ) -> None:
        """Append a tile compute instruction (GEMM / SPMM / SPGEMM).

        ``feed_overhead`` stamps the data-dependent Feed-First extension on
        the op (-1 defers to the engine's worst-case formula).
        """
        if not -1 <= feed_overhead < _FEED_BOUND - 1:
            _reject_feed_overhead(feed_overhead)
        self._rows.append(
            (
                _KIND_TILE,
                OPCODE_CODES[opcode],
                encode_register(dst),
                encode_register(src_a),
                encode_register(src_b),
                -1,
                0,
                self._label(""),
                self._label(label),
                feed_overhead,
            )
        )

    # -- vector / scalar ops ----------------------------------------------------

    def vector_load(self, dst_reg: int, address: int, nbytes: int = 64, label: str = "") -> None:
        if address < 0:
            raise SimulationError(f"negative memory address {address}")
        if nbytes <= 0:
            raise SimulationError(f"invalid memory request of {nbytes} bytes")
        label_id = self._label(label)
        self._rows.append(
            (_KIND_VLOAD, -1, dst_reg, _NO_REG, _NO_REG, address, nbytes, label_id, label_id, -1)
        )

    def vector_store(self, src_reg: int, address: int, nbytes: int = 64, label: str = "") -> None:
        if address < 0:
            raise SimulationError(f"negative memory address {address}")
        if nbytes <= 0:
            raise SimulationError(f"invalid memory request of {nbytes} bytes")
        label_id = self._label(label)
        self._rows.append(
            (_KIND_VSTORE, -1, _NO_REG, src_reg, _NO_REG, address, nbytes, label_id, label_id, -1)
        )

    def vector_fma(
        self, dst_reg: Optional[int], src_regs: Sequence[int], label: str = ""
    ) -> None:
        """Append a vector FMA; ``dst_reg=None`` writes no register."""
        srcs = tuple(src_regs)
        if len(srcs) > 2:
            raise SimulationError(
                f"columnar traces encode at most two FMA sources, got {len(srcs)}"
            )
        label_id = self._label(label)
        dst = dst_reg if dst_reg is not None else _NO_REG
        src_a = srcs[0] if len(srcs) > 0 else _NO_REG
        src_b = srcs[1] if len(srcs) > 1 else _NO_REG
        self._rows.append(
            (_KIND_VFMA, -1, dst, src_a, src_b, -1, 0, label_id, label_id, -1)
        )

    def scalar(self, label: str = "") -> None:
        label_id = self._label(label)
        self._rows.append(
            (_KIND_SCALAR, -1, _NO_REG, _NO_REG, _NO_REG, -1, 0, label_id, label_id, -1)
        )

    def branch(self, label: str = "") -> None:
        label_id = self._label(label)
        self._rows.append(
            (_KIND_BRANCH, -1, _NO_REG, _NO_REG, _NO_REG, -1, 0, label_id, label_id, -1)
        )

    # -- completion -------------------------------------------------------------

    def finish(self) -> "ColumnarTrace":
        """Freeze the appended rows into a read-only :class:`ColumnarTrace`.

        The trace declares no block structure (``block_starts`` is ``None``).
        """
        return frozen_trace(
            np.array(self._rows, dtype=TRACE_DTYPE), tuple(self._labels), self.geometry
        )


def _reject_feed_overhead(feed_overhead: int) -> None:
    raise SimulationError(
        f"feed_overhead {feed_overhead} outside the signature packing "
        f"bound [{-1}, {_FEED_BOUND - 2}]"
    )


def check_feed_overheads(feeds: np.ndarray) -> None:
    """Reject per-op feed overheads outside the signature packing bound."""
    bad = (feeds < -1) | (feeds >= _FEED_BOUND - 1)
    if bad.any():
        _reject_feed_overhead(int(feeds[bad][0]))


def frozen_trace(
    columns: np.ndarray,
    labels: Tuple[str, ...],
    geometry: TileGeometry,
    block_starts: Optional[Tuple[int, ...]] = None,
) -> "ColumnarTrace":
    """Wrap finished rows as a read-only :class:`ColumnarTrace`.

    The columns are marked non-writeable: one built trace may be shared by
    many kernel programs (:func:`repro.kernels.memo.build_kernel`) and caches
    views derived from its content, so no holder may edit it.
    ``block_starts`` is the row of each output-tile block, in order, when the
    builder knows them.  Too many labels, an address at or past
    ``_ADDRESS_BOUND`` or a transfer size outside ``[0, _NBYTES_BOUND)``
    raise: the region packing ``address * 8192 + nbytes`` holds neither.
    """
    if len(labels) >= _LABEL_BOUND:
        raise SimulationError(
            f"trace carries {len(labels)} distinct labels; "
            f"the signature packing supports {_LABEL_BOUND}"
        )
    addresses = columns["address"]
    if addresses.max(initial=-1) >= _ADDRESS_BOUND:
        row = int(np.argmax(addresses >= _ADDRESS_BOUND))
        raise SimulationError(f"trace row {row}: address {addresses[row]:#x} is not below 2**50")
    nbytes = columns["nbytes"]
    outside = (nbytes < 0) | (nbytes >= _NBYTES_BOUND)
    if outside.any():
        row = int(np.argmax(outside))
        raise SimulationError(
            f"trace row {row}: {nbytes[row]} B transfer is outside [0, {_NBYTES_BOUND})"
        )
    return ColumnarTrace(_read_only(columns), labels, geometry, block_starts)


def _first_touch_mask(ids: np.ndarray) -> np.ndarray:
    """True at the first occurrence of each distinct id."""
    mask = np.zeros(len(ids), dtype=bool)
    _, first_index = np.unique(ids, return_index=True)
    mask[first_index] = True
    return mask


def lru_outcome_bits(ids: np.ndarray, num_sets: int, associativity: int) -> np.ndarray:
    """Exact per-access hit mask of a set-associative LRU cache.

    Stand-alone replay of the cache state for an access stream of line ids,
    vectorised *across sets*: accesses are regrouped into per-set
    subsequences (LRU state is per-set, so the global interleaving is
    irrelevant), padded to the longest subsequence, and the LRU update runs
    one vectorised step per subsequence position over all sets at once —
    ``O(max-accesses-per-set)`` NumPy steps instead of one Python iteration
    per access.  Matches the LRU sets of
    :class:`repro.cpu.memory.MemorySystem` hit-for-hit.

    A step touches one way per set: one ``argmin`` over the ages with the
    matching way (a tag sits in at most one) forced lowest picks the hit way,
    else the LRU victim.  Padding lanes (tag -1) only *trail* a set's last
    real access, so their writes are never read.  Lanes are time-major.
    """
    n = len(ids)
    sets = ids % num_sets
    tags = ids // num_sets
    counts = np.bincount(sets, minlength=num_sets)
    depth = int(counts.max(initial=0))
    starts = np.cumsum(counts) - counts
    order = np.argsort(sets, kind="stable")
    within = np.empty(n, dtype=np.int64)
    within[order] = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)

    lanes = np.full((depth, num_sets), -1, dtype=np.int64)
    lanes[within, sets] = tags
    tag_state = np.full((num_sets, associativity), -1, dtype=np.int64)
    age_state = np.full((num_sets, associativity), -1, dtype=np.int64)
    hit_lanes = np.empty((depth, num_sets), dtype=bool)
    set_base = np.arange(num_sets, dtype=np.int64) * associativity
    flat_tags = tag_state.reshape(-1)
    flat_ages = age_state.reshape(-1)
    for step in range(depth):
        column = lanes[step]
        match = tag_state == column[:, None]
        way = set_base + np.where(match, -2, age_state).argmin(axis=1)
        hit_lanes[step] = match.reshape(-1)[way]
        flat_tags[way] = column
        flat_ages[way] = step
    return hit_lanes[within, sets]


def sorted_unique(values: np.ndarray, kind: Optional[str] = None) -> np.ndarray:
    """``np.unique(values)`` as a ``kind`` sort plus a neighbour mask.

    Plain ``np.unique`` hashes integer arrays, several times slower on these.
    """
    ordered = np.sort(values, axis=None, kind=kind)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def distinct_line_count(footprints: Sequence[np.ndarray]) -> int:
    """Distinct lines across sorted footprints; a stable sort merges their runs."""
    return len(sorted_unique(np.concatenate(footprints), kind="stable")) if footprints else 0


def _unique_regions(cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``(address, nbytes)`` regions of the memory rows of ``cols``."""
    mask = cols["address"] >= 0
    packed = sorted_unique(cols["address"][mask] * np.int64(_NBYTES_BOUND) + cols["nbytes"][mask])
    return packed // _NBYTES_BOUND, packed % _NBYTES_BOUND


def _region_lines(addresses: np.ndarray, nbytes: np.ndarray, line_bytes: int) -> np.ndarray:
    """Line number of every cache line each region touches, region by region."""
    if not len(addresses):
        return np.empty(0, dtype=np.int64)
    first = addresses // line_bytes
    last = (addresses + nbytes.astype(np.int64) - 1) // line_bytes
    counts = last - first + 1
    total = int(counts.sum())
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(first, counts) + (np.arange(total, dtype=np.int64) - offsets)


def _read_only(array: np.ndarray) -> np.ndarray:
    """Mark an array that a shared trace holds or hands out as read-only."""
    array.flags.writeable = False
    return array


def _first_appearance_ranks(values: np.ndarray) -> np.ndarray:
    """Each element's value renumbered in order of first appearance."""
    _, first_index, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first_index, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return rank[inverse]


def _level_key(level) -> tuple:
    """The cache-level fields the address-structure hash reads."""
    return (level.name, level.line_bytes, level.num_sets, level.associativity)


def _may_evict(distinct: np.ndarray, level) -> bool:
    """True when some set of ``level`` maps more of the distinct lines than it has ways."""
    per_set = np.bincount(distinct % level.num_sets, minlength=level.num_sets)
    return bool(per_set.max(initial=0) > level.associativity)


def _outcome_hits(level, distinct: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Exact per-access LRU hit mask of ``level`` for the line stream ``ids``.

    A level that cannot evict on this footprint (see :func:`_may_evict`)
    resolves every access by first-touch residency, so the replay is skipped.
    """
    if _may_evict(distinct, level):
        return lru_outcome_bits(ids, level.num_sets, level.associativity)
    return ~_first_touch_mask(ids)


def _fold_outcomes(digest, level, distinct: np.ndarray, ids: np.ndarray, hits=None) -> None:
    """Fold one cache level's exact hit/miss outcomes into ``digest``.

    When no set of the level can hold more distinct footprint lines than its
    associativity, the level can never evict: every access resolves by
    first-touch residency, which the rank sequence already pins, so a
    constant marker suffices.  Otherwise the outcome bitmask of the exact
    LRU replay (``hits``, replayed here when not given) is folded in.
    """
    if not len(ids):
        digest.update(f"{level.name}:empty".encode())
    elif not _may_evict(distinct, level):
        digest.update(f"{level.name}:no-evictions".encode())
    else:
        if hits is None:
            hits = lru_outcome_bits(ids, level.num_sets, level.associativity)
        digest.update(f"{level.name}:".encode())
        digest.update(np.packbits(hits).tobytes())


class ColumnarTrace:
    """A dynamic instruction trace stored column-wise: one kernel run.

    ``columns`` hold the rows (:data:`TRACE_DTYPE`) and ``labels`` the label
    table; ``geometry`` is the tile geometry the rows were encoded for.
    ``block_starts`` is the row at which each repeating output-tile block
    begins, in order, as the template stamper records it (``None`` when the
    builder declares no block structure, as :meth:`TraceBuilder.finish`
    does).  The simulator's fast path reads it as a periodicity hint and
    :meth:`simulation_key` hashes it.  ``TraceOp`` objects materialise from
    the columns only on request (:meth:`ops`).

    Everything derived from the trace content alone is computed once and
    kept on the trace (:meth:`derived`): signature ids, the instruction mix,
    the structure digest, footprint lines, L1 outcome bits, address-structure
    hashes and the fast path's oracle scripts.  Each view's key names exactly
    the machine fields the view reads, so one trace shared by many
    simulations (engines, machines, cores, trials) answers each distinct
    question once.
    """

    __slots__ = ("columns", "labels", "geometry", "block_starts", "_ops", "_views")

    def __init__(
        self,
        columns: np.ndarray,
        labels: Tuple[str, ...] = (),
        geometry: TileGeometry = DEFAULT_GEOMETRY,
        block_starts: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.columns = columns
        self.labels = labels
        self.geometry = geometry
        self.block_starts = block_starts
        self._ops: Optional[List[TraceOp]] = None
        self._views: Dict[tuple, Any] = {}

    def __len__(self) -> int:
        return len(self.columns)

    def __getstate__(self):
        # Materialised ops and derived views are caches; do not ship them
        # across process boundaries.
        return (self.columns, self.labels, self.geometry, self.block_starts)

    def __setstate__(self, state):
        self.columns, self.labels, self.geometry, self.block_starts = state
        self._ops = None
        self._views = {}

    def derived(self, key: tuple, compute: Callable[[], Any]) -> Any:
        """The view named ``key``, computed by ``compute()`` on first request.

        ``key`` must name the view and every input beyond the trace content
        that ``compute`` reads (e.g. the cache-geometry fields of a
        machine), so equal keys always denote equal values.  A value is
        stored only once ``compute`` returns, so an interrupted computation
        leaves no partial view behind.
        """
        views = self._views
        if key not in views:
            views[key] = compute()
        return views[key]

    # -- materialisation --------------------------------------------------------

    def ops(self) -> List[TraceOp]:
        """The trace as TraceOp objects (materialised once, then cached)."""
        if self._ops is None:
            self._ops = self._materialize(self.columns)
        return self._ops

    def signature_ops(self) -> Tuple[TraceOp, ...]:
        """One TraceOp per signature id: the id's first occurrence, in id order.

        Every op with that id has the same timing-relevant content (only its
        address differs), so the simulator decodes these few ops once and
        steps every row through its signature's record.
        """

        def first_ops() -> Tuple[TraceOp, ...]:
            _, first = np.unique(self.signature_ids(), return_index=True)
            return tuple(self._materialize(self.columns[first]))

        return self.derived(("signature-ops",), first_ops)

    def _materialize(self, rows: np.ndarray) -> List[TraceOp]:
        labels = self.labels
        geometry = self.geometry
        ops: List[TraceOp] = []
        append = ops.append
        for row in rows:
            kind = int(row["kind"])
            if kind == _KIND_TILE:
                opcode = OPCODES_BY_CODE[int(row["opcode"])]
                label = labels[int(row["ilabel"])]
                if opcode.is_load:
                    instruction = Instruction(
                        opcode,
                        dst=decode_register(int(row["dst"])),
                        memory=isa.MemoryOperand(int(row["address"]), int(row["nbytes"]), label),
                        label=label,
                        geometry=geometry,
                    )
                elif opcode.is_store:
                    instruction = Instruction(
                        opcode,
                        src_a=decode_register(int(row["src_a"])),
                        memory=isa.MemoryOperand(int(row["address"]), int(row["nbytes"]), label),
                        label=label,
                        geometry=geometry,
                    )
                else:
                    instruction = Instruction(
                        opcode,
                        dst=decode_register(int(row["dst"])),
                        src_a=decode_register(int(row["src_a"])),
                        src_b=decode_register(int(row["src_b"])),
                        label=label,
                        feed_overhead=int(row["feed"]),
                        geometry=geometry,
                    )
                append(tile_op(instruction))
            elif kind == _KIND_SCALAR:
                append(scalar_op(labels[int(row["oplabel"])]))
            elif kind == _KIND_BRANCH:
                append(branch_op(labels[int(row["oplabel"])]))
            elif kind == _KIND_VLOAD:
                append(
                    vector_load(
                        int(row["dst"]),
                        int(row["address"]),
                        int(row["nbytes"]),
                        labels[int(row["oplabel"])],
                    )
                )
            elif kind == _KIND_VSTORE:
                append(
                    vector_store(
                        int(row["src_a"]),
                        int(row["address"]),
                        int(row["nbytes"]),
                        labels[int(row["oplabel"])],
                    )
                )
            else:  # VECTOR_FMA
                srcs = tuple(
                    int(row[field]) for field in ("src_a", "src_b") if int(row[field]) >= 0
                )
                dst = int(row["dst"])
                append(vector_fma(dst if dst >= 0 else None, srcs, labels[int(row["oplabel"])]))
        return ops

    # -- vectorised views -------------------------------------------------------

    def _packed_signatures(self) -> np.ndarray:
        """Pack the timing signature of every op into one ``int64`` word.

        The word covers the timing signature except the per-op feed overhead
        — kind, opcode, the three register operands, access size and
        trace-op label — and nothing else; addresses are deliberately absent.
        The word is full at 63 bits, so ``signature_ids`` and
        ``_structure_hash`` fold the ``feed`` column in separately.
        """
        cols = self.columns
        kind = cols["kind"].astype(np.int64)
        opcode = cols["opcode"].astype(np.int64) + 1
        dst = cols["dst"].astype(np.int64) + 1
        src_a = cols["src_a"].astype(np.int64) + 1
        src_b = cols["src_b"].astype(np.int64) + 1
        nbytes = cols["nbytes"].astype(np.int64)
        oplabel = cols["oplabel"].astype(np.int64)
        if len(cols) and (
            opcode.max(initial=0) >= 16
            or dst.max(initial=0) >= _REG_BOUND
            or src_a.max(initial=0) >= _REG_BOUND
            or src_b.max(initial=0) >= _REG_BOUND
            or nbytes.max(initial=0) >= _NBYTES_BOUND
        ):
            raise SimulationError("trace row exceeds the signature packing bounds")
        packed = kind
        packed = packed * 16 + opcode
        packed = packed * _REG_BOUND + dst
        packed = packed * _REG_BOUND + src_a
        packed = packed * _REG_BOUND + src_b
        packed = packed * _NBYTES_BOUND + nbytes
        packed = packed * _LABEL_BOUND + oplabel
        return packed

    def signature_ids(self) -> np.ndarray:
        """Per-op signature ids, assigned in first-appearance order.

        Equivalent to interning each op's timing-signature tuple in program
        order, but derived from the packed content words, so the result
        depends only on the trace content (never on hash seeds or interning
        history) and costs two sorts (``sorted_unique``, first-appearance ranks).
        The per-op ``feed`` overhead is part of the signature (it changes the
        engine-pipeline timing), folded in via a second factorisation stage
        because the packed word itself is full at 63 bits: the sorted-unique
        rank of the packed word (content-derived) times ``_FEED_BOUND`` plus
        the shifted feed value is again a unique content word.
        """
        return self.derived(("signature-ids",), self._signature_ids)

    def _signature_ids(self) -> np.ndarray:
        packed = self._packed_signatures()
        feed = self.columns["feed"].astype(np.int64) + 1
        values = sorted_unique(packed)
        combined = np.searchsorted(values, packed) * np.int64(_FEED_BOUND) + feed
        return _read_only(_first_appearance_ranks(combined))

    def summarize(self) -> TraceSummary:
        """Instruction-mix summary of the whole trace, a fresh copy per call
        of the kept view (results never share one mutable summary)."""
        summary = self.derived(("summary",), self._summary)
        return dataclasses.replace(summary, by_opcode=dict(summary.by_opcode))

    def _summary(self) -> TraceSummary:
        cols = self.columns
        kinds = cols["kind"]
        kind_counts = np.bincount(kinds, minlength=len(KINDS_BY_CODE))
        summary = TraceSummary(
            total=int(len(cols)),
            vector_fma=int(kind_counts[_KIND_VFMA]),
            vector_load=int(kind_counts[_KIND_VLOAD]),
            vector_store=int(kind_counts[_KIND_VSTORE]),
            scalar=int(kind_counts[_KIND_SCALAR]),
            branch=int(kind_counts[_KIND_BRANCH]),
            memory_bytes=int(cols["nbytes"].sum()),
        )
        if kind_counts[_KIND_TILE]:
            tile_opcodes = cols["opcode"][kinds == _KIND_TILE]
            opcode_counts = np.bincount(tile_opcodes, minlength=len(OPCODES_BY_CODE))
            for code, count in enumerate(opcode_counts):
                if not count:
                    continue
                opcode = OPCODES_BY_CODE[code]
                summary.by_opcode[opcode.value] = int(count)
                if opcode.is_compute:
                    summary.tile_compute += int(count)
                elif opcode.is_load:
                    summary.tile_load += int(count)
                else:
                    summary.tile_store += int(count)
        return summary

    def _expand_lines(self, line_bytes: int) -> np.ndarray:
        """Line number of every cache-line access, in program order.

        Not kept: at several lines per row it is the largest per-trace array,
        and every view built from it is kept instead.
        """
        cols = self.columns
        mask = cols["address"] >= 0
        return _region_lines(cols["address"][mask], cols["nbytes"][mask], line_bytes)

    def footprint_line_numbers(self, line_bytes: int) -> np.ndarray:
        """Distinct cache-line numbers referenced by the trace, sorted.

        Only the distinct ``(address, nbytes)`` regions are expanded into
        lines: a kernel touches each of its tiles many times.
        """
        return self.derived(
            ("footprint-lines", line_bytes),
            lambda: _read_only(
                sorted_unique(_region_lines(*_unique_regions(self.columns), line_bytes))
            ),
        )

    def l1_outcome_bits(self, l1) -> np.ndarray:
        """Exact hit mask of every cache-line access under the LRU cache ``l1``.

        One replay per L1 geometry serves both the memo key
        (:meth:`address_structure_hash`) and the fast path's oracle script
        (:func:`repro.cpu.fastsim._build_oracle`).
        """
        line_bytes = l1.line_bytes
        return self.derived(
            ("l1-hits", line_bytes, l1.num_sets, l1.associativity),
            lambda: _read_only(
                _outcome_hits(
                    l1,
                    self.footprint_line_numbers(line_bytes),
                    self._expand_lines(line_bytes),
                )
            ),
        )

    # -- memoization key --------------------------------------------------------

    def _structure_hash(self) -> bytes:
        """Digest of the address-free trace content (cached)."""
        return self.derived(("structure",), self._structure_digest)

    def _structure_digest(self) -> bytes:
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self._packed_signatures()).tobytes())
        # The feed column is part of the timing-relevant content: two traces
        # differing only in their feed-overhead sequences schedule the engine
        # pipeline differently and must get distinct memo keys.
        digest.update(np.ascontiguousarray(self.columns["feed"]).tobytes())
        digest.update("\x00".join(self.labels).encode("utf-8"))
        return digest.digest()

    def address_structure_hash(self, machine) -> bytes:
        """Digest of the cache *behaviour* the address stream induces.

        Raw addresses are normalized out; what survives is exactly what the
        memory system's timing and counters depend on:

        * the first-appearance **rank sequence** of the accessed lines, which
          fixes the reuse pattern up to a bijective relabeling of lines,
        * each level's **hit/miss outcome sequence**, obtained from an exact
          stand-alone replay of its set-associative LRU state
          (:func:`lru_outcome_bits`, vectorised across sets).  A level that
          cannot possibly evict on this footprint (no set holds more distinct
          lines than its associativity) resolves every access by first-touch
          residency — already determined by the rank sequence — and
          contributes a constant marker instead of a replay; with the ideal
          L2 prefetch of the paper's methodology every L2 access is a hit by
          construction, so that level is likewise a marker.

        Equal digests imply identical per-access levels and latencies and
        identical reported counters, so the simulation outcome cannot depend
        on which member of the equivalence class is simulated — even when
        the members' region offsets fall into different cache sets (the case
        for the address-shifted per-core shards of one kernel, whose shifts
        are rarely multiples of the set spans).

        Cached per (L1, L2, prefetch) geometry; the L2 fields are read only
        without the ideal prefetch.
        """
        key = ("address-structure", _level_key(machine.l1), machine.prefetch_into_l2)
        if not machine.prefetch_into_l2:
            key += (_level_key(machine.l2),)
        return self.derived(key, lambda: self._address_structure_digest(machine))

    def _address_structure_digest(self, machine) -> bytes:
        l1 = machine.l1
        lines = self._expand_lines(l1.line_bytes)
        digest = hashlib.sha256()
        if not len(lines):
            return digest.digest()
        digest.update(np.ascontiguousarray(_first_appearance_ranks(lines)).tobytes())

        l1_hits = self.l1_outcome_bits(l1)
        _fold_outcomes(digest, l1, self.footprint_line_numbers(l1.line_bytes), lines, l1_hits)
        if machine.prefetch_into_l2:
            # The ideal prefetcher delivers every L1 miss at L2-hit latency.
            digest.update(b"L2:ideal-prefetch")
        else:
            misses = ((lines * l1.line_bytes) // machine.l2.line_bytes)[~l1_hits]
            _fold_outcomes(digest, machine.l2, sorted_unique(misses), misses)
        return digest.digest()

    def simulation_key(self, machine) -> str:
        """Content address of this trace's simulation outcome on ``machine``.

        The key covers the address-free op content, the cache-collision
        structure of the address stream under the machine's cache geometry,
        and the trace's ``block_starts`` (the fast path's hints; absent or
        empty hints add nothing); the caller folds in the
        engine/mode/machine identity (see
        :func:`repro.cpu.multicore.simulation_cache_key`).  Everything is
        content-derived, so keys are valid across processes and runs.
        """
        digest = hashlib.sha256()
        digest.update(SIMULATION_KEY_SCHEMA.encode())
        digest.update(len(self).to_bytes(8, "little"))
        digest.update(self._structure_hash())
        digest.update(self.address_structure_hash(machine))
        if self.block_starts:
            digest.update(np.asarray(self.block_starts, dtype=np.int64).tobytes())
        return digest.hexdigest()
