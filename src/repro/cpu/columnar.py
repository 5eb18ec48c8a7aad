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
* the **atom table** (one per line size): the line intervals between the
  request endpoints, sorted and disjoint, and the stream of atoms the
  requests cover.  When the distinct requests are disjoint, the atoms are
  those requests.  No view below expands a request into lines before
  deciding it,
* ``footprint_line_numbers`` — the distinct cache lines: the atoms
  expanded in address order, already sorted and distinct,
* ``l1_outcome_bits`` — the exact LRU hit mask of every cache-line access,
  decided once per (request, piece, set arc) element, not per line
  (:func:`_level_outcomes`: every set of an arc sees the same piece
  sequence), each element from its reuse window in its arc
  (:func:`lru_outcome_bits`: a few array passes and one sort per slab of
  whole arcs),
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
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
#: Addresses stay below 2**50, so a request packs into one int64 word,
#: ``address * 8192 + nbytes``.
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

    Each emission method appends a plain integer tuple instead of
    constructing ``Instruction``/``TraceOp`` objects — building a trace this
    way is an order of magnitude cheaper, and the objects are materialised
    later only if something asks for them (the simulator never does).  An op
    the columns cannot hold raises :class:`~repro.errors.SimulationError`, at
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
            # in every vectorised view; ``MemoryOperand`` rejects it too, so
            # reject it at emission time.
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
    raise: the request word ``address * 8192 + nbytes`` holds neither.
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


#: Most accesses :func:`lru_outcome_bits` decides in one slab of whole sets
#: (a set with more accesses is a slab by itself).  Each slab's temporaries
#: are a few arrays of this length, so a long stream costs no more transient
#: memory than its global set order.
_LRU_SLAB_ACCESSES = 1 << 16


def lru_outcome_bits(ids: np.ndarray, num_sets: int, associativity: int) -> np.ndarray:
    """Exact per-access hit mask of a set-associative LRU cache.

    Matches the LRU sets of :class:`repro.cpu.memory.MemorySystem`
    hit-for-hit, without replaying the cache state.  LRU state is per set,
    so each access is decided within its set's own access order.  By the
    LRU stack property (Mattson et al., 1970) an access hits iff fewer than
    ``A = associativity`` distinct lines of its set were touched since the
    previous access ``p`` to its line.  Four rules apply that criterion:

    1. No ``p``: a miss (first touch).
    2. Fewer than ``A`` accesses since ``p``: a hit, since they hold fewer
       than ``A`` distinct lines.
    3. The ``A`` accesses just before are ``A`` distinct lines: a miss.  The
       set then holds exactly those lines, and ``p`` precedes them all, so
       the line is not among them.  The test is that no access in that
       window reuses a line since the window began: the window maximum of
       ``p`` (``ceil(log2 A) - 1`` doubling ``np.maximum`` passes) lies
       before it.
    4. Otherwise scan back from the access, counting the positions whose
       line is not touched again before it (each distinct line once).  The
       scan stops at ``p`` (a hit) or at the ``A``-th distinct line (a
       miss).  The accesses whose scans walk one position have pairwise
       distinct lines, and all but the last lie in the last one's window,
       which holds fewer than ``A`` distinct lines; so at most ``A`` scans
       walk each position: ``A * n`` work in all, in as many vectorised
       steps as the longest scan.  No cap is needed.

    Sets are cut into slabs of whole sets (:data:`_LRU_SLAB_ACCESSES`) in
    set-major order; each slab is an independent problem.
    """
    ids = np.asarray(ids, dtype=np.int64)
    hits = np.zeros(len(ids), dtype=bool)
    # A uint8 / uint16 set index makes the stable argsort a radix sort.
    sets = (ids % num_sets).astype(np.min_scalar_type(num_sets - 1))
    order = np.argsort(sets, kind="stable")
    for start, stop in _slab_bounds(sets, num_sets):
        rows = order[start:stop]
        hits[rows] = _slab_hits(ids[rows], associativity)
    return hits


def _slab_bounds(sets: np.ndarray, num_sets: int) -> List[Tuple[int, int]]:
    """Set-major ``(start, stop)`` of each slab: whole sets, at most
    :data:`_LRU_SLAB_ACCESSES` accesses unless one set alone has more."""
    n = len(sets)
    if n <= _LRU_SLAB_ACCESSES:
        return [(0, n)] if n else []
    ends = np.cumsum(np.bincount(sets, minlength=num_sets))
    slabs = []
    start = 0
    while start < n:
        first = np.searchsorted(ends, start, side="right")
        last = np.searchsorted(ends, start + _LRU_SLAB_ACCESSES, side="right") - 1
        stop = int(ends[max(first, last)])
        slabs.append((start, stop))
        start = stop
    return slabs


def _reuse_links(lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each position's previous (-1 if none) and next (``len`` if none) access
    to the same line."""
    m = len(lines)
    position = np.arange(m, dtype=np.int64)
    bits = (m - 1).bit_length()
    low = int(lines.min())
    if (int(lines.max()) - low) >> (62 - bits):
        by_line = np.argsort(lines, kind="stable")
    else:
        # One plain sort of ``line << bits | position`` groups each line's
        # positions in order, several times faster than a stable argsort.
        by_line = np.sort(((lines - low) << bits) | position) & ((1 << bits) - 1)
    grouped = lines[by_line]
    same = grouped[1:] == grouped[:-1]
    earlier = by_line[:-1][same]
    later = by_line[1:][same]
    prev = np.full(m, -1, dtype=np.int64)
    prev[later] = earlier
    following = np.full(m, m, dtype=np.int64)
    following[earlier] = later
    return prev, following


def _slab_hits(lines: np.ndarray, ways: int) -> np.ndarray:
    """LRU hit mask of one slab's set-major line stream, by the four rules of
    :func:`lru_outcome_bits`."""
    prev, following = _reuse_links(lines)
    gap = np.arange(len(lines), dtype=np.int64) - prev
    # Rules 1 and 2; the rest is pending.
    hits = (prev >= 0) & (gap <= ways)
    pending = np.flatnonzero((prev >= 0) & (gap > ways))
    # Rule 3 closes the accesses whose window maximum of ``prev`` over
    # [i - A, i - 1] lies before it.  Two overlapping windows of a
    # power-of-two width cover it once twice the width reaches A.  Rule 2
    # failed, so the window lies inside the access's own set.
    width = 1
    window = prev
    while 2 * width < ways:
        window = np.maximum(window[:-width], window[width:])
        width *= 2
    low = pending - ways
    pending = pending[np.maximum(window[low], window[pending - width]) >= low]
    # Rule 4: one backward step per iteration for every access still open.
    target = prev[pending]
    cursor = pending - 1
    distinct = np.zeros(len(pending), dtype=np.int64)
    while len(pending):
        at_target = cursor == target
        hits[pending[at_target]] = True
        distinct += following[cursor] >= pending
        keep = ~at_target & (distinct < ways)
        pending, target = pending[keep], target[keep]
        cursor, distinct = cursor[keep] - 1, distinct[keep]
    return hits


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


def _line_counts(addresses: np.ndarray, nbytes: np.ndarray, line_bytes: int) -> np.ndarray:
    """Cache lines each region ``[address, address + nbytes)`` touches."""
    first = addresses // line_bytes
    return (addresses + nbytes.astype(np.int64) - 1) // line_bytes - first + 1


def _run_lines(starts, counts: np.ndarray) -> np.ndarray:
    """``start, start + 1, ..., start + count - 1`` for each run in turn,
    concatenated (``starts`` 0 gives each element's offset in its run)."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)


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


class _AtomTable(NamedTuple):
    """A stream of line intervals, rewritten as a stream of disjoint atoms.

    The atoms are the line intervals between consecutive interval endpoints
    that some interval covers.  Every interval is a run of whole atoms, so
    the line stream is the concatenation of the atoms of ``stream``, and
    two atoms share no line.  When the distinct intervals are disjoint, as
    the tile requests of every keyed perfbench trace are, the atoms are just
    those intervals.
    """

    #: First line of each atom, ascending.
    starts: np.ndarray
    #: Lines of each atom.
    lengths: np.ndarray
    #: The atom of each atom access, in stream order.
    stream: np.ndarray
    #: Position in ``stream`` of each atom's first access.
    first: np.ndarray


def _atom_table(lo: np.ndarray, hi: np.ndarray) -> _AtomTable:
    """The atoms of the line intervals ``[lo, hi)``, in stream order."""
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    ends = sorted_unique(np.concatenate((lo, hi)))
    stream = np.searchsorted(ends, lo)
    spans = np.searchsorted(ends, hi) - stream
    if (spans > 1).any():
        stream = _run_lines(stream, spans)
    # Number the covered gaps between endpoints 0, 1, ... in address order.
    covered = np.zeros(max(len(ends) - 1, 0), dtype=bool)
    covered[stream] = True
    stream = (np.cumsum(covered) - 1)[stream]
    accesses = len(stream)
    first = np.full(int(covered.sum()), accesses, dtype=np.int64)
    np.minimum.at(first, stream, np.arange(accesses, dtype=np.int64))
    return _AtomTable(ends[:-1][covered], np.diff(ends)[covered], stream, first)


def _line_ranks(atoms: _AtomTable) -> np.ndarray:
    """First-appearance rank of every line access of the atom stream.

    An atom's lines first appear together, in order, at its first access,
    so a line's rank is the lines of the atoms that appeared before its own
    plus its offset in its atom.
    """
    order = np.argsort(atoms.first)
    ordered = atoms.lengths[order]
    base = np.empty(len(order), dtype=np.int64)
    base[order] = np.cumsum(ordered) - ordered
    accessed = atoms.lengths[atoms.stream]
    return _run_lines(base[atoms.stream], accessed)


class _Outcomes(NamedTuple):
    """Exact LRU outcomes of one cache level, one element per run of lines.

    An element is the lines that one access of a piece (an atom cut to at
    most ``num_sets`` lines) maps to one arc of sets.  Every line of an
    element has the element's outcome, and the elements' runs, in order,
    are the level's line stream.
    """

    #: Per element: its lines hit.
    hits: np.ndarray
    #: First line of each element's run.
    starts: np.ndarray
    #: Lines of each element's run.
    counts: np.ndarray
    #: Some set maps more distinct lines than the level has ways.
    may_evict: bool

    def line_hits(self) -> np.ndarray:
        """The hit mask of every line access, in stream order."""
        return np.repeat(self.hits, self.counts)


def _level_outcomes(atoms: _AtomTable, num_sets: int, associativity: int) -> _Outcomes:
    """Exact LRU outcomes of every line of the atom stream, decided per arc.

    Atoms longer than ``num_sets`` lines are cut into pieces of at most
    ``num_sets`` lines, so a piece maps each set it covers once.  The sets
    are cut into arcs at the pieces' set endpoints, so each piece covers
    whole arcs.  Every set of an arc then sees the same piece sequence, a
    distinct line per distinct piece, and LRU outcomes are unchanged by
    renaming a set's lines one to one.  So one :func:`lru_outcome_bits`
    call over the ids ``piece * arcs + arc``, one per (access, piece, arc)
    element, decides every line exactly, and the level may evict iff more
    than ``associativity`` distinct pieces cover one arc.
    """
    starts, lengths, stream = atoms.starts, atoms.lengths, atoms.stream
    if not len(stream):
        empty = np.empty(0, dtype=np.int64)
        return _Outcomes(np.empty(0, dtype=bool), empty, empty, False)
    first_touch = atoms.first[stream] == np.arange(len(stream))
    piece_starts, piece_lengths, pieces = starts, lengths, stream
    if lengths.max() > num_sets:
        cuts = -(-lengths // num_sets)
        offsets = _run_lines(0, cuts) * num_sets
        atom = np.repeat(np.arange(len(starts)), cuts)
        piece_starts = starts[atom] + offsets
        piece_lengths = np.minimum(lengths[atom] - offsets, num_sets)
        accessed = cuts[stream]
        pieces = _run_lines((np.cumsum(cuts) - cuts)[stream], accessed)
        first_touch = np.repeat(first_touch, accessed)
    bounds = sorted_unique(np.concatenate((starts % num_sets, (starts + lengths) % num_sets)))
    arcs = len(bounds)
    arc_sets = np.diff(bounds, append=bounds[0] + num_sets)
    first_arc = np.searchsorted(bounds, piece_starts % num_sets)
    spans = (np.searchsorted(bounds, (piece_starts + piece_lengths) % num_sets) - first_arc) % arcs
    spans[spans == 0] = arcs  # a piece of ``num_sets`` lines covers every arc
    # Distinct pieces per arc: each piece covers ``spans`` arcs from its
    # first, counted on a doubled circle and folded.
    edges = np.bincount(first_arc, minlength=2 * arcs + 1) - np.bincount(
        first_arc + spans, minlength=2 * arcs + 1
    )
    cover = np.cumsum(edges[: 2 * arcs])
    may_evict = bool((cover[:arcs] + cover[arcs:]).max() > associativity)
    arc = first_arc[pieces]
    if (spans > 1).any():
        accessed = spans[pieces]
        pieces = np.repeat(pieces, accessed)
        arc = _run_lines(arc, accessed) % arcs
        first_touch = np.repeat(first_touch, accessed)
    if may_evict:
        hits = lru_outcome_bits(pieces * arcs + arc, arcs, associativity)
    else:
        # No set can evict: a line hits iff it was touched before.
        hits = ~first_touch
    element_starts = piece_starts[pieces]
    element_starts += (bounds[arc] - element_starts) % num_sets
    return _Outcomes(hits, element_starts, arc_sets[arc], may_evict)


def _level_key(level) -> tuple:
    """The cache-level fields the address-structure hash reads."""
    return (level.name, level.line_bytes, level.num_sets, level.associativity)


def _fold_outcomes(digest, level, outcomes: _Outcomes, line_hits=None) -> None:
    """Fold one cache level's exact hit/miss outcomes into ``digest``.

    When no set of the level can hold more distinct lines than its
    associativity, the level can never evict: every access resolves by
    first-touch residency, which the rank sequence already pins, so a
    constant marker suffices.  Otherwise the exact LRU hit mask of every
    line access (``line_hits``, expanded here when not given) is folded in.
    """
    if not len(outcomes.hits):
        digest.update(f"{level.name}:empty".encode())
    elif not outcomes.may_evict:
        digest.update(f"{level.name}:no-evictions".encode())
    else:
        if line_hits is None:
            line_hits = outcomes.line_hits()
        digest.update(f"{level.name}:".encode())
        digest.update(np.packbits(line_hits).tobytes())


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
    hashes and the fast path's block segments and oracle scripts.  Each
    view's key names exactly the machine fields the view reads, so one trace
    shared by many simulations (engines, machines, cores, trials) answers
    each distinct question once.
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

    def _requests(self) -> Tuple[np.ndarray, np.ndarray]:
        """Start address and size of every memory request, in program order."""
        cols = self.columns
        mask = cols["address"] >= 0
        return cols["address"][mask], cols["nbytes"][mask]

    def _atoms(self, line_bytes: int) -> _AtomTable:
        """The request stream at ``line_bytes`` as an atom stream (kept).

        Shared by the footprint, the line ranks and every cache level's
        outcomes at this line size.
        """

        def compute() -> _AtomTable:
            addresses, nbytes = self._requests()
            lo = addresses // line_bytes
            table = _atom_table(lo, lo + _line_counts(addresses, nbytes, line_bytes))
            return _AtomTable(*map(_read_only, table))

        return self.derived(("atoms", line_bytes), compute)

    def footprint_line_numbers(self, line_bytes: int) -> np.ndarray:
        """Distinct cache-line numbers referenced by the trace, sorted.

        The atoms are sorted and disjoint, so expanding them in order gives
        the sorted distinct lines with no sort.
        """

        def compute() -> np.ndarray:
            atoms = self._atoms(line_bytes)
            return _read_only(_run_lines(atoms.starts, atoms.lengths))

        return self.derived(("footprint-lines", line_bytes), compute)

    def _l1_outcomes(self, l1) -> _Outcomes:
        """Exact L1 LRU outcomes per (request, piece, arc) element (not kept:
        at up to 17 bytes per element they would outweigh the line mask)."""
        return _level_outcomes(self._atoms(l1.line_bytes), l1.num_sets, l1.associativity)

    def l1_outcome_bits(self, l1, outcomes: Optional[_Outcomes] = None) -> np.ndarray:
        """Exact hit mask of every cache-line access under the LRU cache ``l1``.

        Decided once per L1 geometry and request × set arc, not per line
        (:func:`_level_outcomes`), and expanded to the line stream.  The
        mask serves both the memo key (:meth:`address_structure_hash`,
        which passes the ``outcomes`` it decided) and the fast path's
        oracle script (:func:`repro.cpu.fastsim._build_oracle`).
        """

        def compute() -> np.ndarray:
            decided = self._l1_outcomes(l1) if outcomes is None else outcomes
            return _read_only(decided.line_hits())

        return self.derived(("l1-hits", l1.line_bytes, l1.num_sets, l1.associativity), compute)

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
          fixes the reuse pattern up to a bijective relabeling of lines (read
          off the atoms' first-appearance order and line counts),
        * each request's **line count**, when some request does not start
          on a line: 128 bytes at a line boundary span two lines, at offset
          32 three, so the rank sequence alone does not say where one
          request's lines end.  An aligned request's count follows from its
          size, which the op content already pins, so traces whose requests
          all start on a line hash as before,
        * each level's **hit/miss outcome sequence** under its
          set-associative LRU, one bit per line access, decided exactly once
          per (request, piece, set arc) element (:func:`_level_outcomes`):
          the L1 over the trace's atoms, the L2 over the runs the L1
          missed.  A level that cannot possibly evict on this footprint (no
          arc is covered by more distinct pieces, so no set holds more
          distinct lines, than its associativity) resolves every access by
          first-touch residency — already determined by the rank sequence —
          and contributes a constant marker instead of an outcome mask; with
          the ideal L2 prefetch of the paper's methodology every L2 access
          is a hit by construction, so that level is likewise a marker.  An
          L2 whose line differs from the L1's takes each missed L1 line as
          a one-line request.

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
        l1, l2 = machine.l1, machine.l2
        atoms = self._atoms(l1.line_bytes)
        digest = hashlib.sha256()
        if not len(atoms.stream):
            return digest.digest()
        digest.update(_line_ranks(atoms).tobytes())
        starts, sizes = self._requests()
        if (starts % l1.line_bytes).any():
            digest.update(b"request-lines:")
            digest.update(_line_counts(starts, sizes, l1.line_bytes).tobytes())

        outcomes = self._l1_outcomes(l1)
        _fold_outcomes(digest, l1, outcomes, self.l1_outcome_bits(l1, outcomes))
        if machine.prefetch_into_l2:
            # The ideal prefetcher delivers every L1 miss at L2-hit latency.
            digest.update(b"L2:ideal-prefetch")
            return digest.digest()
        # The L2 sees the L1's missed runs, in order.
        missed = ~outcomes.hits
        lo, counts = outcomes.starts[missed], outcomes.counts[missed]
        if l2.line_bytes != l1.line_bytes:
            # The one per-line LRU input: each missed L1 line is a one-line
            # access to the L2 line holding it.
            lo = _run_lines(lo, counts) * l1.line_bytes // l2.line_bytes
            counts = np.ones_like(lo)
        l2_atoms = _atom_table(lo, lo + counts)
        _fold_outcomes(digest, l2, _level_outcomes(l2_atoms, l2.num_sets, l2.associativity))
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
