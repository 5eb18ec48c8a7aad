"""Reference computations the columnar trace views are pinned against.

:class:`repro.cpu.columnar.ColumnarTrace` answers every whole-trace question
(signature ids, instruction-mix summaries, memory footprints, cache
outcomes) with vectorised array operations.  The functions here compute the
same answers the plain way: by walking ``TraceOp`` objects one at a time, as
the simulator did before traces became columnar, by replaying the LRU sets
step by step, and by expanding every request into its cache lines before
ranking them and deciding their outcomes, as the memo key did before it
decided them per request and set arc.  So the parity tests compare against
independent code rather than against the columnar views themselves.
"""

import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.cpu.trace import TraceOp, TraceOpKind, TraceSummary


def op_signature(op: TraceOp) -> tuple:
    """Timing-relevant identity of a trace op, excluding its memory address.

    Two ops with equal signatures exercise the same scheduling path through
    the simulator (same kind, registers, access size, latency class and —
    for tile computes — the same per-op feed overhead).
    """
    tile = op.tile
    if tile is None:
        return (op.kind, op.dst_reg, op.src_regs, op.nbytes, op.label)
    return (
        op.kind,
        tile.opcode,
        tile.dst,
        tile.src_a,
        tile.src_b,
        tile.memory.nbytes if tile.memory is not None else 0,
        op.label,
        tile.feed_overhead,
    )


def is_memory(op: TraceOp) -> bool:
    """True if the op accesses memory."""
    if op.kind is TraceOpKind.TILE:
        return op.tile.opcode.is_load or op.tile.opcode.is_store
    return op.kind in (TraceOpKind.VECTOR_LOAD, TraceOpKind.VECTOR_STORE)


def op_memory_bytes(op: TraceOp) -> int:
    """Bytes moved by the op (0 for non-memory ops).

    Tile ops report their actual operand size, which follows the
    instruction's tile geometry rather than the default-geometry opcode
    constant.
    """
    if op.kind is TraceOpKind.TILE:
        memory = op.tile.memory
        return memory.nbytes if memory is not None else 0
    return op.nbytes if is_memory(op) else 0


def intern_signatures(ops: Sequence[TraceOp]) -> np.ndarray:
    """Per-op signature ids, interned op by op in first-appearance order."""
    table: Dict[tuple, int] = {}
    ids = np.empty(len(ops), dtype=np.int64)
    for index, op in enumerate(ops):
        key = op_signature(op)
        signature_id = table.get(key)
        if signature_id is None:
            signature_id = len(table)
            table[key] = signature_id
        ids[index] = signature_id
    return ids


def summarize_ops(ops: Iterable[TraceOp]) -> TraceSummary:
    """Count the instruction mix of an op sequence."""
    summary = TraceSummary()
    for op in ops:
        summary.total += 1
        summary.memory_bytes += op_memory_bytes(op)
        if op.kind is TraceOpKind.TILE:
            opcode = op.tile.opcode
            summary.by_opcode[opcode.value] = summary.by_opcode.get(opcode.value, 0) + 1
            if opcode.is_compute:
                summary.tile_compute += 1
            elif opcode.is_load:
                summary.tile_load += 1
            else:
                summary.tile_store += 1
        elif op.kind is TraceOpKind.VECTOR_FMA:
            summary.vector_fma += 1
        elif op.kind is TraceOpKind.VECTOR_LOAD:
            summary.vector_load += 1
        elif op.kind is TraceOpKind.VECTOR_STORE:
            summary.vector_store += 1
        elif op.kind is TraceOpKind.SCALAR:
            summary.scalar += 1
        else:
            summary.branch += 1
    return summary


def ops_memory_footprint(ops: Iterable[TraceOp]) -> List[Tuple[int, int]]:
    """Unique ``(address, nbytes)`` regions referenced by an op sequence, sorted."""
    regions = {}
    for op in ops:
        if op.kind is TraceOpKind.TILE and op.tile.memory is not None:
            regions[(op.tile.memory.address, op.tile.memory.nbytes)] = True
        elif is_memory(op) and op.address is not None:
            regions[(op.address, op.nbytes)] = True
    return sorted(regions.keys())


def footprint_lines(ops: Iterable[TraceOp], line_bytes: int) -> np.ndarray:
    """Distinct cache-line numbers referenced by an op sequence, sorted."""
    lines = set()
    for address, nbytes in ops_memory_footprint(ops):
        first = address // line_bytes
        last = (address + nbytes - 1) // line_bytes
        lines.update(range(first, last + 1))
    return np.fromiter(sorted(lines), dtype=np.int64)


def lru_outcome_bits(ids: np.ndarray, num_sets: int, associativity: int) -> np.ndarray:
    """Per-access hit mask of a set-associative LRU cache, set-major replay.

    Accesses are regrouped into per-set subsequences padded to the longest.
    Each step updates only the sets with a real access at that position: a
    hit picks its way with ``argmax``, a miss the LRU victim with ``argmin``.
    :func:`repro.cpu.columnar.lru_outcome_bits` steps no cache state (it
    decides each access from its reuse window) and must match this replay
    bit for bit.
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

    lanes = np.full((num_sets, depth), -1, dtype=np.int64)
    lanes[sets, within] = tags
    tag_state = np.full((num_sets, associativity), -1, dtype=np.int64)
    age_state = np.full((num_sets, associativity), -1, dtype=np.int64)
    hit_lanes = np.zeros((num_sets, depth), dtype=bool)
    for step in range(depth):
        column = lanes[:, step]
        match = tag_state == column[:, None]
        hit = match.any(axis=1)
        lane = np.where(hit, match.argmax(axis=1), age_state.argmin(axis=1))
        rows = np.flatnonzero(column >= 0)
        touched = lane[rows]
        tag_state[rows, touched] = column[rows]
        age_state[rows, touched] = step
        hit_lanes[:, step] = hit
    return hit_lanes[sets, within]


def request_lines(columns: np.ndarray, line_bytes: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start, size and line count of every memory request, in program order.

    A request covers the lines ``address // line_bytes`` to
    ``(address + nbytes - 1) // line_bytes``: a zero-byte request covers
    one line when it starts inside a line and none when it starts on one.
    """
    mask = columns["address"] >= 0
    starts = columns["address"][mask]
    sizes = columns["nbytes"][mask].astype(np.int64)
    counts = (starts + sizes - 1) // line_bytes - starts // line_bytes + 1
    return starts, sizes, counts


def expand_lines(columns: np.ndarray, line_bytes: int) -> np.ndarray:
    """Line number of every cache-line access, in program order."""
    starts, _, counts = request_lines(columns, line_bytes)
    lines = [np.arange(count, dtype=np.int64) + start // line_bytes for start, count in zip(starts, counts)]
    return np.concatenate(lines) if lines else np.empty(0, dtype=np.int64)


def first_appearance_ranks(values: np.ndarray) -> np.ndarray:
    """Each value renumbered in order of first appearance."""
    table: Dict[int, int] = {}
    return np.array([table.setdefault(int(value), len(table)) for value in values], dtype=np.int64)


def line_outcome_hits(lines: np.ndarray, num_sets: int, associativity: int) -> Tuple[bool, np.ndarray]:
    """Whether some set maps more distinct lines than it has ways, and the
    per-access LRU hit mask of the line stream (the step replay)."""
    distinct = np.unique(lines)
    per_set = np.bincount(distinct % num_sets, minlength=num_sets)
    may_evict = bool(per_set.max(initial=0) > associativity)
    return may_evict, lru_outcome_bits(lines, num_sets, associativity)


def line_l1_outcome_bits(columns: np.ndarray, l1) -> np.ndarray:
    """Hit mask of every cache-line access of the trace under ``l1``."""
    lines = expand_lines(columns, l1.line_bytes)
    return line_outcome_hits(lines, l1.num_sets, l1.associativity)[1]


def _fold_line_outcomes(digest, level, lines: np.ndarray) -> np.ndarray:
    """Fold one level's outcomes over its line stream; returns the hit mask."""
    may_evict, hits = line_outcome_hits(lines, level.num_sets, level.associativity)
    if not len(lines):
        digest.update(f"{level.name}:empty".encode())
    elif not may_evict:
        digest.update(f"{level.name}:no-evictions".encode())
    else:
        digest.update(f"{level.name}:".encode())
        digest.update(np.packbits(hits).tobytes())
    return hits


def line_address_structure_digest(columns: np.ndarray, machine) -> bytes:
    """The address-structure digest of
    :meth:`repro.cpu.columnar.ColumnarTrace.address_structure_hash`, with
    every request expanded into its lines first.

    It hashes the lines' first-appearance ranks, each request's line count
    when some request does not start on a line, and per cache level a
    marker or the LRU hit mask of the level's line stream: the L1 sees every
    line access, the L2 the L1 misses at its own line size.
    """
    l1 = machine.l1
    starts, _, counts = request_lines(columns, l1.line_bytes)
    lines = expand_lines(columns, l1.line_bytes)
    digest = hashlib.sha256()
    if not len(lines):
        return digest.digest()
    digest.update(first_appearance_ranks(lines).tobytes())
    if (starts % l1.line_bytes).any():
        digest.update(b"request-lines:")
        digest.update(counts.tobytes())
    l1_hits = _fold_line_outcomes(digest, l1, lines)
    if machine.prefetch_into_l2:
        digest.update(b"L2:ideal-prefetch")
    else:
        misses = (lines * l1.line_bytes // machine.l2.line_bytes)[~l1_hits]
        _fold_line_outcomes(digest, machine.l2, misses)
    return digest.digest()
