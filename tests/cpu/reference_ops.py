"""Op-by-op reference computations the columnar trace views are pinned against.

:class:`repro.cpu.columnar.ColumnarTrace` answers every whole-trace question
(signature ids, instruction-mix summaries, memory footprints) with
vectorised array operations.  The functions here compute the same answers by
walking ``TraceOp`` objects one at a time, the way the simulator did before
traces became columnar, so the parity tests compare against independent
code rather than against the columnar views themselves.
"""

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


def op_memory_bytes(op: TraceOp) -> int:
    """Bytes moved by the op (0 for non-memory ops).

    Tile ops report their actual operand size, which follows the
    instruction's tile geometry rather than the default-geometry opcode
    constant.
    """
    if op.kind is TraceOpKind.TILE:
        memory = op.tile.memory
        return memory.nbytes if memory is not None else 0
    return op.nbytes if op.is_memory else 0


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
        elif op.is_memory and op.address is not None:
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
