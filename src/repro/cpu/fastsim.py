"""Steady-state fast path for the cycle-approximate simulator.

The kernel generators emit traces that are overwhelmingly periodic: the same
output-tile block (C loads, the K loop of A/B loads + tile computes, C
stores, plus the scalar/branch loop overhead) repeats with nothing but the
memory addresses changing.  Simulating every repetition with the event-driven
scoreboard is what forced the Figure 13 flow to truncate traces to a couple
of output tiles and extrapolate (``simulated_fraction``).

This module removes that bottleneck without giving up fidelity.  Two proof
strategies are used, picked per run:

**Oracle path** (the paper's prefetch-into-L2 assumption).  Under the ideal
L2 prefetch every L1 miss is an L2 hit by construction, so the only
data-dependent memory outcome is the L1 lookup — a pure function of the
line-address sequence, which the columnar trace decides exactly for the
whole trace up front, once per request and set arc, each from its reuse
window (:meth:`repro.cpu.columnar.ColumnarTrace.l1_outcome_bits`).  The
outcomes fix each request's completion offset and L2-port occupancy, so the
memory system is replaced by a per-request script
(:class:`repro.cpu.memory.ScriptedMemory`: O(1) per request, counters as
prefix sums) and each simulator step becomes a function of (state, per-op
input word), where the input word packs the op's timing signature —
including the per-op ``feed_overhead`` of the dual-sparsity metadata
intersection — with its scripted memory delay and line count.  At every
block boundary the state is digested into a canonical shift-normalized form
(:meth:`repro.cpu.simulator.SimulatorState.shift_digest`); a digest match
against a boundary ``q`` blocks earlier plus element-wise equality of the
input words over the span to be skipped *proves, by induction over the step
function*, that the next ``K`` periods replay shifted by a constant
``K * delta`` — so they are skipped in closed form, with counters advanced by
exact prefix sums rather than extrapolated deltas.  Intermediate landing
boundaries are marked as well, so chained jumps (including a final jump to
the very end of a segment) need no re-validation blocks in between.

**Profile path.**  It runs exactly when the machine has no ideal L2
prefetch: L2/DRAM dynamics are then stateful, so no per-request script
exists.  The original strategy: simulate blocks exactly until ``q``
consecutive block pairs are *shift-invariant* — every per-op issue and
completion cycle moved forward by the same constant ``delta`` and the cache
counters changed identically — then skip ahead in multiples of ``q``,
re-validating after every jump.

Either way, the blocks of a segment are signature-verified in full up front
(:func:`build_segments` over the trace's signature ids), so the trace's
``block_starts`` hints only choose where blocks start; they are never
trusted for content.  The segments read only the trace, so they are found
once per trace and kept on it (:func:`block_segments`).  Both paths step
the blocks they do not skip through the exact path's transition
(:meth:`~repro.cpu.simulator.SimulatorState.advance` over packed rows); the
profile path reads each op's issue cycle from the state after the step.
Skipping changes no op's kind, opcode or size, so both report the whole
trace's instruction mix (:meth:`~repro.cpu.columnar.ColumnarTrace.summarize`),
as the exact path does.

Both paths search super-periods up to :func:`resolve_max_super_period`
blocks: a block whose op count is not a multiple of the issue width only
repeats its issue alignment every ``issue_width`` blocks, and the dual N:M
metadata streams of the SpGEMM kernels impose their own (layout-driven)
cache super-period on top.  Traces with no periodic structure fall back to
the exact path unchanged.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.engine import EngineConfig
from ..errors import ConfigurationError, SimulationError
from .columnar import KIND_CODES, ColumnarTrace
from .memory import RequestScript, ScriptedMemory
from .params import MachineParams
from .simulator import SimulationResult, SimulatorState
from .trace import TraceOpKind

#: Segments shorter than this are simply simulated exactly.
MIN_BLOCKS_TO_SKIP = 4

#: An anchor signature must repeat at least this often to define periodicity.
MIN_ANCHOR_REPEATS = 3

#: Upper bound on blocks skipped per proven steady-state jump.  On the
#: profile path the block after a jump is always re-simulated, so this bounds
#: how long the fast path may coast without re-validating against the real
#: machine; on the oracle path jumps are proven exact, but the cap still
#: bounds the boundary marks recorded per jump.
DEFAULT_MAX_SKIP_BLOCKS = 512

#: Default for the largest super-period (in blocks) considered for the steady
#: state; override per process with ``REPRO_MAX_SUPER_PERIOD``.  Sized to
#: cover both the issue-width alignment period and the metadata/cache-set
#: super-period of the dual N:M streams in the SpGEMM kernels (whose padded
#: layouts repeat their L1-set pattern every ``tiles_n`` = 16 blocks).
DEFAULT_MAX_SUPER_PERIOD = 16

#: Environment variable overriding :data:`DEFAULT_MAX_SUPER_PERIOD`.
MAX_SUPER_PERIOD_ENV = "REPRO_MAX_SUPER_PERIOD"

_TILE_CODE = KIND_CODES[TraceOpKind.TILE]


def resolve_max_super_period() -> int:
    """The super-period search cap, honouring ``REPRO_MAX_SUPER_PERIOD``."""
    raw = os.environ.get(MAX_SUPER_PERIOD_ENV)
    if raw is None:
        return DEFAULT_MAX_SUPER_PERIOD
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{MAX_SUPER_PERIOD_ENV}={raw!r} is not an integer"
        ) from None
    if value < 1:
        raise ConfigurationError(
            f"{MAX_SUPER_PERIOD_ENV} must be at least 1, got {value}"
        )
    return value


def derive_block_starts(signatures: np.ndarray) -> Optional[List[int]]:
    """Detect periodic block boundaries from a trace's signature ids.

    Returns None when the trace exposes no usable periodicity.  The rarest
    signature that still repeats is used as the period anchor — in the
    generated kernels that is one of the once-per-output-tile ops (e.g. the
    tile-loop branch).
    """
    if len(signatures) < 2 * MIN_ANCHOR_REPEATS:
        return None
    values, counts = np.unique(signatures, return_counts=True)
    repeated = counts >= MIN_ANCHOR_REPEATS
    if not repeated.any():
        return None
    candidates = values[repeated]
    anchor = candidates[np.argmin(counts[repeated])]
    occurrences = np.flatnonzero(signatures == anchor)
    if len(occurrences) < MIN_ANCHOR_REPEATS:
        return None
    return occurrences.tolist()


def build_segments(
    block_starts: Sequence[int],
    trace_length: int,
    signatures: np.ndarray,
) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Group consecutive identical blocks into uniform segments.

    Returns ``(bounds, segments)`` where ``bounds`` has one entry per block
    start plus the trace length, and each segment is ``(first_block, count)``.
    Two neighbouring blocks belong to the same segment when they have equal
    length and byte-identical signature content (signatures include per-op
    feed overheads, so blocks whose overhead sequences differ element-wise
    are never merged).
    """
    bounds = list(block_starts) + [trace_length]
    num_blocks = len(block_starts)
    lengths = [bounds[index + 1] - bounds[index] for index in range(num_blocks)]

    def same(index: int) -> bool:
        if lengths[index] != lengths[index + 1] or lengths[index] <= 0:
            return False
        a, b = bounds[index], bounds[index + 1]
        return bool(
            np.array_equal(signatures[a : a + lengths[index]], signatures[b : b + lengths[index]])
        )

    segments: List[Tuple[int, int]] = []
    index = 0
    while index < num_blocks:
        end = index
        while end + 1 < num_blocks and same(end):
            end += 1
        segments.append((index, end - index + 1))
        index = end + 1
    return bounds, segments


# -- oracle path -------------------------------------------------------------------


class _OracleScript:
    """Whole-trace precomputation backing the oracle fast path.

    ``inputs`` packs, per op, everything the simulator's step function reads
    besides the machine state: the content signature id (kind, opcode,
    registers, label, per-op feed overhead) together with the scripted
    memory-delay word and line count of the op's request.  ``requests``
    holds the per-request memory script, which every run replays through a
    :class:`~repro.cpu.memory.ScriptedMemory`.  ``requests_cum`` and
    ``computes_cum``, indexed by op boundary, turn a skipped span into its
    request and tile-compute counts in O(1).
    """

    __slots__ = ("inputs", "requests", "requests_cum", "computes_cum")

    def __init__(
        self,
        inputs: np.ndarray,
        requests: RequestScript,
        requests_cum: np.ndarray,
        computes_cum: np.ndarray,
    ) -> None:
        self.inputs = inputs
        self.requests = requests
        self.requests_cum = requests_cum
        self.computes_cum = computes_cum


def _oracle_script(machine: MachineParams, trace: ColumnarTrace) -> _OracleScript:
    """The trace's oracle script under ``machine``, built once per trace.

    The script reads the trace content, the L1 geometry and latency and the
    L2 hit latency — the view's key — so every engine that runs the trace on
    such a machine replays one script.
    """
    l1 = machine.l1
    key = (
        "oracle-script",
        l1.line_bytes,
        l1.num_sets,
        l1.associativity,
        l1.hit_latency,
        machine.l2.hit_latency,
    )
    return trace.derived(key, lambda: _build_oracle(machine, trace))


def _build_oracle(machine: MachineParams, trace: ColumnarTrace) -> _OracleScript:
    """Precompute the scripted outcomes and packed input words.

    Only valid under the ideal L2 prefetch: every L1 miss is then an L2 hit
    at a fixed latency, so the exact L1 LRU outcome mask
    (:meth:`ColumnarTrace.l1_outcome_bits`) scripts the entire memory
    behaviour of the run.
    """
    cols = trace.columns
    l1 = machine.l1
    mem_mask = cols["address"] >= 0
    nbytes = cols["nbytes"][mem_mask]
    if nbytes.min(initial=1) <= 0:
        raise SimulationError(f"invalid memory request of {int(nbytes.min())} bytes")
    # Requests are under 8192 B (the columnar packing), so below these bounds
    # the packed word stays under 2**61 for any line size: fewer than 2**31
    # signature ids, delays under 2**17 and at most 8192 lines per request.
    if len(cols) >= 1 << 31 or max(l1.hit_latency, machine.l2.hit_latency) >= 1 << 16:
        raise SimulationError(
            "the oracle script needs fewer than 2**31 ops and hit latencies "
            "under 65536 cycles"
        )
    requests = RequestScript(
        cols["address"][mem_mask],
        nbytes,
        trace.l1_outcome_bits(l1),
        l1.line_bytes,
        l1.hit_latency,
        machine.l2.hit_latency,
    )
    delay = np.zeros(len(cols), dtype=np.int64)
    delay[mem_mask] = requests.delay
    counts = np.zeros(len(cols), dtype=np.int64)
    counts[mem_mask] = requests.lines
    # Each field is sized from the data (max + 1), so the word is injective.
    delay_bound = int(delay.max(initial=0)) + 1
    lines_bound = int(counts.max(initial=0)) + 1
    inputs = (trace.signature_ids() * delay_bound + delay) * lines_bound + counts
    is_compute = (cols["kind"] == _TILE_CODE) & ~mem_mask
    return _OracleScript(
        inputs=inputs,
        requests=requests,
        requests_cum=np.concatenate(([0], np.cumsum(mem_mask))),
        computes_cum=np.concatenate(([0], np.cumsum(is_compute))),
    )


def _run_oracle(
    machine: MachineParams,
    engine: Optional[EngineConfig],
    trace: ColumnarTrace,
    script: _OracleScript,
    bounds: Sequence[int],
    segments: Sequence[Tuple[int, int]],
    max_super_period: int,
) -> SimulationResult:
    """Digest-locked fast path over scripted memory outcomes.

    Soundness of every jump: a boundary digest match proves
    ``state(b) == shift(state(b - q), delta)`` (the digest is a canonical
    shift-normal form of everything :meth:`SimulatorState.advance` can read),
    and the input-word equality over the skipped span proves, by induction
    on the step function, that each of the next ``K`` periods replays under
    that shift — so ``state.shift(K * delta, ...)`` lands on the exact state
    and the prefix-sum counters equal the stepped counters bit-for-bit.
    """
    memory = ScriptedMemory(script.requests)
    state = SimulatorState(machine, engine, trace, memory=memory)
    simulate_span = state.run
    inputs = script.inputs
    stepped = 0
    skipped = 0

    # Warm-up prefix before the first detected block.
    simulate_span(0, bounds[0])

    for first_block, count in segments:
        segment_start = bounds[first_block]
        segment_end = bounds[first_block + count]
        period = bounds[first_block + 1] - bounds[first_block]
        if count < MIN_BLOCKS_TO_SKIP:
            simulate_span(segment_start, segment_end)
            stepped += count
            continue

        #: block index within the segment -> (shift digest, issue cycle).
        boundaries: Dict[int, Tuple[tuple, int]] = {}
        index = 0
        while index < count:
            digest = state.shift_digest()
            cycle = state.issue_cycle
            boundaries[index] = (digest, cycle)
            jumped = False
            for q in range(1, min(max_super_period, index) + 1):
                mark = boundaries.get(index - q)
                if mark is None or mark[0] != digest:
                    continue
                delta = cycle - mark[1]
                if delta <= 0:
                    continue
                if state.pipeline is not None and delta % state.ratio:
                    continue  # unreachable: the digest pins the clock phase
                limit = min((count - index) // q, DEFAULT_MAX_SKIP_BLOCKS // q)
                if limit <= 0:
                    continue
                qp = q * period
                start = segment_start + index * period
                # One-period probe first (cheap), then scan the full span;
                # the first mismatching op caps the jump at whole periods.
                if not np.array_equal(
                    inputs[start : start + qp], inputs[start - qp : start]
                ):
                    continue
                periods = limit
                if limit > 1:
                    span = limit * qp
                    tail = np.flatnonzero(
                        inputs[start + qp : start + span]
                        != inputs[start : start + span - qp]
                    )
                    if len(tail):
                        periods = 1 + int(tail[0]) // qp
                end = start + periods * qp
                computes = int(script.computes_cum[end] - script.computes_cum[start])
                engine_delta = (periods * delta) // state.ratio if state.pipeline else 0
                state.shift(periods * delta, computes, engine_delta)
                memory.skip_span(
                    int(script.requests_cum[end] - script.requests_cum[start])
                )
                # Mark every intermediate landing: the states there are the
                # same digest shifted by k * delta, so a later boundary can
                # chain its own jump off them without re-stepping q blocks.
                for k in range(1, periods + 1):
                    boundaries[index + k * q] = (digest, cycle + k * delta)
                skipped += periods * q
                index += periods * q
                jumped = True
                break
            if jumped:
                continue
            start = segment_start + index * period
            simulate_span(start, start + period)
            stepped += 1
            index += 1
            if len(boundaries) > 8 * max_super_period:
                floor = index - max_super_period
                for key in [key for key in boundaries if key < floor]:
                    del boundaries[key]

    core_cycles = max(state.last_completion, state.issue_cycle + 1)
    return state.result(
        trace.summarize(),
        core_cycles,
        fast_blocks_stepped=stepped,
        fast_blocks_skipped=skipped,
    )


# -- profile path ------------------------------------------------------------------


class _BlockProfile:
    """Observed behaviour of one exactly-simulated block."""

    __slots__ = ("issues", "completions", "issued_end", "counter_delta", "computes")

    def __init__(
        self,
        issues: np.ndarray,
        completions: np.ndarray,
        issued_end: int,
        counter_delta: Dict[str, int],
        computes: int,
    ) -> None:
        self.issues = issues
        self.completions = completions
        self.issued_end = issued_end
        self.counter_delta = counter_delta
        self.computes = computes


def _steady_delta(previous: _BlockProfile, current: _BlockProfile) -> Optional[int]:
    """Constant cycle shift between two consecutive blocks, or None.

    A non-None return proves the block is in steady state: every issue and
    completion event moved forward by exactly ``delta`` cycles and the memory
    system behaved identically, so the simulator's (time-shift-invariant)
    transition function will reproduce the same shift for every following
    identical block.
    """
    if previous.issued_end != current.issued_end:
        return None
    if previous.computes != current.computes:
        return None
    if previous.counter_delta != current.counter_delta:
        return None
    delta = int(current.issues[0] - previous.issues[0])
    if delta <= 0:
        return None
    if ((current.issues - previous.issues) != delta).any():
        return None
    if ((current.completions - previous.completions) != delta).any():
        return None
    return delta


def _find_super_period(
    history: Sequence[_BlockProfile], max_super_period: int
) -> Optional[Tuple[int, int]]:
    """Smallest ``(q, delta)`` such that the last ``2q`` blocks prove that the
    state advances by exactly ``delta`` cycles every ``q`` blocks.

    Every pair of blocks ``q`` apart within the window must be shift-invariant
    with the same ``delta``; a hit means the machine is in a steady state of
    period ``q`` blocks and the remaining repetitions can be skipped in
    multiples of ``q``.
    """
    available = len(history)
    for q in range(1, min(max_super_period, available // 2) + 1):
        delta: Optional[int] = None
        for j in range(1, q + 1):
            pair_delta = _steady_delta(history[-j - q], history[-j])
            if pair_delta is None or (delta is not None and pair_delta != delta):
                delta = None
                break
            delta = pair_delta
        if delta is not None:
            return q, delta
    return None


def _valid_block_starts(block_starts: Sequence[int], trace_length: int) -> bool:
    """Structural sanity of a hint: strictly increasing indices inside the trace."""
    previous = -1
    for start in block_starts:
        if not isinstance(start, int) or start <= previous or start >= trace_length:
            return False
        previous = start
    return True


#: A trace's blocks: ``(bounds, segments)`` as :func:`build_segments` returns
#: them, held as tuples.
BlockSegments = Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]


def block_segments(trace: ColumnarTrace) -> Optional[BlockSegments]:
    """The trace's uniform block segments, or None when it has no periodic
    structure; found once per trace and kept on it as a derived view.

    Blocks start at the trace's ``block_starts`` (the template stamper's
    hints).  The constructor of a trace takes them from outside, so absent,
    too few or malformed hints fall back to anchor detection over the
    trace's signature ids, which also verify every segment in full.
    """

    def find() -> Optional[BlockSegments]:
        n = len(trace)
        signatures = trace.signature_ids()
        block_starts = trace.block_starts
        if (
            block_starts is None
            or len(block_starts) < MIN_ANCHOR_REPEATS
            or not _valid_block_starts(block_starts, n)
        ):
            block_starts = derive_block_starts(signatures)
            if block_starts is None:
                return None
        bounds, segments = build_segments(block_starts, n, signatures)
        return tuple(bounds), tuple(segments)

    return trace.derived(("segments",), find)


def run_fast(
    machine: MachineParams,
    engine: Optional[EngineConfig],
    trace: ColumnarTrace,
    *,
    max_super_period: Optional[int] = None,
) -> Optional[SimulationResult]:
    """Fast-path simulation; returns None when the trace is not periodic.

    The blocks are the trace's :func:`block_segments`.
    ``max_super_period`` defaults to :func:`resolve_max_super_period`
    (``REPRO_MAX_SUPER_PERIOD`` or :data:`DEFAULT_MAX_SUPER_PERIOD`).
    """
    if max_super_period is None:
        max_super_period = resolve_max_super_period()
    blocks = block_segments(trace)
    if blocks is None:
        return None
    bounds, segments = blocks

    if machine.prefetch_into_l2:
        script = _oracle_script(machine, trace)
        return _run_oracle(machine, engine, trace, script, bounds, segments, max_super_period)
    return _run_profiled(machine, engine, trace, bounds, segments, max_super_period)


def _run_profiled(
    machine: MachineParams,
    engine: Optional[EngineConfig],
    trace: ColumnarTrace,
    bounds: Sequence[int],
    segments: Sequence[Tuple[int, int]],
    max_super_period: int,
) -> SimulationResult:
    """Counter-delta steady-state detection (machines without the ideal prefetch)."""
    state = SimulatorState(machine, engine, trace)
    simulate_span = state.run
    extra_counters: Dict[str, int] = {}
    stepped = 0
    skipped = 0

    def simulate_block(start: int, end: int) -> _BlockProfile:
        counters_before = state.memory.counters()
        computes_before = state.next_compute_id
        records = state.records
        advance = state.advance
        issues = []
        completions = []
        for signature, address in zip(
            state.signatures[start:end].tolist(), state.addresses[start:end].tolist()
        ):
            completions.append(advance(records[signature], address))
            issues.append(state.issue_cycle)
        counters_after = state.memory.counters()
        counter_delta = {
            key: counters_after[key] - counters_before.get(key, 0)
            for key in counters_after
        }
        return _BlockProfile(
            issues=np.array(issues, dtype=np.int64),
            completions=np.array(completions, dtype=np.int64),
            issued_end=state.issued_this_cycle,
            counter_delta=counter_delta,
            computes=state.next_compute_id - computes_before,
        )

    # Warm-up prefix before the first detected block.
    simulate_span(0, bounds[0])

    for first_block, count in segments:
        segment_start = bounds[first_block]
        segment_end = bounds[first_block + count]
        period = bounds[first_block + 1] - bounds[first_block]
        if count < MIN_BLOCKS_TO_SKIP:
            simulate_span(segment_start, segment_end)
            stepped += count
            continue

        index = 0
        history: List[_BlockProfile] = []
        while index < count:
            start = segment_start + index * period
            history.append(simulate_block(start, start + period))
            stepped += 1
            if len(history) > 2 * max_super_period:
                del history[0]
            index += 1
            steady = _find_super_period(history, max_super_period)
            if steady is None:
                continue
            q, delta = steady
            # Keep at least one block to re-simulate after the jump so the
            # trailing state (and the next segment) sees fresh behaviour.
            jumps = min(count - index - 1, DEFAULT_MAX_SKIP_BLOCKS) // q
            if jumps <= 0:
                continue
            window = history[-q:]
            computes = sum(profile.computes for profile in window)
            engine_delta = 0
            if state.pipeline is not None and computes:
                if delta % state.ratio:
                    continue  # engine events cannot shift by a fractional cycle
                engine_delta = delta // state.ratio
            state.shift(jumps * delta, jumps * computes, jumps * engine_delta)
            for profile in window:
                for key, value in profile.counter_delta.items():
                    if value:
                        extra_counters[key] = extra_counters.get(key, 0) + jumps * value
            skipped += jumps * q
            index += jumps * q
            history.clear()

    core_cycles = max(state.last_completion, state.issue_cycle + 1)
    return state.result(
        trace.summarize(),
        core_cycles,
        extra_counters,
        fast_blocks_stepped=stepped,
        fast_blocks_skipped=skipped,
    )
