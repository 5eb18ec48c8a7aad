"""Trace-driven, cycle-approximate simulator of a CPU with a VEGETA engine.

This plays the role MacSim plays in the paper's evaluation (Section VI-A):
it consumes the dynamic instruction traces emitted by the kernel generators
and produces runtimes for a core with a given matrix-engine configuration.
Its only input is a :class:`~repro.cpu.columnar.ColumnarTrace`, which
carries the kernel's rows, tile geometry and block structure; hand-written
traces are encoded with a :class:`~repro.cpu.columnar.TraceBuilder`.

The model captures the first-order effects that differentiate the Figure 13
design points:

* the matrix engine's WL/FF/FS/DR pipelining, drain latency and output
  forwarding (via :class:`~repro.core.pipeline.MatrixEnginePipeline`, run in
  the 0.5 GHz engine clock domain),
* tile-register dependences between loads, compute and stores (aliasing-aware
  through the backing-treg sets),
* front-end issue bandwidth, ROB and load-buffer occupancy,
* the private L1/L2 LRU tag arrays with one 64-byte line per cycle from the
  L2 and the DRAM bandwidth of the roofline model, with the evaluation's
  "data already prefetched into L2" assumption applied by default,
* a vector engine (for the Figure 4 baseline) with a fixed FMA latency and a
  configurable number of FMA ports.

It is deliberately *approximate*: scalar ops retire in a single cycle and the
out-of-order window is modelled only through the ROB/load-buffer limits, which
is sufficient for the relative comparisons the paper reports.

Two execution modes are provided:

``"fast"`` (default)
    Detects the kernel's steady-state periodicity (from the trace's
    ``block_starts`` hints or a signature scan of the trace), simulates a few
    anchor blocks exactly, proves that consecutive blocks shift every event
    by a constant cycle count, and then skips the remaining repetitions in
    closed form.  Full Table IV traces simulate in milliseconds instead of
    minutes; results match ``"exact"`` bit-for-bit whenever the proven shift
    invariance holds (see :mod:`repro.cpu.fastsim`).

``"exact"``
    Steps every op, kept as the reference model and used automatically
    whenever a trace exposes no periodic structure.

Both modes step one transition, :meth:`SimulatorState.advance`, over packed
trace rows: each distinct signature is decoded once per run into a plain
record, and no ``TraceOp`` or ``Instruction`` is built per op.

The simulator reads an engine only through its
:class:`~repro.core.engine.EngineTiming`, so engines with equal timing
simulate a trace identically.  :func:`simulate_shared` uses that: it keeps
each single-core result on its trace and serves it to every engine of the
same timing.  :meth:`CycleApproximateSimulator.run` stays the uncached
primitive.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple, Union

from ..core.engine import EngineConfig, EngineTiming
from ..core.pipeline import MatrixEnginePipeline
from ..errors import SimulationError
from .columnar import ColumnarTrace
from .memory import MemorySystem, ScriptedMemory
from .params import MachineParams, default_machine
from .trace import TraceOp, TraceOpKind, TraceSummary

#: Recognised simulation modes.
SIMULATION_MODES = ("fast", "exact")

#: Version of the simulator's *timing semantics*.  Folded into every
#: block-memoization key (:func:`repro.cpu.multicore.simulation_cache_key`)
#: and every experiment trial key, so neither stored per-core results nor
#: cached rows of an older model are replayed.  Bump it (and no spec
#: version) whenever a change affects cycles or counters without being
#: visible in the machine/engine parameters — pipeline rules, latency
#: formulas, feed-overhead constants, cache policy details.
#: "2": per-instruction (data-dependent) SpGEMM feed overheads.
#: "3": geometry-parameterised engines (busy cycles, feed latencies and tile
#: transfer sizes derive from the engine's TileGeometry).
SIMULATOR_MODEL_VERSION = "3"


@dataclass
class SimulationResult:
    """Outcome of simulating one trace on one machine/engine configuration."""

    core_cycles: int
    engine_busy_cycles: int
    engine_makespan_cycles: int
    tile_compute_ops: int
    trace_summary: TraceSummary
    memory_counters: Dict[str, int]
    machine: MachineParams
    engine: Optional[EngineConfig]
    #: Fast-path coverage accounting: how many of the trace's periodic blocks
    #: were stepped through the exact scoreboard vs skipped in closed form.
    #: Both stay 0 for exact runs (and for traces without block structure), so
    #: fast-path regressions are observable without re-benchmarking.
    fast_blocks_stepped: int = 0
    fast_blocks_skipped: int = 0

    @property
    def fast_path_coverage(self) -> float:
        """Fraction of periodic blocks the fast path skipped in closed form."""
        total = self.fast_blocks_stepped + self.fast_blocks_skipped
        return self.fast_blocks_skipped / total if total else 0.0

    @property
    def runtime_seconds(self) -> float:
        """Wall-clock runtime at the core frequency."""
        return self.core_cycles / (self.machine.core.frequency_ghz * 1e9)

    @property
    def engine_utilization(self) -> float:
        """Fraction of engine cycles doing useful MAC work."""
        if self.engine_makespan_cycles == 0:
            return 0.0
        return self.engine_busy_cycles / self.engine_makespan_cycles


#: Record kinds of the decoded signatures (see :meth:`SimulatorState.decode`).
_LOAD, _LOAD_M, _STORE, _COMPUTE, _VLOAD, _VSTORE, _VFMA, _SCALAR = range(8)


class SimulatorState:
    """The complete mutable execution state of one simulation of ``trace``.

    Every path steps the same transition, :meth:`advance`, over packed rows:
    each distinct signature id is decoded once into a plain record
    (:meth:`decode`) and each op then steps as ``(records[sig[i]],
    address[i])`` (:meth:`run`), so no ``TraceOp`` or ``Instruction`` is
    built per op.  The fast path additionally uses :meth:`shift` to advance
    the whole state over a skipped steady-state span in O(live state)
    instead of O(ops).  ``memory`` defaults to a
    :class:`~repro.cpu.memory.MemorySystem`, which steps the L1 and L2 LRU
    tag arrays per line (exact mode and the profile path); the oracle fast
    path passes a :class:`~repro.cpu.memory.ScriptedMemory` instead.

    The state reads ``engine`` only through its
    :attr:`~repro.core.engine.EngineConfig.timing` (kept as :attr:`timing`)
    and its name, which the SpGEMM error message shows; the result carries
    the engine itself.
    """

    __slots__ = (
        "machine",
        "engine",
        "timing",
        "memory",
        "pipeline",
        "ratio",
        "records",
        "signatures",
        "addresses",
        "treg_ready",
        "mreg_ready",
        "vreg_ready",
        "last_compute_writer",
        "rob",
        "load_buffer",
        "next_fma_slot",
        "issue_cycle",
        "issued_this_cycle",
        "last_completion",
        "next_compute_id",
        "_complete",
        "_issue",
        "_issue_width",
        "_rob_entries",
        "_load_buffer_entries",
        "_scalar_latency",
        "_fma_interval",
        "_fma_latency",
    )

    def __init__(
        self,
        machine: MachineParams,
        engine: Optional[EngineConfig],
        trace: ColumnarTrace,
        *,
        memory: Optional[Union[MemorySystem, ScriptedMemory]] = None,
    ) -> None:
        self.machine = machine
        self.engine = engine
        self.timing = engine.timing if engine is not None else None
        self.memory = memory if memory is not None else MemorySystem(machine)
        self.pipeline = MatrixEnginePipeline(engine) if engine is not None else None
        self.ratio = machine.core.engine_clock_ratio
        self.records = [self.decode(op) for op in trace.signature_ops()]
        self.signatures = trace.signature_ids()
        self.addresses = trace.columns["address"]

        # Scoreboards.
        self.treg_ready: Dict[int, int] = {}
        self.mreg_ready: Dict[int, int] = {}
        self.vreg_ready: Dict[int, int] = {}
        #: treg -> id of the compute that last wrote it, while no load has
        #: overwritten it since.  That compute completes at the treg's
        #: ``treg_ready``, so sources and stores wait for in-flight
        #: accumulations through ``treg_ready`` alone; the id names the
        #: accumulator dependence for the engine pipeline.
        self.last_compute_writer: Dict[int, int] = {}

        # Structural resources.
        self.rob: Deque[int] = deque()
        self.load_buffer: Deque[int] = deque()
        self.next_fma_slot = 0.0

        self.issue_cycle = 0
        self.issued_this_cycle = 0
        self.last_completion = 0
        self.next_compute_id = 0

        # Per-op constants, resolved once.
        core = machine.core
        self._complete = self.memory.complete
        self._issue = self.pipeline.issue if self.pipeline is not None else None
        self._issue_width = core.issue_width
        self._rob_entries = core.rob_entries
        self._load_buffer_entries = core.load_buffer_entries
        self._scalar_latency = core.scalar_latency
        self._fma_interval = 1.0 / core.vector_fma_per_cycle
        self._fma_latency = core.vector_fma_latency

    # -- decoding ----------------------------------------------------------------

    def decode(self, op: TraceOp) -> tuple:
        """The record :meth:`advance` steps for every op with ``op``'s signature.

        Records are plain tuples led by their kind and memory flag:

        * ``(_LOAD, True, nbytes, dst tregs)`` and ``(_LOAD_M, True, nbytes,
          mreg)`` for tile loads, ``(_STORE, True, nbytes, src tregs)``;
        * ``(_COMPUTE, False, source tregs, metadata mregs, dst tregs,
          feed overhead)``, the feed overhead resolved against the engine;
        * ``(_VLOAD, True, nbytes, dst)``, ``(_VSTORE, True, nbytes, srcs)``,
          ``(_VFMA, False, read regs, dst)`` and ``(_SCALAR, False)``.

        Raises :class:`SimulationError` for a tile compute without an engine
        and a SpGEMM opcode on an engine without SpGEMM stream merging.
        """
        kind = op.kind
        if kind is TraceOpKind.TILE:
            instruction = op.tile
            opcode = instruction.opcode
            if opcode.is_load:
                dst = instruction.dst
                if dst.kind == "mreg":
                    return (_LOAD_M, True, instruction.memory.nbytes, dst.index)
                return (_LOAD, True, instruction.memory.nbytes, dst.backing_tregs())
            if opcode.is_store:
                return (
                    _STORE, True, instruction.memory.nbytes, instruction.src_a.backing_tregs()
                )
            if self.pipeline is None:
                raise SimulationError(
                    "trace contains tile compute instructions but no engine was configured"
                )
            # Per-instruction feed overhead wins when the builder stamped one
            # (data-dependent metadata intersection); otherwise SPGEMM falls
            # back to the engine's worst-case formula and everything else to 0.
            feed_overhead = max(instruction.feed_overhead, 0)
            if opcode.is_spgemm:
                # SpGEMM support implies a sparse engine.
                if not self.timing.spgemm:
                    raise SimulationError(
                        f"engine {self.engine.name} cannot execute {opcode.value}: "
                        "SpGEMM stream merging is not enabled on this configuration"
                    )
                if instruction.feed_overhead < 0:
                    feed_overhead = self.timing.spgemm_feed_overhead(
                        opcode.spgemm_effective_k
                    )
            metadata = tuple(
                register.index
                for register in (instruction.implicit_metadata, instruction.implicit_metadata_b)
                if register is not None
            )
            return (
                _COMPUTE,
                False,
                instruction.src_a.backing_tregs() + instruction.src_b.backing_tregs(),
                metadata,
                instruction.dst.backing_tregs(),
                feed_overhead,
            )
        if kind is TraceOpKind.VECTOR_LOAD:
            return (_VLOAD, True, op.nbytes, op.dst_reg)
        if kind is TraceOpKind.VECTOR_STORE:
            return (_VSTORE, True, op.nbytes, op.src_regs)
        if kind is TraceOpKind.VECTOR_FMA:
            reads = op.src_regs + ((op.dst_reg,) if op.dst_reg is not None else ())
            return (_VFMA, False, reads, op.dst_reg)
        return (_SCALAR, False)  # SCALAR / BRANCH

    # -- per-op transition -------------------------------------------------------

    def run(self, start: int, end: int) -> None:
        """Step the trace's ops ``[start, end)``."""
        records = self.records
        advance = self.advance
        for signature, address in zip(
            self.signatures[start:end].tolist(), self.addresses[start:end].tolist()
        ):
            advance(records[signature], address)

    def advance(self, record: tuple, address: int) -> int:
        """Execute one decoded op at ``address``; returns its completion cycle.

        The op's issue cycle is left in :attr:`issue_cycle`.
        """
        # Front-end issue bandwidth, then a full ROB (and, for memory ops, a
        # full load buffer) stalls issue until its oldest entry retires.
        if self.issued_this_cycle >= self._issue_width:
            self.issue_cycle += 1
            self.issued_this_cycle = 0
        cycle = self.issue_cycle
        rob = self.rob
        while rob and rob[0] <= cycle:
            rob.popleft()
        if len(rob) >= self._rob_entries:
            cycle = rob.popleft()
            while rob and rob[0] <= cycle:
                rob.popleft()
        if record[1]:
            buffer = self.load_buffer
            while buffer and buffer[0] <= cycle:
                buffer.popleft()
            if len(buffer) >= self._load_buffer_entries:
                cycle = buffer.popleft()
                while buffer and buffer[0] <= cycle:
                    buffer.popleft()
        self.issue_cycle = cycle
        self.issued_this_cycle += 1

        kind = record[0]
        if kind == _COMPUTE:
            _, _, sources, metadata, dst_tregs, feed_overhead = record
            treg_ready = self.treg_ready
            writers = self.last_compute_writer
            # A/B sources have no forwarding path: they wait for their
            # producers, in-flight computes included, through treg_ready.
            ready = cycle
            for index in sources:
                value = treg_ready.get(index, 0)
                if value > ready:
                    ready = value
            for index in metadata:
                value = self.mreg_ready.get(index, 0)
                if value > ready:
                    ready = value
            accumulator_dep = None
            for index in dst_tregs:
                writer = writers.get(index)
                if writer is not None:
                    if accumulator_dep is None or writer > accumulator_dep:
                        accumulator_dep = writer
                else:
                    value = treg_ready.get(index, 0)
                    if value > ready:
                        ready = value
            ratio = self.ratio
            op_id = self.next_compute_id
            self.next_compute_id = op_id + 1
            completion = (
                self._issue(op_id, (ready + ratio - 1) // ratio, accumulator_dep, feed_overhead)
                * ratio
            )
            for index in dst_tregs:
                treg_ready[index] = completion
                writers[index] = op_id
        elif kind == _LOAD:
            completion = self._complete(address, record[2], cycle)
            treg_ready = self.treg_ready
            writers = self.last_compute_writer
            for index in record[3]:
                treg_ready[index] = completion
                writers.pop(index, None)
            self.load_buffer.append(completion)
        elif kind == _SCALAR:
            completion = cycle + self._scalar_latency
        elif kind == _STORE:
            # Waits for the stored register, in-flight accumulations included.
            ready = cycle
            treg_ready = self.treg_ready
            for index in record[3]:
                value = treg_ready.get(index, 0)
                if value > ready:
                    ready = value
            completion = self._complete(address, record[2], ready)
            self.load_buffer.append(completion)
        elif kind == _LOAD_M:
            completion = self._complete(address, record[2], cycle)
            self.mreg_ready[record[3]] = completion
            self.load_buffer.append(completion)
        elif kind == _VFMA:
            vreg_ready = self.vreg_ready
            ready = cycle
            for reg in record[2]:
                value = vreg_ready.get(reg, 0)
                if value > ready:
                    ready = value
            slot = max(self.next_fma_slot, float(ready))
            self.next_fma_slot = slot + self._fma_interval
            completion = int(math.ceil(slot)) + self._fma_latency
            if record[3] is not None:
                vreg_ready[record[3]] = completion
        elif kind == _VLOAD:
            completion = self._complete(address, record[2], cycle)
            if record[3] is not None:
                self.vreg_ready[record[3]] = completion
            self.load_buffer.append(completion)
        else:  # _VSTORE
            ready = cycle
            vreg_ready = self.vreg_ready
            for reg in record[3]:
                value = vreg_ready.get(reg, 0)
                if value > ready:
                    ready = value
            completion = self._complete(address, record[2], ready)
            self.load_buffer.append(completion)

        rob.append(completion)
        if completion > self.last_completion:
            self.last_completion = completion
        return completion

    # -- fast-forward support ------------------------------------------------------

    def shift(self, delta: int, compute_offset: int, engine_delta: int) -> None:
        """Advance the whole state over ``compute_offset`` skipped computes.

        Every cycle-valued piece of state moves forward by ``delta`` core
        cycles (``engine_delta`` engine cycles for the pipeline) and every
        compute op id by ``compute_offset``; the relative state — and hence
        every future scheduling decision — is untouched, which is what makes
        skipping proven steady-state blocks exact.
        """
        self.issue_cycle += delta
        self.last_completion += delta
        self.next_fma_slot += delta
        for ready in (self.treg_ready, self.mreg_ready, self.vreg_ready):
            for key in ready:
                ready[key] += delta
        live_writers = set(self.last_compute_writer.values())
        self.last_compute_writer = {
            reg: op_id + compute_offset
            for reg, op_id in self.last_compute_writer.items()
        }
        self.rob = deque(done + delta for done in self.rob)
        self.load_buffer = deque(done + delta for done in self.load_buffer)
        self.memory.shift_time(delta)
        if self.pipeline is not None and compute_offset:
            self.pipeline.fast_forward(compute_offset, engine_delta, live_writers)
        self.next_compute_id += compute_offset

    def shift_digest(self) -> tuple:
        """Canonical shift-normalized digest of the live machine state.

        Two states with equal digests behave identically under :meth:`advance`
        up to a constant time shift: every cycle-valued piece of state is
        expressed relative to ``issue_cycle`` and every op id relative to
        ``next_compute_id``, and values the future can no longer observe are
        canonicalised away — past readiness times saturate to zero (a future
        ``max(cycle, ready)`` cannot distinguish them) and scoreboard entries
        whose time has passed are dropped.  Engine-domain values are relative
        to ``issue_cycle // ratio`` with the clock phase kept explicitly, so
        matching digests also guarantee the cycle delta between them is a
        multiple of the engine clock ratio.  The oracle fast path compares
        these digests at block boundaries to prove steady state (see
        :mod:`repro.cpu.fastsim`); its memory is a
        :class:`~repro.cpu.memory.ScriptedMemory`, whose port clock is the
        only memory state left to digest.
        """
        base = self.issue_cycle

        def rel(value: int) -> int:
            return value - base if value > base else 0

        regs = tuple(
            tuple(
                sorted(
                    (key, value - base)
                    for key, value in ready.items()
                    if value > base
                )
            )
            for ready in (self.treg_ready, self.mreg_ready, self.vreg_ready)
        )
        next_id = self.next_compute_id
        pipeline = self.pipeline
        if pipeline is not None:
            ebase = base // self.ratio
            writers = tuple(
                sorted(
                    (reg, op_id - next_id) + pipeline.producer_digest(op_id, ebase)
                    for reg, op_id in self.last_compute_writer.items()
                )
            )
            engine = (base % self.ratio, pipeline.stage_digest(ebase))
        else:
            writers = ()
            engine = ()
        slot = self.next_fma_slot - base
        return (
            self.issued_this_cycle,
            rel(self.last_completion),
            slot if slot > 0.0 else 0.0,
            regs,
            writers,
            engine,
            tuple(rel(done) for done in self.rob),
            tuple(rel(done) for done in self.load_buffer),
            self.memory.shift_digest(base),
        )

    # -- result assembly -----------------------------------------------------------

    def result(
        self,
        summary: TraceSummary,
        core_cycles: int,
        extra_counters: Optional[Dict[str, int]] = None,
        *,
        fast_blocks_stepped: int = 0,
        fast_blocks_skipped: int = 0,
    ) -> SimulationResult:
        """Assemble the :class:`SimulationResult` for the finished simulation."""
        counters = self.memory.counters()
        if extra_counters:
            for key, value in extra_counters.items():
                counters[key] = counters.get(key, 0) + value
        timing = self.timing
        busy_per_op = timing.busy_cycles_per_instruction if timing is not None else 16
        return SimulationResult(
            core_cycles=core_cycles,
            engine_busy_cycles=self.next_compute_id * busy_per_op,
            engine_makespan_cycles=self.pipeline.makespan if self.pipeline else 0,
            tile_compute_ops=self.next_compute_id,
            trace_summary=summary,
            memory_counters=counters,
            machine=self.machine,
            engine=self.engine,
            fast_blocks_stepped=fast_blocks_stepped,
            fast_blocks_skipped=fast_blocks_skipped,
        )


class CycleApproximateSimulator:
    """Simulates traces of VEGETA / vector / scalar instructions."""

    def __init__(
        self,
        machine: Optional[MachineParams] = None,
        engine: Optional[EngineConfig] = None,
        mode: str = "fast",
    ) -> None:
        if mode not in SIMULATION_MODES:
            raise SimulationError(
                f"unknown simulation mode {mode!r}; expected one of {SIMULATION_MODES}"
            )
        self.machine = machine if machine is not None else default_machine()
        self.engine = engine
        self.mode = mode

    # -- public API -----------------------------------------------------------------

    def run(self, trace: ColumnarTrace, *, mode: Optional[str] = None) -> SimulationResult:
        """Simulate a trace and return its timing and counters.

        ``trace`` must be a :class:`~repro.cpu.columnar.ColumnarTrace`;
        anything else raises :class:`~repro.errors.SimulationError`.  Its
        ``block_starts`` (the rows at which the kernel's repeating
        output-tile blocks begin, as the template stamper records them) let
        the fast path skip steady-state blocks without scanning the trace.
        ``mode`` overrides the simulator's default mode for this run.

        Every call simulates: ``run`` keeps nothing.  ``repro bench`` times
        repeated runs of it, and ``simulate_cores`` calls it for every
        program it must simulate.  :func:`simulate_shared` is the
        single-core entry point that simulates once per engine timing.
        """
        chosen = mode if mode is not None else self.mode
        if chosen not in SIMULATION_MODES:
            raise SimulationError(
                f"unknown simulation mode {chosen!r}; expected one of {SIMULATION_MODES}"
            )
        if not isinstance(trace, ColumnarTrace):
            raise SimulationError(
                f"the simulator runs a ColumnarTrace, not {type(trace).__name__}; "
                "encode hand-written ops with a TraceBuilder"
            )
        if len(trace) == 0:
            # Contract: an empty trace takes no time at all.
            state = SimulatorState(self.machine, self.engine, trace)
            return state.result(trace.summarize(), core_cycles=0)
        if chosen == "exact":
            return self._run_exact(trace)
        from .fastsim import run_fast

        result = run_fast(self.machine, self.engine, trace)
        if result is None:  # no periodic structure worth exploiting
            return self._run_exact(trace)
        return result

    # -- exact reference path ----------------------------------------------------

    def _run_exact(self, trace: ColumnarTrace) -> SimulationResult:
        state = SimulatorState(self.machine, self.engine, trace)
        state.run(0, len(trace))
        core_cycles = max(state.last_completion, state.issue_cycle + 1)
        return state.result(trace.summarize(), core_cycles)


def simulation_identity(
    machine: MachineParams, engine: Optional[EngineConfig], mode: str
) -> Tuple[MachineParams, Optional[EngineTiming], str, int]:
    """Everything a simulation reads besides its trace.

    The machine, the engine's :attr:`~repro.core.engine.EngineConfig.timing`,
    the mode and the fast path's super-period cap, which changes cycles
    where the profile path is inexact (no ideal L2 prefetch).  Equal
    identities give equal results, so both memos key by it:
    :func:`simulate_shared` and
    :func:`repro.cpu.multicore.simulation_cache_key`.
    """
    from .fastsim import resolve_max_super_period

    timing = engine.timing if engine is not None else None
    return (machine, timing, mode, resolve_max_super_period())


def simulate_shared(
    trace: ColumnarTrace,
    *,
    machine: MachineParams,
    engine: Optional[EngineConfig],
    mode: str = "fast",
) -> SimulationResult:
    """``CycleApproximateSimulator(machine, engine, mode).run(trace)``, shared.

    The single-core trial runners (``fig13`` and with it ``headline``,
    ``backends``, ``spgemm``) simulate through here.  The result is a
    derived view of the trace (:meth:`ColumnarTrace.derived`), keyed by
    :func:`simulation_identity`, the same identity the ``simblocks`` store's
    keys hash.  So engines with equal timing that run one shared trace, as
    several Figure 13 engines do, simulate it once per process.  The kept
    result lives as long as its trace, which the build memo bounds.

    Each call returns a fresh result carrying the caller's ``machine`` and
    ``engine``, its own instruction-mix summary and its own memory
    counters.  A simulation that raises keeps nothing, so every call on it
    raises.
    """
    key = ("simulation",) + simulation_identity(machine, engine, mode)
    shared = trace.derived(
        key, lambda: CycleApproximateSimulator(machine, engine, mode).run(trace)
    )
    summary = shared.trace_summary
    return dataclasses.replace(
        shared,
        machine=machine,
        engine=engine,
        trace_summary=dataclasses.replace(summary, by_opcode=dict(summary.by_opcode)),
        memory_counters=dict(shared.memory_counters),
    )
