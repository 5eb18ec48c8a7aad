"""Trace-driven, cycle-approximate simulator of a CPU with a VEGETA engine.

This plays the role MacSim plays in the paper's evaluation (Section VI-A):
it consumes the dynamic instruction traces emitted by the kernel generators
and produces runtimes for a core with a given matrix-engine configuration.

The model captures the first-order effects that differentiate the Figure 13
design points:

* the matrix engine's WL/FF/FS/DR pipelining, drain latency and output
  forwarding (via :class:`~repro.core.pipeline.MatrixEnginePipeline`, run in
  the 0.5 GHz engine clock domain),
* tile-register dependences between loads, compute and stores (aliasing-aware
  through the backing-treg sets),
* front-end issue bandwidth, ROB and load-buffer occupancy,
* the cache hierarchy with one 64-byte line per cycle from the L2 and the
  DRAM bandwidth of the roofline model, with the evaluation's "data already
  prefetched into L2" assumption applied by default,
* a vector engine (for the Figure 4 baseline) with a fixed FMA latency and a
  configurable number of FMA ports.

It is deliberately *approximate*: scalar ops retire in a single cycle and the
out-of-order window is modelled only through the ROB/load-buffer limits, which
is sufficient for the relative comparisons the paper reports.

Two execution modes are provided:

``"fast"`` (default)
    Detects the kernel's steady-state periodicity (from the builder-supplied
    ``block_starts`` hints or a signature scan of the trace), simulates a few
    anchor blocks exactly, proves that consecutive blocks shift every event
    by a constant cycle count, and then skips the remaining repetitions in
    closed form.  Full Table IV traces simulate in milliseconds instead of
    minutes; results match ``"exact"`` bit-for-bit whenever the proven shift
    invariance holds (see :mod:`repro.cpu.fastsim`).

``"exact"``
    The original event-driven per-op loop, kept as the reference model and
    used automatically whenever a trace exposes no periodic structure.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Sequence, Tuple, Union

from ..core.engine import EngineConfig
from ..core.pipeline import MatrixEnginePipeline, TileComputeRequest
from ..errors import SimulationError
from .columnar import ColumnarTrace
from .memory import MemorySystem, ScriptedMemory
from .params import MachineParams, default_machine
from .trace import TraceOp, TraceOpKind, TraceSummary

#: Recognised simulation modes.
SIMULATION_MODES = ("fast", "exact")

#: Version of the simulator's *timing semantics*.  Folded into every
#: block-memoization key (:func:`repro.cpu.multicore.simulation_cache_key`),
#: so persisted per-core results from an older model can never be replayed
#: against a newer one.  Bump whenever a change affects cycles or counters
#: without being visible in the machine/engine parameters — pipeline rules,
#: latency formulas, feed-overhead constants, cache policy details.
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

    @property
    def instructions(self) -> int:
        """Dynamic instruction count of the simulated trace."""
        return self.trace_summary.total

    @property
    def ipc(self) -> float:
        """Retired instructions per core cycle."""
        return self.instructions / self.core_cycles if self.core_cycles else 0.0


class SimulatorState:
    """The complete mutable execution state of one simulation.

    Both modes drive the same :meth:`step` transition function; the fast path
    additionally uses :meth:`shift` to advance the whole state over a skipped
    steady-state span in O(live state) instead of O(ops).  ``memory`` defaults
    to a tag-array :class:`~repro.cpu.memory.MemorySystem`; the oracle fast
    path passes a :class:`~repro.cpu.memory.ScriptedMemory` instead.
    """

    __slots__ = (
        "machine",
        "engine",
        "core",
        "memory",
        "pipeline",
        "ratio",
        "treg_ready",
        "mreg_ready",
        "vreg_ready",
        "last_compute_writer",
        "compute_completion",
        "rob",
        "load_buffer",
        "next_fma_slot",
        "issue_cycle",
        "issued_this_cycle",
        "last_completion",
        "engine_ops",
        "next_compute_id",
    )

    def __init__(
        self,
        machine: MachineParams,
        engine: Optional[EngineConfig],
        *,
        retain_pipeline_history: bool = True,
        memory: Optional[Union[MemorySystem, ScriptedMemory]] = None,
    ) -> None:
        self.machine = machine
        self.engine = engine
        self.core = machine.core
        self.memory = memory if memory is not None else MemorySystem(machine)
        self.pipeline = (
            MatrixEnginePipeline(engine, retain_history=retain_pipeline_history)
            if engine is not None
            else None
        )
        self.ratio = machine.core.engine_clock_ratio

        # Scoreboards.
        self.treg_ready: Dict[int, int] = {}
        self.mreg_ready: Dict[int, int] = {}
        self.vreg_ready: Dict[int, int] = {}
        self.last_compute_writer: Dict[int, int] = {}
        self.compute_completion: Dict[int, int] = {}

        # Structural resources.
        self.rob: Deque[int] = deque()
        self.load_buffer: Deque[int] = deque()
        self.next_fma_slot = 0.0

        self.issue_cycle = 0
        self.issued_this_cycle = 0
        self.last_completion = 0
        self.engine_ops = 0
        self.next_compute_id = 0

    # -- per-op transition -------------------------------------------------------

    @staticmethod
    def _retire_from(buffer: Deque[int], limit: int, cycle: int) -> int:
        """Drain completed entries; stall ``cycle`` forward if still full."""
        while buffer and buffer[0] <= cycle:
            buffer.popleft()
        if len(buffer) >= limit:
            cycle = buffer.popleft()
            while buffer and buffer[0] <= cycle:
                buffer.popleft()
        return cycle

    def step(self, op: TraceOp) -> Tuple[int, int]:
        """Execute one trace op; returns its (issue cycle, completion cycle)."""
        core = self.core
        # Front-end issue bandwidth.
        if self.issued_this_cycle >= core.issue_width:
            self.issue_cycle += 1
            self.issued_this_cycle = 0
        self.issue_cycle = self._retire_from(self.rob, core.rob_entries, self.issue_cycle)
        if op.is_memory:
            self.issue_cycle = self._retire_from(
                self.load_buffer, core.load_buffer_entries, self.issue_cycle
            )
        self.issued_this_cycle += 1
        cycle = self.issue_cycle

        kind = op.kind
        if kind is TraceOpKind.TILE:
            completion = self._execute_tile(op, cycle)
        elif kind is TraceOpKind.VECTOR_LOAD:
            completion = self.memory.complete(op.address, op.nbytes, cycle)
            if op.dst_reg is not None:
                self.vreg_ready[op.dst_reg] = completion
            self.load_buffer.append(completion)
        elif kind is TraceOpKind.VECTOR_STORE:
            vreg_ready = self.vreg_ready
            ready = max([cycle] + [vreg_ready.get(reg, 0) for reg in op.src_regs])
            completion = self.memory.complete(op.address, op.nbytes, ready)
            self.load_buffer.append(completion)
        elif kind is TraceOpKind.VECTOR_FMA:
            vreg_ready = self.vreg_ready
            ready = max(
                [cycle]
                + [vreg_ready.get(reg, 0) for reg in op.src_regs]
                + ([vreg_ready.get(op.dst_reg, 0)] if op.dst_reg is not None else [])
            )
            slot = max(self.next_fma_slot, float(ready))
            self.next_fma_slot = slot + 1.0 / core.vector_fma_per_cycle
            completion = int(math.ceil(slot)) + core.vector_fma_latency
            if op.dst_reg is not None:
                self.vreg_ready[op.dst_reg] = completion
        else:  # SCALAR / BRANCH
            completion = cycle + core.scalar_latency

        self.rob.append(completion)
        if completion > self.last_completion:
            self.last_completion = completion
        return cycle, completion

    # -- tile instruction handling -----------------------------------------------------

    def _execute_tile(self, op: TraceOp, cycle: int) -> int:
        instruction = op.tile
        opcode = instruction.opcode
        treg_ready = self.treg_ready

        if opcode.is_load:
            operand = instruction.memory
            completion = self.memory.complete(operand.address, operand.nbytes, cycle)
            if instruction.dst.kind == "mreg":
                self.mreg_ready[instruction.dst.index] = completion
            else:
                for index in instruction.dst.backing_tregs():
                    treg_ready[index] = completion
                    self.last_compute_writer.pop(index, None)
            self.load_buffer.append(completion)
            return completion

        if opcode.is_store:
            ready = max(
                [cycle]
                + [treg_ready.get(index, 0) for index in instruction.src_a.backing_tregs()]
            )
            # Wait for an in-flight accumulation into the stored register.
            for index in instruction.src_a.backing_tregs():
                writer = self.last_compute_writer.get(index)
                if writer is not None:
                    ready = max(ready, self.compute_completion.get(writer, ready))
            operand = instruction.memory
            completion = self.memory.complete(operand.address, operand.nbytes, ready)
            self.load_buffer.append(completion)
            return completion

        # Tile compute.
        if self.pipeline is None:
            raise SimulationError(
                "trace contains tile compute instructions but no engine was configured"
            )
        source_tregs = set(instruction.src_a.backing_tregs()) | set(
            instruction.src_b.backing_tregs()
        )
        operand_ready = max(
            [cycle] + [treg_ready.get(index, 0) for index in source_tregs]
        )
        for metadata in (instruction.implicit_metadata, instruction.implicit_metadata_b):
            if metadata is not None:
                operand_ready = max(operand_ready, self.mreg_ready.get(metadata.index, 0))
        # Per-instruction feed overhead wins when the builder stamped one
        # (data-dependent metadata intersection); otherwise SPGEMM falls back
        # to the engine's worst-case formula and everything else to zero.
        feed_overhead = instruction.feed_overhead
        if feed_overhead < 0:
            feed_overhead = 0
        if opcode.is_spgemm:
            if not (self.engine.sparse and self.engine.spgemm):
                raise SimulationError(
                    f"engine {self.engine.name} cannot execute {opcode.value}: "
                    "SpGEMM stream merging is not enabled on this configuration"
                )
            if instruction.feed_overhead < 0:
                feed_overhead = self.engine.spgemm_feed_overhead(
                    opcode.spgemm_effective_k
                )

        dst_tregs = instruction.dst.backing_tregs()
        accumulator_dep: Optional[int] = None
        for index in dst_tregs:
            writer = self.last_compute_writer.get(index)
            if writer is not None:
                accumulator_dep = writer if accumulator_dep is None else max(
                    accumulator_dep, writer
                )
            else:
                operand_ready = max(operand_ready, treg_ready.get(index, 0))
        # Sources produced by still-in-flight compute ops must also be complete
        # (no forwarding path exists for A/B operands).
        for index in source_tregs:
            writer = self.last_compute_writer.get(index)
            if writer is not None and writer != accumulator_dep:
                operand_ready = max(
                    operand_ready, self.compute_completion.get(writer, operand_ready)
                )

        ratio = self.ratio
        engine_ready = (operand_ready + ratio - 1) // ratio
        op_id = self.next_compute_id
        self.next_compute_id += 1
        timing = self.pipeline.schedule(
            TileComputeRequest(
                op_id=op_id,
                operands_ready=engine_ready,
                accumulator_dep=accumulator_dep,
                feed_overhead=feed_overhead,
                label=op.label,
            )
        )
        completion = timing.complete * ratio
        for index in dst_tregs:
            treg_ready[index] = completion
            self.last_compute_writer[index] = op_id
        self.compute_completion[op_id] = completion
        self.engine_ops += 1
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
        # Only completions of live accumulator producers can still be read.
        self.compute_completion = {
            op_id + compute_offset: done + delta
            for op_id, done in self.compute_completion.items()
            if op_id in live_writers
        }
        self.rob = deque(done + delta for done in self.rob)
        self.load_buffer = deque(done + delta for done in self.load_buffer)
        self.memory.shift_time(delta)
        if self.pipeline is not None and compute_offset:
            self.pipeline.fast_forward(compute_offset, engine_delta, live_writers)
        self.engine_ops += compute_offset
        self.next_compute_id += compute_offset

    def shift_digest(self) -> tuple:
        """Canonical shift-normalized digest of the live machine state.

        Two states with equal digests behave identically under :meth:`step`
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
                    (
                        reg,
                        op_id - next_id,
                        rel(self.compute_completion.get(op_id, 0)),
                    )
                    + pipeline.producer_digest(op_id, ebase)
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
        busy_per_op = self.engine.busy_cycles_per_instruction if self.engine else 16
        return SimulationResult(
            core_cycles=core_cycles,
            engine_busy_cycles=self.engine_ops * busy_per_op,
            engine_makespan_cycles=self.pipeline.makespan if self.pipeline else 0,
            tile_compute_ops=self.engine_ops,
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

    def run(
        self,
        trace: Union[ColumnarTrace, Sequence[TraceOp]],
        *,
        mode: Optional[str] = None,
        block_starts: Optional[Sequence[int]] = None,
    ) -> SimulationResult:
        """Simulate a trace and return its timing and counters.

        A plain op list is encoded once with
        :meth:`~repro.cpu.columnar.ColumnarTrace.from_ops`, which raises
        :class:`~repro.errors.SimulationError` for an op the columns cannot
        hold.  ``mode`` overrides the simulator's default mode for this run;
        ``block_starts`` (op indices at which the kernel's repeating
        output-tile blocks begin, as recorded by the kernel builders in
        :attr:`repro.kernels.program.KernelProgram.block_starts`) lets the
        fast path skip steady-state blocks without scanning the trace.
        """
        chosen = mode if mode is not None else self.mode
        if chosen not in SIMULATION_MODES:
            raise SimulationError(
                f"unknown simulation mode {chosen!r}; expected one of {SIMULATION_MODES}"
            )
        trace = ColumnarTrace.from_ops(trace)
        if len(trace) == 0:
            # Contract: an empty trace takes no time at all.
            state = SimulatorState(self.machine, self.engine)
            return state.result(trace.summarize(), core_cycles=0)
        if chosen == "exact":
            return self._run_exact(trace)
        from .fastsim import run_fast

        result = run_fast(self.machine, self.engine, trace, block_starts)
        if result is None:  # no periodic structure worth exploiting
            return self._run_exact(trace)
        return result

    # -- exact reference path ----------------------------------------------------

    def _run_exact(self, trace: ColumnarTrace) -> SimulationResult:
        state = SimulatorState(self.machine, self.engine)
        step = state.step
        for op in trace:
            step(op)
        core_cycles = max(state.last_completion, state.issue_cycle + 1)
        return state.result(trace.summarize(), core_cycles)
