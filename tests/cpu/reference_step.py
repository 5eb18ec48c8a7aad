"""Op-by-op reference of the simulator's per-op transition.

:class:`repro.cpu.simulator.SimulatorState` steps packed trace rows: each
distinct signature is decoded once into a plain record and every op runs
one transition over ``(record, address)``, with the engine pipeline's
scheduling recurrence allocating nothing per compute.  This module keeps
the transition the simulator ran before that: one ``TraceOp`` (and, for tile
ops, one ``Instruction``) per step, backing-treg tuples and set unions
resolved per op, and the engine scheduled through a dictionary of
per-instruction stage timings.  The differential tests step both over the
same ops and compare every issue and completion cycle, the final result and
the errors, so the packed transition is pinned against independent code
rather than against itself.
"""

import math
from collections import deque
from typing import Dict, List, Optional, Tuple

from reference_ops import is_memory

from repro.core.engine import EngineConfig
from repro.cpu.columnar import ColumnarTrace
from repro.cpu.params import MachineParams
from repro.cpu.simulator import SimulationResult
from repro.cpu.trace import TraceOp, TraceOpKind
from repro.errors import SimulationError


class ReferencePipeline:
    """The engine pipeline's scheduling rules, one stage-timing dict per op."""

    def __init__(self, engine: EngineConfig) -> None:
        self.engine = engine
        self.stage_free = {"WL": 0, "FF": 0, "FS": 0, "DR": 0}
        #: op id -> (ff_start, complete) of every scheduled instruction.
        self.timings: Dict[int, Tuple[int, int]] = {}
        self.makespan = 0

    def schedule(
        self,
        op_id: int,
        operands_ready: int,
        accumulator_dep: Optional[int],
        feed_overhead: int,
    ) -> int:
        """Schedule one tile compute; returns its completion (engine cycles)."""
        engine = self.engine
        if op_id in self.timings:
            raise SimulationError(f"duplicate op_id {op_id}")
        stage_free = self.stage_free
        wl_start = max(operands_ready, stage_free["WL"])
        wl_end = wl_start + engine.weight_load_latency
        ff_earliest = max(wl_end, stage_free["FF"])
        if accumulator_dep is not None:
            producer = self.timings.get(accumulator_dep)
            if producer is None:
                raise SimulationError(f"op {op_id} depends on unknown op {accumulator_dep}")
            producer_ff_start, producer_complete = producer
            if engine.output_forwarding:
                ff_earliest = max(
                    ff_earliest,
                    min(producer_ff_start + engine.output_ready_latency, producer_complete),
                )
            else:
                ff_earliest = max(ff_earliest, producer_complete)
        ff_start = ff_earliest
        ff_end = ff_start + engine.feed_first_latency + feed_overhead
        fs_start = max(ff_end, stage_free["FS"])
        fs_end = fs_start + engine.feed_second_latency
        dr_start = max(fs_end, stage_free["DR"])
        dr_end = dr_start + engine.drain_latency
        complete = dr_end + engine.reduction_latency
        stage_free.update(WL=wl_end, FF=ff_end, FS=fs_end, DR=dr_end)
        self.timings[op_id] = (ff_start, complete)
        self.makespan = max(self.makespan, complete)
        return complete


class ReferenceState:
    """Scoreboards, structural resources and the per-op ``step(op)``."""

    def __init__(self, machine: MachineParams, engine: Optional[EngineConfig], memory) -> None:
        self.machine = machine
        self.engine = engine
        self.core = machine.core
        self.memory = memory
        self.pipeline = ReferencePipeline(engine) if engine is not None else None
        self.ratio = machine.core.engine_clock_ratio
        self.treg_ready: Dict[int, int] = {}
        self.mreg_ready: Dict[int, int] = {}
        self.vreg_ready: Dict[int, int] = {}
        self.last_compute_writer: Dict[int, int] = {}
        self.compute_completion: Dict[int, int] = {}
        self.rob = deque()
        self.load_buffer = deque()
        self.next_fma_slot = 0.0
        self.issue_cycle = 0
        self.issued_this_cycle = 0
        self.last_completion = 0
        self.engine_ops = 0

    @staticmethod
    def _retire_from(buffer, limit: int, cycle: int) -> int:
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
        if self.issued_this_cycle >= core.issue_width:
            self.issue_cycle += 1
            self.issued_this_cycle = 0
        self.issue_cycle = self._retire_from(self.rob, core.rob_entries, self.issue_cycle)
        if is_memory(op):
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
            ready = max([cycle] + [self.vreg_ready.get(reg, 0) for reg in op.src_regs])
            completion = self.memory.complete(op.address, op.nbytes, ready)
            self.load_buffer.append(completion)
        elif kind is TraceOpKind.VECTOR_FMA:
            ready = max(
                [cycle]
                + [self.vreg_ready.get(reg, 0) for reg in op.src_regs]
                + ([self.vreg_ready.get(op.dst_reg, 0)] if op.dst_reg is not None else [])
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
                [cycle] + [treg_ready.get(index, 0) for index in instruction.src_a.backing_tregs()]
            )
            for index in instruction.src_a.backing_tregs():
                writer = self.last_compute_writer.get(index)
                if writer is not None:
                    ready = max(ready, self.compute_completion.get(writer, ready))
            operand = instruction.memory
            completion = self.memory.complete(operand.address, operand.nbytes, ready)
            self.load_buffer.append(completion)
            return completion

        if self.pipeline is None:
            raise SimulationError(
                "trace contains tile compute instructions but no engine was configured"
            )
        source_tregs = set(instruction.src_a.backing_tregs()) | set(
            instruction.src_b.backing_tregs()
        )
        operand_ready = max([cycle] + [treg_ready.get(index, 0) for index in source_tregs])
        for metadata in (instruction.implicit_metadata, instruction.implicit_metadata_b):
            if metadata is not None:
                operand_ready = max(operand_ready, self.mreg_ready.get(metadata.index, 0))
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
                feed_overhead = self.engine.timing.spgemm_feed_overhead(opcode.spgemm_effective_k)

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
        for index in source_tregs:
            writer = self.last_compute_writer.get(index)
            if writer is not None and writer != accumulator_dep:
                operand_ready = max(
                    operand_ready, self.compute_completion.get(writer, operand_ready)
                )

        ratio = self.ratio
        op_id = self.engine_ops
        complete = self.pipeline.schedule(
            op_id, (operand_ready + ratio - 1) // ratio, accumulator_dep, feed_overhead
        )
        completion = complete * ratio
        for index in dst_tregs:
            treg_ready[index] = completion
            self.last_compute_writer[index] = op_id
        self.compute_completion[op_id] = completion
        self.engine_ops += 1
        return completion


def reference_run(
    machine: MachineParams,
    engine: Optional[EngineConfig],
    trace: ColumnarTrace,
    memory,
) -> Tuple[List[Tuple[int, int]], SimulationResult]:
    """Step the ops of ``trace`` on a fresh state; returns every (issue,
    completion) and the result."""
    state = ReferenceState(machine, engine, memory)
    ops = trace.ops()
    events = [state.step(op) for op in ops]
    busy_per_op = engine.busy_cycles_per_instruction if engine else 16
    result = SimulationResult(
        core_cycles=max(state.last_completion, state.issue_cycle + 1) if ops else 0,
        engine_busy_cycles=state.engine_ops * busy_per_op,
        engine_makespan_cycles=state.pipeline.makespan if state.pipeline else 0,
        tile_compute_ops=state.engine_ops,
        trace_summary=trace.summarize(),
        memory_counters=memory.counters(),
        machine=machine,
        engine=engine,
    )
    return events, result
