"""Cycle-level pipeline model of a VEGETA matrix engine (Section V-C).

Executing one tile GEMM/SPMM instruction on a systolic engine passes through
four stages, pipelined across instructions the way RASA [29] proposed and the
paper extends:

``WL``
    Weight Load — the stationary (A) tile trickles in from the north,
    ``Nrows`` cycles.
``FF``
    Feed First — B columns and C elements stream from the west/north until
    the top-left PE stops receiving new elements, ``Tn`` (=16) cycles.
``FS``
    Feed Second — the remaining skewed rows keep streaming, ``Nrows - 1``
    cycles.
``DR``
    Drain — partial sums flush out of the array, ``Ncols`` cycles, followed by
    ``log2(beta)`` cycles in the reduction adders.

No two in-flight instructions may occupy the same stage, so independent
instructions initiate every ``max(stage latency)`` cycles (16 for every
512-MAC configuration).  Accumulator (C) dependences stall the consumer's FF
until the producer has written C back — unless the engine implements *output
forwarding*, in which case the consumer may start reading C
``2*Nrows + log2(beta)`` cycles after the producer's FF began, because reads
and writes of C follow the same element order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from .engine import EngineConfig


@dataclass(frozen=True)
class TileComputeRequest:
    """One tile compute instruction presented to the engine pipeline.

    ``operands_ready`` is the cycle at which the A/B source registers hold
    valid data (produced by the load pipeline); ``accumulator_dep`` is the
    ``op_id`` of the previous compute writing the same C register, if any.
    ``feed_overhead`` extends the Feed-First stage by a constant number of
    cycles — the SpGEMM instructions use it for the dual-operand metadata
    intersection (:meth:`repro.core.engine.EngineTiming.spgemm_feed_overhead`).
    """

    op_id: int
    operands_ready: int = 0
    accumulator_dep: Optional[int] = None
    feed_overhead: int = 0
    label: str = ""


@dataclass(frozen=True)
class TileComputeTiming:
    """Stage-by-stage timing of one tile instruction on the engine."""

    op_id: int
    wl_start: int
    wl_end: int
    ff_start: int
    ff_end: int
    fs_start: int
    fs_end: int
    dr_start: int
    dr_end: int
    complete: int

    @property
    def latency(self) -> int:
        """End-to-end latency from WL start to completion."""
        return self.complete - self.wl_start


class MatrixEnginePipeline:
    """Schedules tile compute instructions onto one VEGETA engine.

    The pipeline is in-order (tile instructions issue in program order, as
    they do from the core's matrix-engine scheduler) and models stage
    occupancy plus accumulator dependences with or without output forwarding.

    :meth:`issue` is the one scheduling recurrence.  It keeps four stage
    clocks and, per producer, only what a consumer reads, ``(ff_start,
    complete)``, so the simulator's per-compute call allocates no timing
    object.  :meth:`schedule` is the Figure 10 API on top of it: it derives
    each instruction's stage windows from the clocks the recurrence leaves.

    The pipeline reads the engine only through its
    :attr:`~repro.core.engine.EngineConfig.timing`, kept as :attr:`timing`:
    engines with equal timing schedule every request stream identically.
    """

    def __init__(self, engine: EngineConfig) -> None:
        timing = engine.timing
        self.timing = timing
        # Next free engine cycle of the WL, FF, FS and DR stages.
        self._wl_free = self._ff_free = self._fs_free = self._dr_free = 0
        #: op id -> (ff_start, complete) of every producer a consumer may name.
        self._producers: Dict[int, Tuple[int, int]] = {}
        self._makespan = 0
        # Stage latencies and forwarding rules as plain attributes: issue()
        # reads them once per simulated tile compute.
        self._wl_latency = timing.weight_load_latency
        self._ff_latency = timing.feed_first_latency
        self._fs_latency = timing.feed_second_latency
        self._dr_latency = timing.drain_latency
        self._reduction_latency = timing.reduction_latency
        self._output_ready_latency = timing.output_ready_latency
        self._output_forwarding = timing.output_forwarding

    # -- public API ---------------------------------------------------------------

    def issue(
        self,
        op_id: int,
        operands_ready: int,
        accumulator_dep: Optional[int],
        feed_overhead: int,
    ) -> int:
        """Schedule one tile instruction; returns its completion cycle.

        ``operands_ready`` is the cycle at which the A/B sources hold valid
        data, ``accumulator_dep`` the id of the in-flight producer of C (or
        None) and ``feed_overhead`` the cycles added to Feed-First.
        """
        # Stage starts are max() written as comparisons: this runs once per
        # simulated tile compute.  WL needs the weight operand and a free WL
        # stage.
        free = self._wl_free
        wl_end = (operands_ready if operands_ready > free else free) + self._wl_latency
        # FF needs the streamed operands, a free FF stage, and — when the
        # accumulator is produced by an earlier in-flight instruction — either
        # the producer's completion (no OF) or its forwarding window (OF).
        # If FF has to wait, the array simply idles after loading weights.
        free = self._ff_free
        ff_start = wl_end if wl_end > free else free
        if accumulator_dep is not None:
            producer = self._producers.get(accumulator_dep)
            if producer is None:
                raise SimulationError(
                    f"op {op_id} depends on unknown op {accumulator_dep}"
                )
            edge = producer[1]
            if self._output_forwarding:
                # Forwarding is an additional bypass path: the consumer starts
                # as soon as either the forwarding window opens or the
                # producer's write-back completes, whichever comes first.
                window = producer[0] + self._output_ready_latency
                if window < edge:
                    edge = window
            if edge > ff_start:
                ff_start = edge
        ff_end = ff_start + self._ff_latency + feed_overhead
        free = self._fs_free
        fs_end = (ff_end if ff_end > free else free) + self._fs_latency
        free = self._dr_free
        dr_end = (fs_end if fs_end > free else free) + self._dr_latency
        complete = dr_end + self._reduction_latency
        self._wl_free = wl_end
        self._ff_free = ff_end
        self._fs_free = fs_end
        self._dr_free = dr_end
        self._producers[op_id] = (ff_start, complete)
        if complete > self._makespan:
            self._makespan = complete
        return complete

    def schedule(self, request: TileComputeRequest) -> TileComputeTiming:
        """Schedule one tile instruction and return its stage-by-stage timing."""
        op_id = request.op_id
        if op_id in self._producers:
            raise SimulationError(f"duplicate op_id {op_id}")
        complete = self.issue(
            op_id, request.operands_ready, request.accumulator_dep, request.feed_overhead
        )
        # The recurrence leaves each stage's clock at this instruction's end.
        return TileComputeTiming(
            op_id=op_id,
            wl_start=self._wl_free - self._wl_latency,
            wl_end=self._wl_free,
            ff_start=self._producers[op_id][0],
            ff_end=self._ff_free,
            fs_start=self._fs_free - self._fs_latency,
            fs_end=self._fs_free,
            dr_start=self._dr_free - self._dr_latency,
            dr_end=self._dr_free,
            complete=complete,
        )

    def schedule_all(
        self, requests: Sequence[TileComputeRequest]
    ) -> List[TileComputeTiming]:
        """Schedule a whole sequence of requests in program order."""
        return [self.schedule(request) for request in requests]

    def fast_forward(
        self, op_offset: int, cycle_offset: int, live_op_ids: Iterable[int]
    ) -> None:
        """Advance the pipeline over a block of skipped, steady-state work.

        The simulator's fast path proves that a repeating instruction block
        shifts every engine event by a constant number of cycles and then
        skips whole blocks at once: op ids advance by ``op_offset``, every
        stage clock and producer time advances by ``cycle_offset`` engine
        cycles, and only the producers still referenced as live accumulator
        writers (``live_op_ids``) are kept for dependence resolution.
        """
        self._wl_free += cycle_offset
        self._ff_free += cycle_offset
        self._fs_free += cycle_offset
        self._dr_free += cycle_offset
        producers = self._producers
        self._producers = {}
        for op_id in live_op_ids:
            producer = producers.get(op_id)
            if producer is not None:
                self._producers[op_id + op_offset] = (
                    producer[0] + cycle_offset,
                    producer[1] + cycle_offset,
                )
        self._makespan += cycle_offset

    # -- shift-digest support -----------------------------------------------------

    def stage_digest(self, ebase: int) -> tuple:
        """Stage-availability clocks relative to engine cycle ``ebase``.

        Values at or before ``ebase`` saturate to zero: every future stage
        start is a ``max`` against a quantity strictly derived from operand
        readiness at or after ``ebase``, so earlier free times are
        indistinguishable.  Used by the simulator's steady-state digest.
        """
        return tuple(
            free - ebase if free > ebase else 0
            for free in (self._wl_free, self._ff_free, self._fs_free, self._dr_free)
        )

    def producer_digest(self, op_id: int, ebase: int) -> tuple:
        """Digest of a live accumulator producer relative to ``ebase``.

        Only the quantities a future consumer can observe are included:
        ``complete`` (the no-forwarding dependence edge) and, when the engine
        forwards outputs, the forwarding window ``ff_start +
        output_ready_latency``.  Both saturate at ``ebase`` — a consumer's
        ``ff_earliest`` is always past ``ebase``, so once either edge is in
        the past its exact value no longer matters.  Raw ``ff_start`` must
        not be digested directly: two past ``ff_start`` values can imply
        different *future* forwarding windows, so the derived window is the
        canonical quantity.
        """
        producer = self._producers.get(op_id)
        if producer is None:
            return ()
        complete = producer[1] - ebase
        items = [complete if complete > 0 else 0]
        if self._output_forwarding:
            window = producer[0] + self._output_ready_latency - ebase
            items.append(window if window > 0 else 0)
        return tuple(items)

    @property
    def makespan(self) -> int:
        """Cycle at which the last scheduled instruction completes."""
        return self._makespan


def steady_state_issue_interval(engine: EngineConfig, depth: int = 8) -> float:
    """Measured steady-state initiation interval for independent instructions.

    Schedules ``depth`` independent back-to-back instructions and reports the
    average spacing of their completions, which converges to
    ``engine.issue_interval`` — the experiment behind Figure 10 (a)/(b).
    """
    pipeline = MatrixEnginePipeline(engine)
    timings = pipeline.schedule_all(
        [TileComputeRequest(op_id=index) for index in range(depth)]
    )
    if depth < 2:
        return float(timings[0].latency)
    spans = [
        timings[index + 1].complete - timings[index].complete
        for index in range(depth - 1)
    ]
    return sum(spans) / len(spans)


def dependent_chain_interval(
    engine: EngineConfig, depth: int = 8
) -> float:
    """Average spacing of a chain of accumulator-dependent instructions.

    This is Figure 10 (c)/(d): without output forwarding each link waits for
    the full completion of its predecessor; with it the chain advances every
    ``max(issue_interval, output_ready_latency - ...)`` cycles.
    """
    pipeline = MatrixEnginePipeline(engine)
    requests = [
        TileComputeRequest(
            op_id=index,
            accumulator_dep=index - 1 if index > 0 else None,
        )
        for index in range(depth)
    ]
    timings = pipeline.schedule_all(requests)
    if depth < 2:
        return float(timings[0].latency)
    spans = [
        timings[index + 1].complete - timings[index].complete
        for index in range(depth - 1)
    ]
    return sum(spans) / len(spans)
