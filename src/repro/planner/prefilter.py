"""Analytic pre-filter statics for mapping candidates.

Everything here is computed *without* running the cycle simulator and
without building a trace: from the tile grid, each core's cells of the
partition (:func:`repro.kernels.sharding.partition_kernel`), the kernel's
block templates and the machine/engine parameters.  The templates say what
one block of each class touches, so a core's computes, bytes and distinct
lines are counts over its cells (:meth:`KernelPartition.cell_totals`) —
the per-loop data-movement accounting of a tiled loop nest:

* **Exact objectives** — shared-memory traffic (the bytes every core's
  trace would move) and static load imbalance (max/mean output tiles
  per core) are properties of the partition, not of the timing model, so
  the pre-filter knows two of the three Pareto objectives exactly.
* **A sound cycle lower bound** — no mapping can finish faster than its
  most-loaded core can initiate its tile *compute* instructions
  (``computes x issue-interval``, converted to core cycles by the
  engine clock ratio), nor — on machines without ideal L2 prefetch —
  faster than the topology root can stream the combined distinct operand
  footprint.  Both bounds hold for every arbitration outcome, which is
  what makes dominance pruning against them sound (see
  :mod:`repro.planner.autotune`); the property tests pin
  ``bound_cycles <= simulated cycles`` across the catalog.
* **Reported statics** — cache-fit flags (per-core footprint vs private
  L2, combined footprint vs the topology's shared capacity) and a roofline
  throughput estimate reusing :mod:`repro.analysis.roofline`.  They are
  columns of the autotune rows only: the search orders its walk by the
  cycle bound, traffic, imbalance and candidate identity, and never reads
  them.

Only the compute bound and the roofline read the engine.  Everything else
is a property of the partition (:func:`partition_statics`), which the
autotuner prices once per partition and shares across its engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..analysis.roofline import EngineRoofline, effective_throughput_tflops
from ..core.engine import EngineConfig
from ..cpu.params import MachineParams
from ..cpu.topology import TopologyNode
from ..kernels.sharding import KernelPartition
from ..types import SparsityPattern


@dataclass(frozen=True)
class PartitionStatics:
    """The engine-independent statics of one partition."""

    #: Tile *compute* instructions of the most-loaded core — only computes
    #: occupy the matrix-engine pipeline (loads/stores overlap through the
    #: memory system), so only they floor the makespan.
    max_core_compute_instructions: int
    #: Exact shared-memory traffic: bytes moved by every core's blocks.
    traffic_bytes: int
    #: Exact static load imbalance: max/mean output tiles per active core.
    load_imbalance: float
    #: Largest per-core distinct operand footprint in bytes.
    max_core_footprint_bytes: int
    #: Distinct operand footprint of all cores combined, in bytes.
    combined_footprint_bytes: int
    #: Does every core's footprint fit its private L2?
    fits_private_l2: bool
    #: Does the combined footprint fit the topology's shared caches?
    fits_shared_capacity: bool
    #: Bandwidth makespan floor in core cycles (0 under ideal prefetch).
    memory_bound_cycles: int


@dataclass(frozen=True)
class MappingStatics(PartitionStatics):
    """Simulation-free statics of one mapping: its partition's, plus the
    engine's compute bound and roofline."""

    #: Issue-rate makespan floor in core cycles (sound lower bound).
    compute_bound_cycles: int
    #: Roofline throughput estimate in effectual TFLOPS (reported, not searched on).
    roofline_tflops: float

    @property
    def bound_cycles(self) -> int:
        """The sound cycle lower bound the dominance pruning tests against."""
        return max(self.compute_bound_cycles, self.memory_bound_cycles)


def _shared_capacity_bytes(topology: TopologyNode) -> int:
    """Total capacity of the topology's shared cache nodes."""
    return sum(
        node.capacity_bytes
        for _, node in topology.walk()
        if node.capacity_bytes is not None
    )


def partition_statics(
    partition: KernelPartition,
    machine: MachineParams,
    topology: TopologyNode,
) -> PartitionStatics:
    """Price the engine-independent statics of one partition from its tile grid.

    Computes, traffic and footprints are counted over each core's cells
    from the kernel's block templates
    (:meth:`~repro.kernels.sharding.KernelPartition.cell_totals`), so no
    per-core trace is built: the statics equal those of the traces
    :func:`~repro.kernels.sharding.shard_kernel` would build, which the
    planner tests check field by field.
    """
    line_bytes = machine.l1.line_bytes
    totals = partition.cell_totals(line_bytes)
    traffic_bytes = int(totals.memory_bytes.sum())
    max_core_compute_instructions = int(totals.computes.max(initial=0))

    tiles = partition.tiles_per_core
    total_tiles = sum(tiles)
    mean_tiles = total_tiles / len(tiles) if tiles else 0.0
    load_imbalance = max(tiles) / mean_tiles if mean_tiles else 1.0

    max_core_lines = int(totals.lines.max(initial=0))
    combined_lines = totals.combined_lines
    max_core_footprint_bytes = max_core_lines * line_bytes
    combined_footprint_bytes = combined_lines * line_bytes

    # Every distinct line of the combined footprint is a compulsory miss
    # somewhere, and compulsory misses pay the full path to the topology
    # root (shared caches only absorb capacity misses), so the root's line
    # rate floors the makespan — but only when the machine cannot hide
    # private DRAM latency behind ideal L2 prefetch.
    if machine.prefetch_into_l2:
        memory_bound_cycles = 0
    else:
        root_lines_per_cycle = topology.lines_per_cycle(machine)
        memory_bound_cycles = (
            int(math.ceil(combined_lines / root_lines_per_cycle))
            if root_lines_per_cycle > 0 and math.isfinite(root_lines_per_cycle)
            else 0
        )

    return PartitionStatics(
        max_core_compute_instructions=max_core_compute_instructions,
        traffic_bytes=traffic_bytes,
        load_imbalance=load_imbalance,
        max_core_footprint_bytes=max_core_footprint_bytes,
        combined_footprint_bytes=combined_footprint_bytes,
        fits_private_l2=max_core_footprint_bytes <= machine.l2.capacity_bytes,
        fits_shared_capacity=(
            combined_footprint_bytes <= _shared_capacity_bytes(topology)
        ),
        memory_bound_cycles=memory_bound_cycles,
    )


def mapping_statics(
    partition: KernelPartition,
    machine: MachineParams,
    engine: EngineConfig,
    topology: TopologyNode,
    statics: Optional[PartitionStatics] = None,
) -> MappingStatics:
    """Compute the pre-filter statics for one mapping of ``partition``.

    ``statics`` is the :func:`partition_statics` of ``(partition, machine,
    topology)`` when the caller has priced it already; otherwise it is
    priced here.
    """
    if statics is None:
        statics = partition_statics(partition, machine, topology)

    # The engine pipeline initiates compute instructions no faster than one
    # per issue interval (the max stage occupancy; loads and stores overlap
    # through the memory system and never enter the pipeline), and the
    # engine clock runs slower than the core clock, so the most-loaded
    # core's compute count floors the makespan regardless of memory
    # behaviour.
    issue_cycles = max(engine.issue_interval, engine.busy_cycles_per_instruction)
    compute_bound_cycles = (
        statics.max_core_compute_instructions
        * issue_cycles
        * machine.core.engine_clock_ratio
    )

    executed = partition.pattern
    sparse_aware = engine.sparse and executed is not SparsityPattern.DENSE_4_4
    density = 1.0 / executed.compression_ratio if sparse_aware else 1.0
    roofline = EngineRoofline(
        name=engine.name,
        # One MAC is two FLOPs; the engine array runs at the matrix clock.
        peak_gflops=engine.total_macs * 2 * machine.core.matrix_engine_frequency_ghz,
        sparse_aware=sparse_aware,
    )
    roofline_tflops = effective_throughput_tflops(
        roofline,
        density,
        shape=partition.shape,
        bandwidth_gbps=machine.memory.dram_bandwidth_gbps,
    )

    return MappingStatics(
        **vars(statics),
        compute_bound_cycles=compute_bound_cycles,
        roofline_tflops=roofline_tflops,
    )
