"""Trace-derived partition statics: the reference the grid pricing must equal.

The planner prices a partition from its tile grid and the kernel's block
templates, without building a trace
(:func:`repro.planner.prefilter.partition_statics`).  This module keeps the
original pricing, which reads the per-core traces of the built shard — their
instruction-mix summaries and sorted distinct-line footprints — so the tests
can diff the two field by field.
"""

import math

from repro.cpu.columnar import distinct_line_count
from repro.planner.prefilter import PartitionStatics, _shared_capacity_bytes


def reference_partition_statics(sharded, machine, topology) -> PartitionStatics:
    """The statics of a built :class:`~repro.kernels.sharding.ShardedKernel`,
    read off its per-core traces."""
    line_bytes = machine.l1.line_bytes

    summaries = [program.trace.summarize() for program in sharded.programs]
    traffic_bytes = sum(summary.memory_bytes for summary in summaries)
    max_core_compute_instructions = max(
        (summary.tile_compute for summary in summaries), default=0
    )

    tiles = sharded.tiles_per_core
    mean_tiles = sum(tiles) / len(tiles) if tiles else 0.0
    load_imbalance = max(tiles) / mean_tiles if mean_tiles else 1.0

    footprints = [
        program.trace.footprint_line_numbers(line_bytes) for program in sharded.programs
    ]
    max_core_lines = max((len(lines) for lines in footprints), default=0)
    combined_lines = distinct_line_count(footprints)

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
        max_core_footprint_bytes=max_core_lines * line_bytes,
        combined_footprint_bytes=combined_lines * line_bytes,
        fits_private_l2=max_core_lines * line_bytes <= machine.l2.capacity_bytes,
        fits_shared_capacity=(
            combined_lines * line_bytes <= _shared_capacity_bytes(topology)
        ),
        memory_bound_cycles=memory_bound_cycles,
    )
