"""Cycle-approximate CPU substrate (the MacSim replacement).

Sub-modules:

* :mod:`repro.cpu.params` — core / cache / memory parameters (Section VI-B setup),
* :mod:`repro.cpu.cache` — set-associative caches and the two-level hierarchy,
* :mod:`repro.cpu.memory` — the memory system with bandwidth accounting,
* :mod:`repro.cpu.trace` — dynamic instruction traces (the Pin-tool replacement),
* :mod:`repro.cpu.columnar` — the columnar (structured-array) trace format,
* :mod:`repro.cpu.simulator` — the trace-driven simulator,
* :mod:`repro.cpu.topology` — the recursive bandwidth topology (cores →
  L3 slices → sockets → nodes) and its generalized fluid arbiter,
* :mod:`repro.cpu.multicore` — N-core simulation with topology-aware
  shared-memory arbitration and block-signature memoization.
"""

from .cache import AccessResult, Cache, CacheHierarchy, CacheStats
from .columnar import ColumnarTrace, TraceBuilder
from .memory import MemoryRequestResult, MemorySystem
from .multicore import (
    MulticoreSimulationResult,
    clear_simulation_memo,
    simulate_multicore,
    simulate_program_cached,
    simulation_cache_key,
)
from .params import (
    TOPOLOGY_PRESETS,
    CacheParams,
    CoreParams,
    MachineParams,
    MemoryParams,
    chiplet_machine,
    default_machine,
    dual_socket_machine,
    flat_topology,
    get_topology,
    topology_names,
)
from .simulator import CycleApproximateSimulator, SimulationResult
from .topology import (
    CorePlacement,
    TopologyNode,
    arbitrate_topology,
    place_cores,
    resolve_traffic,
)
from .trace import (
    TraceOp,
    TraceOpKind,
    TraceSummary,
    branch_op,
    format_trace,
    format_trace_op,
    scalar_op,
    tile_op,
    vector_fma,
    vector_load,
    vector_store,
)

__all__ = [
    "AccessResult",
    "Cache",
    "CacheHierarchy",
    "CacheParams",
    "CacheStats",
    "CorePlacement",
    "CoreParams",
    "CycleApproximateSimulator",
    "MachineParams",
    "MemoryParams",
    "MemoryRequestResult",
    "MemorySystem",
    "MulticoreSimulationResult",
    "SimulationResult",
    "TOPOLOGY_PRESETS",
    "TopologyNode",
    "TraceOp",
    "TraceOpKind",
    "TraceSummary",
    "arbitrate_topology",
    "branch_op",
    "chiplet_machine",
    "default_machine",
    "dual_socket_machine",
    "flat_topology",
    "get_topology",
    "place_cores",
    "resolve_traffic",
    "topology_names",
    "format_trace",
    "format_trace_op",
    "scalar_op",
    "simulate_multicore",
    "tile_op",
    "vector_fma",
    "vector_load",
    "vector_store",
]
