"""Cycle-approximate CPU substrate (the MacSim replacement).

Sub-modules:

* :mod:`repro.cpu.params` — core / cache / memory parameters (Section VI-B setup),
* :mod:`repro.cpu.memory` — the memory system: the private L1/L2 LRU tag
  arrays (L1 over every line access, L2 over the L1-miss stream), the L2
  port and the DRAM channel, plus the scripted memory of the oracle path,
* :mod:`repro.cpu.trace` — trace-op records, the object view of a trace,
* :mod:`repro.cpu.columnar` — the columnar trace format (the Pin-tool
  replacement) and :class:`TraceBuilder`, its one encoder,
* :mod:`repro.cpu.simulator` — the trace-driven simulator, which runs a
  :class:`ColumnarTrace`, and :func:`simulate_shared`, the single-core
  entry point that keeps each result on the trace, once per engine timing,
* :mod:`repro.cpu.topology` — the recursive bandwidth topology (cores →
  L3 slices → sockets → nodes) and its generalized fluid arbiter,
* :mod:`repro.cpu.multicore` — N-core simulation with topology-aware
  shared-memory arbitration and block-signature memoization.
"""

from .columnar import ColumnarTrace, TraceBuilder
from .memory import MemorySystem
from .multicore import MulticoreSimulationResult, simulate_multicore
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
)
from .simulator import CycleApproximateSimulator, SimulationResult, simulate_shared
from .topology import (
    CorePlacement,
    TopologyNode,
    arbitrate_topology,
    place_cores,
    resolve_traffic,
)
from .trace import TraceOp, TraceOpKind, TraceSummary

__all__ = [
    "CacheParams",
    "ColumnarTrace",
    "CorePlacement",
    "CoreParams",
    "CycleApproximateSimulator",
    "MachineParams",
    "MemoryParams",
    "MemorySystem",
    "MulticoreSimulationResult",
    "SimulationResult",
    "TOPOLOGY_PRESETS",
    "TopologyNode",
    "TraceBuilder",
    "TraceOp",
    "TraceOpKind",
    "TraceSummary",
    "arbitrate_topology",
    "chiplet_machine",
    "default_machine",
    "dual_socket_machine",
    "flat_topology",
    "get_topology",
    "place_cores",
    "resolve_traffic",
    "simulate_multicore",
    "simulate_shared",
]
