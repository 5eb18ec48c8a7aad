"""Multi-core simulation: private-core simulators + a shared-memory arbiter.

The single-core :class:`~repro.cpu.simulator.CycleApproximateSimulator`
models one core's private L1/L2 hierarchy and its *own* DRAM channel.  Once
the output-tile grid of a kernel is sharded across N cores
(:mod:`repro.kernels.sharding`), that private model misses the first-order
scaling effect: every core's miss traffic competes for the same last-level
cache and the same memory controller, so a memory-bound kernel stops scaling
long before a compute-bound one does (the Occamy observation).

The model here keeps each core's simulation exactly as it is — fast or exact
mode, bit-identical cycle counts and cache counters — and layers a shared
memory system on top:

* **Shared L3 (analytic).**  Every line a private simulation sent to DRAM
  traverses the shared L3.  Lines missing the private L2 for *capacity*
  reasons (misses beyond the core's compulsory footprint) hit in the L3 in
  proportion to how much of the cores' combined footprint fits its capacity;
  compulsory misses always go to DRAM.  L3 hits still consume the shared L3
  port bandwidth.
* **Bandwidth arbiter (fluid, event-stepped).**  Each core demands shared-L3
  and DRAM line bandwidth at its private average rate.  Demand rates only
  change when a core finishes, so the arbiter advances all cores together in
  time steps bounded by the next core completion; whenever the aggregate
  demand on a shared resource exceeds its supply, that resource's bandwidth
  is granted proportionally to demand and every core demanding *it* is
  dilated by the resource's shortfall factor for that step.  Cores with no
  demand on a congested resource run undilated, and a finished core's
  demand disappears — so contention shows up in *cycles* (a longer
  makespan), not just in byte counts.

Both pieces are special cases of the **recursive bandwidth topology** in
:mod:`repro.cpu.topology`: the flat shared pool is the ``flat`` preset, a
one-level tree (a DRAM root over a single shared-L3 leaf,
:func:`~repro.cpu.params.flat_topology`), and :func:`simulate_multicore`
routes every simulation through the general model — cores are placed on
leaf locality domains (:func:`~repro.cpu.topology.place_cores`), miss
traffic is filtered bottom-up per level
(:func:`~repro.cpu.topology.resolve_traffic`, capacity hits resolved per
*domain* footprint), and the generalized fluid arbiter
(:func:`~repro.cpu.topology.arbitrate_topology`) dilates each core by the
most-congested resource on its leaf-to-root path.  NUMA and chiplet presets
(``dual_socket_machine``, ``chiplet_machine`` in :mod:`repro.cpu.params`)
are just deeper trees; the ``flat`` preset stays bit-identical to the
pre-topology model, pinned by the test suite per kernel and strategy
against the pre-refactor arbiter kept there as the oracle.

With one core the arbiter is structurally a no-op: the private simulator
already throttles the core's DRAM traffic to the same bandwidth the shared
channel offers — and every preset level supplies at least that mirrored
rate — so its demand can never exceed supply and the multi-core result is
bit-identical to the single-core simulation (an invariant the test suite
pins for every kernel and every topology preset).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.engine import EngineConfig
from ..errors import SimulationError
from .params import MachineParams, default_machine, flat_topology
from .simulator import (
    SIMULATOR_MODEL_VERSION,
    CycleApproximateSimulator,
    SimulationResult,
    simulation_identity,
)
from .topology import (
    CorePlacement,
    TopologyNode,
    arbitrate_topology,
    place_cores,
    resolve_traffic,
)
from .trace import TraceSummary

#: Environment variable disabling block-signature memoization (set to any
#: value other than ``0``); every core is then simulated individually.
NO_MEMO_ENV = "REPRO_NO_MEMO"


@dataclass
class MulticoreSimulationResult:
    """Outcome of simulating per-core programs under shared-memory arbitration.

    ``dram_lines`` are the per-core lines that reached the topology root
    (DRAM) after every shared-cache level filtered its share;
    ``l3_hit_lines`` the per-core lines absorbed by shared caches anywhere on
    the path.  ``topology`` and ``placement`` describe the tree that was
    arbitrated.
    """

    core_cycles: int
    per_core: List[SimulationResult]
    finish_cycles: List[int]
    dram_lines: List[int]
    l3_hit_lines: List[int]
    contended: bool
    machine: MachineParams
    engine: Optional[EngineConfig]
    topology: TopologyNode
    placement: CorePlacement
    memory_counters: Dict[str, int] = field(default_factory=dict)
    #: Per-node fraction of supply used over the makespan, keyed by node name.
    node_utilization: Dict[str, float] = field(default_factory=dict)
    #: Same, aggregated over nodes sharing a level label ("l3", "dram", ...).
    level_utilization: Dict[str, float] = field(default_factory=dict)
    #: Node names oversubscribed during at least one arbiter step.
    saturated: List[str] = field(default_factory=list)

    @property
    def cores(self) -> int:
        """Number of simulated cores."""
        return len(self.per_core)

    @property
    def private_cycles(self) -> List[int]:
        """Per-core cycle counts before shared-memory arbitration."""
        return [result.core_cycles for result in self.per_core]

    @property
    def load_imbalance(self) -> float:
        """Max over mean of the per-core private cycle counts (1.0 = balanced)."""
        cycles = self.private_cycles
        mean = sum(cycles) / len(cycles) if cycles else 0.0
        return max(cycles) / mean if mean else 1.0

    @property
    def bandwidth_utilization(self) -> float:
        """Fraction of the root (DRAM) line bandwidth used over the makespan."""
        if self.core_cycles == 0:
            return 0.0
        supply = self.topology.lines_per_cycle(self.machine) * self.core_cycles
        return min(1.0, sum(self.dram_lines) / supply) if supply else 0.0

    @property
    def runtime_seconds(self) -> float:
        """Wall-clock makespan at the core frequency."""
        return self.core_cycles / (self.machine.core.frequency_ghz * 1e9)

    def speedup_over(self, single_core_cycles: int) -> float:
        """Speed-up of this multi-core run over a single-core cycle count."""
        return single_core_cycles / self.core_cycles if self.core_cycles else 0.0


# -- block-signature memoization ------------------------------------------------

#: In-process memo of simulation payloads keyed by the full simulation key.
_PROCESS_MEMO: Dict[str, Dict[str, Any]] = {}


def clear_simulation_memo() -> None:
    """Drop the in-process simulation memo (tests and benchmarks)."""
    _PROCESS_MEMO.clear()


def memoization_enabled(memo: Optional[bool] = None) -> bool:
    """Resolve the memoization switch: explicit argument, then ``REPRO_NO_MEMO``."""
    if memo is not None:
        return memo
    return os.environ.get(NO_MEMO_ENV, "") in ("", "0")


@functools.lru_cache(maxsize=32)
def _identity_bytes(identity: Tuple[Any, ...]) -> bytes:
    """Canonical JSON of a :func:`simulation_identity` plus the model version."""
    machine, timing, mode, max_super_period = identity
    return json.dumps(
        {
            "machine": machine.to_dict(),
            "timing": None if timing is None else asdict(timing),
            "mode": mode,
            "max_super_period": max_super_period,
            "model": SIMULATOR_MODEL_VERSION,
        },
        sort_keys=True,
    ).encode()


def simulation_cache_key(
    program: Any,
    machine: MachineParams,
    engine: Optional[EngineConfig],
    mode: str,
) -> Optional[str]:
    """Full content address of one program's private-simulation outcome.

    Combines the trace's address-normalized signature key (see
    :meth:`repro.cpu.columnar.ColumnarTrace.simulation_key`) with the
    :func:`~repro.cpu.simulator.simulation_identity` and the model version.
    Two programs with equal keys produce bit-identical
    :class:`SimulationResult`\\ s, so the key is valid across cores, trials,
    engines of equal timing, processes and runs.  The identity part is
    serialised once per distinct identity, not once per program.
    """
    trace_key = program.trace.simulation_key(machine)
    digest = hashlib.sha256()
    digest.update(trace_key.encode())
    digest.update(_identity_bytes(simulation_identity(machine, engine, mode)))
    return digest.hexdigest()


def result_to_payload(result: SimulationResult) -> Dict[str, Any]:
    """Serialize a :class:`SimulationResult` to a plain-data payload."""
    summary = result.trace_summary
    return {
        "core_cycles": result.core_cycles,
        "engine_busy_cycles": result.engine_busy_cycles,
        "engine_makespan_cycles": result.engine_makespan_cycles,
        "tile_compute_ops": result.tile_compute_ops,
        "summary": {
            "total": summary.total,
            "tile_compute": summary.tile_compute,
            "tile_load": summary.tile_load,
            "tile_store": summary.tile_store,
            "vector_fma": summary.vector_fma,
            "vector_load": summary.vector_load,
            "vector_store": summary.vector_store,
            "scalar": summary.scalar,
            "branch": summary.branch,
            "memory_bytes": summary.memory_bytes,
            "by_opcode": dict(summary.by_opcode),
        },
        "memory_counters": dict(result.memory_counters),
        "fast_blocks_stepped": result.fast_blocks_stepped,
        "fast_blocks_skipped": result.fast_blocks_skipped,
    }


def payload_to_result(
    payload: Dict[str, Any],
    machine: MachineParams,
    engine: Optional[EngineConfig],
) -> SimulationResult:
    """Reconstruct a :class:`SimulationResult` from a stored payload."""
    summary_data = dict(payload["summary"])
    by_opcode = {str(k): int(v) for k, v in summary_data.pop("by_opcode").items()}
    summary = TraceSummary(
        **{key: int(value) for key, value in summary_data.items()},
        by_opcode=by_opcode,
    )
    return SimulationResult(
        core_cycles=int(payload["core_cycles"]),
        engine_busy_cycles=int(payload["engine_busy_cycles"]),
        engine_makespan_cycles=int(payload["engine_makespan_cycles"]),
        tile_compute_ops=int(payload["tile_compute_ops"]),
        trace_summary=summary,
        memory_counters={str(k): int(v) for k, v in payload["memory_counters"].items()},
        machine=machine,
        engine=engine,
        fast_blocks_stepped=int(payload.get("fast_blocks_stepped", 0)),
        fast_blocks_skipped=int(payload.get("fast_blocks_skipped", 0)),
    )


def simulate_cores(
    programs: Sequence[Any],
    *,
    machine: MachineParams,
    engine: Optional[EngineConfig],
    mode: str = "fast",
    memo: Optional[bool] = None,
    block_cache: Optional[Any] = None,
) -> List[SimulationResult]:
    """Private simulation of every program, through the signature memo.

    The one memoized path: each program is keyed with
    :func:`simulation_cache_key`, and each distinct key is looked up once —
    in the in-process memo, then in ``block_cache`` (any object with
    ``get(key) -> payload | None`` and ``put(key, payload)``, e.g. the
    experiments layer's persistent store).  One representative per missing
    key is simulated and its payload written back to both; every other
    program with that key replays it, bit-identically to simulating it.
    With memoization off (``memo=False`` or ``REPRO_NO_MEMO``) there are no
    keys: every program is simulated and ``block_cache`` is never touched.
    The representatives run serially on one simulator; parallelism lives in
    the experiments executor, one level up.
    """
    if memoization_enabled(memo):
        keys = [simulation_cache_key(program, machine, engine, mode) for program in programs]
    else:
        keys = [None] * len(programs)
    payloads: Dict[str, Optional[Dict[str, Any]]] = {}
    representatives: List[int] = []
    for index, key in enumerate(keys):
        if key is None:
            representatives.append(index)
        elif key not in payloads:
            payload = _PROCESS_MEMO.get(key)
            if payload is None and block_cache is not None:
                payload = block_cache.get(key)
                if payload is not None:
                    _PROCESS_MEMO[key] = payload
            payloads[key] = payload
            if payload is None:
                representatives.append(index)

    per_core: List[Optional[SimulationResult]] = [None] * len(programs)
    simulator = CycleApproximateSimulator(machine=machine, engine=engine, mode=mode)
    for index in representatives:
        result = simulator.run(programs[index].trace)
        per_core[index] = result
        key = keys[index]
        if key is not None:
            payload = result_to_payload(result)
            payloads[key] = payload
            _PROCESS_MEMO[key] = payload
            if block_cache is not None:
                block_cache.put(key, payload)
    return [
        result if result is not None else payload_to_result(payloads[key], machine, engine)
        for result, key in zip(per_core, keys)
    ]


def simulate_program_cached(
    program: Any,
    *,
    machine: Optional[MachineParams] = None,
    engine: Optional[EngineConfig] = None,
    mode: str = "fast",
    memo: Optional[bool] = None,
    block_cache: Optional[Any] = None,
) -> SimulationResult:
    """One program's private simulation through :func:`simulate_cores`.

    With memoization off this is exactly ``simulator.run``.
    """
    machine = machine if machine is not None else default_machine()
    return simulate_cores(
        [program], machine=machine, engine=engine, mode=mode, memo=memo, block_cache=block_cache
    )[0]


def simulate_multicore(
    programs: Sequence[Any],
    *,
    machine: Optional[MachineParams] = None,
    engine: Optional[EngineConfig] = None,
    mode: str = "fast",
    topology: Optional[TopologyNode] = None,
    memo: Optional[bool] = None,
    block_cache: Optional[Any] = None,
) -> MulticoreSimulationResult:
    """Simulate one per-core program per simulated core under shared memory.

    ``programs`` is one entry per core; only its ``trace`` is read, a
    :class:`~repro.cpu.columnar.ColumnarTrace` that carries the core's rows
    and block hints (a :class:`~repro.kernels.program.KernelProgram` or any
    object with that attribute).  Every core runs the existing private
    simulator in ``mode``
    (:func:`simulate_cores`); shared-cache filtering and bandwidth
    arbitration (:func:`arbitrate_cores`) then convert cross-core miss
    traffic into a (possibly dilated) makespan.

    The shared memory system is a recursive :class:`TopologyNode` tree
    (``topology``) — e.g. ``dual_socket_machine()`` /``chiplet_machine()``
    from :mod:`repro.cpu.params`; ``None`` means the ``flat`` preset
    (:func:`~repro.cpu.params.flat_topology`).  Because private simulations
    are topology-independent (the topology never enters
    :func:`simulation_cache_key`), sweeping the topology axis re-uses every
    memoized per-core result.

    **Block-signature memoization.**  The per-core programs of a sharded
    kernel are largely address-shifted copies of one another, and
    :func:`simulation_cache_key` normalizes raw addresses down to the
    cache-collision structure they induce, so :func:`simulate_cores`
    simulates one representative per signature-equivalence class and
    replays its cycles and cache counters for the rest, bit-identically.
    """
    if not programs:
        raise SimulationError("simulate_multicore needs at least one per-core program")
    machine = machine if machine is not None else default_machine()
    per_core = simulate_cores(
        programs, machine=machine, engine=engine, mode=mode, memo=memo, block_cache=block_cache
    )
    return arbitrate_cores(
        programs, per_core, machine=machine, engine=engine, topology=topology
    )


def arbitrate_cores(
    programs: Sequence[Any],
    per_core: List[SimulationResult],
    *,
    machine: MachineParams,
    engine: Optional[EngineConfig],
    topology: Optional[TopologyNode] = None,
) -> MulticoreSimulationResult:
    """Arbitrate finished private simulations under a shared-memory topology.

    ``per_core[c]`` is the private result of ``programs[c]``; the programs
    supply only their footprints.  Private results do not depend on the
    topology, so one set of them can be arbitrated under several topologies.
    ``None`` means the ``flat`` preset.
    """
    topology = topology if topology is not None else flat_topology()
    line_bytes = machine.l1.line_bytes
    footprints = [program.trace.footprint_line_numbers(line_bytes) for program in programs]

    # Place the cores on the topology's leaf locality domains, filter their
    # private miss traffic bottom-up through the shared cache levels, and
    # arbitrate every level's port bandwidth in one fluid pass.
    placement = place_cores(topology, len(programs))
    private_dram = [
        result.memory_counters.get("dram_line_requests", 0) for result in per_core
    ]
    traffic = resolve_traffic(topology, machine, placement, private_dram, footprints)
    outcome = arbitrate_topology(
        [result.core_cycles for result in per_core],
        traffic.demands,
        traffic.supplies,
        traffic.names,
    )

    node_utilization: Dict[str, float] = {}
    level_demand: Dict[str, int] = {}
    level_supply: Dict[str, float] = {}
    for name, level, supply, row in zip(
        traffic.names, traffic.levels, traffic.supplies, traffic.demands
    ):
        total = sum(row)
        capacity = supply * outcome.makespan
        node_utilization[name] = min(1.0, total / capacity) if capacity else 0.0
        level_demand[level] = level_demand.get(level, 0) + total
        level_supply[level] = level_supply.get(level, 0.0) + supply
    level_utilization = {
        level: (
            min(1.0, level_demand[level] / (level_supply[level] * outcome.makespan))
            if level_supply[level] * outcome.makespan
            else 0.0
        )
        for level in level_demand
    }

    counters: Dict[str, int] = {}
    for result in per_core:
        for key, value in result.memory_counters.items():
            counters[key] = counters.get(key, 0) + value
    counters["l3_hit_lines"] = sum(traffic.hit_lines)
    counters["shared_dram_lines"] = sum(traffic.root_lines)

    return MulticoreSimulationResult(
        core_cycles=outcome.makespan,
        per_core=per_core,
        finish_cycles=outcome.finish_cycles,
        dram_lines=traffic.root_lines,
        l3_hit_lines=traffic.hit_lines,
        contended=outcome.contended,
        machine=machine,
        engine=engine,
        topology=topology,
        placement=placement,
        memory_counters=counters,
        node_utilization=node_utilization,
        level_utilization=level_utilization,
        saturated=outcome.saturated,
    )
