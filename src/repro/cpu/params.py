"""Machine parameters for the cycle-approximate CPU model.

The defaults reproduce the evaluation setup of Section VI-B: a 2 GHz,
4-wide out-of-order core with 97 ROB entries and 96 load-buffer entries,
16 pipeline stages, matrix engines clocked at 0.5 GHz (the frequency every
RTL design point met), and data prefetched into the L2 cache.  The memory
system parameters (94 GB/s DRAM bandwidth) follow the roofline model of
Section III-A.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Mapping

from ..errors import ConfigurationError
from .topology import TopologyNode

#: Default shared-L3 capacity (a server-class last-level cache slice pool).
DEFAULT_L3_CAPACITY_BYTES = 32 * 1024 * 1024

#: Default shared-L3 port bandwidth in bytes per core cycle (two 64 B lines).
DEFAULT_L3_BYTES_PER_CYCLE = 128.0


@dataclass(frozen=True)
class CacheParams:
    """Geometry and latency of one cache level."""

    name: str
    capacity_bytes: int
    line_bytes: int = 64
    associativity: int = 8
    hit_latency: int = 4

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ConfigurationError(f"invalid cache parameters for {self.name}")
        if self.capacity_bytes % (self.line_bytes * self.associativity) != 0:
            raise ConfigurationError(
                f"{self.name}: capacity must be a whole number of sets"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.capacity_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class MemoryParams:
    """DRAM latency / bandwidth parameters."""

    dram_latency_cycles: int = 200
    dram_bandwidth_gbps: float = 94.0
    core_frequency_ghz: float = 2.0

    def __post_init__(self) -> None:
        if self.dram_bandwidth_gbps <= 0 or self.core_frequency_ghz <= 0:
            raise ConfigurationError("DRAM bandwidth and core frequency must be positive")

    @property
    def dram_bytes_per_core_cycle(self) -> float:
        """Sustained DRAM bytes deliverable per core cycle."""
        return self.dram_bandwidth_gbps / self.core_frequency_ghz


@dataclass(frozen=True)
class CoreParams:
    """Out-of-order core parameters (Section VI-B).

    The paper's core is 4-wide (fetch, issue, retire) with 16 pipeline
    stages.  The simulator models issue width and ROB/load-buffer
    occupancy only: no fetch or retire stage, no pipeline depth, and one
    L2 line per core cycle (:mod:`repro.cpu.memory`).
    """

    frequency_ghz: float = 2.0
    matrix_engine_frequency_ghz: float = 0.5
    issue_width: int = 4
    rob_entries: int = 97
    load_buffer_entries: int = 96
    #: Scalar ALU / address-generation latency in core cycles.
    scalar_latency: int = 1
    #: Vector FMA latency in core cycles.
    vector_fma_latency: int = 4
    #: Vector FMA throughput in FMAs per core cycle.  The default models the
    #: 64 GFLOPS BF16 vector engine of Section III-A: 16 MACs per cycle is
    #: half of a 32-element FMA per cycle.
    vector_fma_per_cycle: float = 0.5

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0 or self.matrix_engine_frequency_ghz <= 0:
            raise ConfigurationError("frequencies must be positive")
        if self.matrix_engine_frequency_ghz > self.frequency_ghz:
            raise ConfigurationError(
                "the matrix engine cannot be clocked faster than the core"
            )
        if self.issue_width <= 0:
            raise ConfigurationError("the issue width must be positive")
        if self.rob_entries <= 0 or self.load_buffer_entries <= 0:
            raise ConfigurationError("buffer sizes must be positive")

    @property
    def engine_clock_ratio(self) -> int:
        """Core cycles per matrix-engine cycle (4 for 2 GHz / 0.5 GHz)."""
        ratio = self.frequency_ghz / self.matrix_engine_frequency_ghz
        return max(1, int(round(ratio)))


@dataclass(frozen=True)
class MachineParams:
    """Complete machine description handed to the simulator."""

    core: CoreParams = field(default_factory=CoreParams)
    l1: CacheParams = field(
        default_factory=lambda: CacheParams(
            name="L1D", capacity_bytes=48 * 1024, hit_latency=4
        )
    )
    l2: CacheParams = field(
        default_factory=lambda: CacheParams(
            name="L2", capacity_bytes=2 * 1024 * 1024, hit_latency=14
        )
    )
    memory: MemoryParams = field(default_factory=MemoryParams)
    #: Model the paper's "data is prefetched to the L2 cache" assumption.
    prefetch_into_l2: bool = True

    def __post_init__(self) -> None:
        if self.l2.capacity_bytes < self.l1.capacity_bytes:
            raise ConfigurationError(
                f"the L2 ({self.l2.capacity_bytes} B) must be at least as large "
                f"as the L1 ({self.l1.capacity_bytes} B)"
            )
        if self.memory.core_frequency_ghz != self.core.frequency_ghz:
            raise ConfigurationError(
                f"memory.core_frequency_ghz ({self.memory.core_frequency_ghz}) must "
                f"equal core.frequency_ghz ({self.core.frequency_ghz}): the DRAM "
                "rate per core cycle reads it"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form of the machine, for experiment specs and caching."""
        return asdict(self)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "MachineParams":
        """Rebuild a machine description from :meth:`to_dict` output."""
        return MachineParams(
            core=CoreParams(**data["core"]),
            l1=CacheParams(**data["l1"]),
            l2=CacheParams(**data["l2"]),
            memory=MemoryParams(**data["memory"]),
            prefetch_into_l2=data["prefetch_into_l2"],
        )


def default_machine() -> MachineParams:
    """The evaluation machine of Section VI-B."""
    return MachineParams()


def memory_bound_machine() -> MachineParams:
    """A bandwidth-starved variant of the evaluation machine.

    Drops the "data is prefetched into L2" assumption, shrinks the L2 to
    256 KB and throttles DRAM to 12 GB/s — the regime where byte counts turn
    into cycles.  Used by the memory-bound SpGEMM study (the compressed-B
    traffic win becomes a cycle win) and as the memory-bound workload machine
    of the multi-core ``scaling`` experiment (replicated cores saturate the
    shared channel).  With the paper's default machine the tiled kernels are
    compute/latency-bound and neither effect is visible.
    """
    return MachineParams(
        l2=CacheParams(name="L2", capacity_bytes=256 * 1024, hit_latency=14),
        memory=MemoryParams(dram_bandwidth_gbps=12.0),
        prefetch_into_l2=False,
    )


# -- shared-memory topology presets ---------------------------------------------
#
# The recursive bandwidth topologies the multi-core simulator arbitrates
# (:mod:`repro.cpu.topology`).  Nodes without an explicit bandwidth *mirror*
# the host machine's effective DRAM line rate scaled by ``bandwidth_scale``,
# so every preset works unchanged on the default and the memory-bound
# machines, and — because every level's supply is at least one mirrored
# channel — a single core can never oversubscribe any path (the cores=1
# bit-identity invariant holds under every preset).


def flat_topology(cores: int = 128) -> TopologyNode:
    """The ``flat`` preset: one shared L3 slice under one DRAM root.

    Bit-identical to the pre-topology flat shared pool — a 32 MB shared L3
    at 128 B/cycle over a mirrored DRAM channel.  ``simulate_multicore``
    arbitrates under it when given no topology.
    """
    return TopologyNode(
        name="dram",
        level="dram",
        children=(
            TopologyNode(
                name="l3",
                level="l3",
                capacity_bytes=DEFAULT_L3_CAPACITY_BYTES,
                bytes_per_cycle=DEFAULT_L3_BYTES_PER_CYCLE,
                cores=cores,
            ),
        ),
    )


def dual_socket_machine() -> TopologyNode:
    """Shared-memory topology of a dual-socket NUMA server (128 core slots).

    Two sockets, each with its own memory link (one mirrored DRAM channel)
    and two 16 MB L3 slices of 32 core slots; the root aggregates both
    sockets' memory controllers (2x one channel).  A socket's cores share
    its slices and its link — contention is resolved per socket, so a
    memory-bound kernel sharded across both sockets sees twice the flat
    machine's aggregate bandwidth, while an imbalanced placement saturates
    one socket's link with the other idle.
    """
    sockets = []
    for socket in range(2):
        slices = tuple(
            TopologyNode(
                name=f"l3-{socket}{index}",
                level="l3",
                capacity_bytes=16 * 1024 * 1024,
                bytes_per_cycle=DEFAULT_L3_BYTES_PER_CYCLE,
                cores=32,
            )
            for index in range(2)
        )
        sockets.append(
            TopologyNode(
                name=f"socket{socket}",
                level="interconnect",
                bandwidth_scale=1.0,
                children=slices,
            )
        )
    return TopologyNode(
        name="dram",
        level="dram",
        bandwidth_scale=2.0,
        children=tuple(sockets),
    )


def chiplet_machine() -> TopologyNode:
    """Shared-memory topology of a chiplet package over HBM (128 core slots).

    The Occamy shape: two chiplets on fast die-to-die links (2x a mirrored
    channel each), four 8 MB L3 slices of 16 core slots per chiplet, and an
    HBM root supplying 4x one channel.  Deeper and more bandwidth-rich than
    the dual-socket tree, but with smaller per-domain caches — kernels whose
    per-slice footprint fits 8 MB scale almost linearly, footprint-heavy
    ones pay at the slice level instead of the root.
    """
    chiplets = []
    for chiplet in range(2):
        slices = tuple(
            TopologyNode(
                name=f"l3-{chiplet}{index}",
                level="l3",
                capacity_bytes=8 * 1024 * 1024,
                bytes_per_cycle=DEFAULT_L3_BYTES_PER_CYCLE,
                cores=16,
            )
            for index in range(4)
        )
        chiplets.append(
            TopologyNode(
                name=f"chiplet{chiplet}",
                level="interconnect",
                bandwidth_scale=2.0,
                children=slices,
            )
        )
    return TopologyNode(
        name="hbm",
        level="dram",
        bandwidth_scale=4.0,
        children=tuple(chiplets),
    )


#: Registered topology presets, by the names the CLI and experiments use.
TOPOLOGY_PRESETS: Dict[str, Callable[[], TopologyNode]] = {
    "flat": flat_topology,
    "dual-socket": dual_socket_machine,
    "chiplet": chiplet_machine,
}


def get_topology(name: str) -> TopologyNode:
    """Build a registered topology preset by name."""
    factory = TOPOLOGY_PRESETS.get(name)
    if factory is None:
        known = ", ".join(sorted(TOPOLOGY_PRESETS))
        raise ConfigurationError(f"unknown topology {name!r} (known: {known})")
    return factory()
