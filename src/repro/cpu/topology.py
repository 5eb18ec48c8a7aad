"""Recursive bandwidth topology: cores → L3 slices → sockets → nodes.

The PR 4 multi-core model arbitrated one flat shared-L3/DRAM pool.  Rack-scale
machines are not flat: Occamy runs 432 cores across dual chiplets and dual HBM
stacks, and a dual-socket server puts a private last-level cache and a memory
link on each socket.  This module generalizes the shared-memory system into a
recursive tree of :class:`TopologyNode`\\ s — each node a bandwidth resource
(and optionally a cache) serving every core below it — so NUMA and chiplet
effects land in *cycles*, not just byte counts.

Three pieces:

* **The tree.**  A :class:`TopologyNode` carries a level label (``"l3"``,
  ``"interconnect"``, ``"dram"``, ...), an optional cache capacity, a
  bandwidth supply, and either child nodes or a leaf core-slot count.  Leaf
  nodes are *locality domains*: the cores placed under one leaf share its
  caches and links all the way to the root.

* **Bottom-up traffic resolution** (:func:`resolve_traffic`).  Every line a
  private core simulation sent to DRAM enters the tree at the core's leaf and
  climbs to the root.  A node with capacity absorbs capacity misses (misses
  beyond the core's compulsory footprint) in proportion to how much of its
  *domain's* combined footprint fits — so a socket whose shards share operand
  rows fits more of its working set than one holding scattered shards.
  Compulsory misses always pay the full path.  Every node sees the lines that
  enter it as port traffic, filtered or not.

* **The generalized fluid arbiter** (:func:`arbitrate_topology`).  Each core
  demands bandwidth on every node along its leaf-to-root path at its private
  average rate.  Per time step (bounded by the next core completion), any
  oversubscribed node grants bandwidth proportionally to demand, and a core
  is dilated by the most-congested resource on its path.  With one level and
  flat parameters this is bit-identical to the pre-refactor two-resource
  arbiter — the flat pool is a special case of the recursive model, an
  invariant the test suite pins per kernel and strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from .columnar import distinct_line_count

#: Hard bound on arbiter iterations (a runaway-model backstop; the loop steps
#: from core completion to core completion, so it can only trip on a genuinely
#: broken progress computation — and then the error names the congested
#: resource so the broken demand is attributable).
MAX_ARBITER_STEPS = 1_000_000


@dataclass(frozen=True)
class TopologyNode:
    """One resource of the recursive bandwidth topology.

    A node is either an interior resource (``children`` non-empty) or a leaf
    locality domain (``cores`` > 0); exactly one of the two.  Every node is a
    bandwidth supply on the path from its cores to the root; a node with
    ``capacity_bytes`` additionally acts as a shared cache for its domain.

    Bandwidth resolution order (first set wins):

    * ``bandwidth_gbps`` — a nominal off-chip rate, converted at the
      machine's core frequency,
    * ``bytes_per_cycle`` — an on-chip port width per core cycle,
    * neither — the supply *mirrors* the private simulator's effective DRAM
      line rate (whole-cycle service quantisation included), scaled by
      ``bandwidth_scale``.  Mirroring is what keeps a single core unable to
      oversubscribe any path on any machine: its private demand rate is
      throttled by the same quantised rate the mirror reproduces.
    """

    name: str
    level: str
    capacity_bytes: Optional[int] = None
    bytes_per_cycle: Optional[float] = None
    bandwidth_gbps: Optional[float] = None
    bandwidth_scale: float = 1.0
    children: Tuple["TopologyNode", ...] = ()
    cores: int = 0

    def __post_init__(self) -> None:
        if not self.name or not self.level:
            raise SimulationError("topology nodes need a name and a level label")
        if bool(self.children) == (self.cores > 0):
            raise SimulationError(
                f"topology node {self.name!r} must have either children or "
                f"leaf cores, not both (or neither)"
            )
        if self.cores < 0:
            raise SimulationError(f"{self.name}: core count cannot be negative")
        if self.capacity_bytes is not None and self.capacity_bytes <= 0:
            raise SimulationError(f"{self.name}: cache capacity must be positive")
        if self.bytes_per_cycle is not None and self.bytes_per_cycle <= 0:
            raise SimulationError(f"{self.name}: bytes/cycle must be positive")
        if self.bandwidth_gbps is not None and self.bandwidth_gbps <= 0:
            raise SimulationError(f"{self.name}: bandwidth must be positive")
        if self.bandwidth_scale <= 0:
            raise SimulationError(f"{self.name}: bandwidth scale must be positive")
        names = [node.name for _, node in self.walk()]
        if len(names) != len(set(names)):
            raise SimulationError(
                f"topology rooted at {self.name!r} has duplicate node names"
            )

    # -- structure ----------------------------------------------------------

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, "TopologyNode"]]:
        """Yield ``(path, node)`` pairs in depth-first pre-order.

        The path is the ``/``-joined node names from the root down, e.g.
        ``"dram/socket0/l3-0"``.
        """
        path = f"{prefix}/{self.name}" if prefix else self.name
        yield path, self
        for child in self.children:
            yield from child.walk(path)

    def leaves(self) -> List["TopologyNode"]:
        """Leaf locality domains in depth-first order."""
        return [node for _, node in self.walk() if not node.children]

    @property
    def total_cores(self) -> int:
        """Total leaf core slots of the subtree."""
        return sum(leaf.cores for leaf in self.leaves())

    # -- bandwidth ----------------------------------------------------------

    def lines_per_cycle(self, machine) -> float:
        """This node's supply in cache lines per core cycle.

        Mirrors the supply rules of the pre-topology flat pool exactly, so
        the ``flat`` preset stays bit-identical: a nominal GB/s figure
        converts at the core frequency, an explicit port width divides by
        the line size, and the default mirrors the private simulator's
        whole-cycle DRAM line service rate.
        """
        line_bytes = machine.l1.line_bytes
        if self.bandwidth_gbps is not None:
            bytes_per_cycle = self.bandwidth_gbps / machine.core.frequency_ghz
            return bytes_per_cycle / line_bytes
        if self.bytes_per_cycle is not None:
            return self.bytes_per_cycle / line_bytes
        bytes_per_cycle = max(1.0, machine.memory.dram_bytes_per_core_cycle)
        service_cycles = int(line_bytes / bytes_per_cycle)
        rate = 1.0 / service_cycles if service_cycles > 0 else math.inf
        return rate * self.bandwidth_scale


@dataclass(frozen=True)
class CorePlacement:
    """Where each simulated core landed in the topology.

    ``leaf_index[c]`` is core ``c``'s leaf domain (an index into
    ``topology.leaves()``); ``paths[c]`` its locality path, e.g.
    ``"socket0/l3-0"`` (the root is omitted — it is shared by construction).
    """

    leaf_index: Tuple[int, ...]
    paths: Tuple[str, ...]

    @property
    def cores(self) -> int:
        return len(self.leaf_index)

    def domain_sizes(self) -> List[int]:
        """Number of cores placed on each populated leaf, in leaf order."""
        counts: Dict[int, int] = {}
        for leaf in self.leaf_index:
            counts[leaf] = counts.get(leaf, 0) + 1
        return [counts[leaf] for leaf in sorted(counts)]


def place_cores(topology: TopologyNode, count: int) -> CorePlacement:
    """Distribute ``count`` cores over the topology's leaf domains.

    Cores are placed in *contiguous index bands*, proportionally to each
    leaf's slot count (largest-remainder split, deterministic).  Contiguity is
    the locality contract the sharding layer relies on: partition strategies
    hand contiguous bands of the block grid to contiguous core indices, so
    the cores of one socket/slice end up holding shards that share operand
    rows or columns — which is exactly what the per-domain capacity model
    rewards.  Oversubscription (more cores than slots) keeps the same
    proportional split; the slot counts are weights, not hard limits.
    """
    if count <= 0:
        raise SimulationError("core placement needs at least one core")
    leaves = topology.leaves()
    weights = [leaf.cores for leaf in leaves]
    total = sum(weights)
    paths_by_leaf: List[str] = []
    for path, node in topology.walk():
        if not node.children:
            # Strip the root from the locality path; a one-node path keeps it.
            parts = path.split("/")
            paths_by_leaf.append("/".join(parts[1:]) if len(parts) > 1 else path)
    # Leaf slot boundaries in the cumulative slot space [0, total); core c
    # occupies slot position floor(c * total / count), so cores map to leaves
    # monotonically (contiguous bands), core 0 always lands on the first
    # leaf, and oversubscription packs proportionally.
    slot_end = []
    cumulative = 0
    for weight in weights:
        cumulative += weight
        slot_end.append(cumulative)
    leaf_index: List[int] = []
    paths: List[str] = []
    leaf = 0
    for core in range(count):
        slot = (core * total) // count
        while slot >= slot_end[leaf]:
            leaf += 1
        leaf_index.append(leaf)
        paths.append(paths_by_leaf[leaf])
    return CorePlacement(leaf_index=tuple(leaf_index), paths=tuple(paths))


@dataclass
class TrafficResolution:
    """Per-resource demand after bottom-up capacity filtering.

    ``names``/``levels``/``supplies``/``demands`` are parallel over the
    arbitrated resources (every topology node a placed core routes through):
    ``demands[r][c]`` is the line count core ``c`` pushes through resource
    ``r``.  ``hit_lines[c]`` are the lines absorbed by shared caches on core
    ``c``'s path, and ``root_lines[c]`` the lines that reached the root.
    """

    names: List[str]
    levels: List[str]
    supplies: List[float]
    demands: List[List[int]]
    hit_lines: List[int]
    root_lines: List[int]


def resolve_traffic(
    topology: TopologyNode,
    machine,
    placement: CorePlacement,
    private_dram: Sequence[int],
    footprints: Sequence[np.ndarray],
) -> TrafficResolution:
    """Propagate per-core miss traffic bottom-up through the topology.

    Each core's private DRAM-bound lines enter at its leaf and climb to the
    root.  A node with ``capacity_bytes`` absorbs capacity misses (incoming
    lines beyond the core's compulsory footprint) in proportion to how much
    of its domain's *combined* footprint fits its capacity; what survives
    climbs on.  Pure bandwidth nodes pass traffic through unchanged.  Every
    node records the lines that *entered* it as port demand — a filtered
    line still consumed the port it was filtered at, which is what makes an
    L3 slice a bottleneck even at a 100% hit rate.  Domain footprints are
    counted by :func:`~repro.cpu.columnar.distinct_line_count`, as in the planner.
    """
    cores = len(private_dram)
    if placement.cores != cores or len(footprints) != cores:
        raise SimulationError("placement, traffic and footprint sizes must match")
    line_bytes = machine.l1.line_bytes

    leaves = topology.leaves()
    leaf_nodes = {id(leaf) for leaf in leaves}
    # Cores routed under every node (preorder paths; a core routes through a
    # node iff its leaf is in the node's subtree).
    cores_by_leaf: Dict[int, List[int]] = {}
    for core, leaf in enumerate(placement.leaf_index):
        cores_by_leaf.setdefault(leaf, []).append(core)

    def cores_under(node: TopologyNode) -> List[int]:
        owned: List[int] = []
        for index, leaf in enumerate(leaves):
            if any(candidate is leaf for _, candidate in node.walk()):
                owned.extend(cores_by_leaf.get(index, []))
        return sorted(owned)

    compulsory = [int(footprint.size) for footprint in footprints]
    upward = [int(lines) for lines in private_dram]

    names: List[str] = []
    levels: List[str] = []
    supplies: List[float] = []
    demands: List[List[int]] = []
    hit_lines = [0] * cores

    # Bottom-up: children strictly before parents (post-order).
    def postorder(node: TopologyNode) -> Iterator[TopologyNode]:
        for child in node.children:
            yield from postorder(child)
        yield node

    for node in postorder(topology):
        domain = cores_under(node)
        if not domain:
            continue  # an unpopulated leaf/socket arbitrates nothing
        row = [0] * cores
        for core in domain:
            row[core] = upward[core]
        if node.capacity_bytes is not None:
            combined_bytes = distinct_line_count([footprints[core] for core in domain]) * line_bytes
            fit_fraction = (
                min(1.0, node.capacity_bytes / combined_bytes)
                if combined_bytes
                else 1.0
            )
            for core in domain:
                capacity_misses = max(0, upward[core] - compulsory[core])
                hits = int(capacity_misses * fit_fraction)
                hit_lines[core] += hits
                upward[core] -= hits
        names.append(node.name)
        levels.append(node.level)
        supplies.append(node.lines_per_cycle(machine))
        demands.append(row)

    return TrafficResolution(
        names=names,
        levels=levels,
        supplies=supplies,
        demands=demands,
        hit_lines=hit_lines,
        root_lines=list(upward),
    )


@dataclass
class TopologyArbitrationOutcome:
    """Result of fluid arbitration over an arbitrary resource set."""

    finish_cycles: List[int]
    makespan: int
    contended: bool
    #: Resource names that were oversubscribed during at least one step.
    saturated: List[str]


def arbitrate_topology(
    core_cycles: Sequence[int],
    demands: Sequence[Sequence[float]],
    supplies: Sequence[float],
    names: Sequence[str],
    *,
    max_steps: int = MAX_ARBITER_STEPS,
) -> TopologyArbitrationOutcome:
    """Serialize shared traffic over N resources in bounded time steps.

    The direct generalization of the PR 4 two-resource arbiter: each core
    ``c`` needs ``core_cycles[c]`` cycles of private progress and spreads
    ``demands[r][c]`` lines uniformly over them on every resource ``r`` it
    routes through.  Per step, an oversubscribed resource grants bandwidth
    proportionally to demand, and a core is dilated by the most-congested
    resource it actually demands (its *path bottleneck*); demand rates are
    constant between completions, so each step runs exactly to the next
    core's finish.  With no resource ever oversubscribed every core finishes
    at its private cycle count — bit-identical math to the pre-refactor
    arbiter in the flat two-resource case.
    """
    cores = len(core_cycles)
    resources = len(supplies)
    if len(demands) != resources or len(names) != resources:
        raise SimulationError("per-resource demand/supply/name lists must match")
    for row in demands:
        if len(row) != cores:
            raise SimulationError("per-core traffic vectors must match the core count")
    rates = [
        [
            (row[index] / core_cycles[index] if core_cycles[index] else 0.0)
            for index in range(cores)
        ]
        for row in demands
    ]
    remaining = [float(cycles) for cycles in core_cycles]
    finish = [0.0] * cores
    active = [index for index in range(cores) if remaining[index] > 0]
    wall = 0.0
    contended = False
    saturated: Dict[str, None] = {}
    steps = 0
    while active:
        steps += 1
        throttles = []
        for resource in range(resources):
            demand = sum(rates[resource][index] for index in active)
            throttle = min(1.0, supplies[resource] / demand) if demand > 0 else 1.0
            throttles.append(throttle)
            if throttle < 1.0:
                contended = True
                saturated[names[resource]] = None
        if steps > max_steps:
            worst = min(range(resources), key=lambda r: throttles[r])
            raise SimulationError(
                f"bandwidth arbitration exceeded {max_steps} time steps with "
                f"{len(active)} cores still active; most congested resource: "
                f"{names[worst]!r} (throttle {throttles[worst]:.4g}, supply "
                f"{supplies[worst]:.4g} lines/cycle)"
            )
        factors = {}
        for index in active:
            factor = 1.0
            for resource in range(resources):
                if rates[resource][index] > 0.0:
                    factor = min(factor, throttles[resource])
            factors[index] = factor
        step = min(remaining[index] / factors[index] for index in active)
        wall += step
        still_active = []
        for index in active:
            remaining[index] -= factors[index] * step
            if remaining[index] <= 1e-9:
                remaining[index] = 0.0
                finish[index] = wall
            else:
                still_active.append(index)
        active = still_active
    finish_cycles = [
        int(math.ceil(value - 1e-6)) if value > 0 else 0 for value in finish
    ]
    makespan = max(finish_cycles) if finish_cycles else 0
    return TopologyArbitrationOutcome(
        finish_cycles=finish_cycles,
        makespan=makespan,
        contended=contended,
        saturated=list(saturated),
    )
