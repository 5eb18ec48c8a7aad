"""The mapping-space search: analytic pruning around the simulator oracle.

The search prices every enumerated candidate (:mod:`repro.planner.space`)
from its partition's tile grid
(:func:`repro.kernels.sharding.partition_kernel` and
:mod:`repro.planner.prefilter`), which builds no trace.  It then walks the
candidates in ascending order of their analytic cycle lower bound (ties
broken by exact traffic, exact imbalance, then the candidate identity, so
results are stable across refactors) and simulates each survivor with
:func:`repro.cpu.multicore.simulate_multicore` through the block-signature
store — repeated per-core blocks across candidates are nearly free.  The
shards are built lazily: a candidate's per-core programs
(:func:`~repro.kernels.sharding.shard_kernel`) are built only when the walk
is about to simulate it, once per distinct shard, so a pruned candidate
costs no build.

**Pruning is dominance against the lower bound, and it is sound.**  A
candidate ``c`` is skipped only when some already-simulated incumbent ``b``
satisfies::

    cycles(b) <= bound(c)  and  traffic(b) <= traffic(c)
    and imbalance(b) <= imbalance(c)   with at least one strict

Traffic and imbalance are *exact* statics (they do not depend on the timing
model), and ``bound(c) <= cycles(c)`` by construction, so ``b`` strictly
dominates ``c``'s true objective vector — a pruned candidate can never be a
Pareto-frontier point the simulation would have kept.  The hypothesis suite
pins this by diffing frontiers with pruning on and off over exhaustive small
spaces.  The footprint-fit flags and the roofline estimate take no part in
the walk's order or in pruning; they are only columns of the autotune rows.

The prune ratio reported per workload is ``space_size / simulated`` — how
many cross-product points each simulation paid for, counting the
provably-equivalent points the enumeration collapsed before the walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.runtime import resolve_engine
from ..cpu.multicore import simulate_multicore
from ..cpu.params import MachineParams, get_topology
from ..errors import ConfigurationError
from ..kernels.sharding import KernelPartition, ShardedKernel, partition_kernel, shard_kernel
from ..types import GemmShape, SparsityPattern
from .prefilter import MappingStatics, PartitionStatics, mapping_statics, partition_statics
from .space import MappingCandidate, enumerate_mappings

#: Objective vector: (core cycles, traffic bytes, load imbalance).
Objectives = Tuple[float, float, float]


def dominates(a: Objectives, b: Objectives) -> bool:
    """Strict Pareto dominance: ``a`` at least ties everywhere, beats once."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_frontier(points: Sequence[Objectives]) -> List[int]:
    """Indices of the non-dominated points (ties are all kept)."""
    return [
        index
        for index, point in enumerate(points)
        if not any(
            dominates(other, point)
            for other_index, other in enumerate(points)
            if other_index != index
        )
    ]


@dataclass
class MappingOutcome:
    """One candidate's search outcome."""

    candidate: MappingCandidate
    statics: MappingStatics
    #: Simulated makespan in core cycles; None when the candidate was pruned.
    cycles: Optional[int] = None
    simulated: bool = False
    on_frontier: bool = False

    @property
    def objectives(self) -> Objectives:
        """(cycles, traffic, imbalance); requires a simulated candidate."""
        if self.cycles is None:
            raise ConfigurationError(
                f"candidate {self.candidate} was pruned, not simulated"
            )
        return (
            float(self.cycles),
            float(self.statics.traffic_bytes),
            float(self.statics.load_imbalance),
        )

    def as_row(self) -> Dict[str, Any]:
        """Plain-data form for result tables."""
        return {
            **self.candidate.as_dict(),
            "bound_cycles": self.statics.bound_cycles,
            "traffic_bytes": self.statics.traffic_bytes,
            "load_imbalance": self.statics.load_imbalance,
            "fits_private_l2": self.statics.fits_private_l2,
            "fits_shared_capacity": self.statics.fits_shared_capacity,
            "roofline_tflops": self.statics.roofline_tflops,
            "cycles": self.cycles,
            "simulated": self.simulated,
            "on_frontier": self.on_frontier,
        }


@dataclass
class WorkloadPlan:
    """The autotuner's result for one workload."""

    shape: GemmShape
    pattern: SparsityPattern
    outcomes: List[MappingOutcome] = field(default_factory=list)
    #: Full cross-product size of the searched space.
    space_size: int = 0
    simulated: int = 0
    pruned: int = 0

    @property
    def prune_ratio(self) -> float:
        """Cross-product points paid for per simulation."""
        return self.space_size / self.simulated if self.simulated else float("inf")

    @property
    def frontier(self) -> List[MappingOutcome]:
        """The Pareto-frontier outcomes, in search order."""
        return [outcome for outcome in self.outcomes if outcome.on_frontier]

    @property
    def best(self) -> Optional[MappingOutcome]:
        """The lowest-cycle frontier mapping (ties: traffic, imbalance)."""
        frontier = self.frontier
        if not frontier:
            return None
        return min(
            frontier,
            key=lambda outcome: outcome.objectives + _candidate_order(outcome.candidate),
        )


def _candidate_order(candidate: MappingCandidate) -> Tuple:
    """A total, content-derived order making every tie-break deterministic."""
    return (
        candidate.engine,
        candidate.kernel,
        candidate.cores,
        candidate.strategy,
        candidate.topology,
    )


def autotune_workload(
    shape: GemmShape,
    pattern: SparsityPattern,
    machine: MachineParams,
    *,
    engines: Sequence[str],
    cores: Sequence[int],
    strategies: Sequence[str],
    topologies: Sequence[str],
    prune: bool = True,
    block_cache: Optional[Any] = None,
    memo: Optional[bool] = None,
) -> WorkloadPlan:
    """Search the mapping space of one workload with the simulator as oracle.

    ``prune=False`` simulates every enumerated candidate (the exhaustive
    oracle the soundness tests diff against); everything else — enumeration,
    collapsing, ordering, frontier extraction — is identical, so the two
    modes differ only in which candidates carry cycles.
    """
    resolved_engines = {name: resolve_engine(name) for name in engines}
    space = enumerate_mappings(pattern, resolved_engines, cores, strategies, topologies)
    # Candidate engine names are canonicalized; resolve the survivors too.
    engine_configs = {
        candidate.engine: resolve_engine(candidate.engine)
        for candidate in space.candidates
    }
    topology_nodes = {
        name: get_topology(name)
        for name in {candidate.topology for candidate in space.candidates}
    }

    def shard_key(candidate: MappingCandidate) -> Tuple:
        # The topology enters by preset name: two presets may share a root
        # node name, never a preset name.
        return (
            candidate.kernel,
            engine_configs[candidate.engine].geometry.name,
            candidate.executed,
            candidate.cores,
            candidate.strategy,
            candidate.topology,
        )

    def split(candidate: MappingCandidate, build: Callable[..., Any]) -> Any:
        """``build`` (``partition_kernel`` or ``shard_kernel``) of the
        candidate's kernel, core count, strategy, topology and geometry."""
        return build(
            candidate.kernel,
            shape,
            SparsityPattern(candidate.executed),
            candidate.cores,
            candidate.strategy,
            topology=topology_nodes[candidate.topology],
            geometry=engine_configs[candidate.engine].geometry,
        )

    # Partition statics read no engine: priced once per partition, shared by
    # every engine that runs it.
    partitions: Dict[Tuple, Tuple[KernelPartition, PartitionStatics]] = {}
    statics_memo: Dict[Tuple, MappingStatics] = {}
    outcomes: List[MappingOutcome] = []
    for candidate in space.candidates:
        key = shard_key(candidate)
        statics_key = key + (candidate.engine,)
        statics = statics_memo.get(statics_key)
        if statics is None:
            topology = topology_nodes[candidate.topology]
            if key not in partitions:
                partition = split(candidate, partition_kernel)
                partitions[key] = (partition, partition_statics(partition, machine, topology))
            partition, priced = partitions[key]
            statics = statics_memo[statics_key] = mapping_statics(
                partition, machine, engine_configs[candidate.engine], topology, priced
            )
        outcomes.append(MappingOutcome(candidate=candidate, statics=statics))

    order = sorted(
        range(len(outcomes)),
        key=lambda index: (
            outcomes[index].statics.bound_cycles,
            outcomes[index].statics.traffic_bytes,
            outcomes[index].statics.load_imbalance,
            _candidate_order(outcomes[index].candidate),
        ),
    )

    plan = WorkloadPlan(shape=shape, pattern=pattern, space_size=space.space_size)
    shards: Dict[Tuple, ShardedKernel] = {}
    incumbents: List[MappingOutcome] = []
    for index in order:
        outcome = outcomes[index]
        statics = outcome.statics
        if prune and any(
            incumbent.cycles <= statics.bound_cycles
            and incumbent.statics.traffic_bytes <= statics.traffic_bytes
            and incumbent.statics.load_imbalance <= statics.load_imbalance
            and (
                incumbent.cycles < statics.bound_cycles
                or incumbent.statics.traffic_bytes < statics.traffic_bytes
                or incumbent.statics.load_imbalance < statics.load_imbalance
            )
            for incumbent in incumbents
        ):
            plan.pruned += 1
            continue
        candidate = outcome.candidate
        key = shard_key(candidate)
        sharded = shards.get(key)
        if sharded is None:
            sharded = shards[key] = split(candidate, shard_kernel)
        result = simulate_multicore(
            sharded.programs,
            machine=machine,
            engine=engine_configs[candidate.engine],
            topology=topology_nodes[candidate.topology],
            memo=memo,
            block_cache=block_cache,
        )
        outcome.cycles = result.core_cycles
        outcome.simulated = True
        plan.simulated += 1
        incumbents.append(outcome)

    simulated = [outcome for outcome in outcomes if outcome.simulated]
    for frontier_index in pareto_frontier([o.objectives for o in simulated]):
        simulated[frontier_index].on_frontier = True
    plan.outcomes = [outcomes[index] for index in order]
    return plan
