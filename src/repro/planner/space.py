"""Enumeration of the mapping search space.

A *mapping* is one way to run a workload (GEMM shape + weight-sparsity
pattern) on the simulated machine: an engine from the catalog (which fixes
the tile geometry and, via :meth:`EngineConfig.executable_pattern`, the best
kernel its ISA supports for the pattern), a core count, a partition strategy
and a shared-memory topology preset.  :func:`enumerate_mappings` walks the
full cross product of those axes and collapses the points that are provably
equivalent, so the autotuner never pays a simulation for a mapping whose
result it already owns:

* **SpGEMM unit without an SpGEMM kernel** — the ``+SPGEMM`` stream-merge
  unit only changes the simulation when the ``TILE_SPGEMM`` kernel runs
  (its feed overhead is the only place the flag enters the latency model);
  when the selected kernel is dense GEMM or SPMM, the candidate collapses
  into its suffix-stripped twin.
* **Single-core degeneracy** — with ``cores=1`` every partition strategy
  assigns all block-grid cells to core 0 in row-major order (the unsharded
  builder iteration), and every topology preset is bit-identical to the
  flat pool (a pinned invariant of the multicore arbiter), so the strategy
  and topology axes collapse to their first values.

Collapsed points still count toward the *space size* the prune ratio is
measured against: they are part of the space the autotuner would otherwise
have had to simulate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.engine import EngineConfig
from ..errors import ConfigurationError
from ..types import SparsityPattern


@dataclass(frozen=True)
class MappingCandidate:
    """One point of the mapping space (plain data, hashable, orderable)."""

    #: Canonical engine name (suffix-stripped when the suffix is inert).
    engine: str
    #: Kernel kind the engine runs for the workload pattern.
    kernel: str
    #: Pattern the kernel actually executes (``SparsityPattern.value``).
    executed: str
    cores: int
    strategy: str
    topology: str

    def as_dict(self) -> Dict[str, object]:
        """Plain-data form for result rows."""
        return {
            "engine": self.engine,
            "kernel": self.kernel,
            "executed": self.executed,
            "cores": self.cores,
            "strategy": self.strategy,
            "topology": self.topology,
        }


@dataclass(frozen=True)
class MappingSpace:
    """The enumerated (and collapsed) mapping space of one workload."""

    candidates: Tuple[MappingCandidate, ...]
    #: Full cross-product size: engines x cores x strategies x topologies.
    space_size: int
    #: Points collapsed into a provably-equivalent canonical twin.
    collapsed: int


def select_kernel(
    engine: EngineConfig, pattern: SparsityPattern
) -> Tuple[str, SparsityPattern]:
    """The best kernel the engine's ISA supports for a weight pattern.

    Mirrors the backends experiment: engines with the SpGEMM stream-merge
    unit run the sparse x sparse ``TILE_SPGEMM`` kernel, sparse engines
    without it run ``TILE_SPMM`` on whatever fraction of the pattern they
    can exploit, and dense-only backends fall back to the dense ``TILE_GEMM``
    kernel built for their own tile geometry.
    """
    executed = engine.executable_pattern(pattern)
    if engine.spgemm and executed is not SparsityPattern.DENSE_4_4:
        return "spgemm", executed
    if executed is not SparsityPattern.DENSE_4_4:
        return "spmm", executed
    return "gemm", SparsityPattern.DENSE_4_4


def canonical_engine_name(name: str, kernel: str) -> str:
    """Strip the ``+SPGEMM`` suffix when the kernel cannot exercise it."""
    if kernel != "spgemm":
        return name.replace("+SPGEMM", "")
    return name


def enumerate_mappings(
    pattern: SparsityPattern,
    engines: Dict[str, EngineConfig],
    cores: Sequence[int],
    strategies: Sequence[str],
    topologies: Sequence[str],
) -> MappingSpace:
    """Enumerate the mapping cross product, collapsing equivalent points.

    ``engines`` maps axis names to resolved configurations (resolution is the
    caller's job so one resolve serves every workload).  The axes must be
    non-empty; the workload pattern must be a structured N:4 pattern (the
    row-wise covering path has no sharded kernel builder).
    """
    if pattern is SparsityPattern.ROW_WISE:
        raise ConfigurationError(
            "the planner maps structured N:4 workloads; row-wise covering "
            "has no sharded kernel builder"
        )
    for axis_name, axis in (
        ("engines", engines),
        ("cores", cores),
        ("strategies", strategies),
        ("topologies", topologies),
    ):
        if not axis:
            raise ConfigurationError(f"mapping axis {axis_name!r} must be non-empty")

    candidates: List[MappingCandidate] = []
    seen = set()
    collapsed = 0
    for engine_name, engine in engines.items():
        kernel, executed = select_kernel(engine, pattern)
        canonical = canonical_engine_name(engine_name, kernel)
        for core_count in cores:
            for strategy in strategies:
                for topology in topologies:
                    candidate = MappingCandidate(
                        engine=canonical,
                        kernel=kernel,
                        executed=executed.value,
                        cores=int(core_count),
                        # Single-core degeneracy: every strategy and
                        # topology is bit-identical at cores=1.
                        strategy=strategy if core_count > 1 else strategies[0],
                        topology=topology if core_count > 1 else topologies[0],
                    )
                    if candidate in seen:
                        collapsed += 1
                        continue
                    seen.add(candidate)
                    candidates.append(candidate)
    space_size = len(engines) * len(cores) * len(strategies) * len(topologies)
    return MappingSpace(
        candidates=tuple(candidates), space_size=space_size, collapsed=collapsed
    )
