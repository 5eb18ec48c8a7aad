"""Mapping-space autotuner: search mappings with the simulator as oracle.

For one workload (GEMM shape + weight-sparsity pattern) the planner
enumerates candidate mappings — engine config (which fixes tile geometry and
kernel), core count, partition strategy, topology preset — prunes the space
with a sound analytic pre-filter, scores the survivors with the memoized
multicore simulator, and emits a Pareto frontier over (cycles, traffic,
load imbalance).  Surfaced as the registered ``autotune`` experiment and the
``repro plan`` CLI subcommand.

* :mod:`repro.planner.space` — candidate enumeration and equivalence
  collapsing;
* :mod:`repro.planner.prefilter` — simulation-free statics: exact traffic
  and imbalance, sound cycle lower bounds, and the reported cache-fit and
  roofline columns;
* :mod:`repro.planner.autotune` — the bound-ordered search loop with
  dominance pruning and frontier extraction;
* :mod:`repro.planner.experiment` — the spec-versioned ``autotune``
  experiment (one trial per workload, per-mapping reduce).
"""

from .autotune import (
    MappingOutcome,
    WorkloadPlan,
    autotune_workload,
    dominates,
    pareto_frontier,
)
from .prefilter import MappingStatics, mapping_statics
from .space import MappingCandidate, MappingSpace, enumerate_mappings, select_kernel

__all__ = [
    "MappingCandidate",
    "MappingOutcome",
    "MappingSpace",
    "MappingStatics",
    "WorkloadPlan",
    "autotune_workload",
    "dominates",
    "enumerate_mappings",
    "mapping_statics",
    "pareto_frontier",
    "select_kernel",
]
