"""The registered ``autotune`` experiment and its workload axis.

One trial searches one workload's full mapping space
(:func:`repro.planner.autotune.autotune_workload`) and stores the per-mapping
outcomes in its row; the reduce step explodes them into one table row per
mapping so frontier membership, bounds and prune ratios are first-class
columns.  The workloads mirror the ``scaling`` sweep's shapes and machines,
so the persistent signature store warmed by either experiment accelerates
the other.

The per-mapping cycle results flow through the same block-signature
memoization as ``scaling`` (``REPRO_NO_MEMO=1`` disables it); the CI smoke
diffs the two modes' tables to pin that the frontier is bit-identical with
and without the store.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..cpu.params import MachineParams, get_topology
from ..errors import ConfigurationError
from ..experiments.cache import simulation_block_store
from ..experiments.registry import register_experiment, trial_runner
from ..experiments.results import ResultTable
from ..experiments.spec import ExperimentSpec
from ..types import GemmShape, SparsityPattern

AUTOTUNE_SPEC_VERSION = "1"

#: The engine axis: the full VEGETA design-space catalog (the best sparse
#: design with output forwarding, plus its SpGEMM variant) next to the two
#: foreign tile-ISA backends.  Weak designs stay in on purpose — they are
#: what the analytic pre-filter prunes, and what a hand-picked sweep would
#: have silently skipped.
AUTOTUNE_ENGINES = (
    "VEGETA-D-1-1",
    "VEGETA-D-1-2",
    "VEGETA-D-16-1",
    "VEGETA-S-1-2",
    "VEGETA-S-2-2",
    "VEGETA-S-4-2",
    "VEGETA-S-8-2",
    "VEGETA-S-16-2+OF",
    "VEGETA-S-16-2+OF+SPGEMM",
    "AMX-like",
    "SME-like",
)

AUTOTUNE_CORES = (1, 2, 4, 8, 16, 32)
AUTOTUNE_SMOKE_CORES = (1, 2, 4, 8)

#: Mirrors kernels.tiling.PARTITION_STRATEGIES (spelled out: plain data).
AUTOTUNE_STRATEGIES = ("row-block", "column-block", "2d-cyclic")

#: Mirrors cpu.params.TOPOLOGY_PRESETS (spelled out: plain data).
AUTOTUNE_TOPOLOGIES = ("flat", "dual-socket", "chiplet")
AUTOTUNE_SMOKE_TOPOLOGIES = ("flat", "dual-socket")

AUTOTUNE_SMOKE_WORKLOADS = ("sparse-2:4",)


def _autotune_workloads() -> List[Dict[str, Any]]:
    """The workload axis: shapes/machines shared with the scaling sweep.

    Unlike ``scaling``, a workload does not fix a kernel kind — the planner
    picks each engine's best kernel for the weight pattern, so one sparse
    workload compares dense, SPMM and SpGEMM mappings in a single frontier.
    """
    from ..cpu.params import default_machine, memory_bound_machine

    default = default_machine().to_dict()
    membound = memory_bound_machine().to_dict()
    return [
        {
            "name": "gemm-compute",
            "m": 256, "n": 256, "k": 1024,
            "pattern": SparsityPattern.DENSE_4_4.value,
            "machine": default,
        },
        {
            "name": "gemm-membound",
            "m": 256, "n": 256, "k": 512,
            "pattern": SparsityPattern.DENSE_4_4.value,
            "machine": membound,
        },
        {
            "name": "sparse-2:4",
            "m": 256, "n": 256, "k": 1024,
            "pattern": SparsityPattern.SPARSE_2_4.value,
            "machine": default,
        },
        {
            "name": "sparse-1:4",
            "m": 256, "n": 256, "k": 1024,
            "pattern": SparsityPattern.SPARSE_1_4.value,
            "machine": default,
        },
    ]


def autotune_spec(
    *,
    workloads: Optional[Sequence[Dict[str, Any]]] = None,
    engines: Sequence[str] = AUTOTUNE_ENGINES,
    cores: Sequence[int] = AUTOTUNE_CORES,
    strategies: Sequence[str] = AUTOTUNE_STRATEGIES,
    topologies: Sequence[str] = AUTOTUNE_TOPOLOGIES,
) -> ExperimentSpec:
    """The autotune sweep: one trial per workload, axes in the fixed block.

    The search axes live in ``fixed`` (not ``axes``) because one trial
    searches the whole space — splitting candidates across trials would
    defeat the incumbent-based pruning.  Topology names are validated here
    so a bad ``--topology`` fails before any simulation runs.
    """
    for name in topologies:
        get_topology(name)
    return ExperimentSpec(
        name="autotune",
        version=AUTOTUNE_SPEC_VERSION,
        axes={
            "workload": list(workloads) if workloads is not None else _autotune_workloads(),
        },
        fixed={
            "engines": list(engines),
            "cores": [int(count) for count in cores],
            "strategies": list(strategies),
            "topologies": list(topologies),
        },
        columns=(
            "workload",
            "pattern",
            "space_size",
            "candidates",
            "simulated",
            "pruned",
            "prune_ratio",
            "frontier_size",
            "best_engine",
            "best_kernel",
            "best_cores",
            "best_strategy",
            "best_topology",
            "best_cycles",
            "best_traffic_bytes",
            "best_load_imbalance",
            "mappings",
        ),
    )


@trial_runner("autotune")
def run_autotune_trial(params: Dict[str, Any]) -> Dict[str, Any]:
    """Search one workload's mapping space and summarize its frontier."""
    from .autotune import autotune_workload

    workload = params["workload"]
    shape = GemmShape(m=workload["m"], n=workload["n"], k=workload["k"])
    pattern = SparsityPattern(workload["pattern"])
    machine = MachineParams.from_dict(workload["machine"])
    plan = autotune_workload(
        shape,
        pattern,
        machine,
        engines=params["engines"],
        cores=params["cores"],
        strategies=params["strategies"],
        topologies=params["topologies"],
        block_cache=simulation_block_store(),
    )
    best = plan.best
    return {
        "workload": workload["name"],
        "pattern": pattern.value,
        "space_size": plan.space_size,
        "candidates": len(plan.outcomes),
        "simulated": plan.simulated,
        "pruned": plan.pruned,
        "prune_ratio": plan.prune_ratio,
        "frontier_size": len(plan.frontier),
        "best_engine": best.candidate.engine if best else None,
        "best_kernel": best.candidate.kernel if best else None,
        "best_cores": best.candidate.cores if best else None,
        "best_strategy": best.candidate.strategy if best else None,
        "best_topology": best.candidate.topology if best else None,
        "best_cycles": best.cycles if best else None,
        "best_traffic_bytes": best.statics.traffic_bytes if best else None,
        "best_load_imbalance": best.statics.load_imbalance if best else None,
        "mappings": [outcome.as_row() for outcome in plan.outcomes],
    }


#: Columns of the reduced (per-mapping) autotune table.
AUTOTUNE_MAPPING_COLUMNS = (
    "workload",
    "pattern",
    "engine",
    "kernel",
    "executed",
    "cores",
    "strategy",
    "topology",
    "bound_cycles",
    "cycles",
    "traffic_bytes",
    "load_imbalance",
    "fits_private_l2",
    "fits_shared_capacity",
    "roofline_tflops",
    "simulated",
    "on_frontier",
    "best",
    "prune_ratio",
)


def _autotune_reduce(table: ResultTable, options: Dict[str, Any]) -> ResultTable:
    """Explode per-workload trials into one row per mapping candidate."""
    rows: List[Dict[str, Any]] = []
    for trial in table.rows:
        for mapping in trial["mappings"]:
            rows.append(
                {
                    "workload": trial["workload"],
                    "pattern": trial["pattern"],
                    **{
                        column: mapping[column]
                        for column in AUTOTUNE_MAPPING_COLUMNS
                        if column in mapping
                    },
                    "best": (
                        mapping["on_frontier"]
                        and mapping["engine"] == trial["best_engine"]
                        and mapping["kernel"] == trial["best_kernel"]
                        and mapping["cores"] == trial["best_cores"]
                        and mapping["strategy"] == trial["best_strategy"]
                        and mapping["topology"] == trial["best_topology"]
                    ),
                    "prune_ratio": trial["prune_ratio"],
                }
            )
    return ResultTable(AUTOTUNE_MAPPING_COLUMNS, rows)


def _selected_workloads(options: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Resolve the workload axis, honoring --smoke and name filters."""
    workloads = options.get("workloads")
    if workloads is not None:
        return list(workloads)
    workloads = _autotune_workloads()
    names = options.get("workload_names")
    if names is None and options.get("smoke"):
        names = AUTOTUNE_SMOKE_WORKLOADS
    if names is None:
        return workloads
    by_name = {workload["name"]: workload for workload in workloads}
    selected = []
    for name in names:
        if name not in by_name:
            raise ConfigurationError(
                f"unknown autotune workload {name!r}; known: {', '.join(by_name)}"
            )
        selected.append(by_name[name])
    return selected


@register_experiment(
    "autotune",
    "Autotune: Pareto-frontier mapping search with the simulator as oracle",
    reduce=_autotune_reduce,
    cli_options=("smoke", "topology", "cores"),
)
def build_autotune(options: Dict[str, Any]) -> ExperimentSpec:
    smoke = bool(options.get("smoke"))
    return autotune_spec(
        workloads=_selected_workloads(options),
        engines=options.get("engines", AUTOTUNE_ENGINES),
        cores=options.get("cores", AUTOTUNE_SMOKE_CORES if smoke else AUTOTUNE_CORES),
        strategies=options.get("strategies", AUTOTUNE_STRATEGIES),
        topologies=options.get(
            "topologies", AUTOTUNE_SMOKE_TOPOLOGIES if smoke else AUTOTUNE_TOPOLOGIES
        ),
    )
