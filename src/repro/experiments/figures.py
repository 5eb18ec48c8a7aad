"""Built-in experiments: the paper's figure/table sweeps as declarative specs.

Each figure is expressed as an :class:`~repro.experiments.spec.ExperimentSpec`
factory plus a trial runner that executes exactly one point of the sweep.
Each figure is read from its registered experiment alone (Figure 3:
``roofline``, Figure 13: ``fig13``, Figure 14: ``area-power``, Figure 15:
``fig15``, the abstract: ``headline``); the analysis layer holds only the
models the trial runners call.  So every reproduction path — unit tests,
benchmarks, examples and the ``python -m repro`` CLI — shares the same
execution, caching and parallelism machinery.

Spec versions are folded into cache keys; bump them when a runner's
semantics change.  A change to the simulator's timing bumps
``SIMULATOR_MODEL_VERSION`` alone, which every trial key also carries.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from ..analysis.area_power import estimate
from ..analysis.granularity import granularity_speedups
from ..analysis.roofline import (
    DEFAULT_LAYER,
    FIGURE3_ENGINES,
    MEMORY_BANDWIDTH_GBPS,
    effective_throughput_tflops,
)
from ..analysis.runtime import (
    DEFAULT_MAX_OUTPUT_TILES,
    FIGURE13_ENGINE_NAMES,
    resolve_engine,
    simulate_layer,
)
from ..core.engine import catalog
from ..cpu.params import MachineParams
from ..errors import ConfigurationError
from ..types import GemmShape, SparsityPattern
from ..workloads.generator import generate_unstructured, scaled_problem
from ..workloads.layers import WorkloadLayer, all_layers, get_layer
from ..workloads.sweeps import (
    FIGURE13_PATTERNS,
    FIGURE15_SPARSITY_DEGREES,
    SCALING_CORES,
    SCALING_SMOKE_CORES,
    SPGEMM_SWEEP_PATTERNS,
)
from .registry import register_experiment, trial_runner
from .results import ResultTable
from .runner import run_experiment
from .spec import ExperimentSpec

#: v2: untruncated traces by default + steady-state fast-path simulator with
#: ideal-prefetch L2 semantics (cycle counts changed for big layers).
FIG13_SPEC_VERSION = "2"
FIG15_SPEC_VERSION = "1"
ROOFLINE_SPEC_VERSION = "1"
AREA_POWER_SPEC_VERSION = "1"
#: v1: initial sparse x sparse sweep (TILE_SPGEMM_U/V, stream-merge feed
#: latency model).  Bump whenever the SpGEMM kernel encoding or the
#: validation semantics change.
#: v2: L1-set-span-padded SpGEMM layouts, issue-aligned blocks and per-op
#: data-dependent feed overhead (cycle counts changed).
SPGEMM_SPEC_VERSION = "2"
#: v1: initial multi-core tile-grid sharding sweep.  Bump whenever the
#: partitioner, the shared-L3/DRAM arbiter model, or the workload machine
#: definitions (incl. ``memory_bound_machine``) change semantics.
#: v2: the SpGEMM workloads inherit the padded layouts / aligned blocks /
#: data-dependent feed overhead of the rebuilt SpGEMM kernel.
SCALING_SPEC_VERSION = "3"
#: v1: initial cross-ISA backend comparison (geometry-parameterised engines).
#: Bump whenever the backend kernel-selection rules or the foreign-geometry
#: latency model change semantics.
BACKENDS_SPEC_VERSION = "1"

#: Headline comparison of the abstract (RASA-DM vs best VEGETA-S design).
HEADLINE_BASELINE = "VEGETA-D-1-2"
HEADLINE_TARGET = "VEGETA-S-16-2+OF"

#: Paper values the headline experiment reports alongside the measurements.
HEADLINE_PAPER_VALUES = {"4:4": 1.09, "2:4": 2.20, "1:4": 3.74, "unstructured-95%": 3.28}


def _layer_names(layers: Optional[Sequence[Union[str, WorkloadLayer]]]) -> List[str]:
    chosen = list(layers) if layers is not None else all_layers()
    return [layer if isinstance(layer, str) else layer.name for layer in chosen]


def _limited_layers(options: Dict[str, Any]) -> List[str]:
    names = [layer.name for layer in all_layers()]
    max_layers = options.get("max_layers")
    if max_layers is not None:
        if int(max_layers) < 1:
            raise ConfigurationError("max_layers must be >= 1")
        names = names[: int(max_layers)]
    return names


def _checked_max_output_tiles(max_output_tiles: Optional[int]) -> Optional[int]:
    """Reject a truncation that would trace no output tile at all."""
    if max_output_tiles is not None and int(max_output_tiles) < 1:
        raise ConfigurationError(
            f"max_output_tiles must be >= 1, got {max_output_tiles}"
        )
    return max_output_tiles


# -- Figure 13: layer runtimes across engines and sparsity patterns ----------


def figure13_spec(
    *,
    layers: Optional[Sequence[Union[str, WorkloadLayer]]] = None,
    engine_names: Sequence[str] = FIGURE13_ENGINE_NAMES,
    patterns: Sequence[SparsityPattern] = FIGURE13_PATTERNS,
    machine: Optional[MachineParams] = None,
    max_output_tiles: Optional[int] = DEFAULT_MAX_OUTPUT_TILES,
) -> ExperimentSpec:
    """The Figure 13 sweep: layers x patterns x engines."""
    from ..cpu.params import default_machine

    # Resolve the default machine *now* so the cache key always covers the
    # actual machine description: with a literal None in the key, editing
    # default_machine() would keep serving stale cached rows.
    resolved_machine = machine if machine is not None else default_machine()
    return ExperimentSpec(
        name="fig13",
        version=FIG13_SPEC_VERSION,
        axes={
            "layer": _layer_names(layers),
            "pattern": [pattern.value for pattern in patterns],
            "engine": list(engine_names),
        },
        fixed={
            "machine": resolved_machine.to_dict(),
            "max_output_tiles": _checked_max_output_tiles(max_output_tiles),
        },
        columns=(
            "layer",
            "pattern",
            "engine",
            "core_cycles_scaled",
            "simulated_fraction",
            "core_cycles",
            "core_frequency_ghz",
            "runtime_seconds",
        ),
    )


@trial_runner("fig13")
def run_fig13_trial(params: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate one (layer, pattern, engine) point of Figure 13."""
    layer = get_layer(params["layer"])
    pattern = SparsityPattern(params["pattern"])
    engine = resolve_engine(params["engine"])
    machine = (
        MachineParams.from_dict(params["machine"]) if params.get("machine") else None
    )
    runtime = simulate_layer(
        layer,
        pattern,
        engine,
        machine=machine,
        max_output_tiles=params["max_output_tiles"],
    )
    return {
        "layer": runtime.layer,
        "pattern": runtime.pattern.value,
        "engine": runtime.engine,
        "core_cycles_scaled": runtime.core_cycles_scaled,
        "simulated_fraction": runtime.simulated_fraction,
        "core_cycles": runtime.result.core_cycles,
        "core_frequency_ghz": runtime.result.machine.core.frequency_ghz,
        "runtime_seconds": runtime.runtime_seconds,
    }


@register_experiment(
    "fig13",
    "Figure 13: normalized layer runtimes across engines and sparsity patterns",
    cli_options=("max-layers", "max-output-tiles"),
)
def build_fig13(options: Dict[str, Any]) -> ExperimentSpec:
    return figure13_spec(
        layers=_limited_layers(options),
        max_output_tiles=options.get("max_output_tiles", DEFAULT_MAX_OUTPUT_TILES),
    )


# -- Figure 15: granularity speed-ups on unstructured sparsity ---------------


def figure15_spec(
    degrees: Sequence[float],
    *,
    layers: Optional[Sequence[Union[str, WorkloadLayer]]] = None,
    seed: int = 0,
    max_weight_elements: int = 1 << 18,
) -> ExperimentSpec:
    """The Figure 15 sweep: sparsity degrees x workload layers.

    Each layer carries its own generator seed (``seed + position``), so a
    layer's sampled matrix depends only on the seed and its position.
    """
    names = _layer_names(layers)
    return ExperimentSpec(
        name="fig15",
        version=FIG15_SPEC_VERSION,
        axes={
            "degree": [float(degree) for degree in degrees],
            "layer": [
                {"name": name, "seed": seed + index}
                for index, name in enumerate(names)
            ],
        },
        fixed={"max_weight_elements": max_weight_elements},
        columns=(
            "degree",
            "layer",
            "dense",
            "layer_wise",
            "tile_wise",
            "pseudo_row_wise",
            "row_wise",
            "unstructured",
        ),
    )


@trial_runner("fig15")
def run_fig15_trial(params: Dict[str, Any]) -> Dict[str, Any]:
    """Granularity speed-ups of one layer's weights at one sparsity degree."""
    layer = get_layer(params["layer"]["name"])
    shape = scaled_problem(layer.gemm, max_elements=params["max_weight_elements"])
    operands = generate_unstructured(shape, params["degree"], seed=params["layer"]["seed"])
    speedups = granularity_speedups(operands.a)
    return {"degree": params["degree"], "layer": layer.name, **speedups}


@register_experiment(
    "fig15",
    "Figure 15: speed-up vs unstructured sparsity degree per hardware granularity",
    cli_options=("max-layers", "seed"),
)
def build_fig15(options: Dict[str, Any]) -> ExperimentSpec:
    return figure15_spec(
        options.get("degrees", FIGURE15_SPARSITY_DEGREES),
        layers=_limited_layers(options),
        seed=options.get("seed", 0),
        max_weight_elements=options.get("max_weight_elements", 1 << 18),
    )


# -- Figure 3: roofline throughput vs weight density -------------------------


def figure3_spec(
    densities: Sequence[float],
    *,
    shape: GemmShape = DEFAULT_LAYER,
    bandwidth_gbps: float = MEMORY_BANDWIDTH_GBPS,
) -> ExperimentSpec:
    """The Figure 3 sweep: engine classes x weight densities."""
    return ExperimentSpec(
        name="roofline",
        version=ROOFLINE_SPEC_VERSION,
        axes={
            "engine": list(FIGURE3_ENGINES),
            "density": [float(density) for density in densities],
        },
        fixed={
            "shape": [shape.m, shape.n, shape.k],
            "bandwidth_gbps": bandwidth_gbps,
        },
        columns=("engine", "density", "density_percent", "effective_tflops"),
    )


@trial_runner("roofline")
def run_roofline_trial(params: Dict[str, Any]) -> Dict[str, Any]:
    """Effective throughput of one engine class at one weight density."""
    engine = FIGURE3_ENGINES[params["engine"]]
    m, n, k = params["shape"]
    tflops = effective_throughput_tflops(
        engine,
        params["density"],
        shape=GemmShape(m=m, n=n, k=k),
        bandwidth_gbps=params["bandwidth_gbps"],
    )
    return {
        "engine": params["engine"],
        "density": params["density"],
        "density_percent": params["density"] * 100,
        "effective_tflops": tflops,
    }


@register_experiment(
    "roofline",
    "Figure 3: effective throughput of dense/sparse vector/matrix engines",
)
def build_roofline(options: Dict[str, Any]) -> ExperimentSpec:
    densities = options.get("densities", [d / 100 for d in range(2, 101, 2)])
    return figure3_spec(densities)


# -- Figure 14: area / power / frequency per engine design point -------------


def figure14_spec(names: Optional[Sequence[str]] = None) -> ExperimentSpec:
    """The Figure 14 sweep: one trial per Table III engine design point.

    The foreign AMX-like/SME-like backends are excluded: Figure 14 covers
    the paper's own design-space sweep, and the analytical cost model is
    calibrated against the VEGETA synthesis numbers.
    """
    if names is None:
        names = [name for name in catalog() if name.startswith("VEGETA")]
    return ExperimentSpec(
        name="area-power",
        version=AREA_POWER_SPEC_VERSION,
        axes={"engine": list(names)},
        columns=(
            "engine",
            "area",
            "power",
            "frequency_ghz",
            "area_normalized",
            "power_normalized",
            "meets_target_frequency",
        ),
    )


@trial_runner("area-power")
def run_area_power_trial(params: Dict[str, Any]) -> Dict[str, Any]:
    """Analytical cost estimate of one engine design point."""
    cost = estimate(resolve_engine(params["engine"]))
    return {
        "engine": cost.name,
        "area": cost.area,
        "power": cost.power,
        "frequency_ghz": cost.frequency_ghz,
        "area_normalized": cost.area_normalized,
        "power_normalized": cost.power_normalized,
        "meets_target_frequency": cost.meets_target_frequency,
    }


@register_experiment(
    "area-power",
    "Figure 14: normalized area/power and maximum frequency per engine",
)
def build_area_power(options: Dict[str, Any]) -> ExperimentSpec:
    return figure14_spec()


# -- SpGEMM: sparse x sparse tile kernels vs dense / sparse x dense ----------

#: Engine running the SpGEMM sweep: the best VEGETA-S design with output
#: forwarding plus the dual-operand stream-merge unit.
SPGEMM_ENGINE = "VEGETA-S-16-2+OF+SPGEMM"

#: (m, n, k, validate) points of the SpGEMM sweep.  The validated shapes run
#: the exact simulator and the functional model against the scipy/numpy
#: sparse reference product on every trial; the large shape exercises the
#: fast path's steady-state skip at scale.
SPGEMM_SWEEP_SHAPES = (
    (64, 64, 256, True),
    (128, 128, 512, True),
    (512, 512, 2048, False),
)

#: The shapes the ``--smoke`` CLI flag restricts the sweep to.
SPGEMM_SMOKE_SHAPES = ((64, 64, 256, True),)


def spgemm_spec(
    *,
    shapes: Sequence[Sequence[Any]] = SPGEMM_SWEEP_SHAPES,
    patterns: Sequence[SparsityPattern] = SPGEMM_SWEEP_PATTERNS,
    engine_name: str = SPGEMM_ENGINE,
    machine: Optional[MachineParams] = None,
    seed: int = 0,
    max_output_tiles: Optional[int] = None,
) -> ExperimentSpec:
    """The SpGEMM sweep: shapes x A patterns x B patterns."""
    from ..cpu.params import default_machine

    resolved_machine = machine if machine is not None else default_machine()
    return ExperimentSpec(
        name="spgemm",
        version=SPGEMM_SPEC_VERSION,
        axes={
            "shape": [
                {"m": int(m), "n": int(n), "k": int(k), "validate": bool(validate)}
                for m, n, k, validate in shapes
            ],
            "pattern_a": [pattern.value for pattern in patterns],
            "pattern_b": [pattern.value for pattern in patterns],
        },
        fixed={
            "engine": engine_name,
            "machine": resolved_machine.to_dict(),
            "seed": seed,
            "max_output_tiles": _checked_max_output_tiles(max_output_tiles),
        },
        columns=(
            "m",
            "n",
            "k",
            "pattern_a",
            "pattern_b",
            "joint_pattern",
            "engine",
            "spgemm_cycles",
            "dense_cycles",
            "spmm_cycles",
            "speedup_vs_dense",
            "speedup_vs_spmm",
            "spgemm_traffic_bytes",
            "spmm_traffic_bytes",
            "traffic_vs_spmm",
            "simulated_fraction",
            "validated",
            "exact_cycles",
            "exact_match",
            "functional_match",
            "max_abs_error",
        ),
    )


@trial_runner("spgemm")
def run_spgemm_trial(params: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate one (shape, A pattern, B pattern) point of the SpGEMM sweep.

    Every trial reports the fast-path cycle count of the SpGEMM kernel plus
    the dense ``TILE_GEMM`` and sparse x dense ``TILE_SPMM`` baselines on the
    same engine.  Validated shapes additionally (a) re-run the SpGEMM trace
    through the exact event-driven simulator and record whether the cycle
    counts match bit-for-bit, and (b) execute the kernel functionally and
    compare the C matrix with a ``scipy.sparse``/NumPy reference product.

    ``max_output_tiles`` truncates all three kernels; their block
    granularities differ (the dense kernel interleaves 2x2 output-tile
    blocks, the sparse kernels 2x1), so each kernel's cycles and traffic are
    scaled by its *own* covered fraction before the speedup/traffic ratios
    are formed.  Functional validation needs the full C matrix, so it only
    runs on untruncated traces — the exact-vs-fast check (on the raw
    truncated cycle counts) still runs.

    All kernels simulate through :func:`~repro.cpu.simulator.simulate_shared`.
    A validated shape's SpGEMM kernel carries operand data and so skips the
    build memo: its trace is fresh, and ``exact_match`` compares two real
    simulations.
    """
    from ..cpu.simulator import simulate_shared
    from ..kernels.memo import build_kernel
    from ..kernels.spgemm import spgemm_joint_pattern
    from ..kernels.validate import validate_spgemm_kernel
    from ..workloads.generator import generate_dual_sparse

    shape_params = params["shape"]
    shape = GemmShape(
        m=shape_params["m"], n=shape_params["n"], k=shape_params["k"]
    )
    validate = bool(shape_params["validate"])
    pattern_a = SparsityPattern(params["pattern_a"])
    pattern_b = SparsityPattern(params["pattern_b"])
    joint = spgemm_joint_pattern(pattern_a, pattern_b)
    engine = resolve_engine(params["engine"])
    machine = MachineParams.from_dict(params["machine"])
    max_output_tiles = params.get("max_output_tiles")

    def simulate(program, mode="fast"):
        return simulate_shared(program.trace, machine=machine, engine=engine, mode=mode)

    operands = (
        generate_dual_sparse(shape, pattern_a, pattern_b, seed=params["seed"])
        if validate
        else None
    )
    program = build_kernel(
        "spgemm",
        shape,
        joint,
        a=operands.a if operands is not None else None,
        b=operands.b if operands is not None else None,
        max_output_tiles=max_output_tiles,
    )
    fast = simulate(program)

    dense_program = build_kernel("gemm", shape, max_output_tiles=max_output_tiles)
    dense = simulate(dense_program)
    # Sparse x dense baseline: the engine exploits A's pattern, streams B dense.
    spmm_program = build_kernel(
        "spmm", shape, engine.executable_pattern(pattern_a), max_output_tiles=max_output_tiles
    )
    spmm = simulate(spmm_program)

    # Per-kernel coverage-scaled values: the builders truncate at different
    # block granularities, so ratios must compare whole-problem estimates.
    spgemm_scaled = fast.core_cycles / program.simulated_fraction
    dense_scaled = dense.core_cycles / dense_program.simulated_fraction
    spmm_scaled = spmm.core_cycles / spmm_program.simulated_fraction
    spgemm_traffic = (
        fast.trace_summary.memory_bytes / program.simulated_fraction
    )
    spmm_traffic = (
        spmm.trace_summary.memory_bytes / spmm_program.simulated_fraction
    )
    row: Dict[str, Any] = {
        "m": shape.m,
        "n": shape.n,
        "k": shape.k,
        "pattern_a": pattern_a.value,
        "pattern_b": pattern_b.value,
        "joint_pattern": joint.value,
        "engine": engine.name,
        "spgemm_cycles": fast.core_cycles,
        "dense_cycles": dense.core_cycles,
        "spmm_cycles": spmm.core_cycles,
        "speedup_vs_dense": dense_scaled / spgemm_scaled,
        "speedup_vs_spmm": spmm_scaled / spgemm_scaled,
        # With the evaluation's ideal-prefetch L2 the SpGEMM path pays the
        # stream-merge feed latency; its structural win over sparse x dense
        # is the compressed B operand, visible as trace memory traffic.
        "spgemm_traffic_bytes": fast.trace_summary.memory_bytes,
        "spmm_traffic_bytes": spmm.trace_summary.memory_bytes,
        "traffic_vs_spmm": spgemm_traffic / spmm_traffic,
        "simulated_fraction": program.simulated_fraction,
        "validated": validate,
        "exact_cycles": None,
        "exact_match": None,
        "functional_match": None,
        "max_abs_error": None,
    }
    if validate:
        exact = simulate(program, mode="exact")
        row.update(
            exact_cycles=exact.core_cycles,
            exact_match=fast.core_cycles == exact.core_cycles,
        )
        if program.simulated_fraction == 1.0:
            matches, error = validate_spgemm_kernel(program, operands.a, operands.b)
            row.update(functional_match=matches, max_abs_error=error)
    return row


@register_experiment(
    "spgemm",
    "SpGEMM: sparse x sparse tile kernels vs the dense and sparse x dense paths",
    cli_options=("smoke", "max-output-tiles", "seed"),
)
def build_spgemm(options: Dict[str, Any]) -> ExperimentSpec:
    from ..cpu.params import memory_bound_machine

    shapes = SPGEMM_SMOKE_SHAPES if options.get("smoke") else SPGEMM_SWEEP_SHAPES
    return spgemm_spec(
        shapes=options.get("shapes", shapes),
        engine_name=options.get("engine", SPGEMM_ENGINE),
        # The memory-bound study (ROADMAP): on the bandwidth-starved machine
        # the compressed-B traffic win (traffic_vs_spmm < 1) becomes a cycle
        # win (speedup_vs_spmm > 1), pinned by the regression tests.
        machine=memory_bound_machine() if options.get("membound") else None,
        seed=options.get("seed", 0),
        max_output_tiles=options.get("max_output_tiles"),
    )


# -- Scaling: multi-core tile-grid sharding under shared-memory contention ---

#: Engine running the scaling sweep (capable of every kernel kind).
SCALING_ENGINE = "VEGETA-S-16-2+OF+SPGEMM"

#: Partition strategies swept (mirrors kernels.tiling.PARTITION_STRATEGIES;
#: spelled out so the spec stays plain data).
SCALING_STRATEGIES = ("row-block", "column-block", "2d-cyclic")

#: The strategies the ``--smoke`` CLI flag restricts the sweep to.
SCALING_SMOKE_STRATEGIES = ("row-block",)

#: Shared-memory topology presets swept (mirrors cpu.params.TOPOLOGY_PRESETS;
#: spelled out so the spec stays plain data).  ``"flat"`` is the single-pool
#: preset and is bit-identical to the pre-topology sweep.
SCALING_TOPOLOGIES = ("flat", "dual-socket", "chiplet")

#: The topologies the ``--smoke`` CLI flag restricts the sweep to (CI smokes
#: the NUMA path on every push).
SCALING_SMOKE_TOPOLOGIES = ("flat", "dual-socket")


def _scaling_workloads() -> List[Dict[str, Any]]:
    """The workload axis of the scaling sweep, machines resolved inline.

    ``gemm-compute`` runs on the paper's default machine (ideal L2 prefetch:
    essentially no shared-memory traffic, so sharding should scale near
    linearly up to the partition's block-grid limits), while
    ``gemm-membound`` runs on :func:`~repro.cpu.params.memory_bound_machine`
    (every core streams its operands from a 12 GB/s shared channel, so the
    arbiter caps throughput no matter how many cores are added).  The sparse
    kernels run compute-bound, showing the same scaling as the dense path at
    a lower absolute cycle count.
    """
    from ..cpu.params import default_machine, memory_bound_machine

    default = default_machine().to_dict()
    membound = memory_bound_machine().to_dict()
    return [
        {
            "name": "gemm-compute",
            "kind": "gemm",
            "m": 256, "n": 256, "k": 1024,
            "pattern": SparsityPattern.DENSE_4_4.value,
            "machine": default,
        },
        {
            "name": "gemm-membound",
            "kind": "gemm",
            "m": 256, "n": 256, "k": 512,
            "pattern": SparsityPattern.DENSE_4_4.value,
            "machine": membound,
        },
        {
            "name": "spmm-2:4",
            "kind": "spmm",
            "m": 256, "n": 256, "k": 1024,
            "pattern": SparsityPattern.SPARSE_2_4.value,
            "machine": default,
        },
        {
            "name": "spgemm-2:4",
            "kind": "spgemm",
            "m": 256, "n": 256, "k": 1024,
            "pattern": SparsityPattern.SPARSE_2_4.value,
            "machine": default,
        },
    ]


def scaling_spec(
    *,
    workloads: Optional[Sequence[Dict[str, Any]]] = None,
    cores: Sequence[int] = SCALING_CORES,
    strategies: Sequence[str] = SCALING_STRATEGIES,
    topologies: Sequence[str] = SCALING_TOPOLOGIES,
    engine_name: str = SCALING_ENGINE,
) -> ExperimentSpec:
    """The scaling sweep: workloads x cores x strategies x topologies.

    The topology axis carries preset *names*, ``"flat"`` included (resolved
    by the trial runner via :func:`repro.cpu.params.get_topology`), so the
    spec stays plain data.
    """
    return ExperimentSpec(
        name="scaling",
        version=SCALING_SPEC_VERSION,
        axes={
            "workload": list(workloads) if workloads is not None else _scaling_workloads(),
            "cores": [int(count) for count in cores],
            "strategy": list(strategies),
            "topology": list(topologies),
        },
        fixed={"engine": engine_name},
        columns=(
            "workload",
            "kind",
            "cores",
            "strategy",
            "core_cycles",
            "single_core_cycles",
            "speedup",
            "efficiency",
            "load_imbalance",
            "bandwidth_utilization",
            "contended",
            "idle_cores",
            "single_core_match",
            # Topology-axis columns (appended so flat rows stay column-stable
            # against pre-topology tables).
            "topology",
            "numa_penalty",
            "l3_utilization",
            "interconnect_utilization",
            "dram_utilization",
        ),
    )


def _scaling_baseline_cycles(
    workload: Dict[str, Any], engine_name: str, block_cache: Any
) -> int:
    """Cycles of the unsharded single-core kernel for one scaling workload.

    The simulation memo serves the baseline after a workload's first trial.
    """
    from ..cpu.multicore import simulate_program_cached
    from ..kernels.sharding import shard_kernel

    shape = GemmShape(m=workload["m"], n=workload["n"], k=workload["k"])
    program = shard_kernel(
        workload["kind"], shape, SparsityPattern(workload["pattern"]), 1
    ).programs[0]
    return simulate_program_cached(
        program,
        machine=MachineParams.from_dict(workload["machine"]),
        engine=resolve_engine(engine_name),
        block_cache=block_cache,
    ).core_cycles


@trial_runner("scaling")
def run_scaling_trial(params: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate one (workload, cores, strategy, topology) sweep point.

    The kernel's block grid is partitioned with the trial's strategy (made
    hierarchy-aware by the trial's topology: cores are placed on its leaf
    locality domains and the 2D-cyclic process grid aligns to them), the
    per-core programs run the private fast-path simulator deduplicated by
    block-signature memoization (one simulation per signature class, with
    the persistent store making equal classes recur for free across trials
    and sweeps; ``REPRO_NO_MEMO=1`` disables it, bit-identically), and the
    recursive-topology arbiter converts cross-core miss traffic into the
    makespan the speed-up is computed from.  Because the memo key is
    topology-independent, the topology axis re-uses every per-core
    simulation of the other topologies' trials — only placement, cache
    filtering and arbitration re-run.

    Every trial also simulates the unsharded single-core kernel as its own
    baseline; for ``cores == 1`` the row records whether the sharded
    makespan matched it bit-for-bit (an invariant pinned under every
    topology preset).  Non-flat trials additionally re-arbitrate their own
    per-core results under the flat pool: ``numa_penalty`` is the cycle
    ratio topology/flat on identical per-core programs, isolating what the
    deeper memory system costs (or, with more aggregate bandwidth, wins —
    values below 1.0).  The per-level utilization columns aggregate each
    level's port demand over the makespan; a level absent from the trial's
    topology reports None.
    """
    from ..cpu.multicore import arbitrate_cores, simulate_multicore
    from ..cpu.params import flat_topology, get_topology
    from ..kernels.sharding import shard_kernel
    from .cache import simulation_block_store

    workload = params["workload"]
    cores = int(params["cores"])
    strategy = params["strategy"]
    topology_name = params.get("topology", "flat")
    shape = GemmShape(m=workload["m"], n=workload["n"], k=workload["k"])
    pattern = SparsityPattern(workload["pattern"])
    machine = MachineParams.from_dict(workload["machine"])
    engine = resolve_engine(params["engine"])
    topology = get_topology(topology_name)
    block_store = simulation_block_store()

    sharded = shard_kernel(
        workload["kind"], shape, pattern, cores, strategy, topology=topology
    )
    result = simulate_multicore(
        sharded.programs,
        machine=machine,
        engine=engine,
        topology=topology,
        block_cache=block_store,
    )
    single_cycles = _scaling_baseline_cycles(workload, params["engine"], block_store)
    speedup = result.speedup_over(single_cycles)
    if topology_name == "flat":
        numa_penalty = 1.0
    else:
        flat_result = arbitrate_cores(
            sharded.programs,
            result.per_core,
            machine=machine,
            engine=engine,
            topology=flat_topology(),
        )
        numa_penalty = (
            result.core_cycles / flat_result.core_cycles
            if flat_result.core_cycles
            else 1.0
        )

    return {
        "workload": workload["name"],
        "kind": workload["kind"],
        "cores": cores,
        "strategy": strategy,
        "core_cycles": result.core_cycles,
        "single_core_cycles": single_cycles,
        "speedup": speedup,
        "efficiency": speedup / cores,
        "load_imbalance": result.load_imbalance,
        "bandwidth_utilization": result.bandwidth_utilization,
        "contended": result.contended,
        "idle_cores": sum(1 for count in sharded.tiles_per_core if count == 0),
        "single_core_match": (
            result.core_cycles == single_cycles if cores == 1 else None
        ),
        "topology": topology_name,
        "numa_penalty": numa_penalty,
        "l3_utilization": result.level_utilization.get("l3"),
        "interconnect_utilization": result.level_utilization.get("interconnect"),
        "dram_utilization": result.level_utilization.get("dram"),
    }


@register_experiment(
    "scaling",
    "Multi-core scaling: sharded tile grids under recursive-topology contention",
    cli_options=("smoke", "topology", "cores"),
)
def build_scaling(options: Dict[str, Any]) -> ExperimentSpec:
    smoke = bool(options.get("smoke"))
    return scaling_spec(
        workloads=options.get("workloads"),
        cores=options.get(
            "cores", SCALING_SMOKE_CORES if smoke else SCALING_CORES
        ),
        strategies=options.get(
            "strategies", SCALING_SMOKE_STRATEGIES if smoke else SCALING_STRATEGIES
        ),
        topologies=options.get(
            "topologies", SCALING_SMOKE_TOPOLOGIES if smoke else SCALING_TOPOLOGIES
        ),
        engine_name=options.get("engine", SCALING_ENGINE),
    )


# -- Backends: VEGETA vs AMX-like and SME-like tile geometries ---------------

#: Engines compared by the ``backends`` sweep, in plot order: the paper's best
#: sparse design (with and without the SpGEMM unit) next to the two foreign
#: tile-ISA backends modelled through the flexible :class:`TileGeometry`.
BACKENDS_ENGINE_NAMES = (
    "VEGETA-S-16-2+OF",
    "VEGETA-S-16-2+OF+SPGEMM",
    "AMX-like",
    "SME-like",
)

#: Baseline for the reduced ``speedup_vs_baseline`` column: the dense
#: AMX-like backend, i.e. "how much does each ISA buy over a plain dense
#: tile extension on the same workload".
BACKENDS_BASELINE = "AMX-like"

#: Weight-sparsity patterns swept per layer.
BACKENDS_PATTERNS = (
    SparsityPattern.DENSE_4_4,
    SparsityPattern.SPARSE_2_4,
    SparsityPattern.SPARSE_1_4,
)

#: Table IV layers whose GEMM shapes tile evenly under *every* swept
#: geometry (the SME-like 32-row / 32-column tiles exclude the layers with
#: n = 784 / 196, which are not multiples of 32).
BACKENDS_LAYERS = (
    "ResNet50-L1",
    "ResNet50-L2",
    "ResNet50-L3",
    "BERT-L1",
    "BERT-L2",
    "BERT-L3",
    "GPT-L1",
    "GPT-L2",
    "GPT-L3",
)

#: The layers / patterns the ``--smoke`` CLI flag restricts the sweep to.
BACKENDS_SMOKE_LAYERS = ("ResNet50-L1", "GPT-L1")
BACKENDS_SMOKE_PATTERNS = (SparsityPattern.DENSE_4_4, SparsityPattern.SPARSE_2_4)


def backends_spec(
    *,
    layers: Sequence[str] = BACKENDS_LAYERS,
    engine_names: Sequence[str] = BACKENDS_ENGINE_NAMES,
    patterns: Sequence[SparsityPattern] = BACKENDS_PATTERNS,
    machine: Optional[MachineParams] = None,
    max_output_tiles: Optional[int] = None,
) -> ExperimentSpec:
    """The backends sweep: layers x patterns x tile-ISA backends."""
    from ..cpu.params import default_machine

    resolved_machine = machine if machine is not None else default_machine()
    return ExperimentSpec(
        name="backends",
        version=BACKENDS_SPEC_VERSION,
        axes={
            "layer": list(layers),
            "pattern": [pattern.value for pattern in patterns],
            "engine": list(engine_names),
        },
        fixed={
            "machine": resolved_machine.to_dict(),
            "max_output_tiles": _checked_max_output_tiles(max_output_tiles),
        },
        columns=(
            "layer",
            "pattern",
            "engine",
            "geometry",
            "kernel",
            "core_cycles_scaled",
            "traffic_bytes_scaled",
            "utilization",
            "simulated_fraction",
        ),
    )


@trial_runner("backends")
def run_backends_trial(params: Dict[str, Any]) -> Dict[str, Any]:
    """Simulate one (layer, pattern, engine) point of the backends sweep.

    Each engine runs the best kernel its ISA supports for the layer's weight
    pattern (:func:`~repro.planner.space.select_kernel`), built for the
    engine's tile geometry:

    * engines with the SpGEMM stream-merge unit run the sparse x sparse
      ``TILE_SPGEMM`` kernel (modelling the dual-sparse deployment where the
      activations are pruned to the weight pattern, so its traffic also
      reflects the compressed B operand);
    * sparse engines without it run the sparse x dense ``TILE_SPMM`` kernel
      on whatever fraction of the pattern they can exploit
      (:meth:`EngineConfig.executable_pattern`);
    * dense-only backends (AMX-like, SME-like) always run the dense
      ``TILE_GEMM`` kernel built for *their own* tile geometry — bigger
      tiles mean fewer instructions per layer, not free cycles, because the
      per-instruction busy time scales with the tile's MAC count.
    """
    from ..cpu.simulator import simulate_shared
    from ..kernels.memo import build_kernel
    from ..planner.space import select_kernel

    layer = get_layer(params["layer"])
    pattern = SparsityPattern(params["pattern"])
    engine = resolve_engine(params["engine"])
    machine = MachineParams.from_dict(params["machine"])
    max_output_tiles = params.get("max_output_tiles")

    kernel, executed = select_kernel(engine, pattern)
    program = build_kernel(
        kernel, layer.gemm, executed, max_output_tiles=max_output_tiles, geometry=engine.geometry
    )
    result = simulate_shared(program.trace, machine=machine, engine=engine)
    return {
        "layer": layer.name,
        "pattern": pattern.value,
        "engine": engine.name,
        "geometry": engine.geometry.name,
        "kernel": kernel,
        "core_cycles_scaled": result.core_cycles / program.simulated_fraction,
        "traffic_bytes_scaled": (
            result.trace_summary.memory_bytes / program.simulated_fraction
        ),
        "utilization": result.engine_utilization,
        "simulated_fraction": program.simulated_fraction,
    }


def _backends_reduce(table: ResultTable, options: Dict[str, Any]) -> ResultTable:
    """Append each row's speed-up over the baseline backend on its point."""
    baseline = resolve_engine(options.get("baseline", BACKENDS_BASELINE)).name
    baseline_cycles = {
        (row["layer"], row["pattern"]): float(row["core_cycles_scaled"])
        for row in table.rows
        if row["engine"] == baseline
    }
    rows = []
    for row in table.rows:
        base = baseline_cycles.get((row["layer"], row["pattern"]))
        speedup = (
            base / float(row["core_cycles_scaled"]) if base is not None else None
        )
        rows.append({**row, "speedup_vs_baseline": speedup})
    return ResultTable(tuple(table.columns) + ("speedup_vs_baseline",), rows)


@register_experiment(
    "backends",
    "Backends: VEGETA vs AMX-like and SME-like tile geometries per layer",
    reduce=_backends_reduce,
    cli_options=("smoke", "max-output-tiles"),
)
def build_backends(options: Dict[str, Any]) -> ExperimentSpec:
    smoke = bool(options.get("smoke"))
    return backends_spec(
        layers=options.get(
            "layers", BACKENDS_SMOKE_LAYERS if smoke else BACKENDS_LAYERS
        ),
        engine_names=options.get("engines", BACKENDS_ENGINE_NAMES),
        patterns=options.get(
            "patterns", BACKENDS_SMOKE_PATTERNS if smoke else BACKENDS_PATTERNS
        ),
        max_output_tiles=options.get("max_output_tiles"),
    )


# -- Headline: the abstract's speed-up summary -------------------------------


def _headline_reduce(table: ResultTable, options: Dict[str, Any]) -> ResultTable:
    """Reduce the two-engine Figure 13 sweep to the abstract's speed-ups.

    The structured rows are geomean speed-ups over the sweep's layers.  The
    unstructured row is the mean row-wise speed-up of the ``fig15`` sweep at
    95 % over every Table IV layer (``max_layers`` truncates only the
    Figure 13 part), run with the execution knobs ``run_named`` puts into
    ``options``.
    """
    # Rows store canonical engine names, so canonicalize both pivots.
    target = resolve_engine(options.get("target", HEADLINE_TARGET)).name
    baseline = resolve_engine(options.get("baseline", HEADLINE_BASELINE)).name
    rows = []
    for pattern in FIGURE13_PATTERNS:
        speedup = table.geomean_speedup(
            "core_cycles_scaled",
            pivot_column="engine",
            baseline=baseline,
            target=target,
            group_by=("layer",),
            where={"pattern": pattern.value},
        )
        rows.append(
            {
                "sparsity": pattern.value,
                "paper": HEADLINE_PAPER_VALUES[pattern.value],
                "speedup": speedup,
            }
        )
    unstructured = run_experiment(
        figure15_spec([0.95], seed=options.get("seed", 0)),
        jobs=options.get("jobs"),
        cache=options.get("cache", True),
        cache_root=options.get("cache_root"),
    )
    rows.append(
        {
            "sparsity": "unstructured-95%",
            "paper": HEADLINE_PAPER_VALUES["unstructured-95%"],
            "speedup": sum(row["row_wise"] for row in unstructured.rows)
            / len(unstructured),
        }
    )
    return ResultTable(("sparsity", "paper", "speedup"), rows)


@register_experiment(
    "headline",
    "Abstract: speed-ups of the best VEGETA-S engine over the SOTA dense engine",
    reduce=_headline_reduce,
    cli_options=("max-layers", "max-output-tiles", "seed"),
)
def build_headline(options: Dict[str, Any]) -> ExperimentSpec:
    return figure13_spec(
        layers=_limited_layers(options),
        engine_names=(
            options.get("baseline", HEADLINE_BASELINE),
            options.get("target", HEADLINE_TARGET),
        ),
        max_output_tiles=options.get("max_output_tiles", DEFAULT_MAX_OUTPUT_TILES),
    )
