"""Figure 13 orchestration: layer runtimes across engines and sparsity patterns.

This module glues the pieces together the way the paper's evaluation flow
does: pick a Table IV layer and a weight sparsity pattern, generate the
matching kernel (dense ``TILE_GEMM`` for engines that cannot exploit the
pattern, ``TILE_SPMM_U/V`` otherwise), simulate it on the cycle-approximate
CPU model with the chosen engine, and report runtime.

Full kernel traces are simulated by default (``max_output_tiles=None``,
``simulated_fraction == 1.0``): the simulator's fast path resolves the
steady-state loop body in closed form, so even the ~800 M-MAC Table IV
layers run untruncated.  ``max_output_tiles`` remains available to trace
only the first few output tiles — the measured runtime is then scaled back
up by the covered fraction — which functional-correctness tests use to keep
fixtures small.  EXPERIMENTS.md documents the truncation semantics.

The sweep itself (:func:`figure13_experiment` / :func:`figure13_table`) runs
through :mod:`repro.experiments`, which adds content-addressed result caching
and optional multiprocessing fan-out; :func:`simulate_layer` remains the
low-level single-point entry the trial runner executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.engine import EngineConfig, get_engine, stc_like_engine
from ..cpu.params import MachineParams, default_machine
from ..errors import ConfigurationError
from ..cpu.simulator import SimulationResult, simulate_shared
from ..kernels.gemm import build_dense_gemm_kernel  # noqa: F401  (see kernels.sharding)
from ..kernels.memo import build_kernel
from ..kernels.program import KernelProgram
from ..kernels.spmm import build_spmm_kernel  # noqa: F401
from ..types import SparsityPattern
from ..workloads.layers import WorkloadLayer

#: Output tiles traced per simulation before scaling.  ``None`` simulates the
#: full kernel (no truncation, ``simulated_fraction == 1.0``); the fast-path
#: simulator makes this the affordable default.
DEFAULT_MAX_OUTPUT_TILES: Optional[int] = None

#: Small cap for tests and benchmark suites that only need a steady-state
#: sample (the historical default before the fast-path simulator landed;
#: the benchmark tables pin it to stay comparable with the seed numbers).
FUNCTIONAL_MAX_OUTPUT_TILES = 2

#: Engines reported in Figure 13, in plot order.
FIGURE13_ENGINE_NAMES = (
    "VEGETA-D-1-1",
    "VEGETA-D-1-2",
    "VEGETA-D-16-1",
    "STC-like",
    "VEGETA-S-1-2",
    "VEGETA-S-2-2",
    "VEGETA-S-4-2",
    "VEGETA-S-8-2",
    "VEGETA-S-16-2",
    "VEGETA-S-16-2+OF",
)


#: Shorthand backend names accepted by :func:`resolve_engine` in addition to
#: the full catalog names (``AMX-like`` / ``SME-like`` remain valid too).
BACKEND_ALIASES = {
    "AMX": "AMX-like",
    "SME": "SME-like",
}


def resolve_engine(name: str) -> EngineConfig:
    """Resolve an engine name, including the STC-like base and feature suffixes.

    The base may be any catalog design point, the ``STC-like`` baseline, or a
    foreign-backend shorthand (``amx`` -> ``AMX-like``, ``sme`` ->
    ``SME-like``).  ``+OF`` enables output forwarding and ``+SPGEMM`` the
    dual-operand metadata intersection of the sparse x sparse instructions;
    suffixes may be combined in any order (``VEGETA-S-16-2+OF+SPGEMM``).
    """
    base, *suffixes = name.split("+")
    flags = {suffix.upper() for suffix in suffixes}
    unknown = flags - {"OF", "SPGEMM"}
    if unknown:
        raise ConfigurationError(
            f"unknown engine feature suffix(es) {sorted(unknown)} in {name!r}; "
            "supported: +OF, +SPGEMM"
        )
    base = BACKEND_ALIASES.get(base.upper(), base)
    engine = stc_like_engine() if base.upper() == "STC-LIKE" else get_engine(base)
    if "OF" in flags:
        engine = engine.with_output_forwarding(True)
    if "SPGEMM" in flags:
        engine = engine.with_spgemm(True)
    return engine


def build_layer_kernel(
    layer: WorkloadLayer,
    pattern: SparsityPattern,
    engine: EngineConfig,
    *,
    max_output_tiles: Optional[int] = DEFAULT_MAX_OUTPUT_TILES,
) -> KernelProgram:
    """Build the kernel the given engine would run for this layer/pattern.

    The engine's :meth:`EngineConfig.executable_pattern` decides how much of
    the weight sparsity it can actually exploit: dense engines always run the
    dense kernel, the STC-like engine runs 1:4 weights with its 2:4 path, and
    full VEGETA-S engines exploit the pattern natively.  Engines executing
    the same kernel share one memoized trace (:func:`build_kernel`).
    """
    executed = engine.executable_pattern(pattern)
    if executed is SparsityPattern.DENSE_4_4:
        return build_kernel(
            "gemm", layer.gemm, max_output_tiles=max_output_tiles, geometry=engine.geometry
        )
    return build_kernel("spmm", layer.gemm, executed, max_output_tiles=max_output_tiles)


@dataclass(frozen=True)
class LayerRuntime:
    """Runtime of one (layer, pattern, engine) combination.

    ``result`` carries the full :class:`SimulationResult` when the point was
    simulated in this process (:func:`simulate_layer`): a fresh copy of the
    result shared by every engine with the same timing on the same kernel,
    carrying this point's engine.  Points rehydrated from the experiment
    cache only carry the scalar summary below.
    """

    layer: str
    pattern: SparsityPattern
    engine: str
    core_cycles_scaled: float
    simulated_fraction: float
    result: Optional[SimulationResult] = None
    core_frequency_ghz: float = 2.0

    @property
    def runtime_seconds(self) -> float:
        """Scaled wall-clock runtime at the core frequency."""
        return self.core_cycles_scaled / (self.core_frequency_ghz * 1e9)


def simulate_layer(
    layer: WorkloadLayer,
    pattern: SparsityPattern,
    engine: EngineConfig,
    *,
    machine: Optional[MachineParams] = None,
    max_output_tiles: Optional[int] = DEFAULT_MAX_OUTPUT_TILES,
    mode: str = "fast",
) -> LayerRuntime:
    """Simulate one layer on one engine under one weight-sparsity pattern.

    ``mode`` selects the simulator path (``"fast"`` uses the steady-state
    fast path with the kernel's block-periodicity hints; ``"exact"`` runs the
    reference event-driven loop over every op).  The kernel comes from the
    build memo and is simulated through
    :func:`~repro.cpu.simulator.simulate_shared`, so the engines of a
    Figure 13 point that run the same kernel with the same
    :attr:`~repro.core.engine.EngineConfig.timing` share one simulation.
    """
    machine = machine if machine is not None else default_machine()
    program = build_layer_kernel(
        layer, pattern, engine, max_output_tiles=max_output_tiles
    )
    result = simulate_shared(program.trace, machine=machine, engine=engine, mode=mode)
    scaled = result.core_cycles / program.simulated_fraction
    return LayerRuntime(
        layer=layer.name,
        pattern=pattern,
        engine=engine.name,
        core_cycles_scaled=scaled,
        simulated_fraction=program.simulated_fraction,
        result=result,
        core_frequency_ghz=result.machine.core.frequency_ghz,
    )


def figure13_experiment(
    *,
    layers: Optional[Sequence[WorkloadLayer]] = None,
    engine_names: Sequence[str] = FIGURE13_ENGINE_NAMES,
    patterns: Sequence[SparsityPattern] = (
        SparsityPattern.DENSE_4_4,
        SparsityPattern.SPARSE_2_4,
        SparsityPattern.SPARSE_1_4,
    ),
    machine: Optional[MachineParams] = None,
    max_output_tiles: Optional[int] = DEFAULT_MAX_OUTPUT_TILES,
    jobs: Optional[int] = None,
    cache: object = True,
    cache_root: Optional[str] = None,
) -> List[LayerRuntime]:
    """Run the full Figure 13 sweep and return every measured point.

    The sweep goes through :mod:`repro.experiments`: results are served from
    the content-addressed cache when available and the misses are fanned out
    over ``jobs`` worker processes (``None`` defers to ``REPRO_JOBS``;
    default serial).  Point order matches the historical strictly-serial
    loop: layers outermost, then patterns, then engines.
    """
    table = figure13_table(
        layers=layers,
        engine_names=engine_names,
        patterns=patterns,
        machine=machine,
        max_output_tiles=max_output_tiles,
        jobs=jobs,
        cache=cache,
        cache_root=cache_root,
    )
    return [
        LayerRuntime(
            layer=row["layer"],
            pattern=SparsityPattern(row["pattern"]),
            engine=row["engine"],
            core_cycles_scaled=float(row["core_cycles_scaled"]),
            simulated_fraction=float(row["simulated_fraction"]),
            result=None,
            core_frequency_ghz=float(row["core_frequency_ghz"]),
        )
        for row in table.rows
    ]


def figure13_table(
    *,
    layers: Optional[Sequence[WorkloadLayer]] = None,
    engine_names: Sequence[str] = FIGURE13_ENGINE_NAMES,
    patterns: Sequence[SparsityPattern] = (
        SparsityPattern.DENSE_4_4,
        SparsityPattern.SPARSE_2_4,
        SparsityPattern.SPARSE_1_4,
    ),
    machine: Optional[MachineParams] = None,
    max_output_tiles: Optional[int] = DEFAULT_MAX_OUTPUT_TILES,
    jobs: Optional[int] = None,
    cache: object = True,
    cache_root: Optional[str] = None,
):
    """The Figure 13 sweep as a :class:`~repro.experiments.results.ResultTable`."""
    from ..experiments.figures import figure13_spec
    from ..experiments.runner import run_experiment

    spec = figure13_spec(
        layers=layers,
        engine_names=engine_names,
        patterns=patterns,
        machine=machine,
        max_output_tiles=max_output_tiles,
    )
    return run_experiment(spec, jobs=jobs, cache=cache, cache_root=cache_root)


def _results_table(results: Sequence[LayerRuntime]):
    """Project LayerRuntime points onto the shared ResultTable reductions."""
    from ..experiments.results import ResultTable

    return ResultTable(
        ("layer", "pattern", "engine", "core_cycles_scaled"),
        (
            {
                "layer": result.layer,
                "pattern": result.pattern.value,
                "engine": result.engine,
                "core_cycles_scaled": result.core_cycles_scaled,
            }
            for result in results
        ),
    )


def normalized_runtimes(results: Sequence[LayerRuntime]) -> Dict[str, float]:
    """Normalise runtimes by the slowest point, as Figure 13 does."""
    return _results_table(results).normalized_to_max(
        "core_cycles_scaled", ("layer", "pattern", "engine")
    )


def average_speedup(
    results: Sequence[LayerRuntime],
    *,
    baseline_engine: str,
    target_engine: str,
    pattern: SparsityPattern,
) -> float:
    """Geometric-mean speed-up of one engine over a baseline for one pattern."""
    return _results_table(results).geomean_speedup(
        "core_cycles_scaled",
        pivot_column="engine",
        baseline=baseline_engine,
        target=target_engine,
        group_by=("layer",),
        where={"pattern": pattern.value},
    )


def headline_speedups(
    *,
    layers: Optional[Sequence[WorkloadLayer]] = None,
    machine: Optional[MachineParams] = None,
    max_output_tiles: Optional[int] = DEFAULT_MAX_OUTPUT_TILES,
    baseline: str = "VEGETA-D-1-2",
    target: str = "VEGETA-S-16-2+OF",
    jobs: Optional[int] = None,
    cache: object = True,
    cache_root: Optional[str] = None,
) -> Dict[str, float]:
    """The abstract's structured-sparsity headline speed-ups.

    Paper values: 1.09x (4:4), 2.20x (2:4) and 3.74x (1:4) for the best
    VEGETA-S engine with output forwarding over the state-of-the-art dense
    engine (RASA-DM).
    """
    patterns = (
        SparsityPattern.DENSE_4_4,
        SparsityPattern.SPARSE_2_4,
        SparsityPattern.SPARSE_1_4,
    )
    results = figure13_experiment(
        layers=layers,
        engine_names=(baseline, target),
        patterns=patterns,
        machine=machine,
        max_output_tiles=max_output_tiles,
        jobs=jobs,
        cache=cache,
        cache_root=cache_root,
    )
    return {
        pattern.value: average_speedup(
            results,
            baseline_engine=resolve_engine(baseline).name,
            target_engine=resolve_engine(target).name,
            pattern=pattern,
        )
        for pattern in patterns
    }
