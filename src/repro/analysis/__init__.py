"""Analytical models and per-point simulation for the evaluation section.

The layer holds models, never sweeps: each figure is read from its
registered experiment (:mod:`repro.experiments.figures`), which calls the
models here one point at a time.

* :mod:`repro.analysis.roofline` — the Figure 3 roofline model (``roofline``),
* :mod:`repro.analysis.runtime` — one Figure 13 point (a layer on an engine;
  the sweep and the abstract's speed-ups are ``fig13`` and ``headline``),
* :mod:`repro.analysis.area_power` — the Figure 14 cost model (``area-power``),
* :mod:`repro.analysis.granularity` — the Figure 15 granularity speed-ups
  (``fig15``).

Figure 4's instruction counts are the kernel builders' own
``instruction_count`` (``benchmarks/test_fig04_vector_vs_matrix.py``).
"""

from .area_power import (
    EngineCostEstimate,
    engine_area,
    engine_frequency_ghz,
    engine_power,
    estimate,
    sparse_power_overheads,
)
from .granularity import (
    granularity_speedups,
    layer_wise_speedup,
    row_wise_speedup,
    tile_wise_speedup,
    unstructured_speedup,
)
from .roofline import (
    EngineRoofline,
    FIGURE3_ENGINES,
    effective_throughput_tflops,
    layer_bytes,
)
from .runtime import (
    FIGURE13_ENGINE_NAMES,
    LayerRuntime,
    build_layer_kernel,
    resolve_engine,
    simulate_layer,
)

__all__ = [
    "EngineCostEstimate",
    "EngineRoofline",
    "FIGURE13_ENGINE_NAMES",
    "FIGURE3_ENGINES",
    "LayerRuntime",
    "build_layer_kernel",
    "effective_throughput_tflops",
    "engine_area",
    "engine_frequency_ghz",
    "engine_power",
    "estimate",
    "granularity_speedups",
    "layer_bytes",
    "layer_wise_speedup",
    "resolve_engine",
    "row_wise_speedup",
    "simulate_layer",
    "sparse_power_overheads",
    "tile_wise_speedup",
    "unstructured_speedup",
]
