"""Analytical models and per-point simulation for the evaluation section.

* :mod:`repro.analysis.roofline` — Figure 3 (effective throughput vs density),
* :mod:`repro.analysis.instruction_model` — Figure 4 (vector vs matrix counts),
* :mod:`repro.analysis.runtime` — one Figure 13 point (a layer on an engine);
  the sweep and the abstract's speed-ups are the registered ``fig13`` and
  ``headline`` experiments (:mod:`repro.experiments.figures`),
* :mod:`repro.analysis.area_power` — Figure 14 (area / power / frequency),
* :mod:`repro.analysis.granularity` — Figure 15 (granularity speed-ups).
"""

from .area_power import (
    EngineCostEstimate,
    engine_area,
    engine_frequency_ghz,
    engine_power,
    estimate,
    figure14_table,
    sparse_power_overheads,
)
from .granularity import (
    Figure15Point,
    figure15_series,
    granularity_speedups,
    headline_unstructured_speedup,
    layer_wise_speedup,
    row_wise_speedup,
    tile_wise_speedup,
    unstructured_speedup,
)
from .instruction_model import (
    Figure4Point,
    figure4_instruction_counts,
    instruction_ratio_table,
    matrix_instruction_estimate,
)
from .roofline import (
    EngineRoofline,
    FIGURE3_ENGINES,
    crossover_density,
    effective_throughput_tflops,
    figure3_series,
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
    "Figure15Point",
    "Figure4Point",
    "LayerRuntime",
    "build_layer_kernel",
    "crossover_density",
    "effective_throughput_tflops",
    "engine_area",
    "engine_frequency_ghz",
    "engine_power",
    "estimate",
    "figure14_table",
    "figure15_series",
    "figure3_series",
    "figure4_instruction_counts",
    "granularity_speedups",
    "headline_unstructured_speedup",
    "instruction_ratio_table",
    "layer_bytes",
    "layer_wise_speedup",
    "matrix_instruction_estimate",
    "resolve_engine",
    "row_wise_speedup",
    "simulate_layer",
    "sparse_power_overheads",
    "tile_wise_speedup",
    "unstructured_speedup",
]
