"""Analytical area / power / frequency model of VEGETA engines (Figure 14).

The paper synthesises RTL for every Table III design point with a 15 nm
library and reports post-layout area, power and maximum frequency normalised
to RASA-SM (= VEGETA-D-1-1).  We cannot run synthesis, so this module models
the same structural trends analytically:

* every engine has the same 512 MAC units, weight buffers and partial-sum
  registers — a large constant term,
* each PE adds control plus horizontal (input) pipeline buffers whose width
  is the PE's ``inputs_per_pe``; raising the broadcast factor ``alpha``
  shrinks the PE count and therefore this term — the reason VEGETA-S-8-2 and
  VEGETA-S-16-2 end up *smaller* than the dense baseline,
* sparse engines add a 4:1 input-selector mux and a 2-bit metadata buffer per
  MAC — the bounded (<= ~6 %) sparsity overhead,
* a reduction adder per PU column when ``beta > 1``,
* maximum frequency falls as ``alpha`` grows because the broadcast wire
  spans more PUs.

The unit-less constants below were calibrated so the reported overheads match
the numbers quoted in Section VI-D (6 % worst-case area overhead; 17 / 8 / 4 /
3 / 1 % power overhead for VEGETA-S-alpha-2 with alpha = 1 / 2 / 4 / 8 / 16;
all designs meeting 0.5 GHz).  DESIGN.md records this substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..core.engine import EngineConfig, get_engine

# -- calibrated structural cost constants (arbitrary units, MAC = 1.0) -------

#: Cost of one MAC unit (BF16 multiplier + FP32 adder).
MAC_AREA = 1.0
#: Weight buffer + stationary operand staging per MAC.
WEIGHT_BUFFER_AREA = 0.25
#: Partial-sum register per MAC.
PSUM_REGISTER_AREA = 0.25
#: Fixed per-PE control / horizontal forwarding overhead.
PE_FIXED_AREA = 0.30
#: Horizontal pipeline buffer per input element delivered to a PE.
PE_INPUT_BUFFER_AREA = 0.06
#: 4:1 input-selector mux per MAC (sparse engines only).
SPARSE_MUX_AREA = 0.04
#: 2-bit metadata buffer per MAC (sparse engines only).
SPARSE_METADATA_AREA = 0.02
#: One reduction adder at the bottom of each PU column (when beta > 1).
REDUCTION_ADDER_AREA = 0.20

#: Power constants (arbitrary units, MAC switching power = 1.0).
MAC_POWER = 1.0
PE_FIXED_POWER = 0.02
PE_INPUT_BUFFER_POWER = 0.0428
SPARSE_LOGIC_POWER = 0.062
REDUCTION_ADDER_POWER = 0.05

#: Frequency model: per-doubling-of-alpha derating and the sparse-mux penalty.
BASE_FREQUENCY_GHZ = 1.45
ALPHA_DOUBLING_FACTOR = 0.83
SPARSE_FREQUENCY_FACTOR = 0.97

#: The frequency every design must meet for the Figure 13 experiments.
TARGET_FREQUENCY_GHZ = 0.5


@dataclass(frozen=True)
class EngineCostEstimate:
    """Area / power / frequency estimate for one engine design point."""

    name: str
    area: float
    power: float
    frequency_ghz: float
    area_normalized: float
    power_normalized: float

    @property
    def meets_target_frequency(self) -> bool:
        """True if the design closes timing at the evaluation's 0.5 GHz."""
        return self.frequency_ghz >= TARGET_FREQUENCY_GHZ


def engine_area(engine: EngineConfig) -> float:
    """Analytical area of one engine in MAC-equivalent units."""
    macs = engine.total_macs
    area = macs * (MAC_AREA + WEIGHT_BUFFER_AREA + PSUM_REGISTER_AREA)
    area += engine.num_pes * (
        PE_FIXED_AREA + PE_INPUT_BUFFER_AREA * engine.inputs_per_pe
    )
    if engine.sparse:
        area += macs * (SPARSE_MUX_AREA + SPARSE_METADATA_AREA)
    if engine.beta > 1:
        area += engine.ncols * engine.alpha * (engine.beta - 1) * REDUCTION_ADDER_AREA
    return area


def engine_power(engine: EngineConfig) -> float:
    """Analytical power of one engine in MAC-equivalent units."""
    macs = engine.total_macs
    power = macs * MAC_POWER
    power += engine.num_pes * (
        PE_FIXED_POWER + PE_INPUT_BUFFER_POWER * engine.inputs_per_pe
    )
    if engine.sparse:
        power += macs * SPARSE_LOGIC_POWER
    if engine.beta > 1:
        power += engine.ncols * engine.alpha * (engine.beta - 1) * REDUCTION_ADDER_POWER
    return power


def engine_frequency_ghz(engine: EngineConfig) -> float:
    """Maximum frequency: broadcast wire length limits large-alpha designs."""
    frequency = BASE_FREQUENCY_GHZ * (
        ALPHA_DOUBLING_FACTOR ** math.log2(engine.alpha)
    )
    if engine.sparse:
        frequency *= SPARSE_FREQUENCY_FACTOR
    return frequency


def estimate(engine: EngineConfig, baseline: EngineConfig = None) -> EngineCostEstimate:
    """Full cost estimate, normalised against RASA-SM (VEGETA-D-1-1) by default."""
    if baseline is None:
        baseline = get_engine("VEGETA-D-1-1")
    baseline_area = engine_area(baseline)
    baseline_power = engine_power(baseline)
    area = engine_area(engine)
    power = engine_power(engine)
    return EngineCostEstimate(
        name=engine.name,
        area=area,
        power=power,
        frequency_ghz=engine_frequency_ghz(engine),
        area_normalized=area / baseline_area,
        power_normalized=power / baseline_power,
    )


def sparse_power_overheads() -> Dict[int, float]:
    """Power overhead of VEGETA-S-alpha-2 vs RASA-SM, keyed by alpha.

    Section VI-D quotes 17 / 8 / 4 / 3 / 1 % for alpha = 1 / 2 / 4 / 8 / 16;
    the calibrated model reproduces these within a couple of points.
    """
    baseline = engine_power(get_engine("VEGETA-D-1-1"))
    overheads = {}
    for alpha in (1, 2, 4, 8, 16):
        engine = get_engine(f"VEGETA-S-{alpha}-2")
        overheads[alpha] = engine_power(engine) / baseline - 1.0
    return overheads
