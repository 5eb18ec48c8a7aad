"""The paper's primary contribution: VEGETA ISA, registers, engine and pipeline.

Sub-modules:

* :mod:`repro.core.registers` — treg/ureg/vreg/mreg register file with aliasing,
* :mod:`repro.core.isa` — the nine Table II instructions plus constructors,
* :mod:`repro.core.memory_image` — flat byte memory used by the functional model,
* :mod:`repro.core.functional` — timing-free, numerically correct execution,
* :mod:`repro.core.engine` — the Table III engine design points,
* :mod:`repro.core.pipeline` — WL/FF/FS/DR pipelining and output forwarding,
* :mod:`repro.core.rowwise_mapping` — Section V-E row-wise tile mapping.
"""

from .engine import (
    ALL_NM_PATTERNS,
    DENSE_ONLY,
    EngineConfig,
    TOTAL_MAC_UNITS,
    catalog,
    get_engine,
    stc_like_engine,
)
from .functional import ExecutionStats, FunctionalMachine, run_program
from .isa import (
    Instruction,
    MemoryOperand,
    Opcode,
    tile_gemm,
    tile_load_m,
    tile_load_t,
    tile_load_u,
    tile_load_v,
    tile_spgemm_u,
    tile_spgemm_v,
    tile_spmm_r,
    tile_spmm_u,
    tile_spmm_v,
    tile_store_t,
)
from .memory_image import ByteMemory
from .pipeline import (
    MatrixEnginePipeline,
    TileComputeRequest,
    TileComputeTiming,
    dependent_chain_interval,
    steady_state_issue_interval,
)
from .registers import (
    NUM_UTILE_REGS,
    NUM_VTILE_REGS,
    RegisterRef,
    TileRegisterFile,
    mreg,
    treg,
    ureg,
    vreg,
)
from .rowwise_mapping import (
    MAX_OUTPUT_ROWS,
    ROWWISE_EFFECTIVE_COLS,
    RowWiseGroup,
    RowWiseMappingPlan,
    TREG_STORED_CAPACITY,
    pack_rows,
)

__all__ = [
    "ALL_NM_PATTERNS",
    "ByteMemory",
    "DENSE_ONLY",
    "EngineConfig",
    "ExecutionStats",
    "FunctionalMachine",
    "Instruction",
    "MAX_OUTPUT_ROWS",
    "MatrixEnginePipeline",
    "MemoryOperand",
    "NUM_UTILE_REGS",
    "NUM_VTILE_REGS",
    "Opcode",
    "ROWWISE_EFFECTIVE_COLS",
    "RegisterRef",
    "RowWiseGroup",
    "RowWiseMappingPlan",
    "TOTAL_MAC_UNITS",
    "TREG_STORED_CAPACITY",
    "TileComputeRequest",
    "TileComputeTiming",
    "TileRegisterFile",
    "catalog",
    "dependent_chain_interval",
    "get_engine",
    "mreg",
    "pack_rows",
    "run_program",
    "stc_like_engine",
    "steady_state_issue_interval",
    "tile_gemm",
    "tile_load_m",
    "tile_load_t",
    "tile_load_u",
    "tile_load_v",
    "tile_spgemm_u",
    "tile_spgemm_v",
    "tile_spmm_r",
    "tile_spmm_u",
    "tile_spmm_v",
    "tile_store_t",
    "treg",
    "ureg",
    "vreg",
]
