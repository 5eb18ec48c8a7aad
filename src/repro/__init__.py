"""repro — a reproduction of VEGETA (HPCA 2023).

VEGETA adds ISA and microarchitecture extensions to CPU matrix engines for
flexible N:M structured sparsity.  This package provides:

* :mod:`repro.sparse` — the N:M sparsity substrate (compression, pruning,
  row-wise covering of unstructured matrices),
* :mod:`repro.core` — the VEGETA ISA, register file, functional model, engine
  design points and pipeline timing model,
* :mod:`repro.cpu` — a cycle-approximate CPU simulator (the MacSim stand-in),
* :mod:`repro.kernels` — GEMM/SPMM kernel generators (the LLVM/Pin stand-in),
* :mod:`repro.workloads` — the Table IV DNN layers and synthetic operands,
* :mod:`repro.analysis` — roofline, area/power and granularity models plus
  the single-point Figure 13 simulation,
* :mod:`repro.experiments` — the registered figure sweeps (``fig13``,
  ``headline``, ...) with result caching and parallel execution,
* :mod:`repro.baselines` — prior-work engines and the Table I support matrix.

Quickstart::

    from repro import (
        GemmShape, SparsityPattern, get_engine, build_spmm_kernel,
        generate_structured, CycleApproximateSimulator,
    )

    shape = GemmShape(m=64, n=64, k=256)
    data = generate_structured(shape, SparsityPattern.SPARSE_2_4, seed=0)
    kernel = build_spmm_kernel(shape, SparsityPattern.SPARSE_2_4, a=data.a, b=data.b)
    engine = get_engine("VEGETA-S-16-2").with_output_forwarding()
    result = CycleApproximateSimulator(engine=engine).run(kernel.trace)
    print(result.core_cycles, result.engine_utilization)
"""

from .errors import (
    CompressionError,
    ConfigurationError,
    ExecutionError,
    IsaError,
    KernelError,
    RegisterError,
    ReproError,
    SimulationError,
    SparsityError,
    WorkloadError,
)
from .types import DType, GemmShape, SparsityGranularity, SparsityPattern, TileShape
from .core import (
    EngineConfig,
    FunctionalMachine,
    Instruction,
    MatrixEnginePipeline,
    Opcode,
    catalog,
    get_engine,
    stc_like_engine,
)
from .cpu import CycleApproximateSimulator, MachineParams, SimulationResult, default_machine
from .kernels import (
    ConvShape,
    KernelProgram,
    build_dense_gemm_kernel,
    build_rowwise_spmm_kernel,
    build_spmm_kernel,
    build_vector_gemm_kernel,
    run_functional,
    validate_kernel,
)
from .sparse import (
    CompressedTile,
    RowWiseTile,
    compress,
    prune_to_pattern,
    prune_unstructured,
    transform_unstructured,
)
from .workloads import all_layers, generate_structured, generate_unstructured, get_layer
from .experiments import (
    ExperimentSpec,
    ResultCache,
    ResultTable,
    run_experiment,
    run_named,
)

__version__ = "1.0.0"

__all__ = [
    "CompressedTile",
    "CompressionError",
    "ConfigurationError",
    "ConvShape",
    "CycleApproximateSimulator",
    "DType",
    "EngineConfig",
    "ExecutionError",
    "ExperimentSpec",
    "FunctionalMachine",
    "GemmShape",
    "Instruction",
    "IsaError",
    "KernelError",
    "KernelProgram",
    "MachineParams",
    "MatrixEnginePipeline",
    "Opcode",
    "RegisterError",
    "ReproError",
    "ResultCache",
    "ResultTable",
    "RowWiseTile",
    "SimulationError",
    "SimulationResult",
    "SparsityError",
    "SparsityGranularity",
    "SparsityPattern",
    "TileShape",
    "WorkloadError",
    "all_layers",
    "build_dense_gemm_kernel",
    "build_rowwise_spmm_kernel",
    "build_spmm_kernel",
    "build_vector_gemm_kernel",
    "catalog",
    "compress",
    "default_machine",
    "generate_structured",
    "generate_unstructured",
    "get_engine",
    "get_layer",
    "prune_to_pattern",
    "prune_unstructured",
    "run_experiment",
    "run_functional",
    "run_named",
    "stc_like_engine",
    "transform_unstructured",
    "validate_kernel",
    "__version__",
]
