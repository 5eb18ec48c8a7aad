"""Kernel generators — the replacement for the paper's LLVM/Pin flow.

Sub-modules:

* :mod:`repro.kernels.tiling` — tile decomposition and memory layouts,
* :mod:`repro.kernels.program` — the :class:`KernelProgram` container,
* :mod:`repro.kernels.template` — block templates the tiled builders stamp
  across the block grid,
* :mod:`repro.kernels.gemm` — dense ``TILE_GEMM`` kernels (Listing 1 and optimised),
* :mod:`repro.kernels.spmm` — 2:4 / 1:4 / row-wise SPMM kernels,
* :mod:`repro.kernels.spgemm` — sparse x sparse ``TILE_SPGEMM`` kernels,
* :mod:`repro.kernels.memo` — the memoized entry point for trace-only builds,
* :mod:`repro.kernels.sharding` — multi-core partitioning of the tiled kernels,
* :mod:`repro.kernels.vector` — the SIMD baseline kernel of Figure 4,
* :mod:`repro.kernels.im2col` — convolution-to-GEMM lowering,
* :mod:`repro.kernels.validate` — functional validation against numpy.
"""

from .gemm import build_dense_gemm_kernel
from .im2col import ConvShape, im2col, weights_to_matrix
from .memo import build_kernel
from .program import KernelProgram
from .sharding import (
    SHARDABLE_KERNELS,
    KernelPartition,
    ShardedKernel,
    partition_kernel,
    shard_kernel,
)
from .spgemm import SPGEMM_PATTERNS, build_spgemm_kernel, spgemm_joint_pattern
from .spmm import build_rowwise_spmm_kernel, build_spmm_kernel
from .tiling import (
    MatrixTileLayout,
    PARTITION_STRATEGIES,
    TileGrid,
    partition_grid,
    tile_k_for_pattern,
)
from .validate import (
    reference_gemm,
    reference_spgemm,
    run_functional,
    validate_spgemm_kernel,
)
from .vector import build_vector_gemm_kernel

__all__ = [
    "ConvShape",
    "KernelPartition",
    "KernelProgram",
    "MatrixTileLayout",
    "PARTITION_STRATEGIES",
    "SHARDABLE_KERNELS",
    "SPGEMM_PATTERNS",
    "ShardedKernel",
    "TileGrid",
    "build_dense_gemm_kernel",
    "build_kernel",
    "build_rowwise_spmm_kernel",
    "build_spgemm_kernel",
    "build_spmm_kernel",
    "build_vector_gemm_kernel",
    "im2col",
    "partition_grid",
    "partition_kernel",
    "reference_gemm",
    "reference_spgemm",
    "run_functional",
    "shard_kernel",
    "spgemm_joint_pattern",
    "tile_k_for_pattern",
    "validate_spgemm_kernel",
    "weights_to_matrix",
]
