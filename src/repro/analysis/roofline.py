"""Roofline model of dense/sparse vector/matrix engines (Figure 3).

Section III-A compares the effective compute throughput of four engine
classes on a convolutional layer as the weight density varies, assuming
64 GFLOPS for the vector engine, 512 GFLOPS for the matrix engine and a
memory bandwidth of 94 GB/s.

*Effective* throughput counts the dense-equivalent FLOPs of the layer (the
work a dense engine would do) divided by execution time, so an engine that
skips zeros reports a higher effective throughput even though it executes
fewer operations.  Execution time is the roofline maximum of compute time
(scaled by density for sparsity-aware engines) and memory time (weights are
stored compressed for sparse engines: 2 bytes per non-zero plus 2-bit
metadata).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import ConfigurationError
from ..types import GemmShape

#: Default engine peaks and bandwidth from Section III-A.
VECTOR_PEAK_GFLOPS = 64.0
MATRIX_PEAK_GFLOPS = 512.0
MEMORY_BANDWIDTH_GBPS = 94.0

#: The convolutional-layer GEMM used for the Figure 3 curves (ResNet50-L2
#: lowered with im2col: M=64, N=3136, K=576).
DEFAULT_LAYER = GemmShape(m=64, n=3136, k=576)


@dataclass(frozen=True)
class EngineRoofline:
    """One engine class in the roofline comparison."""

    name: str
    peak_gflops: float
    sparse_aware: bool

    def __post_init__(self) -> None:
        if self.peak_gflops <= 0:
            raise ConfigurationError(f"{self.name}: peak must be positive")


#: The four engine classes plotted in Figure 3.
FIGURE3_ENGINES: Dict[str, EngineRoofline] = {
    "dense_vector": EngineRoofline("Dense vector engine", VECTOR_PEAK_GFLOPS, False),
    "sparse_vector": EngineRoofline("Sparse vector engine", VECTOR_PEAK_GFLOPS, True),
    "dense_matrix": EngineRoofline("Dense matrix engine", MATRIX_PEAK_GFLOPS, False),
    "sparse_matrix": EngineRoofline("Sparse matrix engine", MATRIX_PEAK_GFLOPS, True),
}


def layer_bytes(shape: GemmShape, density: float, sparse_storage: bool) -> float:
    """Memory traffic of one layer in bytes.

    Activations (K x N, BF16) and outputs (M x N, FP32) are always dense;
    weights (M x K) are stored densely for dense engines and compressed
    (2 bytes per non-zero plus 2-bit positional metadata) for sparse ones.
    """
    if not 0.0 < density <= 1.0:
        raise ConfigurationError(f"density must be in (0, 1], got {density}")
    activation_bytes = shape.k * shape.n * 2
    output_bytes = shape.m * shape.n * 4
    if sparse_storage:
        nnz = shape.m * shape.k * density
        weight_bytes = nnz * 2 + nnz * 0.25
    else:
        weight_bytes = shape.m * shape.k * 2
    return activation_bytes + output_bytes + weight_bytes


def effective_throughput_tflops(
    engine: EngineRoofline,
    density: float,
    *,
    shape: GemmShape = DEFAULT_LAYER,
    bandwidth_gbps: float = MEMORY_BANDWIDTH_GBPS,
) -> float:
    """Effective throughput (effectual TFLOPS) of an engine at a density.

    "Effective" counts only the useful (non-zero) FLOPs of the layer, matching
    Figure 3: at 100 % density every engine delivers its roofline throughput,
    a dense engine's effective throughput falls linearly as density drops
    (it still executes the zeros), and a sparsity-aware engine stays at its
    compute roofline until the compressed layer becomes memory bound.
    """
    dense_flops = shape.flops
    effectual_flops = dense_flops * density
    executed_flops = dense_flops * (density if engine.sparse_aware else 1.0)
    compute_seconds = executed_flops / (engine.peak_gflops * 1e9)
    bytes_moved = layer_bytes(shape, density, sparse_storage=engine.sparse_aware)
    memory_seconds = bytes_moved / (bandwidth_gbps * 1e9)
    seconds = max(compute_seconds, memory_seconds)
    return effectual_flops / seconds / 1e12
