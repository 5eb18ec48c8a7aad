"""Evaluation workloads: the Table IV layers, synthetic operands and sweeps."""

from .generator import (
    DualSparseOperands,
    GeneratedOperands,
    generate_dense,
    generate_dual_sparse,
    generate_structured,
    generate_unstructured,
    scaled_problem,
)
from .layers import TABLE_IV_MACS, WorkloadLayer, all_layers, get_layer
from .sweeps import (
    FIGURE13_PATTERNS,
    FIGURE15_SPARSITY_DEGREES,
    SPGEMM_SWEEP_PATTERNS,
)

__all__ = [
    "DualSparseOperands",
    "FIGURE13_PATTERNS",
    "FIGURE15_SPARSITY_DEGREES",
    "GeneratedOperands",
    "SPGEMM_SWEEP_PATTERNS",
    "TABLE_IV_MACS",
    "WorkloadLayer",
    "all_layers",
    "generate_dense",
    "generate_dual_sparse",
    "generate_structured",
    "generate_unstructured",
    "get_layer",
    "scaled_problem",
]
