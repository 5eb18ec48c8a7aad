"""Synthetic operand generation for the evaluation workloads.

The paper's kernels run over pruned DNN weights; the engine's runtime depends
only on the sparsity pattern, never on the values, so we generate seeded
random matrices and prune them to the requested pattern/degree.  Everything
is deterministic given the seed so benchmark runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError
from ..sparse.pruning import prune_to_pattern, prune_unstructured
from ..types import GemmShape, SparsityPattern


@dataclass(frozen=True)
class GeneratedOperands:
    """A (weights, activations) pair generated for one GEMM problem."""

    a: np.ndarray
    b: np.ndarray
    pattern: SparsityPattern
    sparsity_degree: float
    seed: int

    @property
    def shape(self) -> GemmShape:
        """The GEMM shape of the generated operands."""
        return GemmShape(m=self.a.shape[0], n=self.b.shape[1], k=self.a.shape[1])


def generate_dense(shape: GemmShape, *, seed: int = 0) -> GeneratedOperands:
    """Generate dense A/B operands with values in [-1, 1)."""
    rng = np.random.default_rng(seed)
    a = (rng.random((shape.m, shape.k), dtype=np.float32) * 2 - 1).astype(np.float32)
    b = (rng.random((shape.k, shape.n), dtype=np.float32) * 2 - 1).astype(np.float32)
    return GeneratedOperands(
        a=a, b=b, pattern=SparsityPattern.DENSE_4_4, sparsity_degree=0.0, seed=seed
    )


def generate_structured(
    shape: GemmShape, pattern: SparsityPattern, *, seed: int = 0
) -> GeneratedOperands:
    """Generate operands with A magnitude-pruned to a fixed N:4 pattern."""
    if pattern is SparsityPattern.ROW_WISE:
        raise WorkloadError("use generate_unstructured for row-wise / unstructured A")
    dense = generate_dense(shape, seed=seed)
    pruned = prune_to_pattern(dense.a, pattern)
    degree = 1.0 - np.count_nonzero(pruned) / pruned.size
    return GeneratedOperands(
        a=pruned, b=dense.b, pattern=pattern, sparsity_degree=float(degree), seed=seed
    )


def generate_unstructured(
    shape: GemmShape, sparsity_degree: float, *, seed: int = 0
) -> GeneratedOperands:
    """Generate operands with A pruned to a target unstructured sparsity degree."""
    if not 0.0 <= sparsity_degree < 1.0:
        raise WorkloadError(
            f"sparsity degree must be in [0, 1), got {sparsity_degree}"
        )
    dense = generate_dense(shape, seed=seed)
    rng = np.random.default_rng(seed + 1)
    pruned = prune_unstructured(dense.a, sparsity_degree, rng=rng)
    actual = 1.0 - np.count_nonzero(pruned) / pruned.size
    return GeneratedOperands(
        a=pruned,
        b=dense.b,
        pattern=SparsityPattern.ROW_WISE,
        sparsity_degree=float(actual),
        seed=seed,
    )


@dataclass(frozen=True)
class DualSparseOperands:
    """A (sparse A, sparse B) pair generated for one SpGEMM problem.

    A is pruned along its rows (the K dimension) to ``pattern_a``; B is
    pruned along its *columns* (also the K dimension) to ``pattern_b`` — the
    column-block-wise encoding the ``TILE_SPGEMM`` instructions consume.
    """

    a: np.ndarray
    b: np.ndarray
    pattern_a: SparsityPattern
    pattern_b: SparsityPattern
    density_a: float
    density_b: float
    seed: int

    @property
    def shape(self) -> GemmShape:
        """The GEMM shape of the generated operands."""
        return GemmShape(m=self.a.shape[0], n=self.b.shape[1], k=self.a.shape[1])


def generate_dual_sparse(
    shape: GemmShape,
    pattern_a: SparsityPattern,
    pattern_b: SparsityPattern,
    *,
    seed: int = 0,
) -> DualSparseOperands:
    """Generate operands with both A and B magnitude-pruned to N:4 patterns.

    A is pruned row-wise along K as for SPMM workloads; B is pruned
    column-wise along K (pruning its transpose row-wise), so every column of
    B satisfies ``pattern_b`` within each block of 4 consecutive K positions.
    """
    for pattern in (pattern_a, pattern_b):
        if pattern is SparsityPattern.ROW_WISE:
            raise WorkloadError(
                "dual-sparse generation supports the fixed N:4 patterns only"
            )
    dense = generate_dense(shape, seed=seed)
    a = prune_to_pattern(dense.a, pattern_a)
    b = prune_to_pattern(dense.b.T, pattern_b).T.copy()
    return DualSparseOperands(
        a=a,
        b=b,
        pattern_a=pattern_a,
        pattern_b=pattern_b,
        density_a=float(np.count_nonzero(a) / a.size),
        density_b=float(np.count_nonzero(b) / b.size),
        seed=seed,
    )


def scaled_problem(shape: GemmShape, max_elements: int = 1 << 20) -> GemmShape:
    """Shrink a GEMM proportionally so its operands stay under a size budget.

    Functional validation of the Table IV layers does not need the full
    problem; this keeps the largest operand below ``max_elements`` while
    preserving tile-divisible dimensions.  Dimensions never *grow*: a
    dimension already below its tile multiple (or below the scaled target)
    is left alone rather than rounded up, so a tight budget cannot push the
    problem over ``max_elements`` or change sub-multiple shapes.
    """
    largest = max(shape.m * shape.k, shape.k * shape.n)
    if largest <= max_elements:
        return shape

    scale = (max_elements / largest) ** 0.5

    def shrink(value: int, multiple: int) -> int:
        scaled = max(multiple, int(value * scale) // multiple * multiple)
        return min(value, scaled)

    return GemmShape(
        m=shrink(shape.m, 16), n=shrink(shape.n, 16), k=shrink(shape.k, 128)
    )
