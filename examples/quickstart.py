#!/usr/bin/env python
"""Quickstart: run a 2:4 sparse GEMM on a VEGETA engine, end to end.

This walks the full flow of the library in ~60 lines:

1. generate a GEMM problem and magnitude-prune the weights to 2:4 sparsity,
2. build a ``TILE_SPMM_U`` kernel (instruction trace + memory image),
3. execute it on the functional model and check the numerics against numpy,
4. simulate the same trace on the cycle-approximate CPU model with both the
   state-of-the-art dense engine (RASA-DM) and VEGETA-S-16-2 with output
   forwarding, and report the speed-up.

Run with:  python examples/quickstart.py  (exit status 1 if the check fails)
"""

import sys

import numpy as np

from repro import (
    CycleApproximateSimulator,
    GemmShape,
    SparsityPattern,
    build_dense_gemm_kernel,
    build_spmm_kernel,
    get_engine,
    run_functional,
)
from repro.kernels.validate import reference_gemm
from repro.workloads import generate_structured


def main() -> None:
    shape = GemmShape(m=128, n=128, k=512)
    print(f"GEMM problem: C({shape.m}x{shape.n}) += A({shape.m}x{shape.k}) x B({shape.k}x{shape.n})")

    # 1. Synthetic operands with A pruned to 2:4 structured sparsity.
    data = generate_structured(shape, SparsityPattern.SPARSE_2_4, seed=0)
    print(f"weight sparsity degree: {data.sparsity_degree:.0%}")

    # 2. Build the sparse kernel (with data, so it can be executed functionally).
    sparse_kernel = build_spmm_kernel(shape, SparsityPattern.SPARSE_2_4, a=data.a, b=data.b)
    summary = sparse_kernel.summary()
    print(f"kernel: {summary.tile_compute} TILE_SPMM_U, {summary.tile_load} tile loads, "
          f"{summary.tile_store} tile stores, {summary.total} instructions total")

    # 3. Functional execution and numerical check.
    result = run_functional(sparse_kernel)
    reference = reference_gemm(data.a, data.b)
    max_error = float(np.max(np.abs(result - reference)))
    matches = np.allclose(result, reference, atol=1e-3)
    print(f"functional result matches numpy reference: {matches} "
          f"(max abs error {max_error:.2e})")
    if not matches:
        sys.exit("the 2:4 kernel's functional result differs from numpy")

    # 4. Timing: SOTA dense engine running the dense kernel vs VEGETA-S + OF
    #    running the sparse kernel.
    dense_kernel = build_dense_gemm_kernel(shape)
    rasa_dm = get_engine("VEGETA-D-1-2")
    vegeta = get_engine("VEGETA-S-16-2").with_output_forwarding()

    dense_cycles = CycleApproximateSimulator(engine=rasa_dm).run(dense_kernel.trace).core_cycles
    sparse_cycles = CycleApproximateSimulator(engine=vegeta).run(sparse_kernel.trace).core_cycles
    print(f"RASA-DM (dense kernel):        {dense_cycles:>9,} core cycles")
    print(f"VEGETA-S-16-2+OF (2:4 kernel): {sparse_cycles:>9,} core cycles")
    print(f"speed-up: {dense_cycles / sparse_cycles:.2f}x")


if __name__ == "__main__":
    main()
