#!/usr/bin/env python
"""Accelerating unstructured sparsity via the row-wise N:4 transformation.

Section III-D of the paper shows that any unstructured sparse matrix can be
covered losslessly by giving each row the tightest supported N:4 pattern,
which the VEGETA engine then executes with ``TILE_SPMM_R``.  This example:

1. prunes a weight matrix to 95 % unstructured sparsity,
2. applies the transformation and reports the per-row pattern mix,
3. runs the executable row-wise kernel and checks its result,
4. sweeps sparsity degrees and prints the expected speed-up of each hardware
   granularity class (the Figure 15 comparison).

Run with:  python examples/unstructured_to_rowwise.py  (exit status 1 if a
check fails)
"""

import sys

import numpy as np

from repro import GemmShape, SparsityPattern, build_rowwise_spmm_kernel, transform_unstructured
from repro.analysis.granularity import GRANULARITY_LABELS, granularity_speedups
from repro.kernels.validate import reference_gemm, run_functional
from repro.sparse import spe_column_occupancy
from repro.workloads import generate_unstructured


def main() -> None:
    shape = GemmShape(m=64, n=64, k=256)
    data = generate_unstructured(shape, 0.95, seed=0)
    print(f"weight matrix {shape.m}x{shape.k} at {data.sparsity_degree:.0%} unstructured sparsity")

    # Lossless covering with per-row N:4 patterns.
    tile = transform_unstructured(data.a)
    counts = {pattern.value: count for pattern, count in tile.pattern_counts.items()}
    print(f"row patterns after covering: {counts}")
    lossless = np.array_equal(tile.decompress(), data.a)
    print(f"lossless: {lossless}")
    if not lossless:
        sys.exit("the row-wise covering does not decompress to the input")
    print(
        f"SPE columns the {shape.m} rows occupy (Ncols = N4:4 + N2:4/2 + N1:4/4): "
        f"{spe_column_occupancy(tile):.1f}"
    )

    # Execute the TILE_SPMM_R kernel and verify.
    kernel = build_rowwise_spmm_kernel(data.a, data.b)
    result = run_functional(kernel)
    reference = reference_gemm(data.a, data.b)
    matches = np.allclose(result, reference, atol=1e-3)
    print(f"row-wise kernel matches reference: {matches}")
    if not matches:
        sys.exit("the row-wise kernel's result differs from the reference")
    print(f"TILE_SPMM_R instructions: {kernel.summary().by_opcode.get('TILE_SPMM_R', 0)}")

    # Figure 15 style comparison at a few sparsity degrees.
    print("\nexpected speed-up over a dense engine by granularity class:")
    header = f"{'sparsity':>9}" + "".join(f"{label.split(' (')[0]:>18}" for label in GRANULARITY_LABELS.values())
    print(header)
    for degree in (0.70, 0.80, 0.90, 0.95):
        sample = generate_unstructured(GemmShape(m=256, n=64, k=512), degree, seed=1)
        speedups = granularity_speedups(sample.a)
        row = f"{degree:>8.0%}" + "".join(f"{speedups[key]:>18.2f}" for key in GRANULARITY_LABELS)
        print(row)


if __name__ == "__main__":
    main()
