#!/usr/bin/env python
"""Sparse convolutional inference: a ResNet-style layer through VEGETA.

Reproduces the workload the paper's introduction motivates: a convolutional
layer is lowered to GEMM with im2col, its weights are magnitude-pruned to a
structured N:4 pattern, and the resulting SPMM runs on the VEGETA engine.
The script verifies the sparse result against a direct convolution of the
pruned weights and compares simulated runtimes across 4:4 / 2:4 / 1:4.

Run with:  python examples/sparse_resnet_inference.py  (exit status 1 if the
check fails)
"""

import sys

import numpy as np

from repro import SparsityPattern
from repro.experiments import run_experiment
from repro.experiments.figures import figure13_spec
from repro.kernels import (
    ConvShape,
    build_spmm_kernel,
    im2col,
    run_functional,
    weights_to_matrix,
)
from repro.sparse import prune_to_pattern
from repro.workloads import get_layer


def main() -> None:
    # A scaled-down ResNet50-L2-style layer (3x3 convolution, same padding)
    # so the functional check stays fast; the timing sweep then uses the real
    # Table IV layer dimensions.
    conv = ConvShape(out_channels=32, in_channels=16, in_height=14, in_width=14,
                     filter_height=3, filter_width=3, padding=1)
    rng = np.random.default_rng(0)
    activations = rng.standard_normal((16, 14, 14)).astype(np.float32)
    weights = rng.standard_normal((32, 16, 3, 3)).astype(np.float32)

    gemm = conv.gemm_shape()
    print(f"conv {conv.out_channels}x{conv.in_channels}x{conv.filter_height}x{conv.filter_width} "
          f"-> GEMM {gemm.m}x{gemm.n}x{gemm.k}")

    # Functional check: pruned weights through the 2:4 SPMM kernel.
    weight_matrix = prune_to_pattern(weights_to_matrix(weights, conv), SparsityPattern.SPARSE_2_4)
    columns = im2col(activations, conv)
    kernel = build_spmm_kernel(gemm, SparsityPattern.SPARSE_2_4, a=weight_matrix, b=columns)
    output = run_functional(kernel).reshape(conv.out_channels, conv.out_height, conv.out_width)
    expected = (weight_matrix @ columns).reshape(output.shape)
    matches = np.allclose(output, expected, rtol=1e-2, atol=0.2)
    print(f"sparse convolution matches reference: {matches}")
    if not matches:
        sys.exit("the sparse convolution differs from the reference")

    # Timing sweep on the real ResNet50-L2 dimensions from Table IV, run
    # through the repro.experiments subsystem: the three points are cached on
    # disk, so re-running this script skips the simulations entirely.
    layer = get_layer("ResNet50-L2")
    engine_name = "VEGETA-S-16-2+OF"
    table = run_experiment(
        figure13_spec(
            layers=[layer.name],
            engine_names=[engine_name],
            patterns=(SparsityPattern.DENSE_4_4, SparsityPattern.SPARSE_2_4,
                      SparsityPattern.SPARSE_1_4),
            max_output_tiles=4,
        )
    )
    print(f"\n{layer.name}: GEMM {layer.gemm.m}x{layer.gemm.n}x{layer.gemm.k} "
          f"({layer.macs:,} MACs), engine {engine_name} "
          f"({table.meta['cached']} cached, {table.meta['executed']} simulated)")
    baseline_cycles = table.rows[0]["core_cycles_scaled"]
    for point in table:
        print(f"  weights {point['pattern']:>3}: {point['core_cycles_scaled']:>12,.0f} core cycles "
              f"({baseline_cycles / point['core_cycles_scaled']:.2f}x vs dense)")


if __name__ == "__main__":
    main()
