"""End-to-end convolution inference through im2col + VEGETA kernels."""

import numpy as np
import pytest
from reference_checks import direct_convolution

from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.im2col import ConvShape, im2col, weights_to_matrix
from repro.kernels.spmm import build_spmm_kernel
from repro.kernels.validate import run_functional
from repro.sparse.pruning import prune_to_pattern
from repro.types import SparsityPattern


@pytest.fixture
def conv_setup(rng):
    conv = ConvShape(out_channels=16, in_channels=8, in_height=8, in_width=8,
                     filter_height=3, filter_width=3, padding=1)
    activations = rng.standard_normal((8, 8, 8)).astype(np.float32)
    weights = rng.standard_normal((16, 8, 3, 3)).astype(np.float32)
    return conv, activations, weights


class TestDenseConvolution:
    def test_vegeta_gemm_matches_direct_convolution(self, conv_setup):
        conv, activations, weights = conv_setup
        a = weights_to_matrix(weights, conv)
        b = im2col(activations, conv)
        program = build_dense_gemm_kernel(conv.gemm_shape(), a=a, b=b)
        result = run_functional(program)
        expected = direct_convolution(activations, weights, conv).reshape(16, -1)
        # The engine computes with BF16 inputs, so allow the ~2^-8 relative
        # quantisation error against the FP32 direct convolution.
        assert np.allclose(result, expected, rtol=1e-2, atol=0.2)


class TestSparseConvolution:
    def test_pruned_weights_through_spmm_kernel(self, conv_setup):
        conv, activations, weights = conv_setup
        a = prune_to_pattern(weights_to_matrix(weights, conv), SparsityPattern.SPARSE_2_4)
        b = im2col(activations, conv)
        program = build_spmm_kernel(conv.gemm_shape(), SparsityPattern.SPARSE_2_4, a=a, b=b)
        result = run_functional(program)
        # Reference: the pruned weight matrix applied densely (FP32); the
        # kernel's BF16 inputs introduce ~2^-8 relative quantisation error.
        expected = a @ b
        assert np.allclose(result, expected, rtol=1e-2, atol=0.2)
