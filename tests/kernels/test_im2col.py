"""Tests for the im2col convolution lowering."""

import numpy as np
import pytest
from reference_checks import direct_convolution

from repro.errors import WorkloadError
from repro.kernels.im2col import ConvShape, im2col, weights_to_matrix


class TestConvShape:
    def test_output_dims_same_padding(self):
        conv = ConvShape(64, 64, 56, 56, 3, 3, padding=1)
        assert conv.out_height == 56 and conv.out_width == 56

    def test_output_dims_no_padding(self):
        conv = ConvShape(8, 4, 10, 10, 3, 3)
        assert conv.out_height == 8 and conv.out_width == 8

    def test_strided_output(self):
        conv = ConvShape(8, 4, 10, 10, 3, 3, stride=2)
        assert conv.out_height == 4

    def test_gemm_shape(self):
        conv = ConvShape(64, 256, 56, 56, 1, 1)
        gemm = conv.gemm_shape()
        assert (gemm.m, gemm.n, gemm.k) == (64, 3136, 256)

    def test_macs_match_table_iv_layer(self):
        conv = ConvShape(64, 64, 56, 56, 3, 3, padding=1)
        assert conv.gemm_shape().macs == 115_605_504

    def test_invalid_shape(self):
        with pytest.raises(WorkloadError):
            ConvShape(0, 1, 4, 4, 1, 1)

    def test_empty_output_rejected(self):
        with pytest.raises(WorkloadError):
            ConvShape(1, 1, 2, 2, 5, 5)


class TestIm2col:
    def test_column_matrix_shape(self, rng):
        conv = ConvShape(4, 3, 8, 8, 3, 3, padding=1)
        activations = rng.standard_normal((3, 8, 8)).astype(np.float32)
        columns = im2col(activations, conv)
        assert columns.shape == (3 * 9, 64)

    def test_identity_filter_reproduces_input(self, rng):
        conv = ConvShape(1, 1, 6, 6, 1, 1)
        activations = rng.standard_normal((1, 6, 6)).astype(np.float32)
        columns = im2col(activations, conv)
        assert np.array_equal(columns.reshape(6, 6), activations[0])

    def test_wrong_activation_shape(self, rng):
        conv = ConvShape(4, 3, 8, 8, 3, 3)
        with pytest.raises(WorkloadError):
            im2col(rng.standard_normal((3, 4, 4)), conv)


class TestDirectConvolution:
    def test_matches_manual_convolution(self, rng):
        conv = ConvShape(2, 3, 5, 5, 3, 3, padding=1)
        activations = rng.standard_normal((3, 5, 5)).astype(np.float32)
        weights = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        result = direct_convolution(activations, weights, conv)
        padded = np.pad(activations, ((0, 0), (1, 1), (1, 1)))
        expected = np.zeros((2, 5, 5), dtype=np.float32)
        for k in range(2):
            for y in range(5):
                for x in range(5):
                    expected[k, y, x] = np.sum(
                        padded[:, y : y + 3, x : x + 3] * weights[k]
                    )
        assert np.allclose(result, expected, rtol=1e-5, atol=1e-5)

    def test_weights_matrix_shape(self, rng):
        conv = ConvShape(8, 4, 6, 6, 3, 3)
        weights = rng.standard_normal((8, 4, 3, 3)).astype(np.float32)
        assert weights_to_matrix(weights, conv).shape == (8, 36)

    def test_weights_shape_checked(self, rng):
        conv = ConvShape(8, 4, 6, 6, 3, 3)
        with pytest.raises(WorkloadError):
            weights_to_matrix(rng.standard_normal((8, 4, 2, 2)), conv)
