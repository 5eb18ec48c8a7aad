"""Image-to-column (im2col) lowering of convolutional layers to GEMM.

The evaluation converts ResNet-50 convolutions to GEMMs with im2col
(Section VI-B); the GEMM dimensions follow the standard mapping

* M = K (output channels),
* N = P x Q (output spatial positions),
* K = C x R x S (input channels x filter height x width).

Besides the dimension mapping, :func:`im2col` materialises the actual column
matrix so small convolutions can be validated end-to-end against a direct
convolution reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError
from ..types import GemmShape


@dataclass(frozen=True)
class ConvShape:
    """Dimensions of a 2-D convolution layer (single image, stride/pad configurable)."""

    out_channels: int  # K
    in_channels: int  # C
    in_height: int  # Y
    in_width: int  # X
    filter_height: int  # R
    filter_width: int  # S
    stride: int = 1
    padding: int = 0

    def __post_init__(self) -> None:
        values = (
            self.out_channels,
            self.in_channels,
            self.in_height,
            self.in_width,
            self.filter_height,
            self.filter_width,
        )
        if min(values) <= 0 or self.stride <= 0 or self.padding < 0:
            raise WorkloadError(f"invalid convolution shape {self!r}")
        if self.out_height <= 0 or self.out_width <= 0:
            raise WorkloadError(
                f"convolution {self!r} produces an empty output feature map"
            )

    @property
    def out_height(self) -> int:
        """Output feature-map height P."""
        return (self.in_height + 2 * self.padding - self.filter_height) // self.stride + 1

    @property
    def out_width(self) -> int:
        """Output feature-map width Q."""
        return (self.in_width + 2 * self.padding - self.filter_width) // self.stride + 1

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations of the direct convolution."""
        return (
            self.out_channels
            * self.in_channels
            * self.out_height
            * self.out_width
            * self.filter_height
            * self.filter_width
        )

    def gemm_shape(self) -> GemmShape:
        """The im2col GEMM dimensions (M=K, N=PxQ, K=CxRxS)."""
        return GemmShape(
            m=self.out_channels,
            n=self.out_height * self.out_width,
            k=self.in_channels * self.filter_height * self.filter_width,
        )


def im2col(activations: np.ndarray, conv: ConvShape) -> np.ndarray:
    """Lower an input feature map to the column matrix of the im2col GEMM.

    ``activations`` has shape (C, Y, X); the result has shape
    (C*R*S, P*Q) so that ``weights_matrix @ columns`` equals the convolution
    output flattened over (P, Q).
    """
    activations = np.asarray(activations, dtype=np.float32)
    if activations.shape != (conv.in_channels, conv.in_height, conv.in_width):
        raise WorkloadError(
            f"activations of shape {activations.shape} do not match {conv!r}"
        )
    padded = np.pad(
        activations,
        ((0, 0), (conv.padding, conv.padding), (conv.padding, conv.padding)),
    )
    columns = np.zeros(
        (
            conv.in_channels * conv.filter_height * conv.filter_width,
            conv.out_height * conv.out_width,
        ),
        dtype=np.float32,
    )
    column = 0
    for out_y in range(conv.out_height):
        for out_x in range(conv.out_width):
            y0 = out_y * conv.stride
            x0 = out_x * conv.stride
            patch = padded[
                :, y0 : y0 + conv.filter_height, x0 : x0 + conv.filter_width
            ]
            columns[:, column] = patch.reshape(-1)
            column += 1
    return columns


def weights_to_matrix(weights: np.ndarray, conv: ConvShape) -> np.ndarray:
    """Flatten convolution weights (K, C, R, S) to the (K, C*R*S) GEMM operand."""
    weights = np.asarray(weights, dtype=np.float32)
    expected = (
        conv.out_channels,
        conv.in_channels,
        conv.filter_height,
        conv.filter_width,
    )
    if weights.shape != expected:
        raise WorkloadError(
            f"weights of shape {weights.shape} do not match {expected}"
        )
    return weights.reshape(conv.out_channels, -1)
