"""Reference checks the kernel and integration tests share.

* :func:`validate_kernel` runs a kernel program on the functional model and
  compares its C matrix with the BF16-input, FP32-accumulate reference GEMM.
* :func:`direct_convolution` is the convolution the im2col lowering must
  reproduce.
"""

from typing import Tuple

import numpy as np

from repro.kernels.im2col import ConvShape, im2col, weights_to_matrix
from repro.kernels.program import KernelProgram
from repro.kernels.validate import reference_gemm, run_functional


def validate_kernel(
    program: KernelProgram,
    a: np.ndarray,
    b: np.ndarray,
    *,
    rtol: float = 1e-3,
    atol: float = 1e-3,
) -> Tuple[bool, float]:
    """Run a kernel and compare it with the reference GEMM.

    Returns (matches, max_abs_error).  Tolerances account for the different
    accumulation orders of the systolic execution and numpy's dot product.
    """
    result = run_functional(program)
    reference = reference_gemm(a, b)
    error = float(np.max(np.abs(result - reference))) if reference.size else 0.0
    matches = bool(np.allclose(result, reference, rtol=rtol, atol=atol))
    return matches, error


def direct_convolution(
    activations: np.ndarray, weights: np.ndarray, conv: ConvShape
) -> np.ndarray:
    """Reference direct convolution, output shape (K, P, Q)."""
    columns = im2col(activations, conv)
    matrix = weights_to_matrix(weights, conv)
    output = matrix @ columns
    return output.reshape(conv.out_channels, conv.out_height, conv.out_width)
