"""Functional validation of generated kernels against numpy references.

The paper checks its Pin-emulated kernels against reference GEMMs; these
helpers do the same for our kernel programs: run the trace on the
:class:`~repro.core.functional.FunctionalMachine`, read the C matrix back out
of the memory image, and compare against a BF16-rounded numpy reference with
an FP32-accumulation-appropriate tolerance.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.functional import FunctionalMachine
from ..errors import KernelError
from ..types import bf16_round
from .program import KernelProgram


def run_functional(program: KernelProgram) -> np.ndarray:
    """Execute a kernel program functionally and return the C result matrix."""
    if not program.has_data:
        raise KernelError("cannot functionally execute a trace-only kernel")
    machine = FunctionalMachine(program.memory, geometry=program.trace.geometry)
    for address, patterns in program.rowwise_patterns.items():
        machine.register_rowwise_patterns(address, patterns)
    machine.execute(op.tile for op in program.trace.ops() if op.tile is not None)
    return program.read_result()


def reference_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """BF16-input, FP32-accumulate reference result matching the hardware."""
    a_rounded = bf16_round(np.asarray(a, dtype=np.float32))
    b_rounded = bf16_round(np.asarray(b, dtype=np.float32))
    return (a_rounded @ b_rounded).astype(np.float32)


def reference_spgemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sparse x sparse reference product (BF16 inputs, FP32 accumulation).

    Computed through ``scipy.sparse`` CSR products when SciPy is available —
    an independent sparse code path to validate the SPGEMM kernels against —
    and falling back to the dense numpy reference otherwise (the container
    may not ship SciPy; the numerical result is identical either way because
    both accumulate in FP32 over the same non-zeros).
    """
    a_rounded = bf16_round(np.asarray(a, dtype=np.float32))
    b_rounded = bf16_round(np.asarray(b, dtype=np.float32))
    try:
        from scipy import sparse as scipy_sparse
    except ImportError:  # pragma: no cover - exercised only without SciPy
        return (a_rounded @ b_rounded).astype(np.float32)
    product = scipy_sparse.csr_matrix(a_rounded) @ scipy_sparse.csr_matrix(b_rounded)
    return np.asarray(product.todense(), dtype=np.float32)


def validate_spgemm_kernel(
    program: KernelProgram,
    a: np.ndarray,
    b: np.ndarray,
    *,
    rtol: float = 1e-3,
    atol: float = 1e-3,
) -> Tuple[bool, float]:
    """Run a SpGEMM kernel and compare it with the sparse reference product.

    Returns (matches, max_abs_error).
    """
    result = run_functional(program)
    reference = reference_spgemm(a, b)
    error = float(np.max(np.abs(result - reference))) if reference.size else 0.0
    matches = bool(np.allclose(result, reference, rtol=rtol, atol=atol))
    return matches, error
