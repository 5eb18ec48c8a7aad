"""Vector-engine (SIMD) GEMM kernels — the Figure 4 baseline.

The paper contrasts matrix engines against a conventional 512-bit vector
engine: the same GEMM needs far more dynamic instructions when each FMA only
covers 32 BF16 MACs, and the instruction-fetch/issue overhead translates into
the 20-60x runtime gap of Figure 4.

The kernel here is a register-blocked dense GEMM in the style of a
hand-optimised AVX-512 microkernel: for each block of ``MR`` C rows and one
64-byte vector of C columns, it streams K, broadcasting A elements and
issuing one FMA per (row, k) pair.  Only the trace (instruction mix + memory
addresses) is produced — numerical validation of the vector path is covered
by numpy in the tests, since vector semantics are standard.
"""

from __future__ import annotations

from typing import Optional

from ..cpu.columnar import TraceBuilder
from ..errors import KernelError
from ..types import GemmShape
from .program import KernelProgram
from ..types import SparsityPattern

#: BF16 elements per 512-bit vector register.
VECTOR_ELEMENTS = 32

#: Vector register bytes.
VECTOR_BYTES = 64

#: C-row blocking factor of the microkernel (rows kept in accumulators).
DEFAULT_MR = 4


def build_vector_gemm_kernel(
    shape: GemmShape,
    *,
    mr: int = DEFAULT_MR,
    max_row_blocks: Optional[int] = None,
) -> KernelProgram:
    """Build a dense GEMM kernel for the vector (SIMD) engine.

    Parameters
    ----------
    shape:
        GEMM dimensions; N and K are rounded up to the vector length.
    mr:
        Register blocking in the M dimension (accumulator rows held live).
    max_row_blocks:
        Optional truncation for large problems, recorded in
        ``simulated_fraction`` exactly like the tile kernels.
    """
    if mr <= 0:
        raise KernelError(f"row blocking must be positive, got {mr}")

    def round_up(value: int, multiple: int) -> int:
        return ((value + multiple - 1) // multiple) * multiple

    padded_n = round_up(shape.n, VECTOR_ELEMENTS)
    padded_k = round_up(shape.k, VECTOR_ELEMENTS)
    padded_m = round_up(shape.m, mr)

    a_base = 0x10000
    b_base = a_base + padded_m * padded_k * 2
    c_base = b_base + padded_k * padded_n * 2

    n_blocks = padded_n // VECTOR_ELEMENTS
    row_blocks = padded_m // mr
    total_blocks = row_blocks * n_blocks
    traced_row_blocks = row_blocks if max_row_blocks is None else min(
        max_row_blocks, row_blocks
    )

    trace = TraceBuilder()
    next_reg = 0

    def fresh_reg() -> int:
        nonlocal next_reg
        register = next_reg
        next_reg = (next_reg + 1) % 32
        return register

    emitted_blocks = 0
    for row_block in range(traced_row_blocks):
        for col_block in range(n_blocks):
            emitted_blocks += 1
            for _ in range(4):
                trace.scalar("block-loop")
            trace.branch("block-loop")
            # Load the MR x 32 C accumulators.
            accumulators = []
            for row in range(mr):
                register = fresh_reg()
                accumulators.append(register)
                address = c_base + (
                    (row_block * mr + row) * padded_n + col_block * VECTOR_ELEMENTS
                ) * 2
                trace.vector_load(register, address, VECTOR_BYTES, "load C")
            for k in range(padded_k):
                # One B vector serves all MR rows.
                b_register = fresh_reg()
                b_address = b_base + (k * padded_n + col_block * VECTOR_ELEMENTS) * 2
                trace.vector_load(b_register, b_address, VECTOR_BYTES, "load B")
                for row in range(mr):
                    # The broadcast of A[row][k] is a memory operand folded
                    # into the FMA (as AVX-512 embedded-broadcast FMAs do), so
                    # it does not cost a separate dynamic instruction; its
                    # 2-byte traffic is negligible and L1-resident.
                    trace.vector_fma(accumulators[row], (b_register,), "fma+bcast A")
                trace.scalar("k-loop")
                trace.branch("k-loop")
            for row in range(mr):
                address = c_base + (
                    (row_block * mr + row) * padded_n + col_block * VECTOR_ELEMENTS
                ) * 2
                trace.vector_store(accumulators[row], address, VECTOR_BYTES, "store C")

    simulated_fraction = (
        emitted_blocks / total_blocks if total_blocks else 1.0
    )
    return KernelProgram(
        trace=trace.finish(),
        shape=shape,
        pattern=SparsityPattern.DENSE_4_4,
        simulated_fraction=simulated_fraction,
        label="vector-gemm",
    )
