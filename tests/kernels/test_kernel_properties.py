"""Property-based tests: every generated kernel computes the right answer."""

import numpy as np
from hypothesis import given, settings, strategies as st
from reference_checks import validate_kernel

from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.spmm import build_rowwise_spmm_kernel, build_spmm_kernel
from repro.types import GemmShape, SparsityPattern
from repro.workloads.generator import (
    generate_dense,
    generate_structured,
    generate_unstructured,
)


@settings(max_examples=12, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_dense_gemm_kernel_matches_reference(m, n, k, seed):
    shape = GemmShape(m=m * 16, n=n * 16, k=k * 32)
    data = generate_dense(shape, seed=seed)
    program = build_dense_gemm_kernel(shape, a=data.a, b=data.b)
    matches, error = validate_kernel(program, data.a, data.b)
    assert matches, f"max error {error}"


@settings(max_examples=12, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=2),
    k=st.integers(min_value=1, max_value=3),
    pattern=st.sampled_from([SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_spmm_kernel_matches_reference(m, n, k, pattern, seed):
    tile_k = 32 * pattern.compression_ratio
    shape = GemmShape(m=m * 16, n=n * 16, k=k * tile_k)
    data = generate_structured(shape, pattern, seed=seed)
    program = build_spmm_kernel(shape, pattern, a=data.a, b=data.b)
    matches, error = validate_kernel(program, data.a, data.b)
    assert matches, f"max error {error}"


@settings(max_examples=10, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=48),
    k_chunks=st.integers(min_value=1, max_value=2),
    degree=st.floats(min_value=0.0, max_value=0.98),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_rowwise_kernel_matches_reference(m, k_chunks, degree, seed):
    shape = GemmShape(m=m, n=16, k=k_chunks * 64)
    data = generate_unstructured(shape, degree, seed=seed)
    program = build_rowwise_spmm_kernel(data.a, data.b)
    matches, error = validate_kernel(program, data.a, data.b)
    assert matches, f"max error {error}"
