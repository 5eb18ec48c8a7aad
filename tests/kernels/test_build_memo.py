"""The per-process build memo: shared read-only traces, full keys, a row bound."""

import numpy as np
import pytest

from repro.core.engine import SME_GEOMETRY
from repro.errors import KernelError
from repro.kernels import memo
from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.memo import build_kernel, build_memo_rows, clear_build_memo
from repro.kernels.spgemm import build_spgemm_kernel
from repro.kernels.spmm import build_spmm_kernel
from repro.types import GemmShape, SparsityPattern

SHAPE = GemmShape(64, 64, 256)

#: One single-cell dense kernel per cell of SHAPE's 2x2 block grid; all four
#: have the same row count.
CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_build_memo()
    yield
    clear_build_memo()


def _direct(kind, shape, pattern=SparsityPattern.DENSE_4_4, **options):
    if kind == "gemm":
        return build_dense_gemm_kernel(shape, **options)
    if kind == "spmm":
        return build_spmm_kernel(shape, pattern, **options)
    return build_spgemm_kernel(shape, pattern, **options)


def _assert_same_build(program, reference):
    assert program.trace.columns.tobytes() == reference.trace.columns.tobytes()
    assert program.trace.labels == reference.trace.labels
    assert program.trace.geometry == reference.trace.geometry
    assert program.trace.block_starts == reference.trace.block_starts
    assert program.simulated_fraction == reference.simulated_fraction
    assert program.label == reference.label


def test_hit_shares_the_trace_behind_a_fresh_wrapper():
    first = build_kernel("gemm", SHAPE)
    second = build_kernel("gemm", SHAPE)
    assert second.trace is first.trace
    assert second is not first
    first.label = "edited"
    assert build_kernel("gemm", SHAPE).label == "dense-gemm-optimized"


def test_memoized_columns_are_read_only():
    program = build_kernel("spmm", SHAPE, SparsityPattern.SPARSE_2_4)
    with pytest.raises(ValueError):
        program.trace.columns["address"][0] = 0


#: (base arguments, changed arguments): every builder argument is in the key.
KEY_VARIANTS = {
    "kind": ({}, {"kind": "spmm", "pattern": SparsityPattern.SPARSE_2_4}),
    "pattern": (
        {"kind": "spgemm", "pattern": SparsityPattern.SPARSE_2_4},
        {"kind": "spgemm", "pattern": SparsityPattern.SPARSE_1_4},
    ),
    "shape": ({}, {"shape": GemmShape(64, 64, 512)}),
    "geometry": ({}, {"geometry": SME_GEOMETRY}),
    "blocks": ({}, {"blocks": [(1, 0)]}),
    "max_output_tiles": ({}, {"max_output_tiles": 2}),
}


@pytest.mark.parametrize("argument", sorted(KEY_VARIANTS))
def test_every_builder_argument_is_part_of_the_key(argument):
    base, changed = KEY_VARIANTS[argument]
    programs = []
    for arguments in (base, {**base, **changed}):
        arguments = {"kind": "gemm", "shape": SHAPE, **arguments}
        kind, shape = arguments.pop("kind"), arguments.pop("shape")
        program = build_kernel(kind, shape, **arguments)
        _assert_same_build(program, _direct(kind, shape, **arguments))
        programs.append(program)
    assert programs[0].trace is not programs[1].trace


def test_data_carrying_builds_bypass_the_memo(rng):
    a = rng.standard_normal((SHAPE.m, SHAPE.k)).astype(np.float32)
    b = rng.standard_normal((SHAPE.k, SHAPE.n)).astype(np.float32)
    program = build_kernel("gemm", SHAPE, a=a, b=b)
    assert program.has_data
    assert build_memo_rows() == 0
    assert build_kernel("gemm", SHAPE, a=a, b=b).trace is not program.trace


def test_unknown_kind_is_rejected():
    with pytest.raises(KernelError, match="unknown kernel kind"):
        build_kernel("conv", SHAPE)


def test_memo_stays_within_its_row_bound(monkeypatch):
    rows = len(build_dense_gemm_kernel(SHAPE, blocks=[CELLS[0]]).trace)
    bound = 2 * rows + rows // 2  # room for two of the four kernels
    monkeypatch.setattr(memo, "BUILD_MEMO_MAX_ROWS", bound)
    built = []
    for cell in CELLS:
        built.append(build_kernel("gemm", SHAPE, blocks=[cell]))
        assert build_memo_rows() <= bound
    assert build_memo_rows() == 2 * rows
    # Oldest first: the last two are retained, the first two were evicted.
    assert build_kernel("gemm", SHAPE, blocks=[CELLS[3]]).trace is built[3].trace
    rebuilt = build_kernel("gemm", SHAPE, blocks=[CELLS[0]])
    assert rebuilt.trace is not built[0].trace
    _assert_same_build(rebuilt, built[0])


def test_kernel_larger_than_the_bound_is_not_retained(monkeypatch):
    monkeypatch.setattr(memo, "BUILD_MEMO_MAX_ROWS", 10)
    first = build_kernel("gemm", SHAPE)
    assert build_memo_rows() == 0
    assert build_kernel("gemm", SHAPE).trace is not first.trace


def _summed_rows():
    return sum(len(program.trace) for program in memo._BUILD_MEMO.values())


def test_running_row_count_equals_the_retained_sum(monkeypatch):
    rows = len(build_dense_gemm_kernel(SHAPE, blocks=[CELLS[0]]).trace)
    monkeypatch.setattr(memo, "BUILD_MEMO_MAX_ROWS", 3 * rows)
    shapes = (SHAPE, GemmShape(32, 32, 64), GemmShape(48, 16, 128))
    for cell in CELLS + CELLS[:2]:
        build_kernel("gemm", SHAPE, blocks=[cell])
        assert build_memo_rows() == _summed_rows()
    for shape in shapes:
        build_kernel("spgemm", shape, SparsityPattern.SPARSE_1_4, max_output_tiles=2)
        assert build_memo_rows() == _summed_rows() <= 3 * rows
    build_kernel("gemm", SHAPE)  # larger than the bound: not retained
    assert build_memo_rows() == _summed_rows()
    clear_build_memo()
    assert build_memo_rows() == _summed_rows() == 0
    build_kernel("gemm", SHAPE, blocks=[CELLS[1]])
    assert build_memo_rows() == _summed_rows() == rows
