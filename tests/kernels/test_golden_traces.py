"""Golden-trace regression tests for every kernel builder.

Each snapshot pins the first ~50 trace ops of one builder in the stable text
format of :func:`format_trace` below, and a ``# sha256:`` header
line pins the *whole* trace: a digest over every column byte and the label
table.  A refactor that silently reorders, drops or relabels the emitted
instructions — which the cycle-level tests might absorb into a
plausible-looking number — fails loudly here, even past the first 50 ops.

Refreshing after an *intentional* trace change::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/kernels/test_golden_traces.py

then review the diff of ``tests/golden/`` like any other code change.
"""

import hashlib
import os
from pathlib import Path

import pytest

from repro.core.engine import AMX_GEOMETRY, SME_GEOMETRY
from repro.cpu.trace import TraceOpKind
from repro.kernels import memo
from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.memo import build_kernel, clear_build_memo
from repro.kernels.spgemm import build_spgemm_kernel
from repro.kernels.spmm import build_rowwise_spmm_kernel, build_spmm_kernel
from repro.kernels.vector import build_vector_gemm_kernel
from repro.types import DEFAULT_GEOMETRY, GemmShape, SparsityPattern
from repro.workloads.generator import generate_unstructured

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: Ops snapshotted per kernel: enough to cover the prologue, one full
#: steady-state block and the start of the next.
SNAPSHOT_OPS = 50

SHAPE = GemmShape(m=64, n=64, k=512)


def _rowwise_program():
    operands = generate_unstructured(GemmShape(m=32, n=32, k=128), 0.8, seed=7)
    return build_rowwise_spmm_kernel(operands.a, operands.b)


#: name -> zero-argument builder of the program to snapshot.
GOLDEN_KERNELS = {
    "gemm-optimized": lambda: build_dense_gemm_kernel(SHAPE),
    "gemm-listing1": lambda: build_dense_gemm_kernel(SHAPE, variant="listing1"),
    "spmm-2of4": lambda: build_spmm_kernel(SHAPE, SparsityPattern.SPARSE_2_4),
    "spmm-1of4": lambda: build_spmm_kernel(SHAPE, SparsityPattern.SPARSE_1_4),
    "spgemm-2of4": lambda: build_spgemm_kernel(SHAPE, SparsityPattern.SPARSE_2_4),
    "spgemm-1of4": lambda: build_spgemm_kernel(SHAPE, SparsityPattern.SPARSE_1_4),
    "spmm-rowwise": _rowwise_program,
    "vector-gemm": lambda: build_vector_gemm_kernel(GemmShape(m=32, n=32, k=64)),
    # Foreign tile geometries: AMX shares VEGETA's 16x64 B tile image (same
    # trace as gemm-optimized by construction), SME's 32x128 B tiles change
    # every address, transfer size and block boundary.
    "gemm-amx": lambda: build_dense_gemm_kernel(SHAPE, geometry=AMX_GEOMETRY),
    "gemm-sme": lambda: build_dense_gemm_kernel(SHAPE, geometry=SME_GEOMETRY),
}


#: Golden kernels also served by the build memo: (kind, pattern, geometry).
MEMOIZED_KERNELS = {
    "gemm-optimized": ("gemm", SparsityPattern.DENSE_4_4, DEFAULT_GEOMETRY),
    "gemm-sme": ("gemm", SparsityPattern.DENSE_4_4, SME_GEOMETRY),
    "spmm-2of4": ("spmm", SparsityPattern.SPARSE_2_4, DEFAULT_GEOMETRY),
    "spgemm-1of4": ("spgemm", SparsityPattern.SPARSE_1_4, DEFAULT_GEOMETRY),
}


def trace_digest(trace) -> str:
    """sha256 over a trace's full columns and its label table."""
    digest = hashlib.sha256(trace.columns.tobytes())
    digest.update("\x00".join(trace.labels).encode("utf-8"))
    return digest.hexdigest()


def format_trace_op(op) -> str:
    """Render one trace op in the stable golden-trace text format.

    The format is append-only by convention: ``tests/golden/`` snapshots it
    verbatim, so changing existing fields (rather than adding new ones at
    the end) is a deliberate, test-visible act.
    """
    if op.kind is TraceOpKind.TILE:
        instruction = op.tile
        fields = [f"TILE {instruction.opcode.value}"]
        if instruction.dst is not None:
            fields.append(f"dst={instruction.dst.name}")
        if instruction.src_a is not None:
            fields.append(f"a={instruction.src_a.name}")
        if instruction.src_b is not None:
            fields.append(f"b={instruction.src_b.name}")
        if instruction.memory is not None:
            fields.append(f"addr={instruction.memory.address:#x}")
            fields.append(f"bytes={instruction.memory.nbytes}")
        if op.label:
            fields.append(f"label={op.label!r}")
        if instruction.feed_overhead >= 0:
            fields.append(f"feed={instruction.feed_overhead}")
        return " ".join(fields)
    fields = [op.kind.value.upper()]
    if op.dst_reg is not None:
        fields.append(f"dst=v{op.dst_reg}")
    if op.src_regs:
        fields.append("src=" + ",".join(f"v{reg}" for reg in op.src_regs))
    if op.address is not None:
        fields.append(f"addr={op.address:#x}")
        fields.append(f"bytes={op.nbytes}")
    if op.label:
        fields.append(f"label={op.label!r}")
    return " ".join(fields)


def format_trace(trace, limit=None) -> str:
    """Render a trace (or its first ``limit`` ops) one op per line."""
    lines = []
    for index, op in enumerate(trace):
        if limit is not None and index >= limit:
            break
        lines.append(f"{index:4d}  {format_trace_op(op)}")
    return "\n".join(lines)


def _render(program):
    header = (
        f"# kernel: {program.label}\n"
        f"# trace ops: {len(program.trace)} (first {SNAPSHOT_OPS} shown)\n"
        f"# sha256: {trace_digest(program.trace)}\n"
    )
    return header + format_trace(program.trace.ops(), limit=SNAPSHOT_OPS) + "\n"


def _snapshot(name):
    return _render(GOLDEN_KERNELS[name]())


@pytest.mark.parametrize("name", sorted(GOLDEN_KERNELS))
def test_trace_matches_golden_snapshot(name):
    path = GOLDEN_DIR / f"{name}.txt"
    rendered = _snapshot(name)
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered, encoding="utf-8")
    assert path.exists(), (
        f"missing golden snapshot {path}; generate it with "
        "REPRO_UPDATE_GOLDEN=1 python -m pytest tests/kernels/test_golden_traces.py"
    )
    expected = path.read_text(encoding="utf-8")
    assert rendered == expected, (
        f"trace of {name} diverged from tests/golden/{name}.txt; if the "
        "change is intentional, refresh with REPRO_UPDATE_GOLDEN=1 and "
        "review the diff"
    )


def test_snapshots_are_deterministic():
    for name in GOLDEN_KERNELS:
        assert _snapshot(name) == _snapshot(name)


@pytest.mark.parametrize("name", sorted(MEMOIZED_KERNELS))
def test_memoized_build_matches_golden_snapshot_after_eviction(name, monkeypatch):
    kind, pattern, geometry = MEMOIZED_KERNELS[name]
    clear_build_memo()
    first = build_kernel(kind, SHAPE, pattern, geometry=geometry)
    # Room for this kernel alone: the next build evicts it.
    monkeypatch.setattr(memo, "BUILD_MEMO_MAX_ROWS", len(first.trace))
    build_kernel("gemm", GemmShape(m=32, n=32, k=64))
    rebuilt = build_kernel(kind, SHAPE, pattern, geometry=geometry)
    clear_build_memo()
    assert rebuilt.trace is not first.trace
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert _render(first) == expected
    assert _render(rebuilt) == expected
