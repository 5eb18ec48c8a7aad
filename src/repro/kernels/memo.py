"""One memoized entry point for trace-only kernel builds.

A sweep builds the same kernel over and over: the ten engines of a Figure 13
point run one of three kernels per layer, the topology axis and the baselines
of ``scaling`` re-shard the same block grids, and the planner re-shards per
candidate.  A builder is a pure function of its arguments, so
:func:`build_kernel` keys every one of them and builds each distinct kernel
once per process.  Callers get a fresh :class:`KernelProgram` wrapper over
one shared, read-only :class:`~repro.cpu.columnar.ColumnarTrace`, whose
derived views (signature ids, memo-key hashes, oracle scripts) are then
also computed once for every caller.

The memo holds at most :data:`BUILD_MEMO_MAX_ROWS` trace rows and evicts the
oldest entries first; an evicted kernel is simply rebuilt, byte-identically.
Builds that carry operand data (``a`` / ``b``) bypass it.

Next to the builds sit the builders' block templates
(:mod:`repro.kernels.template`), keyed by the build key without ``blocks`` /
``max_output_tiles``: every per-core build of a sharded kernel, and every
truncation of it, stamps from one set of templates.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..errors import KernelError
from ..types import DEFAULT_GEOMETRY, GemmShape, SparsityPattern, TileGeometry
from .program import KernelProgram
from .template import BlockTemplate, BlockTemplates

#: Kernel kinds :func:`build_kernel` dispatches on.
KERNEL_KINDS = ("gemm", "spmm", "spgemm")

#: Total trace rows the memo retains.  A retained row costs ~37 bytes of
#: columns plus ~60 bytes of derived views (signature ids, L1 outcomes and
#: the oracle script; the simulator keeps no per-row ops), and a kernel's
#: first simulation briefly needs more per row for its oracle script's
#: temporaries.  Eviction runs before that, at insertion, so the bound caps
#: what coexists with them.  It holds the largest Table IV kernel (GPT-L3
#: dense, 0.27 M rows), keeping a full Figure 13 sweep's peak RSS near the
#: unmemoized run's; 0.5 M rows raised it by 40%, 1 M rows by 95%.
BUILD_MEMO_MAX_ROWS = 300_000

#: key -> prototype program, oldest first.
_BUILD_MEMO: "OrderedDict[tuple, KernelProgram]" = OrderedDict()

#: Trace rows of every program in ``_BUILD_MEMO``, kept as it changes.
_memo_rows = 0

#: Kernels whose block templates are retained, oldest evicted first.  One
#: kernel's templates hold at most four blocks' rows.
TEMPLATE_MEMO_MAX_KERNELS = 64

#: template key -> one kernel's block templates, oldest first.
_TEMPLATES: "OrderedDict[tuple, BlockTemplates]" = OrderedDict()


def clear_build_memo() -> None:
    """Drop every memoized build and block template (tests and benchmarks)."""
    global _memo_rows
    _BUILD_MEMO.clear()
    _memo_rows = 0
    _TEMPLATES.clear()


def build_memo_rows() -> int:
    """Trace rows the memo currently retains."""
    return _memo_rows


def block_templates(
    key: tuple, make: Callable[[], Tuple[Optional[BlockTemplate], ...]]
) -> BlockTemplates:
    """One kernel's block templates: ``make()`` once per ``key``, then shared
    by its builds and by the counts taken from them.

    ``key`` names the kernel without the cells or truncation of a build.
    """
    templates = _TEMPLATES.get(key)
    if templates is None:
        templates = _TEMPLATES[key] = BlockTemplates(make())
        while len(_TEMPLATES) > TEMPLATE_MEMO_MAX_KERNELS:
            _TEMPLATES.popitem(last=False)
    return templates


def build_kernel(
    kind: str,
    shape: GemmShape,
    pattern: SparsityPattern = SparsityPattern.DENSE_4_4,
    *,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    max_output_tiles: Optional[int] = None,
    blocks: Optional[Sequence[Tuple[int, int]]] = None,
    geometry: TileGeometry = DEFAULT_GEOMETRY,
) -> KernelProgram:
    """Build a ``kind`` kernel (``"gemm"`` / ``"spmm"`` / ``"spgemm"``).

    ``pattern`` is the executed pattern (ignored by the dense kernel); the
    keyword arguments are those of the builders.  Trace-only builds are
    served from the per-process memo.
    """
    if kind not in KERNEL_KINDS:
        raise KernelError(f"unknown kernel kind {kind!r}; expected one of {KERNEL_KINDS}")
    if kind == "gemm":
        pattern = SparsityPattern.DENSE_4_4
    options = dict(
        max_output_tiles=max_output_tiles,
        blocks=blocks,
        geometry=geometry,
    )
    if a is not None or b is not None:
        return _build(kind, shape, pattern, a=a, b=b, **options)
    key = (
        kind,
        shape,
        pattern,
        geometry,
        max_output_tiles,
        None if blocks is None else tuple(tuple(cell) for cell in blocks),
    )
    program = _BUILD_MEMO.get(key)
    if program is None:
        program = _build(kind, shape, pattern, **options)
        _remember(key, program)
    return dataclasses.replace(program, rowwise_patterns=dict(program.rowwise_patterns))


def _build(kind: str, shape: GemmShape, pattern: SparsityPattern, **options) -> KernelProgram:
    # The builders import this module for their templates, so they are
    # looked up here, at call time, rather than bound at import.
    from . import gemm, spgemm, spmm

    if kind == "gemm":
        return gemm.build_dense_gemm_kernel(shape, **options)
    if kind == "spmm":
        return spmm.build_spmm_kernel(shape, pattern, **options)
    return spgemm.build_spgemm_kernel(shape, pattern, **options)


def _remember(key: tuple, program: KernelProgram) -> None:
    """Insert a finished build, then evict oldest-first down to the bound."""
    global _memo_rows
    if len(program.trace) > BUILD_MEMO_MAX_ROWS:
        return
    _BUILD_MEMO[key] = program
    _memo_rows += len(program.trace)
    while _memo_rows > BUILD_MEMO_MAX_ROWS:
        _, evicted = _BUILD_MEMO.popitem(last=False)
        _memo_rows -= len(evicted.trace)
