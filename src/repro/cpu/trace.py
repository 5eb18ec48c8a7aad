"""Dynamic instruction traces consumed by the cycle-approximate simulator.

The paper generates traces of its kernels with a Pin tool and feeds them to
MacSim; our kernel generators emit the same kind of trace directly.  A trace
is an ordered sequence of :class:`TraceOp` records covering three instruction
classes:

* **tile ops** — VEGETA instructions (Table II), carrying the full
  :class:`~repro.core.isa.Instruction`,
* **vector ops** — AVX-512-like loads/stores/FMAs used by the vector-engine
  baseline kernels of Figure 4,
* **scalar ops** — loop/address-generation/branch overhead.

Traces are stored column-wise (:class:`repro.cpu.columnar.ColumnarTrace`,
encoded by a :class:`repro.cpu.columnar.TraceBuilder`), which also answers
the whole-trace questions — instruction-mix summaries, memory footprints,
timing signatures.  ``TraceOp`` records are only its object view: the
simulator decodes one per distinct signature, and whole op lists
materialise from the columns on request (:meth:`ColumnarTrace.ops` for
validation, golden traces and tests).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..core.isa import Instruction
from ..errors import SimulationError


class TraceOpKind(enum.Enum):
    """Top-level class of a trace record."""

    TILE = "tile"
    VECTOR_LOAD = "vector_load"
    VECTOR_STORE = "vector_store"
    VECTOR_FMA = "vector_fma"
    SCALAR = "scalar"
    BRANCH = "branch"


@dataclass(frozen=True)
class TraceOp:
    """One dynamic instruction in a trace.

    ``tile`` is set only for :attr:`TraceOpKind.TILE`.  Vector ops use the
    integer ``dst_reg`` / ``src_regs`` namespace (architectural vector
    registers) and ``address`` / ``nbytes`` for their memory operand.
    """

    kind: TraceOpKind
    tile: Optional[Instruction] = None
    dst_reg: Optional[int] = None
    src_regs: Tuple[int, ...] = ()
    address: Optional[int] = None
    nbytes: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind is TraceOpKind.TILE and self.tile is None:
            raise SimulationError("a TILE trace op must carry an Instruction")
        if self.kind is not TraceOpKind.TILE and self.tile is not None:
            raise SimulationError("only TILE trace ops may carry an Instruction")
        if self.kind in (TraceOpKind.VECTOR_LOAD, TraceOpKind.VECTOR_STORE):
            if self.address is None or self.nbytes <= 0:
                raise SimulationError(f"{self.kind.value} needs an address and size")

    @property
    def is_memory(self) -> bool:
        """True if the op accesses memory."""
        if self.kind is TraceOpKind.TILE:
            return self.tile.opcode.is_load or self.tile.opcode.is_store
        return self.kind in (TraceOpKind.VECTOR_LOAD, TraceOpKind.VECTOR_STORE)


def tile_op(instruction: Instruction, label: str = "") -> TraceOp:
    """Wrap a VEGETA instruction as a trace record."""
    return TraceOp(kind=TraceOpKind.TILE, tile=instruction, label=label)


def vector_load(dst_reg: int, address: int, nbytes: int = 64, label: str = "") -> TraceOp:
    """A vector register load (one 64-byte register by default)."""
    return TraceOp(
        kind=TraceOpKind.VECTOR_LOAD,
        dst_reg=dst_reg,
        address=address,
        nbytes=nbytes,
        label=label,
    )


def vector_store(src_reg: int, address: int, nbytes: int = 64, label: str = "") -> TraceOp:
    """A vector register store."""
    return TraceOp(
        kind=TraceOpKind.VECTOR_STORE,
        src_regs=(src_reg,),
        address=address,
        nbytes=nbytes,
        label=label,
    )


def vector_fma(dst_reg: int, src_regs: Sequence[int], label: str = "") -> TraceOp:
    """A vector fused multiply-add (dst += src0 * src1)."""
    return TraceOp(
        kind=TraceOpKind.VECTOR_FMA,
        dst_reg=dst_reg,
        src_regs=tuple(src_regs),
        label=label,
    )


def scalar_op(label: str = "") -> TraceOp:
    """A scalar ALU / address-generation instruction."""
    return TraceOp(kind=TraceOpKind.SCALAR, label=label)


def branch_op(label: str = "") -> TraceOp:
    """A (predicted-taken) loop branch."""
    return TraceOp(kind=TraceOpKind.BRANCH, label=label)


@dataclass
class TraceSummary:
    """Instruction-mix statistics of a trace (used for Figure 4)."""

    total: int = 0
    tile_compute: int = 0
    tile_load: int = 0
    tile_store: int = 0
    vector_fma: int = 0
    vector_load: int = 0
    vector_store: int = 0
    scalar: int = 0
    branch: int = 0
    memory_bytes: int = 0
    by_opcode: Dict[str, int] = field(default_factory=dict)

    @property
    def vector_total(self) -> int:
        """All vector-engine instructions."""
        return self.vector_fma + self.vector_load + self.vector_store

    @property
    def tile_total(self) -> int:
        """All VEGETA tile instructions."""
        return self.tile_compute + self.tile_load + self.tile_store


def format_trace_op(op: TraceOp) -> str:
    """Render one trace op in the stable golden-trace text format.

    The format is append-only by convention: the golden-trace regression
    tests snapshot it verbatim, so changing existing fields (rather than
    adding new ones at the end) is a deliberate, test-visible act.
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


def format_trace(trace: Iterable[TraceOp], limit: Optional[int] = None) -> str:
    """Render a trace (or its first ``limit`` ops) one op per line."""
    lines = []
    for index, op in enumerate(trace):
        if limit is not None and index >= limit:
            break
        lines.append(f"{index:4d}  {format_trace_op(op)}")
    return "\n".join(lines)
