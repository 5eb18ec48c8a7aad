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
from typing import Dict, Optional, Sequence, Tuple

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
