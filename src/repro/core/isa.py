"""The VEGETA instruction set (Table II of the paper), plus SpGEMM extensions.

Nine instructions are defined on top of the tile / metadata register file:

========================  ===========================================================
``TILE_LOAD_T``           load 1 KB from memory into a treg
``TILE_LOAD_U``           load 2 KB from memory into a ureg
``TILE_LOAD_V``           load 4 KB from memory into a vreg
``TILE_LOAD_M``           load 128 B of metadata into an mreg
``TILE_STORE_T``          store 1 KB from a treg to memory
``TILE_GEMM``             C(treg) += A(treg, dense 4:4)   x B(treg,  16x16 FP32 / 16x32 BF16)
``TILE_SPMM_U``           C(treg) += A(treg, 2:4 sparse)  x B(ureg, 64x16)
``TILE_SPMM_V``           C(treg) += A(treg, 1:4 sparse)  x B(vreg, 128x16)
``TILE_SPMM_R``           C(ureg) += A(treg, row-wise N:4) x B(ureg, 64x16)
========================  ===========================================================

Two SpGEMM (sparse x sparse) extensions follow the SparseZipper idea of
reusing the tile-register substrate for a compressed *B* operand as well.
``B`` is compressed column-block-wise: each logical column of B is compressed
along K with the same N:4 scheme used for A rows, which — because B is stored
transposed — makes its register image identical in shape to a compressed A
tile (1 KB of values plus 128 B of metadata):

========================  ===========================================================
``TILE_SPGEMM_U``         C(treg) += A(treg, 2:4 sparse) x B(treg, column 2:4), K=64
``TILE_SPGEMM_V``         C(treg) += A(treg, 1:4 sparse) x B(treg, column 1:4), K=128
========================  ===========================================================

The paper's Listing 1 does not name the metadata register as an explicit
operand of the SPMM instructions; a sparse tile in ``treg i`` is implicitly
paired with ``mreg i``.  We follow that convention: the :class:`Instruction`
records the implicit metadata register so dependence tracking still sees it.
The SPGEMM instructions carry *two* implicit metadata registers, one per
compressed operand (``mreg src_a`` and ``mreg src_b``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import IsaError
from ..types import DEFAULT_GEOMETRY, TileGeometry
from .registers import RegisterRef, mreg


class Opcode(enum.Enum):
    """VEGETA opcodes (Table II)."""

    TILE_LOAD_T = "TILE_LOAD_T"
    TILE_LOAD_U = "TILE_LOAD_U"
    TILE_LOAD_V = "TILE_LOAD_V"
    TILE_LOAD_M = "TILE_LOAD_M"
    TILE_STORE_T = "TILE_STORE_T"
    TILE_GEMM = "TILE_GEMM"
    TILE_SPMM_U = "TILE_SPMM_U"
    TILE_SPMM_V = "TILE_SPMM_V"
    TILE_SPMM_R = "TILE_SPMM_R"
    TILE_SPGEMM_U = "TILE_SPGEMM_U"
    TILE_SPGEMM_V = "TILE_SPGEMM_V"

    # Per-member constants, set once below the class: the simulator reads
    # them for every trace op, and a property would hash the enum into a
    # set on each call.
    #: True for the memory -> register transfer instructions.
    is_load: bool
    #: True for the register -> memory transfer instruction.
    is_store: bool
    #: True for the tile GEMM / SPMM instructions.
    is_compute: bool
    #: True for the SPMM / SPGEMM (sparse A) instructions.
    is_sparse_compute: bool
    #: True for the sparse x sparse (dual compressed operand) instructions.
    is_spgemm: bool
    #: Effective K covered by one SPGEMM instruction (0 for other opcodes).
    spgemm_effective_k: int


_LOAD_OPCODES = frozenset(
    {Opcode.TILE_LOAD_T, Opcode.TILE_LOAD_U, Opcode.TILE_LOAD_V, Opcode.TILE_LOAD_M}
)
_SPGEMM_OPCODES = frozenset({Opcode.TILE_SPGEMM_U, Opcode.TILE_SPGEMM_V})
_COMPUTE_OPCODES = frozenset(
    {Opcode.TILE_GEMM, Opcode.TILE_SPMM_U, Opcode.TILE_SPMM_V, Opcode.TILE_SPMM_R}
) | _SPGEMM_OPCODES
_SPARSE_COMPUTE_OPCODES = frozenset(
    {Opcode.TILE_SPMM_U, Opcode.TILE_SPMM_V, Opcode.TILE_SPMM_R}
) | _SPGEMM_OPCODES
#: Effective K (uncompressed reduction width) of one SPGEMM instruction.
_SPGEMM_EFFECTIVE_K = {Opcode.TILE_SPGEMM_U: 64, Opcode.TILE_SPGEMM_V: 128}
for _opcode in Opcode:
    _opcode.is_load = _opcode in _LOAD_OPCODES
    _opcode.is_store = _opcode is Opcode.TILE_STORE_T
    _opcode.is_compute = _opcode in _COMPUTE_OPCODES
    _opcode.is_sparse_compute = _opcode in _SPARSE_COMPUTE_OPCODES
    _opcode.is_spgemm = _opcode in _SPGEMM_OPCODES
    _opcode.spgemm_effective_k = _SPGEMM_EFFECTIVE_K.get(_opcode, 0)
del _opcode

#: Register class whose architectural size a load/store transfers.
_MEMORY_REG_KIND = {
    Opcode.TILE_LOAD_T: "treg",
    Opcode.TILE_LOAD_U: "ureg",
    Opcode.TILE_LOAD_V: "vreg",
    Opcode.TILE_LOAD_M: "mreg",
    Opcode.TILE_STORE_T: "treg",
}


def memory_bytes_for(opcode: Opcode, geometry: TileGeometry) -> int:
    """Bytes a load/store transfers under ``geometry`` (0 for compute ops).

    The one answer to a transfer size: ISA validation, the isa constructors
    and the trace builder all read it.
    """
    kind = _MEMORY_REG_KIND.get(opcode)
    return geometry.register_bytes(kind) if kind is not None else 0


@dataclass(frozen=True)
class MemoryOperand:
    """A memory operand: a byte address plus an access size."""

    address: int
    nbytes: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.address < 0:
            raise IsaError(f"negative memory address {self.address}")
        if self.nbytes <= 0:
            raise IsaError(f"non-positive access size {self.nbytes}")

    @property
    def end(self) -> int:
        """One past the last byte touched by this operand."""
        return self.address + self.nbytes

    def cache_lines(self, line_bytes: int = 64) -> Tuple[int, ...]:
        """Addresses of the cache lines this operand touches."""
        first = self.address // line_bytes
        last = (self.end - 1) // line_bytes
        return tuple(line * line_bytes for line in range(first, last + 1))


#: Expected operand register kinds per opcode: (dst_kind, a_kind, b_kind).
_COMPUTE_SIGNATURES: Dict[Opcode, Tuple[str, str, str]] = {
    Opcode.TILE_GEMM: ("treg", "treg", "treg"),
    Opcode.TILE_SPMM_U: ("treg", "treg", "ureg"),
    Opcode.TILE_SPMM_V: ("treg", "treg", "vreg"),
    Opcode.TILE_SPMM_R: ("ureg", "treg", "ureg"),
    Opcode.TILE_SPGEMM_U: ("treg", "treg", "treg"),
    Opcode.TILE_SPGEMM_V: ("treg", "treg", "treg"),
}

#: Expected destination register kind for each load opcode.
_LOAD_DST_KINDS: Dict[Opcode, str] = {
    Opcode.TILE_LOAD_T: "treg",
    Opcode.TILE_LOAD_U: "ureg",
    Opcode.TILE_LOAD_V: "vreg",
    Opcode.TILE_LOAD_M: "mreg",
}


@dataclass(frozen=True)
class Instruction:
    """A single VEGETA instruction.

    For compute instructions ``dst`` is the accumulator C (also a source),
    ``src_a`` the (possibly sparse) stationary operand A and ``src_b`` the
    streamed dense operand B.  For loads ``dst`` is the register and
    ``memory`` the source; for stores ``src_a`` is the register and
    ``memory`` the destination.
    """

    opcode: Opcode
    dst: Optional[RegisterRef] = None
    src_a: Optional[RegisterRef] = None
    src_b: Optional[RegisterRef] = None
    memory: Optional[MemoryOperand] = None
    label: str = ""
    #: Data-dependent Feed-First extension in engine cycles.  ``-1`` means
    #: "unspecified": the simulator falls back to the engine's worst-case
    #: formula (:meth:`repro.core.engine.EngineConfig.spgemm_feed_overhead`).
    #: Kernel builders that know the operand data set it to the actual
    #: metadata-intersection cost of the instruction, making the overhead a
    #: first-class part of the trace (and of every timing signature).
    feed_overhead: int = -1
    #: Tile geometry the instruction's transfer size is validated against,
    #: kept as given (a renamed default geometry stays renamed).
    geometry: TileGeometry = DEFAULT_GEOMETRY

    # -- validation -----------------------------------------------------------

    def __post_init__(self) -> None:
        opcode = self.opcode
        if self.feed_overhead >= 0 and not opcode.is_compute:
            raise IsaError(
                f"{opcode.value} cannot carry a feed_overhead; only tile "
                "compute instructions extend the Feed-First stage"
            )
        geometry = self.geometry
        if opcode.is_load:
            if self.dst is None or self.memory is None:
                raise IsaError(f"{opcode.value} needs a destination register and a memory source")
            expected = _LOAD_DST_KINDS[opcode]
            if self.dst.kind != expected:
                raise IsaError(
                    f"{opcode.value} destination must be a {expected}, got {self.dst.name}"
                )
            transfer = memory_bytes_for(opcode, geometry)
            if transfer == 0:
                raise IsaError(
                    f"{opcode.value} is unavailable: geometry "
                    f"{geometry.name!r} has no metadata registers"
                )
            if self.memory.nbytes != transfer:
                raise IsaError(
                    f"{opcode.value} transfers {transfer} bytes, "
                    f"memory operand specifies {self.memory.nbytes}"
                )
        elif opcode.is_store:
            if self.src_a is None or self.memory is None:
                raise IsaError("TILE_STORE_T needs a source treg and a memory destination")
            if self.src_a.kind != "treg":
                raise IsaError(
                    f"TILE_STORE_T source must be a treg, got {self.src_a.name}"
                )
            transfer = memory_bytes_for(opcode, geometry)
            if self.memory.nbytes != transfer:
                raise IsaError(
                    f"TILE_STORE_T transfers {transfer} bytes, "
                    f"memory operand specifies {self.memory.nbytes}"
                )
        else:
            signature = _COMPUTE_SIGNATURES[opcode]
            operands = (self.dst, self.src_a, self.src_b)
            names = ("dst", "src_a", "src_b")
            for operand, expected, name in zip(operands, signature, names):
                if operand is None:
                    raise IsaError(f"{opcode.value} is missing operand {name}")
                if operand.kind != expected:
                    raise IsaError(
                        f"{opcode.value} operand {name} must be a {expected}, "
                        f"got {operand.name}"
                    )
            if self.memory is not None:
                raise IsaError(f"{opcode.value} takes no memory operand")

    # -- dependence information -------------------------------------------------

    @property
    def implicit_metadata(self) -> Optional[RegisterRef]:
        """The mreg implicitly read by sparse compute instructions.

        A sparse A tile held in ``treg i`` uses ``mreg i`` for its positional
        metadata (the convention of Listing 1).
        """
        if self.opcode.is_sparse_compute and self.src_a is not None:
            return mreg(self.src_a.index)
        return None

    @property
    def implicit_metadata_b(self) -> Optional[RegisterRef]:
        """The mreg implicitly read for the compressed B operand of SPGEMM.

        SPGEMM instructions pair *both* compressed operands with the mreg of
        the same index: A in ``treg i`` with ``mreg i`` and B in ``treg j``
        with ``mreg j``.
        """
        if self.opcode.is_spgemm and self.src_b is not None:
            return mreg(self.src_b.index)
        return None

    def reads(self) -> Tuple[RegisterRef, ...]:
        """Registers read by this instruction (including the accumulator)."""
        if self.opcode.is_load:
            return ()
        if self.opcode.is_store:
            return (self.src_a,)
        sources = [self.dst, self.src_a, self.src_b]
        for metadata in (self.implicit_metadata, self.implicit_metadata_b):
            if metadata is not None:
                sources.append(metadata)
        return tuple(sources)

    def writes(self) -> Tuple[RegisterRef, ...]:
        """Registers written by this instruction."""
        if self.opcode.is_store:
            return ()
        return (self.dst,)

    def reads_tregs(self) -> Tuple[int, ...]:
        """Backing treg indices read (used for aliasing-aware dependences)."""
        indices = []
        for ref in self.reads():
            if ref.kind != "mreg":
                indices.extend(ref.backing_tregs())
        return tuple(sorted(set(indices)))

    def writes_tregs(self) -> Tuple[int, ...]:
        """Backing treg indices written."""
        indices = []
        for ref in self.writes():
            if ref.kind != "mreg":
                indices.extend(ref.backing_tregs())
        return tuple(sorted(set(indices)))

    # -- pretty printing ----------------------------------------------------------

    def to_assembly(self) -> str:
        """Human-readable assembly-like rendering of the instruction."""
        opcode = self.opcode
        if opcode.is_load:
            return f"{opcode.value} {self.dst.name}, [{self.memory.address:#x}]"
        if opcode.is_store:
            return f"{opcode.value} [{self.memory.address:#x}], {self.src_a.name}"
        return (
            f"{opcode.value} {self.dst.name}, {self.src_a.name}, {self.src_b.name}"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_assembly()


# -- constructors -------------------------------------------------------------


def _transfer(
    opcode: Opcode, address: int, label: str, geometry: TileGeometry, **registers
) -> Instruction:
    """A load/store moving ``memory_bytes_for(opcode, geometry)`` bytes."""
    return Instruction(
        opcode,
        memory=MemoryOperand(address, memory_bytes_for(opcode, geometry), label),
        label=label,
        geometry=geometry,
        **registers,
    )


def tile_load_t(
    dst: RegisterRef, address: int, label: str = "", geometry: TileGeometry = DEFAULT_GEOMETRY
) -> Instruction:
    """Build a ``TILE_LOAD_T`` (one tile register's worth of memory)."""
    return _transfer(Opcode.TILE_LOAD_T, address, label, geometry, dst=dst)


def tile_load_u(
    dst: RegisterRef, address: int, label: str = "", geometry: TileGeometry = DEFAULT_GEOMETRY
) -> Instruction:
    """Build a ``TILE_LOAD_U`` (two tile registers' worth into a ureg)."""
    return _transfer(Opcode.TILE_LOAD_U, address, label, geometry, dst=dst)


def tile_load_v(
    dst: RegisterRef, address: int, label: str = "", geometry: TileGeometry = DEFAULT_GEOMETRY
) -> Instruction:
    """Build a ``TILE_LOAD_V`` (four tile registers' worth into a vreg)."""
    return _transfer(Opcode.TILE_LOAD_V, address, label, geometry, dst=dst)


def tile_load_m(
    dst: RegisterRef, address: int, label: str = "", geometry: TileGeometry = DEFAULT_GEOMETRY
) -> Instruction:
    """Build a ``TILE_LOAD_M`` (one metadata register load into an mreg)."""
    return _transfer(Opcode.TILE_LOAD_M, address, label, geometry, dst=dst)


def tile_store_t(
    address: int, src: RegisterRef, label: str = "", geometry: TileGeometry = DEFAULT_GEOMETRY
) -> Instruction:
    """Build a ``TILE_STORE_T`` (one tile register's worth to memory)."""
    return _transfer(Opcode.TILE_STORE_T, address, label, geometry, src_a=src)


def tile_gemm(dst: RegisterRef, a: RegisterRef, b: RegisterRef, label: str = "") -> Instruction:
    """Build a dense ``TILE_GEMM`` C += A x B."""
    return Instruction(Opcode.TILE_GEMM, dst=dst, src_a=a, src_b=b, label=label)


def tile_spmm_u(dst: RegisterRef, a: RegisterRef, b: RegisterRef, label: str = "") -> Instruction:
    """Build a 2:4-sparse ``TILE_SPMM_U`` C += A x B."""
    return Instruction(Opcode.TILE_SPMM_U, dst=dst, src_a=a, src_b=b, label=label)


def tile_spmm_v(dst: RegisterRef, a: RegisterRef, b: RegisterRef, label: str = "") -> Instruction:
    """Build a 1:4-sparse ``TILE_SPMM_V`` C += A x B."""
    return Instruction(Opcode.TILE_SPMM_V, dst=dst, src_a=a, src_b=b, label=label)


def tile_spmm_r(dst: RegisterRef, a: RegisterRef, b: RegisterRef, label: str = "") -> Instruction:
    """Build a row-wise ``TILE_SPMM_R`` C += A x B."""
    return Instruction(Opcode.TILE_SPMM_R, dst=dst, src_a=a, src_b=b, label=label)


def tile_spgemm_u(
    dst: RegisterRef,
    a: RegisterRef,
    b: RegisterRef,
    label: str = "",
    feed_overhead: int = -1,
) -> Instruction:
    """Build a 2:4 x 2:4 ``TILE_SPGEMM_U`` C += A x B (effective K = 64)."""
    return Instruction(
        Opcode.TILE_SPGEMM_U,
        dst=dst,
        src_a=a,
        src_b=b,
        label=label,
        feed_overhead=feed_overhead,
    )


def tile_spgemm_v(
    dst: RegisterRef,
    a: RegisterRef,
    b: RegisterRef,
    label: str = "",
    feed_overhead: int = -1,
) -> Instruction:
    """Build a 1:4 x 1:4 ``TILE_SPGEMM_V`` C += A x B (effective K = 128)."""
    return Instruction(
        Opcode.TILE_SPGEMM_V,
        dst=dst,
        src_a=a,
        src_b=b,
        label=label,
        feed_overhead=feed_overhead,
    )
