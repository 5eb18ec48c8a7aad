"""Instruction constructors for tests: one per VEGETA opcode (Table II).

The kernels emit instructions through ``repro.cpu.columnar.TraceBuilder``;
these build single :class:`~repro.core.isa.Instruction` objects for the ISA
and functional-model tests.  Loads and stores size their memory operand
with :func:`~repro.core.isa.memory_bytes_for`, as ``TraceBuilder`` does.
"""

from repro.core.isa import Instruction, MemoryOperand, Opcode, memory_bytes_for
from repro.core.registers import RegisterRef
from repro.types import DEFAULT_GEOMETRY, TileGeometry


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
