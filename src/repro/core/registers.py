"""VEGETA register files: tile, aliased utile/vtile, and metadata registers.

Section IV-A defines eight 1 KB tile registers (treg0-7), each of 16 rows of
64 bytes, inspired by Intel AMX.  To hold the *dense* operand of sparse tile
multiplications, aliased registers are layered on top: a 2 KB utile register
(ureg) is a pair of consecutive tregs, and a 4 KB vtile register (vreg) is a
pair of consecutive uregs (Figure 6).  Eight 128-byte metadata registers
(mreg0-7) hold the 2-bit positional indices of compressed tiles.

The register file here is byte-backed so aliasing behaves exactly as in the
hardware: writing ``ureg0`` changes ``treg0`` and ``treg1``, and vice versa.
Typed views (BF16-as-float32 and FP32 matrices) are provided for the
functional model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import RegisterError
from ..types import DEFAULT_GEOMETRY, DType, TileGeometry, bf16_round

#: Number of architectural utile registers (pairs of tregs).
NUM_UTILE_REGS = DEFAULT_GEOMETRY.num_tile_regs // 2

#: Number of architectural vtile registers (quadruples of tregs).
NUM_VTILE_REGS = DEFAULT_GEOMETRY.num_tile_regs // 4


@dataclass(frozen=True)
class RegisterRef:
    """A symbolic reference to an architectural register.

    ``kind`` is one of ``"treg"``, ``"ureg"``, ``"vreg"`` or ``"mreg"``;
    ``index`` is the architectural register number.
    """

    kind: str
    index: int

    _LIMITS = {
        "treg": DEFAULT_GEOMETRY.num_tile_regs,
        "ureg": NUM_UTILE_REGS,
        "vreg": NUM_VTILE_REGS,
        "mreg": DEFAULT_GEOMETRY.num_metadata_regs,
    }

    def __post_init__(self) -> None:
        if self.kind not in self._LIMITS:
            raise RegisterError(f"unknown register kind {self.kind!r}")
        limit = self._LIMITS[self.kind]
        if not 0 <= self.index < limit:
            raise RegisterError(
                f"{self.kind}{self.index} out of range (0..{limit - 1})"
            )

    @property
    def name(self) -> str:
        """Assembly-style register name, e.g. ``treg3``."""
        return f"{self.kind}{self.index}"

    def backing_tregs(self) -> Tuple[int, ...]:
        """Indices of the treg(s) whose storage this register aliases."""
        if self.kind == "treg":
            return (self.index,)
        if self.kind == "ureg":
            base = self.index * 2
            return (base, base + 1)
        if self.kind == "vreg":
            base = self.index * 4
            return tuple(range(base, base + 4))
        raise RegisterError("metadata registers do not alias tile registers")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def treg(index: int) -> RegisterRef:
    """Shorthand constructor for a tile register reference."""
    return RegisterRef("treg", index)


def ureg(index: int) -> RegisterRef:
    """Shorthand constructor for a utile (2 KB) register reference."""
    return RegisterRef("ureg", index)


def vreg(index: int) -> RegisterRef:
    """Shorthand constructor for a vtile (4 KB) register reference."""
    return RegisterRef("vreg", index)


def mreg(index: int) -> RegisterRef:
    """Shorthand constructor for a metadata register reference."""
    return RegisterRef("mreg", index)


class TileRegisterFile:
    """Byte-backed architectural register file with treg/ureg/vreg aliasing.

    Register sizes, row layout and register counts all derive from the
    backend's :class:`~repro.types.TileGeometry`; the default geometry
    reproduces the paper's 8 x 1 KB tregs + 8 x 128 B mregs exactly.
    """

    def __init__(self, geometry: TileGeometry = DEFAULT_GEOMETRY) -> None:
        self.geometry = geometry
        self._tile_bytes = np.zeros(
            geometry.num_tile_regs * geometry.tile_reg_bytes, dtype=np.uint8
        )
        self._metadata_bytes = np.zeros(
            geometry.num_metadata_regs * geometry.metadata_reg_bytes, dtype=np.uint8
        )

    # -- raw byte access -----------------------------------------------------

    def register_nbytes(self, ref: RegisterRef) -> int:
        """Size of ``ref`` in bytes under this file's geometry."""
        return self.geometry.register_bytes(ref.kind)

    def _tile_slice(self, ref: RegisterRef) -> slice:
        if ref.kind == "mreg":
            raise RegisterError("use metadata accessors for mreg")
        tile_bytes = self.geometry.tile_reg_bytes
        first = ref.backing_tregs()[0]
        last = ref.backing_tregs()[-1]
        if (last + 1) * tile_bytes > len(self._tile_bytes):
            raise RegisterError(
                f"{ref.name} exceeds the {self.geometry.num_tile_regs}-treg file"
            )
        return slice(first * tile_bytes, first * tile_bytes + self.register_nbytes(ref))

    def read_bytes(self, ref: RegisterRef) -> bytes:
        """Read the raw contents of a register."""
        if ref.kind == "mreg":
            size = self.geometry.metadata_reg_bytes
            start = ref.index * size
            return bytes(self._metadata_bytes[start : start + size])
        return bytes(self._tile_bytes[self._tile_slice(ref)])

    def write_bytes(self, ref: RegisterRef, data: bytes) -> None:
        """Write raw bytes to a register.

        Short writes are zero-extended to the register size; long writes are
        rejected.
        """
        nbytes = self.register_nbytes(ref)
        if len(data) > nbytes:
            raise RegisterError(
                f"{len(data)} bytes do not fit into {ref.name} ({nbytes} bytes)"
            )
        padded = np.zeros(nbytes, dtype=np.uint8)
        padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        if ref.kind == "mreg":
            start = ref.index * self.geometry.metadata_reg_bytes
            self._metadata_bytes[start : start + nbytes] = padded
        else:
            self._tile_bytes[self._tile_slice(ref)] = padded

    # -- typed matrix access --------------------------------------------------

    def read_matrix(self, ref: RegisterRef, dtype: DType) -> np.ndarray:
        """Read a tile register as a row-major matrix of ``dtype`` elements.

        BF16 contents are widened to float32; FP32 contents are returned as
        float32.  The matrix has ``register size / row_bytes`` rows of
        ``geometry.cols(dtype)`` columns, matching the hardware's row layout
        (one geometry row per register row regardless of aliasing).
        """
        raw = np.frombuffer(self.read_bytes(ref), dtype=np.uint8)
        rows = self.register_nbytes(ref) // self.geometry.row_bytes
        cols = self.geometry.cols(dtype)
        if dtype is DType.FP32:
            return raw.view(np.float32).reshape(rows, cols).copy()
        # BF16: stored as the upper 16 bits of a float32.
        as_u16 = raw.view(np.uint16).astype(np.uint32) << 16
        return as_u16.view(np.float32).reshape(rows, cols).copy()

    def write_matrix(
        self, ref: RegisterRef, matrix: np.ndarray, dtype: DType
    ) -> None:
        """Write a row-major matrix into a tile register.

        BF16 values are rounded (round-to-nearest-even) before narrowing.
        """
        rows = self.register_nbytes(ref) // self.geometry.row_bytes
        cols = self.geometry.cols(dtype)
        matrix = np.asarray(matrix, dtype=np.float32)
        if matrix.shape != (rows, cols):
            raise RegisterError(
                f"matrix of shape {matrix.shape} does not match {ref.name} "
                f"layout {rows}x{cols} for {dtype.value}"
            )
        if dtype is DType.FP32:
            self.write_bytes(ref, matrix.astype(np.float32).tobytes())
        else:
            rounded = bf16_round(matrix)
            narrow = (rounded.view(np.uint32) >> 16).astype(np.uint16)
            self.write_bytes(ref, narrow.tobytes())

    # -- convenience -----------------------------------------------------------

    def clear(self) -> None:
        """Zero every register."""
        self._tile_bytes[:] = 0
        self._metadata_bytes[:] = 0
