"""Shared value types used across the VEGETA reproduction library.

The paper fixes a small set of structural constants (element widths, block
size M = 4) that many packages need.  They live here, together with the
enums describing data types and sparsity patterns, so that ``repro.sparse``,
``repro.core`` and ``repro.kernels`` agree on them without circular imports.

Every tile size comes from a :class:`TileGeometry`: the grid's or the
instruction's geometry in code that serves any backend, and
:data:`DEFAULT_GEOMETRY` (the paper's Table II design point) in the
VEGETA-only paths such as the row-wise SPMM kernel and the metadata packer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError

#: The block size M of the N:M structured sparsity supported in the paper.
BLOCK_SIZE_M = 4

#: Bits of metadata per non-zero element (log2 of the block size).
METADATA_BITS_PER_NNZ = 2


@dataclass(frozen=True)
class TileGeometry:
    """Architectural tile geometry of a matrix-engine backend.

    The VEGETA paper fixes one design point (16 rows x 64 B = 1 KB tregs,
    128 B mregs); "A Flexible Instruction Set Architecture for Efficient
    GEMMs" argues these should be ISA *parameters*.  A ``TileGeometry``
    captures everything the register file, ISA size validation, functional
    semantics, latency formulas and kernel tiling need to know about one
    backend's tile shape:

    * ``rows`` / ``row_bytes`` — the tile register image (``rows`` rows of
      ``row_bytes`` bytes each);
    * ``metadata_reg_bytes`` — the sparsity-metadata register size (0 for
      backends without structured-sparsity support, e.g. AMX/SME);
    * ``num_tile_regs`` / ``num_metadata_regs`` — architectural register
      counts (ureg/vreg classes alias 2 / 4 consecutive tregs).

    The dense C tile is ``rows x fp32_cols``; because the functional GEMM
    computes ``A (rows x bf16_cols) @ B^T (rows x bf16_cols)^T`` into C, the
    geometry must be *square* in FP32 elements: ``rows == row_bytes // 4``.
    Both 16x64 B (VEGETA, AMX) and 32x128 B (SME at SVL = 1024 bit) satisfy
    this.
    """

    name: str = "vegeta"
    rows: int = 16
    row_bytes: int = 64
    metadata_reg_bytes: int = 128
    num_tile_regs: int = 8
    num_metadata_regs: int = 8

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.row_bytes <= 0:
            raise ConfigurationError(
                f"tile geometry dimensions must be positive, got "
                f"{self.rows} rows x {self.row_bytes} B"
            )
        if self.row_bytes % 4:
            raise ConfigurationError(
                f"tile row bytes must hold whole FP32 elements, got {self.row_bytes}"
            )
        if self.rows != self.row_bytes // 4:
            raise ConfigurationError(
                f"tile geometry must be square in FP32 elements "
                f"(rows == row_bytes / 4), got {self.rows} rows x "
                f"{self.row_bytes // 4} FP32 cols"
            )
        if self.metadata_reg_bytes < 0:
            raise ConfigurationError("metadata register size cannot be negative")
        if (self.metadata_reg_bytes == 0) != (self.num_metadata_regs == 0):
            raise ConfigurationError(
                "metadata register size and count must be zero together"
            )
        if self.num_tile_regs < 8:
            # The kernel builders register-allocate treg0..treg7 (and the
            # ureg/vreg classes alias pairs/quads of them).
            raise ConfigurationError(
                f"backends need at least 8 tile registers, got {self.num_tile_regs}"
            )

    # -- derived sizes -----------------------------------------------------------

    @property
    def tile_reg_bytes(self) -> int:
        """Bytes in one tile register."""
        return self.rows * self.row_bytes

    def cols(self, dtype: "DType") -> int:
        """Elements of ``dtype`` per tile-register row."""
        return self.row_bytes // dtype.nbytes

    @property
    def fp32_cols(self) -> int:
        """FP32 elements per tile row (the dense C tile is rows x fp32_cols)."""
        return self.row_bytes // 4

    @property
    def bf16_cols(self) -> int:
        """BF16 elements per tile row (the dense K covered by one tile)."""
        return self.row_bytes // 2

    @property
    def macs_per_output_element(self) -> int:
        """Effectual MACs contributing to each output element (the dense K)."""
        return self.bf16_cols

    @property
    def macs_per_tile_instruction(self) -> int:
        """Useful MACs per dense tile instruction (rows x fp32_cols x bf16_cols)."""
        return self.rows * self.fp32_cols * self.bf16_cols

    @property
    def supports_metadata(self) -> bool:
        """Whether the backend has sparsity-metadata registers at all."""
        return self.metadata_reg_bytes > 0

    def register_bytes(self, kind: str) -> int:
        """Architectural size of one register of ``kind`` (treg/ureg/vreg/mreg)."""
        if kind == "treg":
            return self.tile_reg_bytes
        if kind == "ureg":
            return 2 * self.tile_reg_bytes
        if kind == "vreg":
            return 4 * self.tile_reg_bytes
        if kind == "mreg":
            return self.metadata_reg_bytes
        raise ConfigurationError(f"unknown register kind {kind!r}")

    @property
    def is_default(self) -> bool:
        """Whether every field but the name equals :data:`DEFAULT_GEOMETRY`'s.

        The SPMM and SpGEMM builders accept only such geometries: their
        metadata packing and aliased ureg/vreg operands are VEGETA's.
        """
        return replace(self, name=DEFAULT_GEOMETRY.name) == DEFAULT_GEOMETRY

    def describe(self) -> dict:
        """Geometry columns for catalog listings (``repro engines``)."""
        return {
            "geometry": self.name,
            "tile_rows": self.rows,
            "tile_row_bytes": self.row_bytes,
            "tile_reg_bytes": self.tile_reg_bytes,
            "fp32_cols": self.fp32_cols,
            "bf16_cols": self.bf16_cols,
            "metadata_reg_bytes": self.metadata_reg_bytes,
            "num_tile_regs": self.num_tile_regs,
            "num_metadata_regs": self.num_metadata_regs,
        }


#: The paper's Table II design point; the pinned special case every
#: bit-exactness invariant (golden traces, fastsim, memo keys) runs on.
DEFAULT_GEOMETRY = TileGeometry()


class DType(enum.Enum):
    """Element data types used by the VEGETA ISA (mixed precision BF16/FP32)."""

    BF16 = "bf16"
    FP32 = "fp32"

    @property
    def nbytes(self) -> int:
        """Size of one element in bytes."""
        return 2 if self is DType.BF16 else 4


class SparsityPattern(enum.Enum):
    """The N:M fine-grained structured sparsity patterns supported by VEGETA.

    ``N`` is the maximum number of non-zeros per block of ``M`` (=4)
    consecutive elements along a row.  ``DENSE_4_4`` is the degenerate dense
    case, ``ROW_WISE`` means every row may independently use 1:4, 2:4 or 4:4.
    """

    DENSE_4_4 = "4:4"
    SPARSE_2_4 = "2:4"
    SPARSE_1_4 = "1:4"
    ROW_WISE = "row-wise"

    @property
    def n(self) -> int:
        """Non-zeros per block for fixed patterns.

        Raises :class:`ConfigurationError` for the row-wise pattern, where N
        varies per row.
        """
        if self is SparsityPattern.DENSE_4_4:
            return 4
        if self is SparsityPattern.SPARSE_2_4:
            return 2
        if self is SparsityPattern.SPARSE_1_4:
            return 1
        raise ConfigurationError("row-wise sparsity has no single N value")

    @property
    def m(self) -> int:
        """Block size (always 4 for the configurations studied in the paper)."""
        return BLOCK_SIZE_M

    @property
    def compression_ratio(self) -> int:
        """Ratio of effective (uncompressed) columns to stored columns."""
        if self is SparsityPattern.ROW_WISE:
            raise ConfigurationError(
                "row-wise sparsity has no single compression ratio"
            )
        return BLOCK_SIZE_M // self.n

    @property
    def density(self) -> float:
        """Fraction of elements that may be non-zero under this pattern."""
        if self is SparsityPattern.ROW_WISE:
            raise ConfigurationError("row-wise sparsity has no single density")
        return self.n / BLOCK_SIZE_M

    @classmethod
    def from_n(cls, n: int) -> "SparsityPattern":
        """Return the fixed pattern with ``n`` non-zeros per block of 4."""
        mapping = {4: cls.DENSE_4_4, 2: cls.SPARSE_2_4, 1: cls.SPARSE_1_4}
        if n not in mapping:
            raise ConfigurationError(
                f"unsupported N for N:4 sparsity: {n!r} (expected 1, 2 or 4)"
            )
        return mapping[n]

    @classmethod
    def covering(cls, max_block_nnz: int) -> "SparsityPattern":
        """Tightest fixed pattern covering blocks of at most ``max_block_nnz`` non-zeros.

        The smallest of 1:4, 2:4 and 4:4 whose N is at least the count: the
        covering rule of Section III-D.  A count of 0 gives 1:4 and 3 gives 4:4.
        """
        if max_block_nnz <= 1:
            return cls.SPARSE_1_4
        if max_block_nnz <= 2:
            return cls.SPARSE_2_4
        return cls.DENSE_4_4


class SparsityGranularity(enum.Enum):
    """Granularity at which an N:M pattern is allowed to vary (Table I)."""

    NETWORK_WISE = "network-wise"
    LAYER_WISE = "layer-wise"
    TILE_WISE = "tile-wise"
    PSEUDO_ROW_WISE = "pseudo-row-wise"
    ROW_WISE = "row-wise"
    UNSTRUCTURED = "unstructured"


@dataclass(frozen=True)
class TileShape:
    """Logical shape of a (possibly effective) tile in elements."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ConfigurationError(
                f"tile dimensions must be positive, got {self.rows}x{self.cols}"
            )

    @property
    def size(self) -> int:
        """Number of elements in the tile."""
        return self.rows * self.cols

    def nbytes(self, dtype: DType) -> int:
        """Bytes needed to store the tile densely with ``dtype`` elements."""
        return self.size * dtype.nbytes


@dataclass(frozen=True)
class GemmShape:
    """Dimensions of a C(MxN) += A(MxK) x B(KxN) GEMM problem."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k) <= 0:
            raise ConfigurationError(
                f"GEMM dimensions must be positive, got {self.m}x{self.n}x{self.k}"
            )

    @property
    def macs(self) -> int:
        """Total multiply-accumulate operations in the dense GEMM."""
        return self.m * self.n * self.k

    @property
    def flops(self) -> int:
        """Floating-point operations (2 per MAC)."""
        return 2 * self.macs

    def padded(self, tm: int, tn: int, tk: int) -> "GemmShape":
        """Return the shape rounded up to multiples of the given tile sizes."""

        def _round_up(value: int, multiple: int) -> int:
            return ((value + multiple - 1) // multiple) * multiple

        return GemmShape(
            m=_round_up(self.m, tm),
            n=_round_up(self.n, tn),
            k=_round_up(self.k, tk),
        )


def bf16_round(values: np.ndarray) -> np.ndarray:
    """Round a float32 array to BF16 precision, returned as float32.

    BF16 keeps the 8-bit exponent of float32 and truncates the mantissa to
    7 bits.  We model it by round-to-nearest-even on the upper 16 bits of the
    IEEE-754 binary32 representation, which is what mixed-precision hardware
    (including the paper's BF16 MACs) does for operand conversion.
    """
    arr = np.asarray(values, dtype=np.float32)
    as_int = arr.view(np.uint32)
    # Round to nearest even on bit 16.
    rounding_bias = ((as_int >> 16) & 1) + np.uint32(0x7FFF)
    rounded = (as_int + rounding_bias) & np.uint32(0xFFFF0000)
    return rounded.view(np.float32)
