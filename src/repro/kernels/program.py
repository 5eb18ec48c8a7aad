"""Kernel programs: the trace + memory image a kernel generator produces.

A :class:`KernelProgram` bundles everything needed to (a) run the kernel on
the cycle-approximate simulator (the trace, which carries its own tile
geometry and block structure), (b) run it on the functional model and check
numerical correctness (the memory image plus the C layout), and (c) report
instruction-mix statistics (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.memory_image import ByteMemory
from ..cpu.columnar import ColumnarTrace
from ..cpu.trace import TraceSummary
from ..errors import KernelError
from ..types import DType, GemmShape, SparsityPattern
from .tiling import MatrixTileLayout


@dataclass
class KernelProgram:
    """A generated kernel: instruction trace plus (optional) data image.

    Attributes
    ----------
    trace:
        The dynamic instruction trace in program order, a finished
        :class:`~repro.cpu.columnar.ColumnarTrace`.  It is the one
        description of the kernel run the simulator reads: its rows, its
        tile geometry (which also sizes the C tiles and the functional
        machine's register file) and, for the tiled kernels, the row at
        which each output-tile block starts.
    shape:
        The (unpadded) GEMM problem dimensions.
    pattern:
        The A-operand sparsity pattern the kernel exploits.
    memory:
        The flat memory image holding A/B/C, present only when the kernel was
        built with data (trace-only builds leave it ``None``).
    c_layout:
        Tile layout of the C matrix in the memory image.
    c_row_permutation:
        If the kernel reordered C rows (pseudo row-wise DMA reordering), the
        permutation mapping stored row -> original row; ``None`` otherwise.
    rowwise_patterns:
        Per-A-tile row patterns keyed by the tile's memory address, needed by
        the functional model to execute ``TILE_SPMM_R``.
    simulated_fraction:
        Fraction of the full kernel the trace covers (1.0 unless the builder
        was asked to truncate for tractable simulation); runtimes should be
        scaled by its inverse.
    """

    trace: ColumnarTrace
    shape: GemmShape
    pattern: SparsityPattern
    memory: Optional[ByteMemory] = None
    c_layout: Optional[MatrixTileLayout] = None
    c_row_permutation: Optional[Tuple[int, ...]] = None
    rowwise_patterns: Dict[int, Tuple[SparsityPattern, ...]] = field(default_factory=dict)
    simulated_fraction: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.simulated_fraction <= 1.0:
            raise KernelError(
                f"simulated_fraction must be in (0, 1], got {self.simulated_fraction}"
            )

    @property
    def instruction_count(self) -> int:
        """Dynamic instructions in the (possibly truncated) trace."""
        return len(self.trace)

    def summary(self) -> TraceSummary:
        """Instruction-mix summary of the trace."""
        return self.trace.summarize()

    @property
    def has_data(self) -> bool:
        """True when the kernel carries a memory image for functional runs."""
        return self.memory is not None and self.c_layout is not None

    # -- result extraction ------------------------------------------------------

    def read_result(self) -> np.ndarray:
        """Assemble the C matrix from the memory image after execution.

        The kernel must have been built with data and executed (functionally)
        against its own ``memory``; stores write C back into that image.
        Padding rows/columns are cropped and any DMA row reordering undone.
        """
        if not self.has_data:
            raise KernelError("this kernel was built trace-only; no data to read back")
        layout = self.c_layout
        geometry = self.trace.geometry
        tile_m = geometry.rows
        tile_n = geometry.fp32_cols
        rows = layout.tiles_rows * tile_m
        cols = layout.tiles_cols * tile_n
        result = np.zeros((rows, cols), dtype=np.float32)
        for tile_row in range(layout.tiles_rows):
            for tile_col in range(layout.tiles_cols):
                address = layout.tile_address(tile_row, tile_col)
                tile = self.memory.read_matrix(address, tile_m, tile_n, DType.FP32)
                result[
                    tile_row * tile_m : (tile_row + 1) * tile_m,
                    tile_col * tile_n : (tile_col + 1) * tile_n,
                ] = tile
        if self.c_row_permutation is not None:
            restored = np.zeros_like(result)
            for stored_row, original_row in enumerate(self.c_row_permutation):
                if original_row < rows:
                    restored[original_row] = result[stored_row]
            result = restored
        return result[: self.shape.m, : self.shape.n]
