"""Sparsity-granularity speed-up model (Figure 15, Section VI-E).

The paper accelerates *unstructured* sparse layers by covering them with
row-wise N:4 sparsity (Section III-D) and compares, analytically, the
speed-up different hardware granularities can extract from the same random
sparse matrices:

* **dense** (RASA-like) — cannot skip anything, speed-up 1x,
* **layer-wise** (S2TA-like) — one N:4 pattern must cover every non-zero of
  the whole layer, which for random sparsity almost always forces 4:4,
* **tile-wise** (enhanced S2TA) — one pattern per 16 x 64 effective tile,
* **pseudo row-wise** (VEGETA-S without DMA reordering) — per-row patterns,
  but only *adjacent* rows with the same pattern can share an SPE column,
* **row-wise** (VEGETA-S with reordering) — per-row patterns with rows
  regrouped so packing is near-perfect,
* **unstructured** (SIGMA-like, area-normalised) — skips every zero but pays
  a large area premium, so its per-area speed-up only wins at extreme
  sparsity.

Speed-ups are compute-bound ratios of dense work to covered work, exactly the
quantity the paper's roofline comparison reports for compute-bound layers.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..core.rowwise_mapping import ROWWISE_EFFECTIVE_COLS
from ..errors import SparsityError
from ..sparse.blocks import minimal_row_patterns, tile_pattern
from ..types import BLOCK_SIZE_M, DEFAULT_GEOMETRY

#: Area premium of a SIGMA-like fully flexible sparse engine relative to the
#: dense systolic baseline, used to area-normalise its speed-up.
SIGMA_AREA_FACTOR = 4.5

#: Display names matching the Figure 15 legend.
GRANULARITY_LABELS = {
    "dense": "Dense (RASA-like)",
    "layer_wise": "Layer-wise (S2TA-like)",
    "tile_wise": "Tile-wise (Enhanced S2TA)",
    "pseudo_row_wise": "Pseudo row-wise (VEGETA-S without reordering)",
    "row_wise": "Row-wise (VEGETA-S with reordering)",
    "unstructured": "Unstructured (Enhanced SIGMA, area-normalized)",
}


def _iter_tiles(matrix: np.ndarray) -> Iterable[np.ndarray]:
    """Yield the 16 x 64 analysis tiles (one ``TILE_SPMM_R`` group's footprint).

    Edge tiles are the partial remainders; nothing is padded here.
    """
    rows, cols = matrix.shape
    tile_rows, tile_cols = DEFAULT_GEOMETRY.rows, ROWWISE_EFFECTIVE_COLS
    for row in range(0, rows, tile_rows):
        for col in range(0, cols, tile_cols):
            yield matrix[row : row + tile_rows, col : col + tile_cols]


def _pad_cols(matrix: np.ndarray) -> np.ndarray:
    """Pad columns with zeros to a multiple of the block size."""
    cols = matrix.shape[1]
    remainder = cols % BLOCK_SIZE_M
    if remainder == 0:
        return matrix
    return np.pad(matrix, ((0, 0), (0, BLOCK_SIZE_M - remainder)))


def layer_wise_speedup(matrix: np.ndarray) -> float:
    """Speed-up when one N:4 pattern must cover the whole matrix."""
    matrix = _pad_cols(np.asarray(matrix))
    return BLOCK_SIZE_M / tile_pattern(matrix).n


def tile_wise_speedup(matrix: np.ndarray) -> float:
    """Speed-up when each 16 x 64 tile picks its own covering N:4 pattern."""
    matrix = _pad_cols(np.asarray(matrix))
    dense_work = 0.0
    covered_work = 0.0
    for tile in _iter_tiles(matrix):
        rows = tile.shape[0]
        n = tile_pattern(_pad_cols(tile)).n
        dense_work += rows
        covered_work += rows * n / BLOCK_SIZE_M
    return dense_work / covered_work if covered_work else 1.0


def _row_shares(tile: np.ndarray) -> List[float]:
    """Per-row SPE-column shares of one tile under row-wise covering."""
    return [pattern.density for pattern in minimal_row_patterns(_pad_cols(tile))]


def row_wise_speedup(matrix: np.ndarray, *, reorder: bool = True) -> float:
    """Speed-up of the row-wise covering, with or without the DMA reorder.

    With reordering, rows of equal pattern are grouped before packing into SPE
    columns; without it only adjacent equal-pattern rows can share a column
    (the pseudo row-wise restriction).
    """
    matrix = np.asarray(matrix)
    dense_columns = 0.0
    packed_columns = 0.0
    for tile in _iter_tiles(matrix):
        shares = _row_shares(tile)
        dense_columns += len(shares)
        if reorder:
            # With the DMA reorder, groups of equal-pattern rows pack
            # perfectly across instruction groups (HA can stretch to 32 rows
            # and leftover fractions amortise over the layer), so the column
            # cost is the fractional sum of the per-row shares — this is the
            # paper's Ncols = N4:4 + N2:4/2 + N1:4/4 applied layer-wide.
            packed_columns += sum(shares)
        else:
            run_share: Optional[float] = None
            run_length = 0
            for share in shares + [None]:
                if share == run_share:
                    run_length += 1
                    continue
                if run_share is not None:
                    packed_columns += math.ceil(run_length * run_share)
                run_share = share
                run_length = 1
    return dense_columns / packed_columns if packed_columns else 1.0


def unstructured_speedup(matrix: np.ndarray, *, area_factor: float = SIGMA_AREA_FACTOR) -> float:
    """Area-normalised speed-up of a fully flexible (SIGMA-like) sparse engine."""
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        raise SparsityError("cannot analyse an empty matrix")
    density = np.count_nonzero(matrix) / matrix.size
    if density == 0:
        density = 1.0 / matrix.size
    return (1.0 / density) / area_factor


def granularity_speedups(matrix: np.ndarray) -> Dict[str, float]:
    """Speed-up of every granularity class for one unstructured sparse matrix."""
    return {
        "dense": 1.0,
        "layer_wise": layer_wise_speedup(matrix),
        "tile_wise": tile_wise_speedup(matrix),
        "pseudo_row_wise": row_wise_speedup(matrix, reorder=False),
        "row_wise": row_wise_speedup(matrix, reorder=True),
        "unstructured": unstructured_speedup(matrix),
    }
