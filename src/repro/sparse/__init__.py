"""N:M structured sparsity substrate for the VEGETA reproduction.

Public surface:

* block-level pattern checks (:mod:`repro.sparse.blocks`),
* metadata packing (:mod:`repro.sparse.metadata`),
* tile compression/decompression (:mod:`repro.sparse.compress`),
* magnitude pruning (:mod:`repro.sparse.pruning`),
* row-wise sparsity and the unstructured -> row-wise transform
  (:mod:`repro.sparse.rowwise`).
"""

from .blocks import (
    as_blocks,
    block_nnz,
    minimal_row_patterns,
    row_pattern_requirements,
    satisfies_nm,
    satisfies_pattern,
    tile_pattern,
)
from .compress import CompressedTile, compress
from .metadata import pack_indices, unpack_indices
from .pruning import prune_nm, prune_to_pattern, prune_unstructured
from .rowwise import (
    RowWiseTile,
    compress_rowwise,
    group_rows_for_pseudo,
    spe_column_occupancy,
    transform_unstructured,
)

__all__ = [
    "CompressedTile",
    "RowWiseTile",
    "as_blocks",
    "block_nnz",
    "compress",
    "compress_rowwise",
    "group_rows_for_pseudo",
    "minimal_row_patterns",
    "pack_indices",
    "prune_nm",
    "prune_to_pattern",
    "prune_unstructured",
    "row_pattern_requirements",
    "satisfies_nm",
    "satisfies_pattern",
    "spe_column_occupancy",
    "tile_pattern",
    "transform_unstructured",
    "unpack_indices",
]
