"""N:M structured sparsity substrate for the VEGETA reproduction.

Public surface:

* block-level pattern checks (:mod:`repro.sparse.blocks`),
* metadata packing (:mod:`repro.sparse.metadata`),
* tile compression/decompression (:mod:`repro.sparse.compress`),
* magnitude pruning (:mod:`repro.sparse.pruning`),
* row-wise sparsity and the unstructured -> row-wise transform
  (:mod:`repro.sparse.rowwise`),
* sparsity statistics (:mod:`repro.sparse.stats`).
"""

from .blocks import (
    as_blocks,
    block_nnz,
    density,
    minimal_row_patterns,
    row_pattern_requirements,
    satisfies_nm,
    satisfies_pattern,
    sparsity_degree,
    tile_pattern,
)
from .compress import (
    CompressedTile,
    compress,
    compressed_nbytes,
    decompress,
    dense_nbytes,
    from_dense_auto,
    roundtrip_equal,
)
from .metadata import metadata_nbytes, pack_indices, unpack_indices
from .pruning import (
    prune_nm,
    prune_rowwise,
    prune_to_pattern,
    prune_unstructured,
    random_rowwise_patterns,
)
from .rowwise import (
    RowWiseTile,
    compress_rowwise,
    group_rows_for_pseudo,
    spe_column_occupancy,
    transform_unstructured,
)
from .stats import (
    SparsitySummary,
    effectual_mac_fraction,
    rowwise_storage_bytes,
    storage_savings,
    summarize,
)

__all__ = [
    "CompressedTile",
    "RowWiseTile",
    "SparsitySummary",
    "as_blocks",
    "block_nnz",
    "compress",
    "compress_rowwise",
    "compressed_nbytes",
    "decompress",
    "dense_nbytes",
    "density",
    "effectual_mac_fraction",
    "from_dense_auto",
    "group_rows_for_pseudo",
    "metadata_nbytes",
    "minimal_row_patterns",
    "pack_indices",
    "prune_nm",
    "prune_rowwise",
    "prune_to_pattern",
    "prune_unstructured",
    "random_rowwise_patterns",
    "roundtrip_equal",
    "row_pattern_requirements",
    "rowwise_storage_bytes",
    "satisfies_nm",
    "satisfies_pattern",
    "sparsity_degree",
    "spe_column_occupancy",
    "storage_savings",
    "summarize",
    "tile_pattern",
    "transform_unstructured",
    "unpack_indices",
]
