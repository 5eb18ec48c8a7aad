"""Mapping row-wise N:4 sparse tiles onto a VEGETA-S engine (Section V-E).

A row-wise sparse weight tile maps onto the engine so that *every* MAC column
stays fully utilised: a 4:4 row occupies a whole SPE column's worth of MACs,
a 2:4 row half of one, and a 1:4 row a quarter.  The paper derives

* occupied columns ``Ncols = N4:4 + N2:4 / 2 + N1:4 / 4``,
* stored rows ``HA = N4:4 + N2:4 + N1:4`` (between 8 and 32),
* effective tile width ``WA = M x Nrows = 64``,

and requires rows with the same pattern to be grouped consecutively ("pseudo
row-wise"), which a DMA-side reorder provides for free.

This module turns a per-row pattern assignment into concrete
``TILE_SPMM_R`` instruction groups: each group packs as many consecutive rows
as fit into one treg's 512 stored values (and one ureg's 32 output rows), and
reports the MAC utilisation of each group so the timing model can account for
partially filled arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import ConfigurationError, SparsityError
from ..types import BLOCK_SIZE_M, DEFAULT_GEOMETRY, SparsityPattern
from .engine import EngineConfig

#: Stored BF16 values one treg can hold (16 rows x 32 values).
TREG_STORED_CAPACITY = DEFAULT_GEOMETRY.rows * DEFAULT_GEOMETRY.bf16_cols  # 512

#: Effective columns covered by one TILE_SPMM_R group (WA = M x Nrows = 64).
ROWWISE_EFFECTIVE_COLS = BLOCK_SIZE_M * 16

#: Maximum output rows per TILE_SPMM_R (the destination ureg holds 32 x 16 FP32).
MAX_OUTPUT_ROWS = 32

#: Stored values one row of each pattern contributes to the treg.
_STORED_PER_ROW: Dict[SparsityPattern, int] = {
    SparsityPattern.DENSE_4_4: ROWWISE_EFFECTIVE_COLS,
    SparsityPattern.SPARSE_2_4: ROWWISE_EFFECTIVE_COLS // 2,
    SparsityPattern.SPARSE_1_4: ROWWISE_EFFECTIVE_COLS // 4,
}

#: SPE-column occupancy of one row of each pattern (Section V-E).
_COLUMN_SHARE: Dict[SparsityPattern, float] = {
    SparsityPattern.DENSE_4_4: 1.0,
    SparsityPattern.SPARSE_2_4: 0.5,
    SparsityPattern.SPARSE_1_4: 0.25,
}


@dataclass(frozen=True)
class RowWiseGroup:
    """One ``TILE_SPMM_R`` instruction's worth of consecutive weight rows."""

    row_indices: Tuple[int, ...]
    row_patterns: Tuple[SparsityPattern, ...]

    def __post_init__(self) -> None:
        if len(self.row_indices) != len(self.row_patterns):
            raise SparsityError("row indices and patterns must align")
        if not self.row_indices:
            raise SparsityError("a row-wise group cannot be empty")

    @property
    def stored_values(self) -> int:
        """Total compressed values held in the treg for this group."""
        return sum(_STORED_PER_ROW[pattern] for pattern in self.row_patterns)

    @property
    def output_rows(self) -> int:
        """HA — the number of output (and stored weight) rows of the group."""
        return len(self.row_indices)

    @property
    def occupied_columns(self) -> float:
        """Ncols occupied by the group: N4:4 + N2:4/2 + N1:4/4."""
        return sum(_COLUMN_SHARE[pattern] for pattern in self.row_patterns)

    @property
    def pattern_counts(self) -> Dict[SparsityPattern, int]:
        """Number of rows of each pattern in the group."""
        counts = {pattern: 0 for pattern in _STORED_PER_ROW}
        for pattern in self.row_patterns:
            counts[pattern] += 1
        return counts

    def mac_utilization(self, engine: EngineConfig) -> float:
        """Fraction of the engine's MAC columns this group keeps busy.

        A 512-MAC engine exposes ``total_macs / (nrows * beta)`` SPE-column
        equivalents (16 for every paper configuration); the group occupies
        ``occupied_columns`` of them.
        """
        total_columns = engine.total_macs / (engine.nrows * engine.beta)
        return min(1.0, self.occupied_columns / total_columns)


@dataclass(frozen=True)
class RowWiseMappingPlan:
    """Full packing of a row-wise sparse weight panel into instruction groups."""

    groups: Tuple[RowWiseGroup, ...]
    total_rows: int

    @property
    def instruction_count(self) -> int:
        """Number of ``TILE_SPMM_R`` instructions the panel needs."""
        return len(self.groups)

    @property
    def average_occupancy(self) -> float:
        """Mean fraction of the 16 MAC columns occupied across groups."""
        if not self.groups:
            return 0.0
        return sum(
            min(1.0, group.occupied_columns / 16.0) for group in self.groups
        ) / len(self.groups)

    @property
    def stored_value_total(self) -> int:
        """Total compressed values across all groups."""
        return sum(group.stored_values for group in self.groups)


def pack_rows(
    row_patterns: Sequence[SparsityPattern],
    *,
    group_rows_by_pattern: bool = True,
) -> RowWiseMappingPlan:
    """Pack weight rows into ``TILE_SPMM_R`` groups.

    Rows are optionally pre-grouped by pattern (the pseudo row-wise reorder);
    each group then greedily absorbs rows while both the treg stored-value
    capacity (512) and the 32-output-row limit hold.
    """
    for pattern in row_patterns:
        if pattern not in _STORED_PER_ROW:
            raise SparsityError(f"unsupported row pattern {pattern!r}")
    order = list(range(len(row_patterns)))
    if group_rows_by_pattern:
        order.sort(key=lambda index: (
            [SparsityPattern.DENSE_4_4,
             SparsityPattern.SPARSE_2_4,
             SparsityPattern.SPARSE_1_4].index(row_patterns[index]),
            index,
        ))
    groups: List[RowWiseGroup] = []
    current_rows: List[int] = []
    current_patterns: List[SparsityPattern] = []
    current_stored = 0
    for index in order:
        pattern = row_patterns[index]
        stored = _STORED_PER_ROW[pattern]
        overflow = (
            current_stored + stored > TREG_STORED_CAPACITY
            or len(current_rows) + 1 > MAX_OUTPUT_ROWS
        )
        if overflow and current_rows:
            groups.append(
                RowWiseGroup(tuple(current_rows), tuple(current_patterns))
            )
            current_rows, current_patterns, current_stored = [], [], 0
        current_rows.append(index)
        current_patterns.append(pattern)
        current_stored += stored
    if current_rows:
        groups.append(RowWiseGroup(tuple(current_rows), tuple(current_patterns)))
    return RowWiseMappingPlan(groups=tuple(groups), total_rows=len(row_patterns))


def effective_speedup_vs_dense(
    row_patterns: Sequence[SparsityPattern],
) -> float:
    """Compute-bound speed-up of the row-wise mapping over a dense execution.

    A dense engine spends one instruction-equivalent per 16 rows of the
    (dense) weight panel regardless of zeros; the row-wise mapping packs rows
    so each instruction covers ``sum(1 / occupancy share)`` weighted rows.
    The ratio of instruction counts is the compute-bound speed-up used in the
    Figure 15 granularity comparison.
    """
    if not row_patterns:
        raise ConfigurationError("cannot compute speed-up of an empty panel")
    plan = pack_rows(row_patterns)
    tile_rows = DEFAULT_GEOMETRY.rows
    dense_groups = (len(row_patterns) + tile_rows - 1) // tile_rows
    # A dense execution also needs one instruction per 16 weight rows but its
    # effective columns per instruction are only 32 (vs 64 for row-wise), so
    # normalise by covered effective area.
    dense_instr_equiv = dense_groups * 2  # 2 dense tiles cover 64 columns
    return dense_instr_equiv / plan.instruction_count
