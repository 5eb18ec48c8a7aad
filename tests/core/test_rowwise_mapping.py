"""Tests for the Section V-E row-wise mapping / packing."""

import pytest

from repro.core.rowwise_mapping import (
    MAX_OUTPUT_ROWS,
    ROWWISE_EFFECTIVE_COLS,
    TREG_STORED_CAPACITY,
    pack_rows,
)
from repro.errors import SparsityError
from repro.types import SparsityPattern

D44 = SparsityPattern.DENSE_4_4
S24 = SparsityPattern.SPARSE_2_4
S14 = SparsityPattern.SPARSE_1_4


def stored_values(group):
    """Compressed values the group's rows hold in its treg."""
    return sum(ROWWISE_EFFECTIVE_COLS // p.compression_ratio for p in group.row_patterns)


class TestPackRows:
    def test_all_dense_rows_pack_eight_per_group(self):
        plan = pack_rows([D44] * 16)
        assert plan.instruction_count == 2
        assert all(stored_values(group) <= TREG_STORED_CAPACITY for group in plan.groups)

    def test_all_1_4_rows_pack_thirty_two_per_group(self):
        plan = pack_rows([S14] * 64)
        assert plan.instruction_count == 2
        assert all(group.output_rows <= MAX_OUTPUT_ROWS for group in plan.groups)

    def test_mixed_rows_respect_capacity(self):
        plan = pack_rows([D44] * 4 + [S24] * 8 + [S14] * 16)
        for group in plan.groups:
            assert stored_values(group) <= TREG_STORED_CAPACITY
            assert group.output_rows <= MAX_OUTPUT_ROWS
        assert sum(group.output_rows for group in plan.groups) == 28

    def test_occupied_columns_formula(self):
        plan = pack_rows([D44, S24, S24, S14, S14, S14, S14])
        group = plan.groups[0]
        assert sum(p.density for p in group.row_patterns) == pytest.approx(1 + 1 + 1)

    def test_pattern_counts(self):
        plan = pack_rows([D44, S14, S14])
        patterns = plan.groups[0].row_patterns
        assert patterns.count(D44) == 1 and patterns.count(S14) == 2

    def test_unsupported_pattern_rejected(self):
        with pytest.raises(SparsityError):
            pack_rows([SparsityPattern.ROW_WISE])

    def test_rows_pack_in_the_order_given(self):
        # Grouping rows by pattern is group_rows_for_pseudo's job; pack_rows
        # keeps the caller's order.
        plan = pack_rows([S14, D44, S14])
        assert plan.groups[0].row_indices == (0, 1, 2)
