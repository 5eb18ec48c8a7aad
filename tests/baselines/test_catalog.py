"""Tests for the prior-work baselines and Table I."""

from repro.baselines.catalog import TABLE_I, table1
from repro.types import SparsityGranularity


class TestTableI:
    def test_four_rows_in_paper_order(self):
        rows = table1()
        assert [row.name for row in rows] == ["NVIDIA STC", "STA", "S2TA", "VEGETA"]

    def test_only_vegeta_supports_row_wise(self):
        for row in table1():
            expected = row.name == "VEGETA"
            assert row.supports(SparsityGranularity.ROW_WISE) == expected

    def test_stc_is_network_wise_only(self):
        stc = TABLE_I["NVIDIA STC"]
        assert stc.supports(SparsityGranularity.NETWORK_WISE)
        assert not stc.supports(SparsityGranularity.LAYER_WISE)

    def test_s2ta_supports_tile_wise(self):
        assert TABLE_I["S2TA"].supports(SparsityGranularity.TILE_WISE)

    def test_support_is_monotonically_increasing_down_the_table(self):
        rows = table1()
        for earlier, later in zip(rows, rows[1:]):
            assert earlier.supported <= later.supported
