"""Tests for ResultTable serialization and the shared reductions."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.results import ResultTable, format_table, geomean


def runtime_table():
    rows = [
        {"layer": "L1", "engine": "base", "cycles": 100.0},
        {"layer": "L1", "engine": "fast", "cycles": 50.0},
        {"layer": "L2", "engine": "base", "cycles": 400.0},
        {"layer": "L2", "engine": "fast", "cycles": 100.0},
    ]
    return ResultTable(("layer", "engine", "cycles"), rows)


class TestSerialization:
    def test_json_round_trip(self):
        table = runtime_table()
        payload = json.loads(table.to_json())
        clone = ResultTable(payload["columns"], payload["rows"])
        assert clone == table
        assert clone.to_json() == table.to_json()

    def test_json_is_deterministic_regardless_of_row_key_order(self):
        reordered = ResultTable(
            ("layer", "engine", "cycles"),
            [dict(reversed(list(row.items()))) for row in runtime_table().rows],
        )
        assert reordered.to_json() == runtime_table().to_json()

    def test_extra_keys_survive_serialization(self):
        table = ResultTable(("a",), [{"a": 1, "zextra": 2}])
        assert json.loads(table.to_json())["rows"][0]["zextra"] == 2

    def test_csv_has_header_and_rows(self):
        lines = runtime_table().to_csv().splitlines()
        assert lines[0] == "layer,engine,cycles"
        assert lines[1] == "L1,base,100.0"
        assert len(lines) == 5

    def test_text_rendering_aligns_columns(self):
        text = runtime_table().to_text("demo")
        assert "== demo ==" in text
        assert "layer" in text and "cycles" in text


class TestContainer:
    def test_len_iter_column(self):
        table = runtime_table()
        assert len(table) == 4
        assert [row["engine"] for row in table] == ["base", "fast"] * 2
        assert table.column("cycles") == [100.0, 50.0, 400.0, 100.0]

    def test_where_filters_rows(self):
        fast = runtime_table().where(engine="fast")
        assert len(fast) == 2
        assert all(row["engine"] == "fast" for row in fast)


class TestReductions:
    def test_normalized_to_max(self):
        normalized = runtime_table().normalized_to_max("cycles", ("layer", "engine"))
        assert normalized["L2/base"] == pytest.approx(1.0)
        assert normalized["L1/fast"] == pytest.approx(0.125)

    def test_normalized_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ResultTable(("a",), []).normalized_to_max("a", ("a",))

    def test_geomean_speedup(self):
        speedup = runtime_table().geomean_speedup(
            "cycles",
            pivot_column="engine",
            baseline="base",
            target="fast",
            group_by=("layer",),
        )
        # L1: 2x, L2: 4x -> geometric mean sqrt(8).
        assert speedup == pytest.approx(8 ** 0.5)

    def test_geomean_speedup_requires_overlap(self):
        with pytest.raises(ConfigurationError):
            runtime_table().geomean_speedup(
                "cycles",
                pivot_column="engine",
                baseline="base",
                target="missing",
                group_by=("layer",),
            )

    def test_geomean_speedup_where_filter(self):
        table = ResultTable(
            ("layer", "engine", "pattern", "cycles"),
            [
                {"layer": "L1", "engine": "base", "pattern": "2:4", "cycles": 100.0},
                {"layer": "L1", "engine": "fast", "pattern": "2:4", "cycles": 25.0},
                {"layer": "L1", "engine": "base", "pattern": "1:4", "cycles": 100.0},
                {"layer": "L1", "engine": "fast", "pattern": "1:4", "cycles": 10.0},
            ],
        )
        speedup = table.geomean_speedup(
            "cycles",
            pivot_column="engine",
            baseline="base",
            target="fast",
            group_by=("layer",),
            where={"pattern": "1:4"},
        )
        assert speedup == pytest.approx(10.0)

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ConfigurationError):
            geomean([])

    def test_geomean_long_small_sequence_does_not_underflow(self):
        # Regression: the naive running product underflowed to 0.0 here.
        assert geomean([1e-3] * 400) == pytest.approx(1e-3)

    def test_geomean_long_large_sequence_does_not_overflow(self):
        # Regression: the naive running product overflowed to inf here.
        assert geomean([1e3] * 400) == pytest.approx(1e3)

    def test_geomean_mixed_magnitudes(self):
        assert geomean([1e-6, 1e6] * 200) == pytest.approx(1.0)

    def test_geomean_rejects_non_positive_values(self):
        with pytest.raises(ConfigurationError):
            geomean([1.0, 0.0, 2.0])
        with pytest.raises(ConfigurationError):
            geomean([1.0, -3.0])


def test_format_table_renders_all_rows():
    text = format_table("t", ("a", "bb"), [("1", "2"), ("3", "4")])
    lines = text.splitlines()
    assert lines[0] == "== t =="
    assert len(lines) == 5
