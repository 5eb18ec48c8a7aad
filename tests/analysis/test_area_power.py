"""Tests for the Figure 14 area / power / frequency model."""

import pytest

from repro.analysis.area_power import (
    TARGET_FREQUENCY_GHZ,
    engine_frequency_ghz,
    estimate,
    sparse_power_overheads,
)
from repro.core.engine import catalog, get_engine
from repro.experiments.figures import figure14_spec
from repro.experiments.runner import run_experiment, run_named


class TestArea:
    def test_baseline_normalises_to_one(self):
        baseline = estimate(get_engine("VEGETA-D-1-1"))
        assert baseline.area_normalized == pytest.approx(1.0)
        assert baseline.power_normalized == pytest.approx(1.0)

    def test_worst_sparse_area_overhead_bounded(self):
        # Section VI-D: the largest VEGETA-S area overhead vs RASA-SM is ~6 %.
        overheads = [
            estimate(get_engine(f"VEGETA-S-{alpha}-2")).area_normalized - 1.0
            for alpha in (1, 2, 4, 8, 16)
        ]
        assert max(overheads) < 0.10
        assert max(overheads) == overheads[0]  # alpha = 1 is the worst case

    def test_area_decreases_with_alpha(self):
        areas = [
            estimate(get_engine(f"VEGETA-S-{alpha}-2")).area_normalized
            for alpha in (1, 2, 4, 8, 16)
        ]
        assert areas == sorted(areas, reverse=True)

    def test_wide_sparse_engines_smaller_than_dense_baseline(self):
        # Section VI-D: VEGETA-S-8-2 and VEGETA-S-16-2 are smaller than RASA-SM.
        assert estimate(get_engine("VEGETA-S-8-2")).area_normalized < 1.0
        assert estimate(get_engine("VEGETA-S-16-2")).area_normalized < 1.0


class TestPower:
    def test_power_overheads_match_section_vi_d(self):
        # Paper: 17 / 8 / 4 / 3 / 1 % for alpha = 1 / 2 / 4 / 8 / 16.
        expected = {1: 0.17, 2: 0.08, 4: 0.04, 8: 0.03, 16: 0.01}
        overheads = sparse_power_overheads()
        for alpha, target in expected.items():
            assert overheads[alpha] == pytest.approx(target, abs=0.02)

    def test_power_decreases_with_alpha(self):
        values = [sparse_power_overheads()[alpha] for alpha in (1, 2, 4, 8, 16)]
        assert values == sorted(values, reverse=True)


class TestFrequency:
    def test_frequency_decreases_with_alpha(self):
        frequencies = [
            engine_frequency_ghz(get_engine(f"VEGETA-S-{alpha}-2"))
            for alpha in (1, 2, 4, 8, 16)
        ]
        assert frequencies == sorted(frequencies, reverse=True)

    def test_all_designs_meet_half_gigahertz(self):
        # Section VI-C chose 0.5 GHz because every design met it.
        for engine in catalog().values():
            assert engine_frequency_ghz(engine) >= TARGET_FREQUENCY_GHZ

    def test_estimate_reports_target_met(self):
        for row in run_named("area-power").rows:
            assert row["meets_target_frequency"]
            assert estimate(get_engine(row["engine"])).meets_target_frequency


class TestFigure14Table:
    def test_one_row_per_vegeta_engine_in_order(self):
        rows = run_named("area-power").rows
        expected = [name for name in catalog() if name.startswith("VEGETA")]
        assert [row["engine"] for row in rows] == expected

    def test_custom_subset(self):
        rows = run_experiment(figure14_spec(["VEGETA-S-2-2"])).rows
        assert len(rows) == 1 and rows[0]["engine"] == "VEGETA-S-2-2"
