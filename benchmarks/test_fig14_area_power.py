"""E5 — Figure 14: normalized area / power and maximum frequency per engine."""

import pytest

from repro.analysis.area_power import sparse_power_overheads
from repro.experiments.runner import run_named
from repro.experiments.results import print_table


def _estimate_engines():
    """The registered ``area-power`` experiment: one row per engine."""
    return run_named("area-power").rows


@pytest.mark.benchmark(group="figure14")
def test_figure14_area_power_frequency(benchmark):
    rows = benchmark.pedantic(_estimate_engines, rounds=3, iterations=1)

    print_table(
        "Figure 14: area/power normalized to RASA-SM, max frequency",
        ["engine", "norm. area", "norm. power", "frequency (GHz)"],
        [
            [
                row["engine"],
                f"{row['area_normalized']:.3f}",
                f"{row['power_normalized']:.3f}",
                f"{row['frequency_ghz']:.2f}",
            ]
            for row in rows
        ],
    )

    by_name = {row["engine"]: row for row in rows}
    # Sparse overhead is bounded (paper: worst case ~6 % area).
    assert by_name["VEGETA-S-1-2"]["area_normalized"] < 1.10
    # Larger broadcast factors amortise the pipeline buffers below the baseline.
    assert by_name["VEGETA-S-8-2"]["area_normalized"] < 1.0
    assert by_name["VEGETA-S-16-2"]["area_normalized"] < 1.0
    # Frequency falls monotonically with alpha but every design meets 0.5 GHz.
    sparse_rows = [by_name[f"VEGETA-S-{alpha}-2"] for alpha in (1, 2, 4, 8, 16)]
    frequencies = [row["frequency_ghz"] for row in sparse_rows]
    assert frequencies == sorted(frequencies, reverse=True)
    assert all(row["frequency_ghz"] >= 0.5 for row in rows)
    # Power overheads follow the 17/8/4/3/1 % trend of Section VI-D.
    overheads = sparse_power_overheads()
    assert overheads[1] == pytest.approx(0.17, abs=0.02)
    assert overheads[16] == pytest.approx(0.01, abs=0.02)
