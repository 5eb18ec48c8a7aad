"""E6 — Figure 15: speed-up vs sparsity degree for each granularity class.

Sweeps unstructured sparsity degrees from 60 % to 95 % over the Table IV
workloads (proportionally scaled weight matrices) and reports the average
speed-up of each hardware granularity class over a dense engine.
"""

import pytest

from repro.analysis.granularity import GRANULARITY_LABELS
from repro.experiments.runner import run_named
from repro.workloads.sweeps import FIGURE15_SPARSITY_DEGREES
from repro.experiments.results import print_table

SERIES_ORDER = ("dense", "layer_wise", "tile_wise", "pseudo_row_wise", "row_wise", "unstructured")


def _run_series():
    """The registered ``fig15`` experiment, averaged over the layers per degree."""
    table = run_named("fig15", {"max_weight_elements": 1 << 16})
    averages = {}
    for degree in FIGURE15_SPARSITY_DEGREES:
        rows = table.where(degree=degree).rows
        averages[degree] = {
            key: sum(row[key] for row in rows) / len(rows) for key in SERIES_ORDER
        }
    return averages


@pytest.mark.benchmark(group="figure15")
def test_figure15_granularity_speedups(benchmark):
    averages = benchmark.pedantic(_run_series, rounds=1, iterations=1)

    print_table(
        "Figure 15: average speed-up over a dense engine",
        ["sparsity"] + [GRANULARITY_LABELS[key] for key in SERIES_ORDER],
        [
            [f"{degree:.0%}"] + [f"{speedups[key]:.2f}" for key in SERIES_ORDER]
            for degree, speedups in averages.items()
        ],
    )

    by_degree = {round(degree, 2): speedups for degree, speedups in averages.items()}

    # Paper headline points: 2.36x at 90 % and 3.28x at 95 % for row-wise.
    assert by_degree[0.90]["row_wise"] == pytest.approx(2.36, rel=0.12)
    assert by_degree[0.95]["row_wise"] == pytest.approx(3.28, rel=0.12)

    for degree, speedups in by_degree.items():
        # Finer granularity never hurts.
        assert speedups["layer_wise"] <= speedups["tile_wise"] + 1e-9
        assert speedups["tile_wise"] <= speedups["row_wise"] + 1e-9
        assert speedups["pseudo_row_wise"] <= speedups["row_wise"] + 1e-9
        # Layer-wise barely helps on random unstructured sparsity.
        assert speedups["layer_wise"] < 1.5

    # The SIGMA-like area-normalised engine only wins at extreme sparsity.
    assert by_degree[0.80]["unstructured"] < by_degree[0.80]["row_wise"]
    assert by_degree[0.95]["unstructured"] > by_degree[0.95]["row_wise"]

    # Row-wise speed-up grows monotonically with the sparsity degree.
    row_wise = [speedups["row_wise"] for speedups in averages.values()]
    assert row_wise == sorted(row_wise)
