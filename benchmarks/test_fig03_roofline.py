"""E1 — Figure 3: effective throughput of dense/sparse vector/matrix engines.

Regenerates the four roofline curves (effective TFLOPS vs weight density) for
a convolutional layer with 64 GFLOPS vector / 512 GFLOPS matrix peaks and
94 GB/s of memory bandwidth, and checks the paper's qualitative claims.
"""

import pytest

from repro.analysis.roofline import FIGURE3_ENGINES
from repro.experiments.runner import run_named
from repro.experiments.results import print_table

DENSITIES = [d / 100 for d in range(5, 101, 5)]


def _compute_series():
    """The registered ``roofline`` experiment: one curve per engine class."""
    table = run_named("roofline", {"densities": DENSITIES})
    return {
        engine: [row["effective_tflops"] for row in table.where(engine=engine).rows]
        for engine in FIGURE3_ENGINES
    }


@pytest.mark.benchmark(group="figure3")
def test_figure3_roofline(benchmark):
    series = benchmark.pedantic(_compute_series, rounds=3, iterations=1)

    rows = []
    for index, density in enumerate(DENSITIES):
        rows.append(
            [
                f"{density:.0%}",
                f"{series['dense_vector'][index]:.3f}",
                f"{series['sparse_vector'][index]:.3f}",
                f"{series['dense_matrix'][index]:.3f}",
                f"{series['sparse_matrix'][index]:.3f}",
            ]
        )
    print_table(
        "Figure 3: effective throughput (TFLOPS) vs density",
        ["density", "dense vec", "sparse vec", "dense mat", "sparse mat"],
        rows,
    )

    # Paper claims: engines match at 100% density; sparse engines dominate at
    # low density; matrix >> vector; sparse vector ~ sparse matrix when the
    # problem becomes memory bound.
    assert series["dense_matrix"][-1] == pytest.approx(series["sparse_matrix"][-1])
    assert series["sparse_matrix"][0] > 3 * series["dense_matrix"][0]
    assert series["dense_matrix"][-1] == pytest.approx(0.512, rel=0.01)
    assert series["dense_vector"][-1] == pytest.approx(0.064, rel=0.01)
