"""E7 — the abstract's headline speed-ups of VEGETA over the SOTA dense engine.

Paper: a VEGETA engine provides 1.09x, 2.20x, 3.74x and 3.28x speed-ups over
the state-of-the-art dense matrix engine (RASA-DM) when running 4:4 (dense),
2:4, 1:4 and unstructured (95 %) sparse DNN layers.  The structured-sparsity
numbers come from the cycle-approximate simulation of the Table IV layers on
VEGETA-S-16-2 with output forwarding; the unstructured number comes from the
row-wise granularity model at 95 % sparsity.
"""

import pytest

from repro.analysis.runtime import FUNCTIONAL_MAX_OUTPUT_TILES
from repro.experiments.runner import run_named
from repro.experiments.results import print_table

PAPER_VALUES = {"4:4": 1.09, "2:4": 2.20, "1:4": 3.74, "unstructured-95%": 3.28}


def _measure():
    """The registered ``headline`` experiment, as ``repro run headline`` runs it."""
    table = run_named("headline", {"max_output_tiles": FUNCTIONAL_MAX_OUTPUT_TILES})
    return {row["sparsity"]: row["speedup"] for row in table.rows}


@pytest.mark.benchmark(group="headline")
def test_headline_speedups(benchmark):
    measured = benchmark.pedantic(_measure, rounds=1, iterations=1)

    print_table(
        "Headline speed-ups vs RASA-DM (SOTA dense matrix engine)",
        ["weight sparsity", "paper", "measured"],
        [
            [key, f"{PAPER_VALUES[key]:.2f}x", f"{measured[key]:.2f}x"]
            for key in ("4:4", "2:4", "1:4", "unstructured-95%")
        ],
    )

    # Shape: ordering preserved and each factor within ~35 % of the paper.
    assert measured["4:4"] < measured["2:4"] < measured["1:4"]
    assert measured["4:4"] == pytest.approx(1.09, abs=0.30)
    assert measured["2:4"] == pytest.approx(2.20, rel=0.35)
    assert measured["1:4"] == pytest.approx(3.74, rel=0.35)
    assert measured["unstructured-95%"] == pytest.approx(3.28, rel=0.15)
