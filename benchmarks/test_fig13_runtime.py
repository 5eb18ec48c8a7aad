"""E4 — Figure 13: normalized runtime of the Table IV layers on every engine.

Runs the full sweep: 12 DNN layers x {4:4, 2:4, 1:4} weight sparsity x the
Figure 13 engine set (three dense baselines, the STC-like configuration, five
VEGETA-S design points and VEGETA-S-16-2 with output forwarding).  Each point
traces a steady-state sample of the kernel (two output-tile blocks) and scales
the measured cycles by the covered fraction — the kernels are periodic over
output tiles, so this preserves the relative shape the paper reports.

The assertions check Figure 13's qualitative structure:
* RASA-SM (VEGETA-D-1-1) is the slowest design everywhere,
* dense engines do not benefit from sparse weights,
* the STC-like engine accelerates 2:4 but not 1:4,
* VEGETA-S engines accelerate 1:4 beyond 2:4, and output forwarding helps.
"""

import pytest

from repro.analysis.runtime import FIGURE13_ENGINE_NAMES, FUNCTIONAL_MAX_OUTPUT_TILES
from repro.experiments.runner import run_named
from repro.types import SparsityPattern
from repro.workloads.layers import all_layers, get_layer
from repro.experiments.results import print_table

#: Steady-state sample length; keeps the table comparable with the seed runs.
MAX_OUTPUT_TILES = FUNCTIONAL_MAX_OUTPUT_TILES


def _run_sweep():
    """The registered ``fig13`` experiment, as ``repro run fig13`` runs it."""
    return run_named("fig13", {"max_output_tiles": MAX_OUTPUT_TILES})


def _index(sweep):
    return {
        (row["layer"], SparsityPattern(row["pattern"]), row["engine"]): row["core_cycles_scaled"]
        for row in sweep.rows
    }


@pytest.mark.benchmark(group="figure13")
def test_figure13_runtime_sweep(benchmark):
    sweep = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    table = _index(sweep)
    normalized = sweep.normalized_to_max("core_cycles_scaled", ("layer", "pattern", "engine"))

    layers = [layer.name for layer in all_layers()]
    patterns = (SparsityPattern.DENSE_4_4, SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4)
    rows = []
    for layer in layers:
        for pattern in patterns:
            rows.append(
                [f"{layer}/{pattern.value}"]
                + [
                    f"{normalized[f'{layer}/{pattern.value}/{engine}']:.3f}"
                    for engine in FIGURE13_ENGINE_NAMES
                ]
            )
    print_table(
        "Figure 13: runtime normalized to the slowest point",
        ["layer/pattern"] + list(FIGURE13_ENGINE_NAMES),
        rows,
    )

    # The slowest point overall is RASA-SM (the paper normalises to GPT-L3 on RASA-SM).
    slowest_key = max(normalized, key=normalized.get)
    assert slowest_key.endswith("VEGETA-D-1-1")

    for layer in layers:
        # Dense engines cannot exploit sparsity: same runtime across patterns.
        for engine in ("VEGETA-D-1-1", "VEGETA-D-1-2", "VEGETA-D-16-1"):
            dense = table[(layer, SparsityPattern.DENSE_4_4, engine)]
            for pattern in (SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4):
                assert table[(layer, pattern, engine)] == pytest.approx(dense, rel=0.02)
        # RASA-SM is the slowest engine for every layer/pattern.
        for pattern in patterns:
            sm = table[(layer, pattern, "VEGETA-D-1-1")]
            for engine in FIGURE13_ENGINE_NAMES[1:]:
                assert table[(layer, pattern, engine)] <= sm * 1.01
        # The STC-like engine cannot exploit 1:4 beyond its 2:4 path.
        assert table[(layer, SparsityPattern.SPARSE_1_4, "STC-like")] == pytest.approx(
            table[(layer, SparsityPattern.SPARSE_2_4, "STC-like")], rel=0.02
        )
        # VEGETA-S-16-2 exploits 1:4 beyond 2:4 whenever the layer's K reaches
        # the 128-wide effective tile (ResNet50-L3's K=64 pads up and gains
        # nothing), and output forwarding helps.
        if get_layer(layer).gemm.k >= 128:
            assert table[(layer, SparsityPattern.SPARSE_1_4, "VEGETA-S-16-2")] < table[
                (layer, SparsityPattern.SPARSE_2_4, "VEGETA-S-16-2")
            ]
        # Output forwarding strictly helps whenever the K loop is long enough
        # to create back-to-back accumulations into the same C tile.
        if get_layer(layer).gemm.k >= 128:
            assert table[(layer, SparsityPattern.SPARSE_2_4, "VEGETA-S-16-2+OF")] < table[
                (layer, SparsityPattern.SPARSE_2_4, "VEGETA-S-16-2")
            ]
        else:
            assert table[(layer, SparsityPattern.SPARSE_2_4, "VEGETA-S-16-2+OF")] <= table[
                (layer, SparsityPattern.SPARSE_2_4, "VEGETA-S-16-2")
            ]

    # The STC-like engine reduces 2:4 runtime versus RASA-DM on average (the
    # paper reports a 16 % average reduction); small-K layers like ResNet50-L3
    # can individually lose to the dense engine because of their tiny K loop.
    stc_ratio = 1.0
    for layer in layers:
        stc_ratio *= table[(layer, SparsityPattern.SPARSE_2_4, "STC-like")] / table[
            (layer, SparsityPattern.SPARSE_2_4, "VEGETA-D-1-2")
        ]
    assert stc_ratio ** (1 / len(layers)) < 1.0
