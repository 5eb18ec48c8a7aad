"""Tests for the Figure 15 granularity speed-up model."""

import numpy as np
import pytest

from repro.analysis.granularity import (
    granularity_speedups,
    layer_wise_speedup,
    row_wise_speedup,
    tile_wise_speedup,
    unstructured_speedup,
)
from repro.experiments.figures import figure15_spec
from repro.experiments.runner import run_experiment, run_named
from repro.sparse.pruning import prune_unstructured


def _random_sparse(rng, rows, cols, degree):
    matrix = rng.standard_normal((rows, cols)).astype(np.float32)
    return prune_unstructured(matrix, degree, rng=rng)


class TestIndividualGranularities:
    def test_dense_matrix_gives_unit_speedups(self, rng):
        matrix = rng.standard_normal((32, 128)).astype(np.float32) + 1.0
        speedups = granularity_speedups(matrix)
        assert speedups["layer_wise"] == 1.0
        assert speedups["tile_wise"] == 1.0
        assert speedups["row_wise"] == pytest.approx(1.0)

    def test_uniform_1_4_matrix_gives_4x_everywhere(self):
        matrix = np.zeros((32, 128), dtype=np.float32)
        matrix[:, ::4] = 1.0  # exactly one non-zero per block
        assert layer_wise_speedup(matrix) == pytest.approx(4.0)
        assert tile_wise_speedup(matrix) == pytest.approx(4.0)
        assert row_wise_speedup(matrix) == pytest.approx(4.0)

    def test_granularity_ordering(self, rng):
        matrix = _random_sparse(rng, 64, 256, 0.9)
        speedups = granularity_speedups(matrix)
        assert speedups["dense"] <= speedups["layer_wise"] <= speedups["tile_wise"]
        assert speedups["tile_wise"] <= speedups["row_wise"] + 1e-9
        assert speedups["pseudo_row_wise"] <= speedups["row_wise"] + 1e-9

    def test_row_wise_at_90_percent_close_to_paper(self, rng):
        values = [
            row_wise_speedup(_random_sparse(rng, 256, 256, 0.90)) for _ in range(3)
        ]
        assert np.mean(values) == pytest.approx(2.36, rel=0.1)

    def test_row_wise_at_95_percent_close_to_paper(self, rng):
        values = [
            row_wise_speedup(_random_sparse(rng, 256, 256, 0.95)) for _ in range(3)
        ]
        assert np.mean(values) == pytest.approx(3.28, rel=0.1)

    def test_unstructured_speedup_area_normalised(self, rng):
        matrix = _random_sparse(rng, 64, 64, 0.95)
        assert unstructured_speedup(matrix) == pytest.approx((1 / 0.05) / 4.5, rel=0.1)

    def test_unstructured_inefficient_at_modest_sparsity(self, rng):
        matrix = _random_sparse(rng, 64, 64, 0.6)
        assert unstructured_speedup(matrix) < 1.0


def _figure15_rows(degrees, layer):
    """One ``fig15`` row per degree: a single layer's averages are its rows."""
    spec = figure15_spec(degrees, layers=[layer], max_weight_elements=1 << 15)
    return run_experiment(spec).rows


class TestFigure15Series:
    def test_speedups_increase_with_sparsity(self):
        rows = _figure15_rows([0.6, 0.8, 0.95], "BERT-L2")
        row_wise = [row["row_wise"] for row in rows]
        assert row_wise == sorted(row_wise)

    def test_sigma_overtakes_row_wise_only_at_extreme_sparsity(self):
        moderate, extreme = _figure15_rows([0.80, 0.95], "GPT-L1")
        assert moderate["unstructured"] < moderate["row_wise"]
        assert extreme["unstructured"] > extreme["row_wise"]

    def test_headline_value(self):
        # Abstract: 3.28x for unstructured 95 % sparse layers via row-wise N:4.
        table = run_named("headline", {"max_layers": 1, "max_output_tiles": 1})
        speedups = {row["sparsity"]: row["speedup"] for row in table.rows}
        assert speedups["unstructured-95%"] == pytest.approx(3.28, rel=0.12)
