"""Tests for the Figure 3 roofline model."""

import pytest

from repro.analysis.roofline import (
    FIGURE3_ENGINES,
    crossover_density,
    effective_throughput_tflops,
    layer_bytes,
)
from repro.errors import ConfigurationError
from repro.experiments.runner import run_named
from repro.types import GemmShape


class TestLayerBytes:
    def test_dense_storage_independent_of_density(self):
        shape = GemmShape(64, 64, 64)
        assert layer_bytes(shape, 0.5, sparse_storage=False) == layer_bytes(
            shape, 1.0, sparse_storage=False
        )

    def test_sparse_storage_shrinks_with_density(self):
        shape = GemmShape(64, 64, 64)
        assert layer_bytes(shape, 0.1, sparse_storage=True) < layer_bytes(
            shape, 0.9, sparse_storage=True
        )

    def test_invalid_density(self):
        with pytest.raises(ConfigurationError):
            layer_bytes(GemmShape(8, 8, 8), 0.0, sparse_storage=True)


class TestEffectiveThroughput:
    def test_all_engines_equal_at_full_density(self):
        dense_matrix = effective_throughput_tflops(FIGURE3_ENGINES["dense_matrix"], 1.0)
        sparse_matrix = effective_throughput_tflops(FIGURE3_ENGINES["sparse_matrix"], 1.0)
        assert dense_matrix == pytest.approx(sparse_matrix)
        dense_vector = effective_throughput_tflops(FIGURE3_ENGINES["dense_vector"], 1.0)
        sparse_vector = effective_throughput_tflops(FIGURE3_ENGINES["sparse_vector"], 1.0)
        assert dense_vector == pytest.approx(sparse_vector)

    def test_peaks_at_full_density(self):
        assert effective_throughput_tflops(
            FIGURE3_ENGINES["dense_matrix"], 1.0
        ) == pytest.approx(0.512)
        assert effective_throughput_tflops(
            FIGURE3_ENGINES["dense_vector"], 1.0
        ) == pytest.approx(0.064)

    def test_sparse_matrix_dominates_dense_at_low_density(self):
        sparse = effective_throughput_tflops(FIGURE3_ENGINES["sparse_matrix"], 0.1)
        dense = effective_throughput_tflops(FIGURE3_ENGINES["dense_matrix"], 0.1)
        assert sparse > 3 * dense

    def test_sparse_engines_converge_when_memory_bound(self):
        sparse_matrix = effective_throughput_tflops(FIGURE3_ENGINES["sparse_matrix"], 0.01)
        sparse_vector = effective_throughput_tflops(FIGURE3_ENGINES["sparse_vector"], 0.01)
        assert sparse_matrix == pytest.approx(sparse_vector, rel=0.35)

    def test_matrix_engine_8x_vector_engine(self):
        matrix = effective_throughput_tflops(FIGURE3_ENGINES["dense_matrix"], 1.0)
        vector = effective_throughput_tflops(FIGURE3_ENGINES["dense_vector"], 1.0)
        assert matrix / vector == pytest.approx(8.0)

    def test_dense_engine_effective_throughput_scales_with_density(self):
        full = effective_throughput_tflops(FIGURE3_ENGINES["dense_matrix"], 1.0)
        half = effective_throughput_tflops(FIGURE3_ENGINES["dense_matrix"], 0.5)
        assert half == pytest.approx(full * 0.5, rel=0.01)


class TestFigure3Series:
    def test_series_structure(self):
        table = run_named("roofline", {"densities": [0.25, 0.5, 1.0]})
        assert {row["engine"] for row in table.rows} == set(FIGURE3_ENGINES)
        for engine in FIGURE3_ENGINES:
            rows = table.where(engine=engine).rows
            assert [row["density_percent"] for row in rows] == [25.0, 50.0, 100.0]

    def test_sparse_curves_dominate_dense_curves(self):
        table = run_named("roofline", {"densities": [0.2, 0.4, 0.6, 0.8]})
        for sparse_key, dense_key in (
            ("sparse_matrix", "dense_matrix"),
            ("sparse_vector", "dense_vector"),
        ):
            sparse = table.where(engine=sparse_key).rows
            dense = table.where(engine=dense_key).rows
            for sparse_row, dense_row in zip(sparse, dense):
                assert sparse_row["effective_tflops"] >= dense_row["effective_tflops"]


class TestCrossover:
    def test_sparse_matrix_beats_dense_below_full_density(self):
        density = crossover_density(
            FIGURE3_ENGINES["sparse_matrix"], FIGURE3_ENGINES["dense_matrix"]
        )
        assert 0.5 <= density < 1.0
