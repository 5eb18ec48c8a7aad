"""Tests for the evaluation sweeps' axis values, as the experiments expand them."""

import itertools

from repro.experiments.figures import figure13_spec, figure15_spec, spgemm_spec
from repro.types import SparsityPattern
from repro.workloads.layers import get_layer
from repro.workloads.sweeps import (
    FIGURE13_PATTERNS,
    FIGURE15_SPARSITY_DEGREES,
    SPGEMM_SWEEP_PATTERNS,
)


def layer_patterns(spec):
    """The (layer, pattern) points of a Figure 13 spec's trials."""
    return {(trial.params["layer"], trial.params["pattern"]) for trial in spec.trials()}


def pattern_pairs(spec):
    """The (A pattern, B pattern) pairs of a SpGEMM spec's trials, in order."""
    return [
        (SparsityPattern(trial.params["pattern_a"]), SparsityPattern(trial.params["pattern_b"]))
        for trial in spec.trials()
    ]


class TestSweeps:
    def test_figure13_sweep_covers_all_combinations(self):
        points = layer_patterns(figure13_spec())
        assert len(points) == 12 * 3
        assert ("GPT-L3", "1:4") in points and ("ResNet50-L1", "4:4") in points

    def test_figure13_sweep_with_subset(self):
        points = layer_patterns(figure13_spec(layers=[get_layer("BERT-L1")]))
        assert len(points) == 3
        assert all(layer == "BERT-L1" for layer, _ in points)

    def test_figure13_patterns(self):
        assert FIGURE13_PATTERNS == (
            SparsityPattern.DENSE_4_4,
            SparsityPattern.SPARSE_2_4,
            SparsityPattern.SPARSE_1_4,
        )

    def test_figure15_degrees_span_60_to_95(self):
        degrees = figure15_spec(FIGURE15_SPARSITY_DEGREES).axes["degree"]
        assert degrees[0] == 0.60 and degrees[-1] == 0.95
        assert degrees == sorted(degrees)
        assert degrees == list(FIGURE15_SPARSITY_DEGREES)


class TestSpgemmSweep:
    def test_enumerates_the_full_pattern_cross_product(self):
        points = pattern_pairs(spgemm_spec(shapes=[(64, 64, 128, False)]))
        assert len(points) == len(SPGEMM_SWEEP_PATTERNS) ** 2
        assert len(set(points)) == len(points)
        for pattern_a, pattern_b in points:
            assert pattern_a in SPGEMM_SWEEP_PATTERNS
            assert pattern_b in SPGEMM_SWEEP_PATTERNS

    def test_matches_the_experiment_spec_axes(self):
        # The registered experiment's pattern axes expand to exactly the
        # sparsity x sparsity cross product.
        points = set(pattern_pairs(spgemm_spec()))
        assert points == set(itertools.product(SPGEMM_SWEEP_PATTERNS, repeat=2))
