"""Tests for the Figure 13 points and the sweeps that read them."""

import pytest

from repro.analysis.runtime import (
    FIGURE13_ENGINE_NAMES,
    build_layer_kernel,
    resolve_engine,
    simulate_layer,
)
from repro.core.engine import get_engine
from repro.cpu.params import CoreParams, MachineParams, MemoryParams
from repro.errors import ConfigurationError
from repro.experiments.figures import HEADLINE_BASELINE, HEADLINE_TARGET, figure13_spec
from repro.experiments.runner import run_experiment
from repro.types import SparsityPattern
from repro.workloads.layers import get_layer
from repro.workloads.sweeps import FIGURE13_PATTERNS


class TestResolveEngine:
    def test_plain_name(self):
        assert resolve_engine("VEGETA-S-2-2").name == "VEGETA-S-2-2"

    def test_of_suffix(self):
        engine = resolve_engine("VEGETA-S-16-2+OF")
        assert engine.output_forwarding and engine.name == "VEGETA-S-16-2+OF"

    def test_stc_like(self):
        engine = resolve_engine("STC-like")
        assert engine.sparse and SparsityPattern.SPARSE_1_4 not in engine.supported_patterns

    def test_all_figure13_names_resolve(self):
        for name in FIGURE13_ENGINE_NAMES:
            assert resolve_engine(name) is not None

    def test_stc_like_is_case_insensitive(self):
        for spelling in ("stc-like", "STC-LIKE", "Stc-Like"):
            engine = resolve_engine(spelling)
            assert engine.name == "STC-like"
            assert engine.sparse and SparsityPattern.SPARSE_1_4 not in engine.supported_patterns

    def test_of_suffix_is_case_insensitive(self):
        for spelling in ("VEGETA-S-16-2+of", "vegeta-s-16-2+OF", "vegeta-s-16-2+of"):
            engine = resolve_engine(spelling)
            assert engine.output_forwarding

    def test_of_suffix_enables_output_forwarding_on_base_engine(self):
        plain = resolve_engine("VEGETA-S-8-2")
        forwarded = resolve_engine("VEGETA-S-8-2+OF")
        assert not plain.output_forwarding
        assert forwarded.output_forwarding
        assert (forwarded.alpha, forwarded.beta) == (plain.alpha, plain.beta)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine("VEGETA-X-3-9")

    def test_unknown_base_engine_with_of_suffix_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine("VEGETA-X-3-9+OF")

    def test_backend_aliases_resolve_case_insensitively(self):
        for spelling in ("amx", "AMX", "Amx"):
            assert resolve_engine(spelling).name == "AMX-like"
        for spelling in ("sme", "SME", "Sme"):
            assert resolve_engine(spelling).name == "SME-like"

    def test_full_backend_names_still_resolve(self):
        assert resolve_engine("AMX-like").geometry.name == "amx"
        assert resolve_engine("SME-like").geometry.name == "sme"

    def test_backend_alias_composes_with_of_suffix(self):
        engine = resolve_engine("amx+OF")
        assert engine.name == "AMX-like+OF"
        assert engine.output_forwarding

    def test_backend_alias_with_unknown_suffix_rejected(self):
        with pytest.raises(ConfigurationError, match="suffix"):
            resolve_engine("sme+TURBO")

    def test_unknown_backend_shorthand_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine("avx")


class TestBuildLayerKernel:
    def test_dense_engine_runs_dense_kernel_for_sparse_weights(self):
        layer = get_layer("BERT-L2")
        program = build_layer_kernel(
            layer, SparsityPattern.SPARSE_1_4, get_engine("VEGETA-D-1-2"), max_output_tiles=1
        )
        assert program.pattern is SparsityPattern.DENSE_4_4

    def test_sparse_engine_runs_spmm_kernel(self):
        layer = get_layer("BERT-L2")
        program = build_layer_kernel(
            layer, SparsityPattern.SPARSE_1_4, get_engine("VEGETA-S-16-2"), max_output_tiles=1
        )
        assert program.pattern is SparsityPattern.SPARSE_1_4

    def test_stc_like_runs_1_4_as_2_4(self):
        layer = get_layer("BERT-L2")
        program = build_layer_kernel(
            layer, SparsityPattern.SPARSE_1_4, resolve_engine("STC-like"), max_output_tiles=1
        )
        assert program.pattern is SparsityPattern.SPARSE_2_4

    def test_foreign_backend_builds_dense_kernel_in_its_geometry(self):
        layer = get_layer("BERT-L2")
        engine = resolve_engine("sme")
        program = build_layer_kernel(
            layer, SparsityPattern.SPARSE_2_4, engine, max_output_tiles=1
        )
        assert program.pattern is SparsityPattern.DENSE_4_4
        assert program.trace.geometry is engine.geometry


class TestSimulateLayer:
    def test_untruncated_by_default(self):
        # The fast-path simulator makes full traces the default: no
        # truncation, so no extrapolation (simulated_fraction == 1.0).
        from repro.analysis.runtime import DEFAULT_MAX_OUTPUT_TILES

        assert DEFAULT_MAX_OUTPUT_TILES is None
        layer = get_layer("ResNet50-L3")
        runtime = simulate_layer(layer, SparsityPattern.DENSE_4_4, get_engine("VEGETA-D-1-2"))
        assert runtime.simulated_fraction == 1.0
        assert runtime.core_cycles_scaled == runtime.result.core_cycles

    def test_simulated_fraction_scaling_round_trip(self):
        # A truncated run scaled up by 1/simulated_fraction must land close
        # to the untruncated measurement (the kernels are periodic over
        # output tiles; only warm-up and drain differ).
        layer = get_layer("ResNet50-L3")
        engine = get_engine("VEGETA-D-1-2")
        full = simulate_layer(layer, SparsityPattern.DENSE_4_4, engine, max_output_tiles=None)
        truncated = simulate_layer(layer, SparsityPattern.DENSE_4_4, engine, max_output_tiles=8)
        assert 0 < truncated.simulated_fraction < 1
        assert truncated.result.core_cycles < full.result.core_cycles
        assert truncated.core_cycles_scaled == pytest.approx(
            full.core_cycles_scaled, rel=0.05
        )

    def test_exact_mode_matches_fast_mode(self):
        layer = get_layer("ResNet50-L3")
        engine = get_engine("VEGETA-D-1-2")
        fast = simulate_layer(layer, SparsityPattern.DENSE_4_4, engine, max_output_tiles=16)
        exact = simulate_layer(
            layer, SparsityPattern.DENSE_4_4, engine, max_output_tiles=16, mode="exact"
        )
        assert fast.core_cycles_scaled == pytest.approx(exact.core_cycles_scaled, rel=0.01)

    def test_scaled_cycles_exceed_simulated(self):
        layer = get_layer("GPT-L1")
        runtime = simulate_layer(
            layer, SparsityPattern.DENSE_4_4, get_engine("VEGETA-D-1-2"), max_output_tiles=2
        )
        assert runtime.core_cycles_scaled > runtime.result.core_cycles
        assert 0 < runtime.simulated_fraction < 1
        assert runtime.runtime_seconds > 0

    def test_sparse_weights_speed_up_sparse_engine_but_not_dense(self):
        layer = get_layer("BERT-L3")
        dense_engine = get_engine("VEGETA-D-1-2")
        sparse_engine = get_engine("VEGETA-S-16-2")
        dense_on_dense = simulate_layer(layer, SparsityPattern.DENSE_4_4, dense_engine, max_output_tiles=2)
        dense_on_sparse_weights = simulate_layer(layer, SparsityPattern.SPARSE_1_4, dense_engine, max_output_tiles=2)
        sparse_on_sparse_weights = simulate_layer(layer, SparsityPattern.SPARSE_1_4, sparse_engine, max_output_tiles=2)
        # A dense engine cannot exploit the zeros at all.
        assert dense_on_sparse_weights.core_cycles_scaled == pytest.approx(
            dense_on_dense.core_cycles_scaled, rel=0.01
        )
        assert sparse_on_sparse_weights.core_cycles_scaled < 0.5 * dense_on_sparse_weights.core_cycles_scaled

    def test_runtime_seconds_reads_the_machine_frequency(self):
        # A point carries no frequency of its own: its wall-clock time divides
        # the scaled cycles by the clock of the machine it was simulated on.
        machine = MachineParams(
            core=CoreParams(frequency_ghz=4.0, matrix_engine_frequency_ghz=1.0),
            memory=MemoryParams(core_frequency_ghz=4.0),
        )
        runtime = simulate_layer(
            get_layer("GPT-L1"),
            SparsityPattern.DENSE_4_4,
            get_engine("VEGETA-D-1-2"),
            machine=machine,
            max_output_tiles=2,
        )
        assert runtime.result.machine == machine
        assert runtime.runtime_seconds == runtime.core_cycles_scaled / 4e9


class TestFigure13Experiment:
    def test_small_sweep_structure(self):
        table = run_experiment(
            figure13_spec(
                layers=[get_layer("GPT-L1")],
                engine_names=("VEGETA-D-1-2", "VEGETA-S-16-2+OF"),
                patterns=(SparsityPattern.DENSE_4_4, SparsityPattern.SPARSE_2_4),
                max_output_tiles=1,
            )
        )
        assert len(table.rows) == 4
        normalized = table.normalized_to_max(
            "core_cycles_scaled", ("layer", "pattern", "engine")
        )
        assert max(normalized.values()) == pytest.approx(1.0)
        assert all(0 < value <= 1.0 for value in normalized.values())


class TestHeadlineSpeedups:
    def test_headline_shape(self):
        # Paper: 1.09x / 2.20x / 3.74x for 4:4 / 2:4 / 1:4.  We check the
        # qualitative shape on a single layer: ~parity for dense, roughly 2x
        # for 2:4, roughly 4x for 1:4, strictly increasing with sparsity.
        table = run_experiment(
            figure13_spec(
                layers=[get_layer("BERT-L2")],
                engine_names=(HEADLINE_BASELINE, HEADLINE_TARGET),
                max_output_tiles=4,
            )
        )
        speedups = {
            pattern.value: table.geomean_speedup(
                "core_cycles_scaled",
                pivot_column="engine",
                baseline=HEADLINE_BASELINE,
                target=HEADLINE_TARGET,
                group_by=("layer",),
                where={"pattern": pattern.value},
            )
            for pattern in FIGURE13_PATTERNS
        }
        assert speedups["4:4"] == pytest.approx(1.09, abs=0.25)
        assert speedups["2:4"] == pytest.approx(2.20, rel=0.35)
        assert speedups["1:4"] == pytest.approx(3.74, rel=0.35)
        assert speedups["4:4"] < speedups["2:4"] < speedups["1:4"]
