"""Tests for the Table III engine design points."""

import dataclasses

import pytest

from repro.analysis.runtime import FIGURE13_ENGINE_NAMES, resolve_engine
from repro.core.engine import (
    ALL_NM_PATTERNS,
    EngineConfig,
    catalog,
    get_engine,
    stc_like_engine,
)
from repro.errors import ConfigurationError
from repro.types import SparsityPattern

#: Expected (Nrows, Ncols, MACs/PE, inputs/PE, drain latency) from Table III.
TABLE_III = {
    "VEGETA-D-1-1": (32, 16, 1, 1, 16),
    "VEGETA-D-1-2": (16, 16, 2, 2, 16),
    "VEGETA-D-16-1": (32, 1, 16, 1, 1),
    "VEGETA-S-1-2": (16, 16, 2, 8, 16),
    "VEGETA-S-2-2": (16, 8, 4, 8, 8),
    "VEGETA-S-4-2": (16, 4, 8, 8, 4),
    "VEGETA-S-8-2": (16, 2, 16, 8, 2),
    "VEGETA-S-16-2": (16, 1, 32, 8, 2),
}


class TestTableIII:
    @pytest.mark.parametrize("name,expected", sorted(TABLE_III.items()))
    def test_structural_parameters(self, name, expected):
        engine = get_engine(name)
        nrows, ncols, macs_per_pe, inputs_per_pe, drain = expected
        assert engine.nrows == nrows
        assert engine.ncols == ncols
        assert engine.macs_per_pe == macs_per_pe
        assert engine.inputs_per_pe == inputs_per_pe
        assert engine.drain_latency == drain

    def test_catalog_has_table_iii_plus_foreign_backends(self):
        names = set(catalog())
        assert names == set(TABLE_III) | {"AMX-like", "SME-like"}

    def test_table_iii_designs_have_512_macs(self):
        for name in TABLE_III:
            engine = get_engine(name)
            assert engine.nrows * engine.ncols * engine.macs_per_pe == 512

    def test_issue_interval_follows_longest_stage(self):
        # beta=2 designs have balanced 16-cycle stages; beta=1 designs are
        # limited by their 32-cycle weight-load stage (the RASA-SM stage
        # mismatch the paper calls out).
        for name in TABLE_III:
            engine = get_engine(name)
            expected = 16 if engine.beta == 2 else 32
            assert engine.issue_interval == expected

    def test_sparse_engines_support_all_patterns(self):
        for engine in catalog().values():
            if engine.sparse:
                assert engine.supported_patterns == ALL_NM_PATTERNS
            else:
                assert engine.supported_patterns == frozenset({SparsityPattern.DENSE_4_4})


class TestLatencies:
    def test_instruction_latency_components(self):
        engine = get_engine("VEGETA-S-16-2")
        assert engine.weight_load_latency == 16
        assert engine.feed_first_latency == 16
        assert engine.feed_second_latency == 15
        assert engine.reduction_latency == 1
        assert engine.instruction_latency == 16 + 16 + 15 + 2 + 1

    def test_narrower_arrays_have_shorter_latency(self):
        assert (
            get_engine("VEGETA-S-16-2").instruction_latency
            < get_engine("VEGETA-D-1-2").instruction_latency
        )

    def test_output_ready_latency(self):
        engine = get_engine("VEGETA-S-16-2")
        assert engine.output_ready_latency == 2 * 16 + 1


class TestCapabilities:
    def test_dense_engine_executes_everything_as_dense(self):
        engine = get_engine("VEGETA-D-1-2")
        assert engine.executable_pattern(SparsityPattern.SPARSE_1_4) is SparsityPattern.DENSE_4_4
        assert engine.executable_pattern(SparsityPattern.SPARSE_2_4) is SparsityPattern.DENSE_4_4

    def test_stc_like_runs_1_4_as_2_4(self):
        engine = stc_like_engine()
        assert engine.executable_pattern(SparsityPattern.SPARSE_1_4) is SparsityPattern.SPARSE_2_4
        assert engine.executable_pattern(SparsityPattern.SPARSE_2_4) is SparsityPattern.SPARSE_2_4
        assert SparsityPattern.SPARSE_1_4 not in engine.supported_patterns

    def test_full_sparse_engine_runs_patterns_natively(self):
        engine = get_engine("VEGETA-S-2-2")
        for pattern in (SparsityPattern.SPARSE_1_4, SparsityPattern.SPARSE_2_4):
            assert engine.executable_pattern(pattern) is pattern

    def test_rowwise_pattern_not_accepted_by_executable_pattern(self):
        with pytest.raises(ConfigurationError):
            get_engine("VEGETA-S-2-2").executable_pattern(SparsityPattern.ROW_WISE)


class TestOutputForwarding:
    def test_with_output_forwarding_renames(self):
        engine = get_engine("VEGETA-S-16-2").with_output_forwarding()
        assert engine.output_forwarding
        assert engine.name.endswith("+OF")

    def test_with_output_forwarding_preserves_structure(self):
        base = get_engine("VEGETA-S-4-2")
        forwarded = base.with_output_forwarding()
        assert forwarded.nrows == base.nrows and forwarded.ncols == base.ncols

    def test_with_output_forwarding_preserves_spgemm(self):
        engine = get_engine("VEGETA-S-4-2").with_spgemm().with_output_forwarding()
        assert engine.spgemm and engine.output_forwarding


class TestFeatureNames:
    """Toggling a feature names the engine as resolve_engine spells it."""

    @pytest.mark.parametrize(
        "name,disable",
        [
            ("VEGETA-S-16-2+OF", lambda engine: engine.with_output_forwarding(False)),
            ("VEGETA-S-16-2+SPGEMM", lambda engine: engine.with_spgemm(False)),
            ("STC-like+OF", lambda engine: engine.with_output_forwarding(False)),
        ],
    )
    def test_disabling_a_feature_gives_the_base_engine(self, name, disable):
        base = resolve_engine(name.split("+")[0])
        assert disable(resolve_engine(name)) == base

    def test_disabling_one_of_two_features_keeps_the_other(self):
        engine = resolve_engine("VEGETA-S-4-2+OF+SPGEMM")
        assert engine.with_output_forwarding(False) == resolve_engine("VEGETA-S-4-2+SPGEMM")
        assert engine.with_spgemm(False) == resolve_engine("VEGETA-S-4-2+OF")

    def test_both_enabling_orders_give_the_resolved_engine(self):
        base = get_engine("VEGETA-S-4-2")
        resolved = resolve_engine("VEGETA-S-4-2+SPGEMM+OF")
        assert resolved.name == "VEGETA-S-4-2+OF+SPGEMM"
        assert base.with_spgemm().with_output_forwarding() == resolved
        assert base.with_output_forwarding().with_spgemm() == resolved

    def test_enabling_twice_appends_once(self):
        engine = resolve_engine("VEGETA-S-16-2+OF")
        assert engine.with_output_forwarding() == engine


class TestTiming:
    """EngineTiming: exactly the quantities the simulator reads."""

    @pytest.mark.parametrize(
        "name",
        sorted(catalog())
        + ["STC-like", "VEGETA-S-16-2+OF", "VEGETA-S-4-2+OF+SPGEMM", "SME-like+OF"],
    )
    def test_every_field_is_the_engine_property_of_that_name(self, name):
        engine = resolve_engine(name)
        timing = engine.timing
        for field in dataclasses.fields(timing):
            assert getattr(timing, field.name) == getattr(engine, field.name), field.name

    def test_figure13_engines_fall_into_seven_timing_classes(self):
        classes = {}
        for name in FIGURE13_ENGINE_NAMES:
            classes.setdefault(resolve_engine(name).timing, set()).add(name)
        assert sorted(map(sorted, classes.values())) == sorted(
            [
                ["STC-like", "VEGETA-D-1-2", "VEGETA-S-1-2"],
                ["VEGETA-S-16-2", "VEGETA-S-8-2"],
                ["VEGETA-D-1-1"],
                ["VEGETA-D-16-1"],
                ["VEGETA-S-2-2"],
                ["VEGETA-S-4-2"],
                ["VEGETA-S-16-2+OF"],
            ]
        )


class TestSpgemm:
    def test_with_spgemm_renames(self):
        engine = get_engine("VEGETA-S-16-2").with_spgemm()
        assert engine.spgemm
        assert engine.name.endswith("+SPGEMM")

    def test_catalog_engines_default_to_no_spgemm(self):
        assert not get_engine("VEGETA-S-16-2").spgemm

    def test_dense_engine_cannot_enable_spgemm(self):
        with pytest.raises(ConfigurationError):
            get_engine("VEGETA-D-1-2").with_spgemm()

    def test_feed_overhead_scales_with_effective_k(self):
        timing = get_engine("VEGETA-S-16-2").with_spgemm().timing
        # K=64 -> 16 blocks at 4 intersections/cycle; K=128 -> 32 blocks.
        assert timing.spgemm_feed_overhead(64) == 4
        assert timing.spgemm_feed_overhead(128) == 8

    def test_feed_overhead_requires_the_capability(self):
        with pytest.raises(ConfigurationError):
            get_engine("VEGETA-S-16-2").timing.spgemm_feed_overhead(64)


class TestValidation:
    def test_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            get_engine("VEGETA-X-1-1")

    def test_lookup_is_case_insensitive(self):
        assert get_engine("vegeta-s-2-2").name == "VEGETA-S-2-2"

    def test_invalid_beta(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(name="bad", sparse=False, alpha=1, beta=3)

    def test_dense_engine_cannot_claim_sparse_support(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(
                name="bad",
                sparse=False,
                alpha=1,
                beta=1,
                supported_patterns=frozenset(
                    {SparsityPattern.DENSE_4_4, SparsityPattern.SPARSE_2_4}
                ),
            )

    def test_describe_contains_table_columns(self):
        row = get_engine("VEGETA-S-2-2").describe()
        assert row["nrows"] == 16 and row["ncols"] == 8
        assert "drain_latency" in row and "supported_sparsity" in row
