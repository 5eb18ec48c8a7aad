"""Tests for the built-in figure experiments (:mod:`repro.experiments.figures`)."""

import pytest

from repro.analysis.runtime import simulate_layer, resolve_engine
from repro.cpu.params import MachineParams
from repro.cpu.simulator import CycleApproximateSimulator
from repro.experiments.cache import ResultCache
from repro.experiments.figures import figure13_spec, figure15_spec, figure3_spec
from repro.experiments.runner import run_experiment, run_named
from repro.kernels.memo import clear_build_memo
from repro.types import SparsityPattern
from repro.workloads.layers import all_layers, get_layer


class TestMachineParamsCodec:
    def test_round_trip(self):
        machine = MachineParams()
        clone = MachineParams.from_dict(machine.to_dict())
        assert clone == machine

    def test_dict_is_plain_data(self):
        import json

        json.dumps(MachineParams().to_dict())


class TestFig13:
    def test_trial_matches_direct_simulation(self, tmp_path):
        layer = get_layer("GPT-L1")
        pattern = SparsityPattern.SPARSE_2_4
        engine_name = "VEGETA-S-16-2"
        direct = simulate_layer(
            layer, pattern, resolve_engine(engine_name), max_output_tiles=1
        )
        table = run_experiment(
            figure13_spec(
                layers=[layer],
                engine_names=(engine_name,),
                patterns=(pattern,),
                max_output_tiles=1,
            ),
            cache=ResultCache(tmp_path),
        )
        row = table.rows[0]
        assert row["core_cycles_scaled"] == direct.core_cycles_scaled
        assert row["simulated_fraction"] == direct.simulated_fraction
        assert row["core_cycles"] == direct.result.core_cycles

    def test_engines_of_equal_timing_share_simulations(self, monkeypatch):
        # One layer's 30 points run 3 kernels.  The dense kernel meets 7
        # engine timings (D-1-2, STC-like and S-1-2 share one; S-8-2 and
        # S-16-2 share one), each sparse kernel 5: 17 simulations.
        calls = []
        original = CycleApproximateSimulator.run

        def counting_run(self, trace, **kwargs):
            calls.append(self.engine.name)
            return original(self, trace, **kwargs)

        monkeypatch.setattr(CycleApproximateSimulator, "run", counting_run)
        clear_build_memo()
        spec = figure13_spec(layers=[get_layer("ResNet50-L3")], max_output_tiles=64)
        table = run_experiment(spec, jobs=1, cache=False)
        assert len(table.rows) == 30
        assert len(calls) == 17
        assert [row["engine"] for row in table.rows[:10]] == [
            resolve_engine(name).name for name in spec.axes["engine"]
        ]

    def test_custom_machine_changes_cache_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        layer = get_layer("GPT-L1")
        common = dict(
            layers=[layer],
            engine_names=("VEGETA-D-1-2",),
            patterns=(SparsityPattern.DENSE_4_4,),
            max_output_tiles=1,
        )
        default_spec = figure13_spec(**common)
        explicit_default_spec = figure13_spec(machine=MachineParams(), **common)
        run_experiment(default_spec, cache=cache)
        table = run_experiment(explicit_default_spec, cache=cache)
        # The default machine is resolved into the key, so spelling it out
        # explicitly addresses the *same* entry (editing default_machine()
        # must invalidate, not silently reuse, cached rows).
        assert table.meta["executed"] == 0 and table.meta["cached"] == 1
        import dataclasses

        other_machine = MachineParams(
            core=dataclasses.replace(MachineParams().core, rob_entries=32)
        )
        other_spec = figure13_spec(machine=other_machine, **common)
        table = run_experiment(other_spec, cache=cache)
        assert table.meta["executed"] == 1


class TestFig15:
    def test_named_run_reads_every_sweep_option(self):
        options = {
            "degrees": [0.9],
            "max_layers": 2,
            "seed": 4,
            "max_weight_elements": 1 << 14,
        }
        named = run_named("fig15", options, cache=False)
        direct = run_experiment(
            figure15_spec(
                [0.9], layers=all_layers()[:2], seed=4, max_weight_elements=1 << 14
            ),
            cache=False,
        )
        assert named.rows == direct.rows

    def test_per_layer_seeds_follow_layer_position(self):
        spec = figure15_spec([0.9], layers=["BERT-L1", "BERT-L2"], seed=5)
        seeds = [value["seed"] for value in spec.axes["layer"]]
        assert seeds == [5, 6]

    def test_duplicate_degrees_repeat_the_single_degree_rows(self):
        layers = ["BERT-L1", "BERT-L2"]
        dup = run_experiment(
            figure15_spec([0.5, 0.5], layers=layers, max_weight_elements=1 << 14),
            cache=False,
        )
        single = run_experiment(
            figure15_spec([0.5], layers=layers, max_weight_elements=1 << 14),
            cache=False,
        )
        assert dup.rows == single.rows + single.rows


class TestFig3:
    def test_series_round_trips_through_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = figure3_spec([0.1, 0.5, 1.0])
        cold = run_experiment(spec, cache=cache)
        warm = run_experiment(spec, cache=cache)
        assert warm.to_json() == cold.to_json()
        assert warm.meta["executed"] == 0 and warm.meta["cached"] == len(warm)
        assert {row["engine"] for row in warm.rows} == {
            "dense_vector",
            "sparse_vector",
            "dense_matrix",
            "sparse_matrix",
        }
        assert len(warm) == 4 * 3


class TestHeadlineExperiment:
    def test_reduce_produces_one_row_per_sparsity_class(self, tmp_path):
        table = run_named(
            "headline",
            {"max_layers": 1, "max_output_tiles": 1},
            cache=ResultCache(tmp_path),
        )
        assert table.columns == ("sparsity", "paper", "speedup")
        assert [row["sparsity"] for row in table.rows] == [
            "4:4",
            "2:4",
            "1:4",
            "unstructured-95%",
        ]
        assert all(row["speedup"] > 0 for row in table.rows)

    def test_non_canonical_engine_spellings_accepted(self, tmp_path):
        table = run_named(
            "headline",
            {
                "baseline": "vegeta-d-1-2",
                "target": "vegeta-s-16-2+of",
                "max_layers": 1,
                "max_output_tiles": 1,
            },
            cache=ResultCache(tmp_path),
        )
        assert all(row["speedup"] > 0 for row in table.rows)

    def test_unstructured_row_is_the_fig15_mean_row_wise_speedup(self):
        # The unstructured row averages every Table IV layer whatever
        # max_layers is, and the seed reaches the fig15 sweep.
        table = run_named(
            "headline", {"max_layers": 1, "max_output_tiles": 2, "seed": 3}
        )
        unstructured = run_experiment(figure15_spec([0.95], seed=3))
        mean = sum(row["row_wise"] for row in unstructured.rows) / len(unstructured)
        assert table.rows[-1]["sparsity"] == "unstructured-95%"
        assert table.rows[-1]["speedup"] == mean


class TestSpgemmExperiment:
    def test_registered_and_listed(self):
        from repro.experiments.registry import list_experiments

        assert "spgemm" in {experiment.name for experiment in list_experiments()}

    def test_spec_axes_and_cache_versioning(self):
        from repro.experiments.figures import SPGEMM_SPEC_VERSION, spgemm_spec

        spec = spgemm_spec()
        assert spec.version == SPGEMM_SPEC_VERSION
        assert spec.num_trials == 3 * 2 * 2
        # The machine description is part of every cache key.
        assert "machine" in spec.fixed
        trials = spec.trials()
        keys = {spec.cache_key(trial) for trial in trials}
        assert len(keys) == len(trials)

    def test_smoke_option_restricts_the_sweep(self, tmp_path):
        table = run_named("spgemm", {"smoke": True}, cache=ResultCache(tmp_path))
        assert len(table) == 4
        for row in table.rows:
            # Acceptance: fast == exact bit-for-bit and the functional result
            # matches the scipy/numpy sparse reference on validated points.
            assert row["validated"] is True
            assert row["exact_match"] is True
            assert row["functional_match"] is True
            assert row["spgemm_cycles"] == row["exact_cycles"]
            assert row["speedup_vs_dense"] > 1.0
            # The compressed B operand moves fewer bytes than SPMM's dense B
            # whenever the joint pattern matches A's (when A is tighter than
            # B, sparse x dense exploits A's pattern and can move less).
            if row["pattern_a"] == row["joint_pattern"]:
                assert row["traffic_vs_spmm"] < 1.0

    def test_trial_runner_matches_direct_simulation(self, tmp_path):
        from repro.cpu.params import default_machine
        from repro.cpu.simulator import CycleApproximateSimulator
        from repro.experiments.registry import get_trial_runner
        from repro.kernels.spgemm import build_spgemm_kernel

        params = {
            "shape": {"m": 64, "n": 64, "k": 256, "validate": False},
            "pattern_a": "2:4",
            "pattern_b": "2:4",
            "engine": "VEGETA-S-16-2+OF+SPGEMM",
            "machine": default_machine().to_dict(),
            "seed": 0,
        }
        row = get_trial_runner("spgemm")(params)
        program = build_spgemm_kernel(
            __import__("repro.types", fromlist=["GemmShape"]).GemmShape(64, 64, 256),
            SparsityPattern.SPARSE_2_4,
        )
        simulator = CycleApproximateSimulator(
            engine=resolve_engine("VEGETA-S-16-2+OF+SPGEMM")
        )
        direct = simulator.run(program.trace)
        assert row["spgemm_cycles"] == direct.core_cycles
        assert row["exact_cycles"] is None  # unvalidated shape skips the exact run

    def test_max_output_tiles_truncates_and_changes_cache_keys(self, tmp_path):
        from repro.experiments.figures import spgemm_spec

        full = spgemm_spec()
        truncated = spgemm_spec(max_output_tiles=1)
        assert full.cache_key(full.trials()[0]) != truncated.cache_key(
            truncated.trials()[0]
        )
        table = run_named(
            "spgemm",
            {"smoke": True, "max_output_tiles": 1},
            cache=ResultCache(tmp_path),
        )
        for row in table.rows:
            assert row["simulated_fraction"] < 1.0
            # Truncated traces still prove fast == exact, but the partial C
            # matrix cannot be validated functionally.
            assert row["exact_match"] is True
            assert row["functional_match"] is None


class TestBackendsExperiment:
    def test_registered_and_listed(self):
        from repro.experiments.registry import list_experiments

        names = {experiment.name for experiment in list_experiments()}
        assert "backends" in names

    def test_spec_axes_and_cache_versioning(self):
        from repro.experiments.figures import (
            BACKENDS_ENGINE_NAMES,
            BACKENDS_SPEC_VERSION,
            backends_spec,
        )

        spec = backends_spec()
        assert spec.version == BACKENDS_SPEC_VERSION
        assert tuple(spec.axes["engine"]) == BACKENDS_ENGINE_NAMES
        assert "AMX-like" in spec.axes["engine"]
        assert "SME-like" in spec.axes["engine"]
        # Only geometry-compatible layers are swept: every shape must tile
        # evenly under the 32-row / 32-column SME tiles too.
        for name in spec.axes["layer"]:
            shape = get_layer(name).gemm
            assert shape.m % 32 == 0 and shape.n % 32 == 0 and shape.k % 64 == 0

    def test_trials_select_each_backends_best_kernel(self, tmp_path):
        from repro.experiments.figures import backends_spec

        spec = backends_spec(
            layers=("ResNet50-L1",),
            patterns=(SparsityPattern.SPARSE_2_4,),
            max_output_tiles=2,
        )
        table = run_experiment(spec, cache=ResultCache(tmp_path))
        kernels = {row["engine"]: row["kernel"] for row in table.rows}
        assert kernels == {
            "VEGETA-S-16-2+OF": "spmm",
            "VEGETA-S-16-2+OF+SPGEMM": "spgemm",
            "AMX-like": "gemm",
            "SME-like": "gemm",
        }
        geometries = {row["engine"]: row["geometry"] for row in table.rows}
        assert geometries["SME-like"] == "sme"
        assert geometries["AMX-like"] == "amx"

    def test_reduce_appends_speedup_over_amx_baseline(self, tmp_path):
        table = run_named(
            "backends",
            {
                "layers": ("ResNet50-L1",),
                "max_output_tiles": 2,
            },
            cache=ResultCache(tmp_path),
        )
        assert "speedup_vs_baseline" in table.columns
        by_engine = {
            (row["pattern"], row["engine"]): row["speedup_vs_baseline"]
            for row in table.rows
        }
        for pattern in ("4:4", "2:4", "1:4"):
            assert by_engine[(pattern, "AMX-like")] == pytest.approx(1.0)
