"""Tests for the registered ``autotune`` experiment and its reduce step."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.registry import get_experiment
from repro.experiments.results import ResultTable
from repro.planner.experiment import (
    AUTOTUNE_MAPPING_COLUMNS,
    AUTOTUNE_SMOKE_CORES,
    AUTOTUNE_SMOKE_TOPOLOGIES,
    AUTOTUNE_SMOKE_WORKLOADS,
    _autotune_reduce,
    _autotune_workloads,
    _selected_workloads,
    autotune_spec,
    run_autotune_trial,
)


class TestRegistration:
    def test_autotune_is_registered_with_sweep_axis_flags(self):
        experiment = get_experiment("autotune")
        assert experiment.cli_options == ("smoke", "topology", "cores")
        assert experiment.reduce is _autotune_reduce

    def test_smoke_build_restricts_every_axis(self):
        spec = get_experiment("autotune").build({"smoke": True})
        assert spec.fixed["cores"] == list(AUTOTUNE_SMOKE_CORES)
        assert spec.fixed["topologies"] == list(AUTOTUNE_SMOKE_TOPOLOGIES)
        workloads = [workload["name"] for workload in spec.axes["workload"]]
        assert workloads == list(AUTOTUNE_SMOKE_WORKLOADS)

    def test_spec_rejects_unknown_topology(self):
        with pytest.raises(ConfigurationError):
            autotune_spec(topologies=("flat", "no-such-preset"))


class TestWorkloadSelection:
    def test_default_axis_has_the_four_workloads(self):
        names = [workload["name"] for workload in _autotune_workloads()]
        assert names == [
            "gemm-compute",
            "gemm-membound",
            "sparse-2:4",
            "sparse-1:4",
        ]

    def test_name_filter_selects_in_request_order(self):
        selected = _selected_workloads(
            {"workload_names": ["sparse-1:4", "gemm-compute"]}
        )
        assert [workload["name"] for workload in selected] == [
            "sparse-1:4",
            "gemm-compute",
        ]

    def test_unknown_workload_name_rejected(self):
        with pytest.raises(ConfigurationError, match="no-such-workload"):
            _selected_workloads({"workload_names": ["no-such-workload"]})

    def test_explicit_workloads_bypass_the_catalog(self):
        custom = [{"name": "custom", "m": 64, "n": 64, "k": 128}]
        assert _selected_workloads({"workloads": custom}) == custom


def tiny_trial_params():
    """A minimal single-workload search for trial/reduce integration tests."""
    from repro.cpu.params import default_machine
    from repro.types import SparsityPattern

    return {
        "workload": {
            "name": "tiny",
            "m": 64, "n": 64, "k": 256,
            "pattern": SparsityPattern.SPARSE_2_4.value,
            "machine": default_machine().to_dict(),
        },
        "engines": ["VEGETA-S-4-2", "SME-like"],
        "cores": [1, 2],
        "strategies": ["row-block", "2d-cyclic"],
        "topologies": ["flat"],
    }


class TestTrialAndReduce:
    def test_trial_row_summarizes_the_search(self):
        row = run_autotune_trial(tiny_trial_params())
        assert row["workload"] == "tiny"
        assert row["space_size"] == 2 * 2 * 2 * 1
        assert row["simulated"] + row["pruned"] == row["candidates"]
        assert row["frontier_size"] >= 1
        assert row["best_engine"] is not None
        assert row["best_cycles"] is not None
        assert len(row["mappings"]) == row["candidates"]

    def test_reduce_explodes_one_row_per_mapping_with_best_flag(self):
        trial = run_autotune_trial(tiny_trial_params())
        table = _autotune_reduce(ResultTable(("workload",), [trial]), {})
        assert table.columns == AUTOTUNE_MAPPING_COLUMNS
        assert len(table.rows) == trial["candidates"]
        best_rows = [row for row in table.rows if row["best"]]
        assert len(best_rows) == 1
        best = best_rows[0]
        assert best["on_frontier"] and best["simulated"]
        assert best["engine"] == trial["best_engine"]
        assert best["cycles"] == trial["best_cycles"]
        # Every row carries the workload-level prune ratio and a sound bound.
        for row in table.rows:
            assert row["prune_ratio"] == trial["prune_ratio"]
            if row["simulated"]:
                assert row["bound_cycles"] <= row["cycles"]
            else:
                assert row["cycles"] is None
