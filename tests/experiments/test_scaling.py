"""Tests for the multi-core ``scaling`` experiment (spec, runner, CLI, cache)."""

import os

import pytest

from repro.__main__ import main
from repro.cpu.multicore import clear_simulation_memo
from repro.experiments.cache import CACHE_DIR_ENV
from repro.experiments.figures import (
    SCALING_ENGINE,
    SCALING_SMOKE_STRATEGIES,
    SCALING_SMOKE_TOPOLOGIES,
    SCALING_SPEC_VERSION,
    SCALING_TOPOLOGIES,
    scaling_spec,
)
from repro.experiments.registry import get_experiment
from repro.experiments.runner import run_experiment, run_named
from repro.workloads.sweeps import SCALING_CORES, SCALING_SMOKE_CORES

#: A single cheap workload for runner-level tests.
TINY_WORKLOADS = [
    {
        "name": "gemm-tiny",
        "kind": "gemm",
        "m": 64, "n": 64, "k": 256,
        "pattern": "4:4",
        "machine": None,  # replaced in fixture below
    }
]


@pytest.fixture
def tiny_workloads():
    from repro.cpu.params import default_machine

    workload = dict(TINY_WORKLOADS[0])
    workload["machine"] = default_machine().to_dict()
    return [workload]


class TestSpec:
    def test_registered(self):
        experiment = get_experiment("scaling")
        assert "scaling" in experiment.name
        assert experiment.reduce is None

    def test_full_spec_axes(self):
        spec = scaling_spec()
        assert spec.version == SCALING_SPEC_VERSION
        assert [w["name"] for w in spec.axes["workload"]] == [
            "gemm-compute", "gemm-membound", "spmm-2:4", "spgemm-2:4",
        ]
        assert tuple(spec.axes["cores"]) == SCALING_CORES
        assert tuple(spec.axes["topology"]) == SCALING_TOPOLOGIES
        assert spec.num_trials == 4 * len(SCALING_CORES) * 3 * len(SCALING_TOPOLOGIES)

    def test_smoke_options_shrink_the_sweep(self):
        spec = get_experiment("scaling").build({"smoke": True})
        assert tuple(spec.axes["cores"]) == SCALING_SMOKE_CORES
        assert tuple(spec.axes["strategy"]) == SCALING_SMOKE_STRATEGIES
        assert tuple(spec.axes["topology"]) == SCALING_SMOKE_TOPOLOGIES
        assert spec.fixed["engine"] == SCALING_ENGINE

    def test_spec_is_plain_data(self):
        # Everything must survive the canonical-JSON round trip for caching.
        spec = scaling_spec()
        for trial in spec.trials()[:3]:
            assert spec.cache_key(trial)


class TestRunner:
    def test_single_workload_sweep(self, tiny_workloads):
        table = run_named(
            "scaling",
            {
                "workloads": tiny_workloads,
                "cores": [1, 2],
                "strategies": ["row-block"],
                "topologies": ["flat"],
            },
            cache=False,
        )
        assert len(table) == 2
        by_cores = {row["cores"]: row for row in table.rows}
        assert by_cores[1]["single_core_match"] is True
        assert by_cores[1]["speedup"] == 1.0
        assert by_cores[2]["single_core_match"] is None
        assert 1.0 < by_cores[2]["speedup"] <= 2.0
        assert by_cores[2]["efficiency"] == by_cores[2]["speedup"] / 2
        for row in table.rows:
            assert row["topology"] == "flat"
            assert row["numa_penalty"] == 1.0
            assert row["interconnect_utilization"] is None

    def test_topology_axis(self, tiny_workloads):
        table = run_named(
            "scaling",
            {
                "workloads": tiny_workloads,
                "cores": [4],
                "strategies": ["row-block"],
                "topologies": ["flat", "dual-socket", "chiplet"],
            },
            cache=False,
        )
        assert len(table) == 3
        by_topology = {row["topology"]: row for row in table.rows}
        assert set(by_topology) == {"flat", "dual-socket", "chiplet"}
        for name in ("dual-socket", "chiplet"):
            row = by_topology[name]
            assert row["numa_penalty"] > 0.0
            assert row["interconnect_utilization"] is not None
            assert row["l3_utilization"] is not None
            assert row["dram_utilization"] is not None

    def test_results_are_cached(self, tiny_workloads, tmp_path):
        options = {
            "workloads": tiny_workloads,
            "cores": [1],
            "strategies": ["row-block"],
            "topologies": ["flat"],
        }
        first = run_named("scaling", options, cache_root=tmp_path)
        assert first.meta["executed"] == 1
        second = run_named("scaling", options, cache_root=tmp_path)
        assert second.meta["cached"] == 1
        assert second.rows == first.rows


class TestStoreRoot:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cache_root_holds_the_simblocks_store(
        self, tiny_workloads, tmp_path, monkeypatch, jobs
    ):
        # Every trial, serial or in a worker, opens the store under the
        # sweep's cache_root, not under REPRO_CACHE_DIR.
        elsewhere = tmp_path / "elsewhere"
        monkeypatch.setenv(CACHE_DIR_ENV, str(elsewhere))
        clear_simulation_memo()
        spec = scaling_spec(
            workloads=tiny_workloads, cores=[1, 2], strategies=["row-block"], topologies=["flat"]
        )
        run_experiment(spec, jobs=jobs, cache_root=tmp_path / "root")
        assert list((tmp_path / "root" / "simblocks").rglob("*.json"))
        assert not elsewhere.exists()
        assert os.environ[CACHE_DIR_ENV] == str(elsewhere)


class TestCli:
    def test_run_scaling_smoke(self, capsys, tmp_path):
        argv = [
            "run", "scaling", "--smoke",
            "--cache-dir", str(tmp_path / "cache"),
            "--format", "csv",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0].startswith("workload,kind,cores,strategy,core_cycles")
        # 4 workloads x 2 core counts x 1 strategy x 2 topologies.
        assert len(lines) == 1 + 16
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        for row in rows:
            if row["cores"] == "1":
                # The single-core invariant holds under every smoke topology.
                assert row["single_core_match"] == "True"
        membound_8 = next(
            r
            for r in rows
            if r["workload"] == "gemm-membound"
            and r["cores"] == "8"
            and r["topology"] == "flat"
        )
        compute_8 = next(
            r
            for r in rows
            if r["workload"] == "gemm-compute"
            and r["cores"] == "8"
            and r["topology"] == "flat"
        )
        # The acceptance-criteria shape: bandwidth-limited vs compute-bound.
        assert membound_8["contended"] == "True"
        assert float(membound_8["speedup"]) < 4.0
        assert float(compute_8["speedup"]) >= 6.0
        # The NUMA story: the dual-socket machine's second memory channel
        # relieves the membound bottleneck (penalty < 1), and its socket
        # links saturate where the flat pool's DRAM did.
        membound_numa = next(
            r
            for r in rows
            if r["workload"] == "gemm-membound"
            and r["cores"] == "8"
            and r["topology"] == "dual-socket"
        )
        assert float(membound_numa["numa_penalty"]) < 1.0
        assert float(membound_numa["interconnect_utilization"]) > 0.9

    def test_run_scaling_topology_flag(self, capsys, tmp_path):
        argv = [
            "run", "scaling", "--smoke",
            "--topology", "chiplet",
            "--cores", "1,8",
            "--cache-dir", str(tmp_path / "cache"),
            "--format", "csv",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert len(rows) == 8
        assert {row["topology"] for row in rows} == {"chiplet"}
        for row in rows:
            if row["cores"] == "1":
                assert row["single_core_match"] == "True"

    def test_scaling_listed(self, capsys):
        assert main(["list"]) == 0
        assert "scaling" in capsys.readouterr().out
