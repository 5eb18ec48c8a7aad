"""Tests for the simulator benchmark: payload shape, paths, regression gate."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis.bench import (
    BENCH_SCHEMA_VERSION,
    DEFAULT_BENCH_PATH,
    DEFAULT_MULTICORE_WORKLOADS,
    DEFAULT_WORKLOADS,
    GATED_METRICS,
    QUICK_MULTICORE_WORKLOADS,
    QUICK_WORKLOADS,
    SPEEDUP_FLOORS,
    BenchWorkload,
    benchmark_simulator,
    benchmark_workload,
    compare_benchmarks,
    select_workloads,
)
from repro.cpu.simulator import CycleApproximateSimulator, SimulatorState
from repro.errors import ConfigurationError
from repro.types import GemmShape, SparsityPattern


class TestDefaultPath:
    def test_anchored_to_repo_root_not_cwd(self):
        # `repro bench` must write into the repository root regardless of the
        # CWD (the repo root is the directory holding pyproject.toml).
        path = Path(DEFAULT_BENCH_PATH)
        assert path.name == "BENCH_simulator.json"
        assert path.is_absolute()
        assert (path.parent / "pyproject.toml").exists()


class TestQuickSuite:
    def test_quick_workloads_are_subsets_of_the_default_suite(self):
        # `--quick --check` compares by name against the committed full-suite
        # baseline, so every quick workload must exist there.
        default_names = {workload.name for workload in DEFAULT_WORKLOADS}
        assert QUICK_WORKLOADS and {w.name for w in QUICK_WORKLOADS} <= default_names
        default_multicore = {w.name for w in DEFAULT_MULTICORE_WORKLOADS}
        assert QUICK_MULTICORE_WORKLOADS
        assert {w.name for w in QUICK_MULTICORE_WORKLOADS} <= default_multicore


def payload(single=(), multicore=()):
    return {
        "workloads": [
            {"name": name, "fast_ops_per_sec": value} for name, value in single
        ],
        "multicore_workloads": [
            {"name": name, "memo_ops_per_sec": value} for name, value in multicore
        ],
    }


class TestCompare:
    def test_equal_payloads_pass(self):
        current = payload([("a", 1000.0)], [("m", 500.0)])
        assert compare_benchmarks(current, current) == []

    def test_large_drop_is_flagged(self):
        baseline = payload([("a", 1000.0)], [("m", 500.0)])
        current = payload([("a", 600.0)], [("m", 500.0)])
        regressions = compare_benchmarks(current, baseline)
        assert len(regressions) == 1 and "a" in regressions[0]

    def test_multicore_drop_is_flagged(self):
        baseline = payload([("a", 1000.0)], [("m", 500.0)])
        current = payload([("a", 1000.0)], [("m", 100.0)])
        regressions = compare_benchmarks(current, baseline)
        assert len(regressions) == 1 and "m" in regressions[0]

    def test_small_drop_and_improvement_pass(self):
        baseline = payload([("a", 1000.0), ("b", 1000.0)])
        current = payload([("a", 800.0), ("b", 2000.0)])
        assert compare_benchmarks(current, baseline) == []

    def test_non_overlapping_names_are_ignored(self):
        baseline = payload([("full-suite-only", 1e9)])
        current = payload([("quick-only", 1.0)])
        assert compare_benchmarks(current, baseline) == []

    def test_speedup_floor_is_enforced(self):
        # A workload with an absolute speedup floor regresses when it falls
        # below the floor even if its wall-clock throughput held steady.
        name, floor = next(iter(SPEEDUP_FLOORS.items()))
        current = payload([(name, 1000.0)])
        current["workloads"][0]["speedup"] = floor / 2.0
        regressions = compare_benchmarks(current, payload([(name, 1000.0)]))
        assert len(regressions) == 1
        assert name in regressions[0] and "floor" in regressions[0]
        current["workloads"][0]["speedup"] = floor + 1.0
        assert compare_benchmarks(current, payload([(name, 1000.0)])) == []

    @pytest.mark.parametrize("suite, metric", GATED_METRICS)
    def test_every_gated_metric_is_checked(self, suite, metric):
        baseline = {suite: [{"name": "w", metric: 1000.0}]}
        assert compare_benchmarks({suite: [{"name": "w", metric: 800.0}]}, baseline) == []
        regressions = compare_benchmarks({suite: [{"name": "w", metric: 500.0}]}, baseline)
        assert len(regressions) == 1 and metric in regressions[0]

    def test_build_throughput_is_gated(self):
        assert ("workloads", "build_rows_per_sec") in GATED_METRICS
        assert ("multicore_workloads", "shard_rows_per_sec") in GATED_METRICS
        assert ("multicore_workloads", "key_rows_per_sec") in GATED_METRICS

    def test_floor_names_exist_in_default_suite(self):
        default_names = {workload.name for workload in DEFAULT_WORKLOADS}
        assert set(SPEEDUP_FLOORS) <= default_names


class TestSelectWorkloads:
    def test_filters_both_suites_by_name(self):
        spgemm = next(w for w in DEFAULT_WORKLOADS if w.kind == "spgemm")
        mc = DEFAULT_MULTICORE_WORKLOADS[0]
        single, multicore = select_workloads(
            [spgemm.name, mc.name], DEFAULT_WORKLOADS, DEFAULT_MULTICORE_WORKLOADS
        )
        assert [w.name for w in single] == [spgemm.name]
        assert [w.name for w in multicore] == [mc.name]

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            select_workloads(
                ["no-such-workload"], DEFAULT_WORKLOADS, DEFAULT_MULTICORE_WORKLOADS
            )
        assert "no-such-workload" in str(excinfo.value)


class TestCheckCli:
    def test_check_gates_on_committed_baseline(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--shape", "64x64x128", "--out", str(out)]) == 0
        measured = json.loads(out.read_text())

        same = tmp_path / "baseline-same.json"
        same.write_text(json.dumps(measured))
        assert (
            main(["bench", "--shape", "64x64x128", "--out", str(out), "--check", str(same)])
            == 0
        )

        inflated = json.loads(out.read_text())
        for row in inflated["workloads"]:
            row["fast_ops_per_sec"] *= 100.0
        bad = tmp_path / "baseline-fast.json"
        bad.write_text(json.dumps(inflated))
        assert (
            main(["bench", "--shape", "64x64x128", "--out", str(out), "--check", str(bad)])
            == 1
        )


def test_payload_reports_cold_build_throughput():
    payload = benchmark_simulator(QUICK_WORKLOADS, QUICK_MULTICORE_WORKLOADS)
    assert payload["schema"] == BENCH_SCHEMA_VERSION == 6
    (row,) = payload["workloads"]
    assert row["build_rows_per_sec"] == pytest.approx(row["trace_ops"] / row["build_seconds"])
    (multicore,) = payload["multicore_workloads"]
    assert multicore["shard_rows_per_sec"] == pytest.approx(
        multicore["trace_ops"] / multicore["build_seconds"]
    )
    assert payload["build_rows_per_sec"] == pytest.approx(row["build_rows_per_sec"])
    assert payload["multicore_shard_rows_per_sec"] == pytest.approx(
        multicore["shard_rows_per_sec"]
    )
    assert multicore["key_rows_per_sec"] == pytest.approx(
        multicore["trace_ops"] / multicore["key_seconds"]
    )
    assert payload["multicore_key_rows_per_sec"] == pytest.approx(
        multicore["key_rows_per_sec"]
    )


def test_every_timed_run_simulates(monkeypatch):
    # The --check gate times real simulations: a bench routed through a
    # shared or cached path would time result lookups instead.
    calls = {"run": 0, "state": 0}
    run = CycleApproximateSimulator.run
    init = SimulatorState.__init__

    def counting_run(self, trace, **kwargs):
        calls["run"] += 1
        return run(self, trace, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["state"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(CycleApproximateSimulator, "run", counting_run)
    monkeypatch.setattr(SimulatorState, "__init__", counting_init)
    workload = BenchWorkload(
        "dense-64", GemmShape(64, 64, 256), SparsityPattern.DENSE_4_4, "VEGETA-S-16-2"
    )
    benchmark_workload(workload)
    # Exact runs, the untimed warm-up and the fast runs: a shared path would
    # simulate once per mode, a cache inside run() would skip states.
    assert calls["run"] > 2
    assert calls["state"] == calls["run"]
