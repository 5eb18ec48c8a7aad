"""Tests of the benchmark itself: seeding, tracing, coverage, isolation.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import sweep
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent


def test_same_seed_gives_same_sample():
    for seed in range(20):
        assert sweep.fig13_layers(seed) == sweep.fig13_layers(seed)


def test_different_seeds_give_different_samples():
    samples = {tuple(sweep.fig13_layers(seed)) for seed in range(10)}
    assert len(samples) >= 4
    assert sweep.fig13_layers(0) != sweep.fig13_layers(1)


def test_every_sampleable_layer_has_reference_rows():
    reference = json.loads(sweep.REFERENCE_PATH.read_text())["fig13"]
    for layer in sweep.fig13_pool():
        assert sum(key.startswith(f"{layer}|") for key in reference) == 30


def _bindings():
    from repro.planner import autotune
    from repro.kernels import sharding
    from repro.cpu import multicore, simulator
    from repro.analysis import runtime

    return {
        "autotune.shard_kernel": autotune.shard_kernel,
        "sharding.shard_kernel": sharding.shard_kernel,
        "sharding.build_spmm_kernel": sharding.build_spmm_kernel,
        "runtime.build_dense_gemm_kernel": runtime.build_dense_gemm_kernel,
        "multicore.resolve_traffic": multicore.resolve_traffic,
        "multicore.arbitrate_topology": multicore.arbitrate_topology,
        "Simulator.run": simulator.CycleApproximateSimulator.run,
    }


def test_tracer_wraps_every_binding_site_and_restores_it():
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        during = _bindings()
        assert all(during[name] is not before[name] for name in before)
        assert during["autotune.shard_kernel"] is during["sharding.shard_kernel"]
    assert _bindings() == before


def test_tracer_restores_bindings_when_the_sweep_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("sweep failed")
    assert _bindings() == before


def _tiny_fig13_rows():
    from repro.experiments.figures import figure13_spec
    from repro.experiments.runner import run_experiment
    from repro.experiments.spec import canonical_json

    spec = figure13_spec(
        layers=["ResNet50-L3"],
        engine_names=("VEGETA-D-1-2", "VEGETA-S-16-2+OF"),
        max_output_tiles=4,
    )
    table = run_experiment(spec, jobs=1, cache=False)
    return [canonical_json(row) for row in table.rows]


def test_traced_sweep_is_byte_identical():
    untraced = _tiny_fig13_rows()
    tracer = Tracer()
    with tracer.installed():
        traced = _tiny_fig13_rows()
    assert traced == untraced
    metrics = layer_metrics(tracer, sweep_s=1.0)
    assert metrics["kernels.builds"] == 6
    assert metrics["sim.runs"] == 6
    assert metrics["runner.trials"] == 6
    assert metrics["kernels.distinct_ratio"] == pytest.approx(3 / 6)


def test_every_metric_is_declared_in_benchmark_json():
    declared = {
        entry["name"]
        for entry in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    }
    measured = set(layer_metrics(Tracer(), sweep_s=1.0))
    assert measured | {"trace.overhead", "fidelity.paper_gap"} == declared


def test_coverage_check_flags_a_layer_that_reads_zero():
    metrics = layer_metrics(Tracer(), sweep_s=1.0)
    errors = sweep.coverage_errors("autotune", metrics)
    assert any(error.startswith("planner.candidates is 0") for error in errors)
    metrics.update({name: 1.0 for name in sweep.COVERAGE["scaling-warm"][0]})
    assert sweep.coverage_errors("scaling-warm", metrics) == []
    metrics["store.puts"] = 3
    assert sweep.coverage_errors("scaling-warm", metrics) == [
        "store.puts is 3 but scaling-warm bypasses it"
    ]


def test_sweep_env_drops_inherited_knobs():
    env = run.sweep_env({"REPRO_JOBS": "4", "REPRO_NO_MEMO": "1", "HOME": "/h"})
    assert "REPRO_JOBS" not in env and "REPRO_NO_MEMO" not in env
    assert env["HOME"] == "/h"
    assert env["PYTHONPATH"] == str(run.ROOT / "src")


def test_times_are_rescaled_by_the_adjacent_probes():
    nominal = run.NOMINAL_PROBE_S
    slow = {"sweep_s": 4.0, "setup_s": 0.4, "probe_s": 2 * nominal, "prime": {}}
    fast = {"sweep_s": 2.0, "setup_s": 0.2, "probe_s": nominal, "prime": {}}
    assert run.sweep_seconds([slow, fast, fast]) == pytest.approx(2.0)
    assert run.setup_seconds(slow) == pytest.approx(0.2)
    primed = dict(fast, prime={"seconds": 6.0, "probe_s": 2 * nominal})
    assert run.setup_seconds(primed) == pytest.approx(0.2 + 3.0)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig13-cold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_check_rows_counts_missing_and_differing_rows():
    row = {"layer": "BERT-L2", "pattern": "4:4", "engine": "VEGETA-D-1-1", "core_cycles_scaled": 1}
    assert sweep.check_rows("fig13-cold", [row], ["BERT-L2"]) == (30, 30)
    reference = json.loads(sweep.REFERENCE_PATH.read_text())["autotune"]
    assert sweep.check_rows("autotune", [], []) == (len(reference), len(reference))
