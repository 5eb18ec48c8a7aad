"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.experiments.registry import list_experiments
from repro.experiments.results import ResultTable
from repro.kernels.memo import build_memo_rows, clear_build_memo


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def test_list_names_every_builtin_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig13", "fig15", "roofline", "area-power", "headline"):
        assert name in out


def test_run_area_power_table(capsys, cache_dir):
    assert main(["run", "area-power", "--cache-dir", cache_dir]) == 0
    captured = capsys.readouterr()
    assert "VEGETA-S-16-2" in captured.out
    assert "8 trials" in captured.err


def test_run_fig13_scaled_down_parallel(capsys, cache_dir):
    argv = [
        "run", "fig13",
        "--max-layers", "1",
        "--max-output-tiles", "1",
        "--jobs", "2",
        "--cache-dir", cache_dir,
        "--format", "csv",
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0].startswith("layer,pattern,engine,core_cycles_scaled")
    assert len(lines) == 1 + 30  # 1 layer x 3 patterns x 10 engines
    assert "30 executed" in captured.err

    # Second invocation is served entirely from the cache.
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "30 cached, 0 executed" in captured.err


def test_dump_emits_json(capsys, cache_dir):
    assert main(["dump", "roofline", "--cache-dir", cache_dir]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"][0] == "engine"
    assert len(payload["rows"]) == 4 * 50


def test_out_writes_file(tmp_path, capsys, cache_dir):
    out_file = tmp_path / "table.json"
    assert main(
        ["dump", "area-power", "--cache-dir", cache_dir, "--out", str(out_file)]
    ) == 0
    payload = json.loads(out_file.read_text())
    assert len(payload["rows"]) == 8


def test_no_cache_leaves_cache_dir_empty(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["run", "area-power", "--no-cache", "--cache-dir", str(cache)]) == 0
    assert not cache.exists()


def test_cache_info_and_clear(capsys, cache_dir):
    main(["run", "area-power", "--cache-dir", cache_dir])
    capsys.readouterr()
    assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
    assert "entries:     8" in capsys.readouterr().out
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "removed 8" in capsys.readouterr().out


def test_unknown_experiment_is_an_error(capsys, cache_dir):
    assert main(["run", "no-such-figure", "--cache-dir", cache_dir]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_dump_unknown_experiment_is_an_error(capsys, cache_dir):
    # Same contract for dump: exit non-zero with a clear message, no traceback.
    assert main(["dump", "no-such-figure", "--cache-dir", cache_dir]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "Traceback" not in err


def test_cache_clear_on_missing_directory_succeeds(tmp_path, capsys):
    missing = tmp_path / "never-created"
    assert main(["cache", "clear", "--cache-dir", str(missing)]) == 0
    assert "removed 0" in capsys.readouterr().out


def test_cache_info_on_missing_directory_succeeds(tmp_path, capsys):
    missing = tmp_path / "never-created"
    assert main(["cache", "info", "--cache-dir", str(missing)]) == 0
    assert "entries:     0" in capsys.readouterr().out


def test_run_spgemm_smoke(capsys, cache_dir):
    argv = ["run", "spgemm", "--smoke", "--cache-dir", cache_dir, "--format", "csv"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0].startswith("m,n,k,pattern_a,pattern_b,joint_pattern")
    assert len(lines) == 1 + 4  # 1 smoke shape x 2 A patterns x 2 B patterns
    # Acceptance: the validated sweep points prove fast == exact bit-for-bit
    # and the functional result matches the sparse reference product.
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert row["exact_match"] == "True"
        assert row["functional_match"] == "True"
        assert float(row["speedup_vs_dense"]) > 1.0

    # Second invocation is served entirely from the cache.
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "4 cached, 0 executed" in captured.err


def test_bench_writes_payload(tmp_path, capsys):
    out = tmp_path / "BENCH_simulator.json"
    assert main(["bench", "--quick", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "speedup" in captured.out
    payload = json.loads(out.read_text())
    assert payload["workloads"], "bench must record at least one workload"
    row = payload["workloads"][0]
    assert row["fast_core_cycles"] == pytest.approx(row["exact_core_cycles"], rel=0.01)
    assert payload["speedup_min"] > 1.0
    assert payload["fast_ops_per_sec"] > payload["exact_ops_per_sec"]


def test_bench_rejects_bad_shape(capsys):
    assert main(["bench", "--shape", "12x34"]) == 2
    assert "error" in capsys.readouterr().err


def test_engines_lists_catalog_with_geometry_columns(capsys):
    assert main(["engines"]) == 0
    out = capsys.readouterr().out
    for name in ("VEGETA-D-1-2", "VEGETA-S-16-2", "AMX-like", "SME-like"):
        assert name in out
    # Geometry columns: the default 16x64 B tile next to SME's 32x128 B one.
    assert "16x64B" in out
    assert "32x128B" in out
    assert "4096" in out  # the SME tile register image
    # Timing column: the first engine above with an equal EngineTiming.
    header, _, *lines = out.strip().splitlines()[1:]
    column = header.index("timing")
    classes = {line.split()[0]: line[column:].split()[0] for line in lines}
    assert classes == {
        "VEGETA-D-1-1": "-",
        "VEGETA-D-1-2": "-",
        "VEGETA-D-16-1": "-",
        "VEGETA-S-1-2": "VEGETA-D-1-2",
        "VEGETA-S-2-2": "-",
        "VEGETA-S-4-2": "-",
        "VEGETA-S-8-2": "-",
        "VEGETA-S-16-2": "VEGETA-S-8-2",
        "AMX-like": "VEGETA-D-16-1",
        "SME-like": "-",
    }


class TestCoresValidation:
    """--cores comma lists are validated up front, naming the bad value."""

    def test_non_integer_rejected(self, capsys, cache_dir):
        argv = ["run", "scaling", "--cores", "1,two", "--cache-dir", cache_dir]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "comma-separated integer list" in err
        assert "'two'" in err

    def test_zero_rejected(self, capsys, cache_dir):
        argv = ["run", "scaling", "--cores", "0,2", "--cache-dir", cache_dir]
        assert main(argv) == 2
        assert "must be positive core counts, got 0" in capsys.readouterr().err

    def test_negative_rejected(self, capsys, cache_dir):
        argv = ["run", "scaling", "--cores", "4,-8", "--cache-dir", cache_dir]
        assert main(argv) == 2
        assert "must be positive core counts, got -8" in capsys.readouterr().err

    def test_duplicate_rejected(self, capsys, cache_dir):
        argv = ["run", "scaling", "--cores", "2,4,2", "--cache-dir", cache_dir]
        assert main(argv) == 2
        assert "must be unique, got 2 twice" in capsys.readouterr().err

    def test_empty_list_rejected(self, capsys, cache_dir):
        argv = ["run", "scaling", "--cores", ",", "--cache-dir", cache_dir]
        assert main(argv) == 2
        assert "at least one core count" in capsys.readouterr().err


#: The sweep flags each experiment's build or reduce step reads.
ACCEPTED_FLAGS = {
    "fig13": {"max-layers", "max-output-tiles"},
    "headline": {"max-layers", "max-output-tiles", "seed"},
    "fig15": {"max-layers", "seed"},
    "spgemm": {"smoke", "max-output-tiles", "seed"},
    "scaling": {"smoke", "topology", "cores"},
    "autotune": {"smoke", "topology", "cores"},
    "backends": {"smoke", "max-output-tiles"},
    "roofline": set(),
    "area-power": set(),
}

#: Command-line form of each sweep flag.
FLAG_ARGS = {
    "max-layers": ["--max-layers", "1"],
    "max-output-tiles": ["--max-output-tiles", "2"],
    "seed": ["--seed", "3"],
    "smoke": ["--smoke"],
    "topology": ["--topology", "flat"],
    "cores": ["--cores", "1,2"],
}


class TestSweepFlagGating:
    """A sweep flag reaches only the experiments that read it; the rest exit 2."""

    @pytest.fixture
    def runs(self, monkeypatch):
        calls = []

        def record(name, options, **kwargs):
            calls.append((name, options))
            return ResultTable(("x",), [])

        monkeypatch.setattr("repro.__main__.run_named", record)
        return calls

    @pytest.fixture
    def chaos_runs(self, monkeypatch):
        calls = []

        def record(experiment, options, **kwargs):
            calls.append((experiment, options, kwargs["seed"]))
            return {
                "ok": True, "experiment": experiment, "trials": 0, "seed": kwargs["seed"],
                "fault_spec": "", "interrupt_spec": "", "legs": [], "failures": [],
            }

        monkeypatch.setattr("repro.faults.chaos.run_chaos", record)
        return calls

    def test_every_builtin_experiment_is_covered(self):
        builtins = [e for e in list_experiments() if e.build.__module__.startswith("repro.")]
        assert set(ACCEPTED_FLAGS) == {entry.name for entry in builtins}
        for entry in builtins:
            assert set(entry.cli_options) == ACCEPTED_FLAGS[entry.name]

    @pytest.mark.parametrize("flag", sorted(FLAG_ARGS))
    @pytest.mark.parametrize("experiment", sorted(ACCEPTED_FLAGS))
    def test_run_accepts_only_the_flags_an_experiment_reads(
        self, capsys, cache_dir, runs, experiment, flag
    ):
        code = main(["run", experiment, *FLAG_ARGS[flag], "--cache-dir", cache_dir])
        if flag in ACCEPTED_FLAGS[experiment]:
            assert code == 0
            assert [name for name, _ in runs] == [experiment]
        else:
            assert code == 2
            assert runs == []
            err = capsys.readouterr().err
            assert f"--{flag} is only valid for experiments with" in err
            assert f"not {experiment!r}" in err

    def test_dump_rejects_an_unread_flag(self, capsys, cache_dir, runs):
        assert main(["dump", "fig13", "--smoke", "--cache-dir", cache_dir]) == 2
        assert runs == []
        assert "(autotune, backends, scaling, spgemm)" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["max-layers", "max-output-tiles", "smoke"])
    @pytest.mark.parametrize("experiment", sorted(ACCEPTED_FLAGS))
    def test_chaos_accepts_only_the_flags_an_experiment_reads(
        self, chaos_runs, experiment, flag
    ):
        code = main(["chaos", experiment, *FLAG_ARGS[flag]])
        if flag in ACCEPTED_FLAGS[experiment]:
            assert code == 0
            assert [name for name, _, _ in chaos_runs] == [experiment]
        else:
            assert code == 2
            assert chaos_runs == []

    def test_chaos_seed_seeds_the_fault_schedule_only(self, chaos_runs):
        assert main(["chaos", "area-power", "--seed", "5"]) == 0
        assert chaos_runs == [("area-power", {}, 5)]


class TestMaxOutputTilesValidation:
    """--max-output-tiles below 1 is rejected before any trial runs."""

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_fig13_rejects_non_positive_values(self, capsys, cache_dir, value):
        clear_build_memo()
        argv = [
            "run", "fig13",
            "--max-layers", "1",
            "--no-cache",
            "--max-output-tiles", value,
            "--cache-dir", cache_dir,
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"max_output_tiles must be >= 1, got {value}" in captured.err
        assert "trials" not in captured.err
        assert captured.out == ""
        assert build_memo_rows() == 0  # no kernel was built either

    @pytest.mark.parametrize("experiment", ["spgemm", "backends"])
    def test_other_truncating_experiments_reject_zero(self, capsys, cache_dir, experiment):
        argv = [
            "run", experiment,
            "--smoke",
            "--no-cache",
            "--max-output-tiles", "0",
            "--cache-dir", cache_dir,
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "max_output_tiles must be >= 1, got 0" in captured.err
        assert captured.out == ""


class TestAxisOptionGating:
    """--topology/--cores are rejected for experiments without those axes."""

    def test_topology_rejected_for_experiment_without_axis(self, capsys, cache_dir):
        argv = ["run", "fig13", "--topology", "flat", "--cache-dir", cache_dir]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--topology is only valid for experiments with a topology axis" in err
        assert "not 'fig13'" in err

    def test_cores_rejected_for_experiment_without_axis(self, capsys, cache_dir):
        argv = ["run", "area-power", "--cores", "2,4", "--cache-dir", cache_dir]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--cores is only valid for experiments with a core-count axis" in err

    def test_error_names_the_experiments_that_do_support_the_flag(
        self, capsys, cache_dir
    ):
        argv = ["run", "fig13", "--cores", "2", "--cache-dir", cache_dir]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "autotune" in err and "scaling" in err

    def test_scaling_still_accepts_both_flags(self, capsys, cache_dir):
        argv = [
            "run", "scaling",
            "--smoke",
            "--topology", "flat",
            "--cores", "1,2",
            "--cache-dir", cache_dir,
            "--format", "csv",
        ]
        assert main(argv) == 0


def test_run_autotune_smoke_restricted(capsys, cache_dir):
    argv = [
        "run", "autotune",
        "--smoke",
        "--cores", "1,2",
        "--topology", "flat",
        "--cache-dir", cache_dir,
        "--format", "csv",
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    header = lines[0].split(",")
    for column in ("bound_cycles", "on_frontier", "best", "prune_ratio"):
        assert column in header
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    # One exploded row per candidate: 11 engines x {1,2} cores x 3
    # strategies x flat, minus the collapsed equivalents.
    assert len(rows) == 44
    assert all(row["workload"] == "sparse-2:4" for row in rows)
    # Exactly one best mapping, and it sits on the frontier of the
    # simulated candidates.
    best = [row for row in rows if row["best"] == "True"]
    assert len(best) == 1
    assert best[0]["on_frontier"] == "True"
    assert best[0]["simulated"] == "True"
    # Pruning still pays for itself on the restricted space.
    assert float(rows[0]["prune_ratio"]) >= 5.0
    # Sound bounds: no simulated row undercuts its analytic floor.
    for row in rows:
        if row["simulated"] == "True":
            assert int(row["bound_cycles"]) <= int(row["cycles"])

    # Second invocation is served entirely from the cache.
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "1 cached, 0 executed" in captured.err


def test_plan_prints_best_mapping_per_workload(capsys, cache_dir):
    argv = [
        "plan",
        "--workload", "sparse-2:4",
        "--cores", "1,2",
        "--topology", "flat",
        "--cache-dir", cache_dir,
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    out = captured.out
    assert "best mapping per workload" in out
    assert "sparse-2:4" in out
    assert "prune" in out
    assert "1 workloads" in captured.err


def test_plan_rejects_unknown_workload(capsys, cache_dir):
    argv = ["plan", "--workload", "no-such-workload", "--cache-dir", cache_dir]
    assert main(argv) == 2
    assert "unknown autotune workload" in capsys.readouterr().err


class TestResilienceCli:
    """--max-retries / --trial-timeout / --resume and the failure exit code."""

    def test_permanent_failure_exits_1_naming_the_trial(
        self, monkeypatch, capsys, cache_dir
    ):
        monkeypatch.setenv("REPRO_FAULTS", "trial-error:trials=0")
        assert main(["run", "area-power", "--cache-dir", cache_dir]) == 1
        err = capsys.readouterr().err
        assert "trial 0" in err
        assert "failed permanently" in err
        assert "--resume" in err

    def test_max_retries_recovers_from_transient_fault(
        self, monkeypatch, capsys, cache_dir
    ):
        monkeypatch.setenv("REPRO_FAULTS", "trial-error:trials=0")
        argv = ["run", "area-power", "--max-retries", "1", "--cache-dir", cache_dir]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "1 retried" in captured.err
        assert "8 trials" in captured.err

    def test_resume_completes_after_a_failed_run(
        self, monkeypatch, capsys, cache_dir
    ):
        monkeypatch.setenv("REPRO_FAULTS", "trial-error:trials=0")
        assert main(["run", "area-power", "--cache-dir", cache_dir]) == 1
        monkeypatch.delenv("REPRO_FAULTS")
        capsys.readouterr()
        argv = ["run", "area-power", "--resume", "--cache-dir", cache_dir]
        assert main(argv) == 0
        # The 7 rows checkpointed by the failed run are served back; only
        # the offender re-runs.
        assert "7 cached, 1 executed" in capsys.readouterr().err

    def test_resume_without_cache_is_rejected(self, capsys, cache_dir):
        argv = ["run", "area-power", "--resume", "--no-cache"]
        assert main(argv) == 2
        assert "--resume" in capsys.readouterr().err


def test_cache_info_reports_store_integrity(capsys, cache_dir):
    main(["run", "area-power", "--cache-dir", cache_dir])
    capsys.readouterr()
    assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "integrity:   8 verified, 0 quarantined now, 0 in quarantine" in out
    assert "area-power (results): 8 verified, 0 quarantined" in out

    # Corrupt one entry: info quarantines it and says so.
    from pathlib import Path

    victim = sorted(Path(cache_dir).rglob("*.json"))[0]
    victim.write_text("torn write")
    assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "integrity:   7 verified, 1 quarantined now, 1 in quarantine" in out

    # The next pass finds a clean store with the evidence in quarantine.
    assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "integrity:   7 verified, 0 quarantined now, 1 in quarantine" in out


def test_run_backends_smoke_produces_four_engine_table(capsys, cache_dir):
    argv = [
        "run", "backends",
        "--smoke",
        "--max-output-tiles", "2",
        "--cache-dir", cache_dir,
        "--format", "csv",
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    header = lines[0].split(",")
    assert "speedup_vs_baseline" in header
    engines = {line.split(",")[header.index("engine")] for line in lines[1:]}
    assert engines == {
        "VEGETA-S-16-2+OF",
        "VEGETA-S-16-2+OF+SPGEMM",
        "AMX-like",
        "SME-like",
    }
