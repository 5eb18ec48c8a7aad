"""Tests for executors and the run_experiment orchestration."""

import os

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cache import CACHE_DIR_ENV, ResultCache, default_cache_root
from repro.experiments.executor import (
    JOBS_ENV,
    MultiprocessExecutor,
    SerialExecutor,
    make_executor,
    resolve_jobs,
)
from repro.experiments.figures import figure13_spec
from repro.experiments.registry import get_trial_runner, trial_runner
from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentSpec


@trial_runner("test-square")
def _square(params):
    return {"x": params["x"], "square": params["x"] ** 2}


def square_spec(count=8):
    return ExperimentSpec(
        name="test-square", version="1", axes={"x": list(range(count))}
    )


@trial_runner("test-cache-root")
def _cache_root_seen(params):
    if params["x"] == 1:
        raise KeyboardInterrupt
    return {"x": params["x"], "root": str(default_cache_root())}


def cache_root_spec(count):
    return ExperimentSpec(name="test-cache-root", version="1", axes={"x": list(range(count))})


class TestCacheRootEnvironment:
    """Trials see ``cache_root`` as their default root; the caller's comes back."""

    @pytest.mark.parametrize("before", ["before", None])
    def test_restored_after_a_sweep_and_after_an_interrupt(
        self, tmp_path, monkeypatch, before
    ):
        if before is None:
            monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        else:
            monkeypatch.setenv(CACHE_DIR_ENV, before)
        table = run_experiment(cache_root_spec(1), cache=False, cache_root=tmp_path)
        assert table.rows[0]["root"] == str(tmp_path)
        assert os.environ.get(CACHE_DIR_ENV) == before
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cache_root_spec(2), cache=False, cache_root=tmp_path)
        assert os.environ.get(CACHE_DIR_ENV) == before


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(None) == 3

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(2) == 2

    def test_nonpositive_means_all_cores(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs(None)

    def test_make_executor_picks_backend(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(2), MultiprocessExecutor)


class TestExecutors:
    def test_serial_preserves_order(self):
        trials = [(i, {"x": i}) for i in range(5)]
        results = list(SerialExecutor().stream("test-square", trials))
        assert [index for index, _ in results] == list(range(5))
        assert [outcome["row"]["square"] for _, outcome in results] == [0, 1, 4, 9, 16]
        assert all(outcome["attempts"] == 1 for _, outcome in results)

    def test_multiprocess_matches_serial(self):
        trials = [(i, {"x": i}) for i in range(11)]
        serial = list(SerialExecutor().stream("test-square", trials))
        parallel = sorted(MultiprocessExecutor(2).stream("test-square", trials))
        assert parallel == serial

    def test_unknown_runner_rejected(self):
        with pytest.raises(ConfigurationError):
            get_trial_runner("no-such-runner")


class TestRunExperiment:
    def test_rows_in_spec_order(self, tmp_path):
        table = run_experiment(square_spec(), cache=ResultCache(tmp_path))
        assert table.column("x") == list(range(8))
        assert table.column("square") == [x * x for x in range(8)]
        assert table.meta["executed"] == 8
        assert table.meta["cached"] == 0

    def test_second_run_fully_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_experiment(square_spec(), cache=cache)
        second = run_experiment(square_spec(), cache=cache)
        assert second.meta["cached"] == 8
        assert second.meta["executed"] == 0
        assert second == first
        assert second.to_json() == first.to_json()

    def test_partial_cache_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment(square_spec(4), cache=cache)
        table = run_experiment(square_spec(8), cache=cache)
        assert table.meta["cached"] == 4
        assert table.meta["executed"] == 4
        assert table.column("square") == [x * x for x in range(8)]

    def test_version_bump_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment(square_spec(), cache=cache)
        bumped = ExperimentSpec(name="test-square", version="2", axes={"x": list(range(8))})
        table = run_experiment(bumped, cache=cache)
        assert table.meta["executed"] == 8

    def test_no_cache_runs_everything(self, tmp_path):
        table = run_experiment(square_spec(), cache=False)
        assert table.meta["executed"] == 8
        assert not list(tmp_path.iterdir())

    def test_columns_inferred_when_not_declared(self):
        table = run_experiment(square_spec(2), cache=False)
        assert table.columns == ("x", "square")


class TestFigure13Parity:
    """The acceptance contract: identical tables from every backend."""

    @pytest.fixture(scope="class")
    def spec(self):
        return figure13_spec(
            layers=["GPT-L1"],
            engine_names=("VEGETA-D-1-2", "VEGETA-S-16-2+OF"),
            max_output_tiles=1,
        )

    def test_serial_and_parallel_tables_byte_identical(self, spec):
        serial = run_experiment(spec, jobs=1, cache=False)
        parallel = run_experiment(spec, jobs=2, cache=False)
        assert serial.to_json() == parallel.to_json()
        assert serial.to_csv() == parallel.to_csv()

    def test_warm_cache_byte_identical(self, spec, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_experiment(spec, cache=cache)
        warm = run_experiment(spec, cache=cache)
        assert warm.meta["executed"] == 0
        assert warm.to_json() == cold.to_json()
