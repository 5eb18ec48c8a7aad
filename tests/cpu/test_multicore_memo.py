"""Memoization-equivalence tests: memoized multicore == unmemoized, bit for bit."""

import dataclasses
import json

import pytest

from repro.analysis.runtime import resolve_engine
from repro.cpu.columnar import ColumnarTrace
from repro.cpu.multicore import (
    clear_simulation_memo,
    memoization_enabled,
    payload_to_result,
    result_to_payload,
    simulate_multicore,
    simulate_program_cached,
    simulation_cache_key,
)
from repro.cpu.params import default_machine, get_topology, memory_bound_machine
from repro.cpu.simulator import CycleApproximateSimulator
from repro.kernels.sharding import shard_kernel
from repro.types import GemmShape, SparsityPattern

ENGINE = resolve_engine("VEGETA-S-16-2+OF+SPGEMM")

KERNEL_KINDS = [
    ("gemm", SparsityPattern.DENSE_4_4),
    ("spmm", SparsityPattern.SPARSE_2_4),
    ("spgemm", SparsityPattern.SPARSE_2_4),
]

STRATEGIES = ("row-block", "column-block", "2d-cyclic")


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_simulation_memo()
    yield
    clear_simulation_memo()


def assert_bit_identical(a, b):
    assert a.core_cycles == b.core_cycles
    assert a.finish_cycles == b.finish_cycles
    assert a.dram_lines == b.dram_lines
    assert a.l3_hit_lines == b.l3_hit_lines
    assert a.contended == b.contended
    assert a.memory_counters == b.memory_counters
    for left, right in zip(a.per_core, b.per_core):
        assert left.core_cycles == right.core_cycles
        assert left.memory_counters == right.memory_counters
        assert left.trace_summary == right.trace_summary
        assert left.engine_makespan_cycles == right.engine_makespan_cycles
        assert left.tile_compute_ops == right.tile_compute_ops


class TestMemoEquivalence:
    """The ISSUE's core invariant: replayed cores match simulated cores exactly."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("kind,pattern", KERNEL_KINDS)
    def test_fast_mode_bit_identical(self, kind, pattern, strategy):
        sharded = shard_kernel(kind, GemmShape(128, 128, 512), pattern, 4, strategy)
        off = simulate_multicore(sharded.programs, engine=ENGINE, memo=False)
        clear_simulation_memo()
        on = simulate_multicore(sharded.programs, engine=ENGINE, memo=True)
        assert_bit_identical(off, on)

    @pytest.mark.parametrize("kind,pattern", KERNEL_KINDS)
    def test_exact_mode_bit_identical(self, kind, pattern):
        sharded = shard_kernel(kind, GemmShape(64, 64, 256), pattern, 4, "row-block")
        off = simulate_multicore(sharded.programs, engine=ENGINE, mode="exact", memo=False)
        clear_simulation_memo()
        on = simulate_multicore(sharded.programs, engine=ENGINE, mode="exact", memo=True)
        assert_bit_identical(off, on)

    def test_memory_bound_machine_bit_identical(self):
        machine = memory_bound_machine()
        sharded = shard_kernel(
            "gemm", GemmShape(128, 128, 256), SparsityPattern.DENSE_4_4, 8, "row-block"
        )
        off = simulate_multicore(
            sharded.programs, machine=machine, engine=ENGINE, memo=False
        )
        clear_simulation_memo()
        on = simulate_multicore(
            sharded.programs, machine=machine, engine=ENGINE, memo=True
        )
        assert_bit_identical(off, on)

    @pytest.mark.parametrize(
        "machine", [default_machine(), memory_bound_machine()], ids=["default", "membound"]
    )
    def test_rekeyed_shared_traces_match_fresh_traces(self, machine):
        # The scaling trial's shape: one shard arbitrated under a topology,
        # then re-keyed on the same program objects for its flat re-run.
        topology = get_topology("dual-socket")
        sharded = shard_kernel(
            "gemm", GemmShape(128, 128, 256), SparsityPattern.DENSE_4_4, 8,
            "2d-cyclic", topology=topology,
        )
        simulate_multicore(sharded.programs, machine=machine, engine=ENGINE, topology=topology)
        shared = simulate_multicore(sharded.programs, machine=machine, engine=ENGINE)
        fresh_programs = [
            dataclasses.replace(
                program,
                trace=ColumnarTrace(
                    columns=program.trace.columns,
                    labels=program.trace.labels,
                    geometry=program.trace.geometry,
                    block_starts=program.trace.block_starts,
                ),
            )
            for program in sharded.programs
        ]
        assert [
            simulation_cache_key(program, machine, ENGINE, "fast")
            for program in sharded.programs
        ] == [
            simulation_cache_key(program, machine, ENGINE, "fast")
            for program in fresh_programs
        ]
        clear_simulation_memo()
        fresh = simulate_multicore(fresh_programs, machine=machine, engine=ENGINE, memo=False)
        assert_bit_identical(shared, fresh)


class TestMemoMachinery:
    def test_equivalent_cores_share_one_simulation(self, monkeypatch):
        sharded = shard_kernel(
            "gemm", GemmShape(256, 256, 256), SparsityPattern.DENSE_4_4, 8, "row-block"
        )
        machine = default_machine()
        keys = {
            simulation_cache_key(program, machine, ENGINE, "fast")
            for program in sharded.programs
        }
        runs = []
        original = CycleApproximateSimulator.run

        def counting_run(self, trace, **kwargs):
            runs.append(len(trace))
            return original(self, trace, **kwargs)

        monkeypatch.setattr(CycleApproximateSimulator, "run", counting_run)
        simulate_multicore(sharded.programs, engine=ENGINE)
        assert len(runs) == len(keys) < sharded.cores

    def test_payload_survives_json_roundtrip(self):
        program = shard_kernel(
            "spmm", GemmShape(64, 64, 256), SparsityPattern.SPARSE_2_4, 1
        ).programs[0]
        result = CycleApproximateSimulator(engine=ENGINE).run(program.trace)
        payload = json.loads(json.dumps(result_to_payload(result)))
        replayed = payload_to_result(payload, result.machine, ENGINE)
        assert replayed.core_cycles == result.core_cycles
        assert replayed.memory_counters == result.memory_counters
        assert replayed.trace_summary == result.trace_summary
        assert replayed.engine_busy_cycles == result.engine_busy_cycles

    def test_persistent_store_feeds_fresh_processes(self):
        store = {}

        class Store:
            def get(self, key):
                return store.get(key)

            def put(self, key, payload):
                store[key] = payload

        sharded = shard_kernel(
            "gemm", GemmShape(128, 128, 256), SparsityPattern.DENSE_4_4, 4, "row-block"
        )
        first = simulate_multicore(sharded.programs, engine=ENGINE, block_cache=Store())
        assert store  # representatives were persisted
        clear_simulation_memo()  # a fresh process would start empty
        second = simulate_multicore(sharded.programs, engine=ENGINE, block_cache=Store())
        assert_bit_identical(first, second)

    def test_each_distinct_key_costs_one_lookup(self, monkeypatch):
        sharded = shard_kernel(
            "gemm", GemmShape(256, 256, 256), SparsityPattern.DENSE_4_4, 8, "row-block"
        )
        programs = sharded.programs
        distinct = len(
            {simulation_cache_key(p, default_machine(), ENGINE, "fast") for p in programs}
        )
        assert distinct < len(programs)
        calls = {"run": 0, "get": 0, "put": 0}
        original = CycleApproximateSimulator.run

        def counting_run(self, trace, **kwargs):
            calls["run"] += 1
            return original(self, trace, **kwargs)

        class CountingStore(dict):
            def get(self, key):
                calls["get"] += 1
                return super().get(key)

            def put(self, key, payload):
                calls["put"] += 1
                self[key] = payload

        store = CountingStore()

        def cost(memo):
            for name in calls:
                calls[name] = 0
            simulate_multicore(programs, engine=ENGINE, memo=memo, block_cache=store)
            return calls["run"], calls["get"], calls["put"]

        monkeypatch.setattr(CycleApproximateSimulator, "run", counting_run)
        assert cost(memo=True) == (distinct, distinct, distinct)  # cold
        assert cost(memo=True) == (0, 0, 0)  # process memo
        clear_simulation_memo()
        assert cost(memo=True) == (0, distinct, 0)  # store only
        assert cost(memo=False) == (len(programs), 0, 0)

    def test_cached_program_is_a_one_core_multicore_run(self):
        program = shard_kernel(
            "spmm", GemmShape(64, 64, 256), SparsityPattern.SPARSE_2_4, 1
        ).programs[0]
        for memo in (True, False):
            clear_simulation_memo()
            assert simulate_program_cached(program, engine=ENGINE, memo=memo) == (
                simulate_multicore([program], engine=ENGINE, memo=memo).per_core[0]
            )

    def test_simulate_program_cached_matches_direct_run(self):
        program = shard_kernel(
            "spgemm", GemmShape(64, 64, 256), SparsityPattern.SPARSE_2_4, 1
        ).programs[0]
        direct = CycleApproximateSimulator(engine=ENGINE).run(program.trace)
        cached_cold = simulate_program_cached(program, engine=ENGINE)
        cached_warm = simulate_program_cached(program, engine=ENGINE)
        for candidate in (cached_cold, cached_warm):
            assert candidate.core_cycles == direct.core_cycles
            assert candidate.memory_counters == direct.memory_counters

    def test_env_variable_disables_memoization(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_MEMO", raising=False)
        assert memoization_enabled()
        monkeypatch.setenv("REPRO_NO_MEMO", "1")
        assert not memoization_enabled()
        monkeypatch.setenv("REPRO_NO_MEMO", "0")
        assert memoization_enabled()
        # Explicit arguments win over the environment.
        monkeypatch.setenv("REPRO_NO_MEMO", "1")
        assert memoization_enabled(True)

    def test_keys_cover_machine_engine_and_mode(self):
        program = shard_kernel(
            "gemm", GemmShape(64, 64, 256), SparsityPattern.DENSE_4_4, 1
        ).programs[0]
        default_key = simulation_cache_key(program, default_machine(), ENGINE, "fast")
        assert default_key is not None
        assert default_key != simulation_cache_key(
            program, memory_bound_machine(), ENGINE, "fast"
        )
        assert default_key != simulation_cache_key(
            program, default_machine(), ENGINE, "exact"
        )
        assert default_key != simulation_cache_key(
            program, default_machine(), resolve_engine("VEGETA-D-1-2"), "fast"
        )
        assert default_key != simulation_cache_key(
            program, default_machine(), None, "fast"
        )
