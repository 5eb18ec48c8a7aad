"""Memoization-equivalence tests: memoized multicore == unmemoized, bit for bit."""

import dataclasses
import json

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.analysis.runtime import resolve_engine
from repro.cpu.columnar import ColumnarTrace, TraceBuilder
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
from repro.kernels.program import KernelProgram
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

    def test_keys_cover_machine_engine_and_mode(self, monkeypatch):
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
        # The engine enters only through its timing: equal timings share keys.
        for first, second in (
            ("VEGETA-D-1-2", "VEGETA-S-1-2"),
            ("VEGETA-S-8-2", "VEGETA-S-16-2"),
        ):
            assert simulation_cache_key(
                program, default_machine(), resolve_engine(first), "fast"
            ) == simulation_cache_key(
                program, default_machine(), resolve_engine(second), "fast"
            )
        # The fast path's super-period cap is part of the key.
        monkeypatch.setenv("REPRO_MAX_SUPER_PERIOD", "1")
        assert default_key != simulation_cache_key(
            program, default_machine(), ENGINE, "fast"
        )

    def test_equal_timing_engines_share_store_entries(self, monkeypatch):
        # VEGETA-D-1-2 and VEGETA-S-1-2 differ in name and supported patterns
        # but not in timing, so a store warmed by one serves the other.
        program = shard_kernel(
            "gemm", GemmShape(64, 64, 256), SparsityPattern.DENSE_4_4, 1
        ).programs[0]
        dense, sparse = resolve_engine("VEGETA-D-1-2"), resolve_engine("VEGETA-S-1-2")
        assert dense.timing == sparse.timing and dense.name != sparse.name
        fresh = CycleApproximateSimulator(engine=sparse).run(program.trace)

        class Store(dict):
            def put(self, key, payload):
                self[key] = payload

        store = Store()
        simulate_program_cached(program, engine=dense, block_cache=store)
        warmed = dict(store)
        clear_simulation_memo()
        runs = []
        original = CycleApproximateSimulator.run

        def counting_run(self, trace, **kwargs):
            runs.append(len(trace))
            return original(self, trace, **kwargs)

        monkeypatch.setattr(CycleApproximateSimulator, "run", counting_run)
        served = simulate_program_cached(program, engine=sparse, block_cache=store)
        assert runs == []
        assert store == warmed
        assert served.engine == sparse
        assert served.core_cycles == fresh.core_cycles
        assert served.memory_counters == fresh.memory_counters

    def test_store_warmed_at_one_cap_serves_no_other(self, monkeypatch):
        # Without the ideal L2 prefetch the profile path's cycles depend on
        # the super-period cap (415,269 at the default cap, 410,149 = exact
        # at cap 1 for this kernel), so a stored payload must not cross caps.
        monkeypatch.delenv("REPRO_MAX_SUPER_PERIOD", raising=False)
        program = shard_kernel(
            "gemm", GemmShape(256, 256, 512), SparsityPattern.DENSE_4_4, 1
        ).programs[0]
        machine = memory_bound_machine()

        class Store(dict):
            def put(self, key, payload):
                self[key] = payload

        store = Store()
        simulate_program_cached(program, machine=machine, engine=ENGINE, block_cache=store)
        assert store
        clear_simulation_memo()
        monkeypatch.setenv("REPRO_MAX_SUPER_PERIOD", "1")
        served = simulate_program_cached(
            program, machine=machine, engine=ENGINE, block_cache=store
        )
        fresh = CycleApproximateSimulator(machine=machine, engine=ENGINE).run(program.trace)
        assert served.core_cycles == fresh.core_cycles
        assert served.memory_counters == fresh.memory_counters


def _two_vector_loads(first_offset, second_offset):
    """Two 128-byte loads at the given offsets from two line-aligned bases,
    then six FMAs on the first load's register."""
    builder = TraceBuilder()
    builder.vector_load(1, 0x10000 + first_offset, 128)
    builder.vector_load(3, 0x20000 + second_offset, 128)
    for _ in range(6):
        builder.vector_fma(1, (1, 1))
    return builder.finish()


def _program(trace):
    return KernelProgram(
        trace=trace, shape=GemmShape(16, 16, 16), pattern=SparsityPattern.DENSE_4_4
    )


MODES = ("exact", "fast")


class TestUnalignedRequests:
    """A request's line count is part of the key when it does not start on
    a line: 128 B at offset 0 span two 64 B lines, at offset 32 three."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("machine", [default_machine(), memory_bound_machine()])
    def test_shifted_lines_get_distinct_keys(self, machine, mode):
        left, right = _two_vector_loads(0, 32), _two_vector_loads(32, 0)
        simulator = CycleApproximateSimulator(machine=machine, engine=None, mode=mode)
        assert simulator.run(left).core_cycles != simulator.run(right).core_cycles
        assert simulation_cache_key(_program(left), machine, None, mode) != (
            simulation_cache_key(_program(right), machine, None, mode)
        )

    def test_aligned_shifts_still_share_a_key(self):
        # Aligned requests fold nothing new, so address-shifted aligned
        # traces keep sharing one key (the golden keys pin the kernels').
        machine = default_machine()
        assert _two_vector_loads(0, 64).address_structure_hash(machine) == (
            _two_vector_loads(64, 128).address_structure_hash(machine)
        )

    @given(
        data=st.data(),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["load", "store", "fma"]),
                st.integers(min_value=0, max_value=3),
                st.sampled_from([64, 128, 192]),
            ),
            min_size=1,
            max_size=10,
        ),
        machine=st.sampled_from([default_machine(), memory_bound_machine()]),
        mode=st.sampled_from(MODES),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_keys_simulate_equally(self, data, ops, machine, mode):
        def build(offsets):
            builder = TraceBuilder()
            for (kind, slot, nbytes), offset in zip(ops, offsets):
                address = 0x10000 + slot * 0x1000 + offset
                if kind == "load":
                    builder.vector_load(slot, address, nbytes)
                elif kind == "store":
                    builder.vector_store(slot, address, nbytes)
                else:
                    builder.vector_fma(slot, (slot, 1))
            return builder.finish()

        offsets = st.lists(
            st.sampled_from([0, 32, 64, 96]), min_size=len(ops), max_size=len(ops)
        )
        left, right = build(data.draw(offsets)), build(data.draw(offsets))
        if simulation_cache_key(_program(left), machine, None, mode) != (
            simulation_cache_key(_program(right), machine, None, mode)
        ):
            event("distinct keys")
            return
        event("equal keys")
        simulator = CycleApproximateSimulator(machine=machine, engine=None, mode=mode)
        left_result, right_result = simulator.run(left), simulator.run(right)
        assert left_result.core_cycles == right_result.core_cycles
        assert left_result.memory_counters == right_result.memory_counters
