"""Tests for the analytic pre-filter statics.

The load-bearing property is *soundness*: ``bound_cycles`` must never exceed
the simulated makespan of the same mapping, on compute-rich and
bandwidth-starved machines alike, because the dominance pruning in
:mod:`repro.planner.autotune` is only frontier-preserving when the bound is a
true lower bound.  The statics are priced from the partition's tile grid;
the shard built from the same arguments is what gets simulated.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.runtime import resolve_engine
from repro.cpu.multicore import simulate_multicore
from repro.cpu.params import default_machine, get_topology, memory_bound_machine
from repro.kernels.sharding import partition_kernel, shard_kernel
from repro.planner.prefilter import mapping_statics, partition_statics
from repro.planner.space import select_kernel
from repro.types import GemmShape, SparsityPattern

MACHINES = {
    "default": default_machine(),
    "membound": memory_bound_machine(),
}

ENGINE_NAMES = (
    "VEGETA-D-1-2",
    "VEGETA-S-4-2",
    "VEGETA-S-16-2+OF",
    "VEGETA-S-16-2+OF+SPGEMM",
    "AMX-like",
    "SME-like",
)


def build_mapping(
    engine_name, pattern, shape, cores, strategy, topology_name, build=partition_kernel
):
    """``(engine, partition, topology)`` of one mapping; ``build=shard_kernel``
    also builds its per-core programs."""
    engine = resolve_engine(engine_name)
    kernel, executed = select_kernel(engine, pattern)
    topology = get_topology(topology_name)
    partition = build(
        kernel,
        shape,
        executed,
        cores,
        strategy,
        topology=topology,
        geometry=engine.geometry,
    )
    return engine, partition, topology


class TestExactStatics:
    def test_one_partition_pricing_serves_every_engine(self):
        # The autotuner prices a partition's statics once and shares
        # them across the engines that run it.
        _, partition, topology = build_mapping(
            "VEGETA-S-16-2+OF",
            SparsityPattern.SPARSE_2_4,
            GemmShape(96, 80, 256),
            3,
            "2d-cyclic",
            "dual-socket",
        )
        for machine in MACHINES.values():
            priced = partition_statics(partition, machine, topology)
            for name in ("VEGETA-S-4-2", "VEGETA-S-16-2+OF", "VEGETA-D-1-2"):
                engine = resolve_engine(name)
                assert mapping_statics(
                    partition, machine, engine, topology, priced
                ) == mapping_statics(partition, machine, engine, topology)

    def test_traffic_is_the_sum_of_per_core_trace_bytes(self):
        mapping = (
            "VEGETA-S-4-2",
            SparsityPattern.SPARSE_2_4,
            GemmShape(64, 64, 256),
            4,
            "row-block",
            "flat",
        )
        engine, partition, topology = build_mapping(*mapping)
        sharded = build_mapping(*mapping, build=shard_kernel)[1]
        statics = mapping_statics(partition, MACHINES["default"], engine, topology)
        assert statics.traffic_bytes == sum(
            program.trace.summarize().memory_bytes
            for program in sharded.programs
        )

    def test_even_partition_has_unit_imbalance(self):
        engine, partition, topology = build_mapping(
            "SME-like",
            SparsityPattern.DENSE_4_4,
            GemmShape(128, 128, 128),
            4,
            "2d-cyclic",
            "flat",
        )
        statics = mapping_statics(partition, MACHINES["default"], engine, topology)
        assert statics.load_imbalance == 1.0

    def test_uneven_partition_reports_imbalance(self):
        # 3 cores over a 4x4 output grid: shares of 6/5/5 tiles.
        engine, partition, topology = build_mapping(
            "VEGETA-D-1-2",
            SparsityPattern.DENSE_4_4,
            GemmShape(64, 64, 64),
            3,
            "row-block",
            "flat",
        )
        statics = mapping_statics(partition, MACHINES["default"], engine, topology)
        assert statics.load_imbalance > 1.0

    def test_combined_footprint_not_less_than_any_core(self):
        engine, partition, topology = build_mapping(
            "VEGETA-S-4-2",
            SparsityPattern.SPARSE_2_4,
            GemmShape(128, 128, 256),
            4,
            "column-block",
            "dual-socket",
        )
        statics = mapping_statics(partition, MACHINES["default"], engine, topology)
        assert statics.combined_footprint_bytes >= statics.max_core_footprint_bytes
        assert statics.max_core_footprint_bytes > 0


class TestBoundStructure:
    def test_memory_bound_is_zero_under_ideal_prefetch(self):
        machine = MACHINES["default"]
        assert machine.prefetch_into_l2
        engine, partition, topology = build_mapping(
            "VEGETA-D-1-2",
            SparsityPattern.DENSE_4_4,
            GemmShape(64, 64, 128),
            2,
            "row-block",
            "flat",
        )
        statics = mapping_statics(partition, machine, engine, topology)
        assert statics.memory_bound_cycles == 0
        assert statics.bound_cycles == statics.compute_bound_cycles

    def test_memory_bound_active_on_bandwidth_starved_machine(self):
        machine = MACHINES["membound"]
        assert not machine.prefetch_into_l2
        engine, partition, topology = build_mapping(
            "VEGETA-D-1-2",
            SparsityPattern.DENSE_4_4,
            GemmShape(64, 64, 128),
            2,
            "row-block",
            "flat",
        )
        statics = mapping_statics(partition, machine, engine, topology)
        assert statics.memory_bound_cycles > 0

    def test_compute_bound_scales_with_the_most_loaded_core(self):
        engine, partition, topology = build_mapping(
            "VEGETA-D-1-2",
            SparsityPattern.DENSE_4_4,
            GemmShape(64, 64, 128),
            2,
            "row-block",
            "flat",
        )
        machine = MACHINES["default"]
        statics = mapping_statics(partition, machine, engine, topology)
        issue = max(engine.issue_interval, engine.busy_cycles_per_instruction)
        assert statics.compute_bound_cycles == (
            statics.max_core_compute_instructions
            * issue
            * machine.core.engine_clock_ratio
        )


class TestBoundSoundness:
    @given(
        engine_name=st.sampled_from(ENGINE_NAMES),
        machine_name=st.sampled_from(sorted(MACHINES)),
        pattern=st.sampled_from(
            [SparsityPattern.DENSE_4_4, SparsityPattern.SPARSE_2_4]
        ),
        mn_tiles=st.integers(min_value=2, max_value=4),
        k_tiles=st.integers(min_value=1, max_value=3),
        cores=st.sampled_from([1, 2, 4]),
        strategy=st.sampled_from(["row-block", "column-block", "2d-cyclic"]),
        topology_name=st.sampled_from(["flat", "dual-socket"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_bound_never_exceeds_simulated_cycles(
        self,
        engine_name,
        machine_name,
        pattern,
        mn_tiles,
        k_tiles,
        cores,
        strategy,
        topology_name,
    ):
        machine = MACHINES[machine_name]
        shape = GemmShape(m=mn_tiles * 32, n=mn_tiles * 32, k=k_tiles * 128)
        mapping = (engine_name, pattern, shape, cores, strategy, topology_name)
        engine, partition, topology = build_mapping(*mapping)
        sharded = build_mapping(*mapping, build=shard_kernel)[1]
        statics = mapping_statics(partition, machine, engine, topology)
        result = simulate_multicore(
            sharded.programs,
            machine=machine,
            engine=engine,
            topology=topology,
            memo=False,
        )
        assert statics.bound_cycles <= result.core_cycles
