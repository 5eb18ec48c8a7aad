"""Tests for the multi-core simulation: arbiter, invariants, scaling shape."""

import dataclasses

import pytest

from repro.analysis.runtime import resolve_engine
from repro.cpu.multicore import (
    MulticoreSimulationResult,
    arbitrate_cores,
    simulate_multicore,
)
from repro.cpu.params import (
    default_machine,
    dual_socket_machine,
    flat_topology,
    memory_bound_machine,
)
from repro.cpu.simulator import CycleApproximateSimulator
from repro.cpu.topology import TopologyNode, arbitrate_topology
from repro.errors import SimulationError
from repro.kernels.sharding import shard_kernel
from repro.types import GemmShape, SparsityPattern

ENGINE = resolve_engine("VEGETA-S-16-2+OF+SPGEMM")

#: (kind, pattern) for every registered kernel the sharding layer covers.
KERNEL_KINDS = [
    ("gemm", SparsityPattern.DENSE_4_4),
    ("spmm", SparsityPattern.SPARSE_2_4),
    ("spmm", SparsityPattern.SPARSE_1_4),
    ("spgemm", SparsityPattern.SPARSE_2_4),
    ("spgemm", SparsityPattern.SPARSE_1_4),
]


class TestArbiter:
    def test_no_demand_runs_undilated(self):
        outcome = arbitrate_topology(
            [1000, 500],
            demands=[[0, 0], [0, 0]],
            supplies=[1.0, 2.0],
            names=["dram", "l3"],
        )
        assert outcome.finish_cycles == [1000, 500]
        assert outcome.makespan == 1000
        assert not outcome.contended

    def test_under_supply_finishes_at_private_cycles(self):
        # Two cores each demanding 0.25 lines/cycle against a supply of 1.
        outcome = arbitrate_topology(
            [1000, 1000],
            demands=[[250, 250], [250, 250]],
            supplies=[1.0, 2.0],
            names=["dram", "l3"],
        )
        assert outcome.finish_cycles == [1000, 1000]
        assert not outcome.contended

    def test_oversubscription_dilates_proportionally(self):
        # Two cores each demanding the full DRAM supply: fair sharing halves
        # their progress, so both finish in ~2x their private time.
        outcome = arbitrate_topology(
            [1000, 1000],
            demands=[[1000, 1000], [1000, 1000]],
            supplies=[1.0, 10.0],
            names=["dram", "l3"],
        )
        assert outcome.contended
        assert outcome.makespan == 2000

    def test_finished_core_releases_bandwidth(self):
        # A short bandwidth-hungry core and a long one: once the short core
        # drains, the long one speeds back up, so the makespan is far below
        # the fully-contended bound of 2x.
        outcome = arbitrate_topology(
            [100, 10_000],
            demands=[[100, 10_000], [100, 10_000]],
            supplies=[1.0, 10.0],
            names=["dram", "l3"],
        )
        assert outcome.contended
        assert outcome.finish_cycles[0] < outcome.finish_cycles[1]
        assert outcome.makespan < int(2 * 10_000 * 0.75)

    def test_compute_only_core_unaffected_by_contention(self):
        outcome = arbitrate_topology(
            [1000, 1000, 1000],
            demands=[[1000, 1000, 0], [1000, 1000, 0]],
            supplies=[1.0, 10.0],
            names=["dram", "l3"],
        )
        assert outcome.finish_cycles[2] == 1000
        assert outcome.finish_cycles[0] > 1000

    def test_core_only_dilated_by_resources_it_demands(self):
        # Core 0 uses only the (uncontended) L3 port; cores 1-2 fight over
        # DRAM.  Core 0 must finish at its private time despite the DRAM
        # shortfall.
        outcome = arbitrate_topology(
            [1000, 1000, 1000],
            demands=[[0, 1000, 1000], [1000, 0, 0]],
            supplies=[1.0, 10.0],
            names=["dram", "l3"],
        )
        assert outcome.contended
        assert outcome.finish_cycles[0] == 1000
        assert outcome.finish_cycles[1] == 2000

    def test_long_uncontended_run_needs_few_steps(self):
        # Steps end at core completions, so even a multi-billion-cycle run
        # arbitrates in O(cores) iterations instead of tripping max_steps.
        outcome = arbitrate_topology(
            [9_000_000_000],
            demands=[[0], [0]],
            supplies=[1.0, 1.0],
            names=["dram", "l3"],
        )
        assert outcome.makespan == 9_000_000_000

    def test_l3_port_can_be_the_bottleneck(self):
        outcome = arbitrate_topology(
            [1000, 1000],
            demands=[[0, 0], [1000, 1000]],
            supplies=[10.0, 1.0],
            names=["dram", "l3"],
        )
        assert outcome.contended
        assert outcome.makespan == 2000

    def test_mismatched_vectors_rejected(self):
        with pytest.raises(SimulationError):
            arbitrate_topology(
                [100],
                demands=[[1, 2], [1]],
                supplies=[1.0, 1.0],
                names=["dram", "l3"],
            )

    def test_zero_cycle_cores_finish_immediately(self):
        outcome = arbitrate_topology(
            [0, 100],
            demands=[[0, 10], [0, 10]],
            supplies=[1.0, 2.0],
            names=["dram", "l3"],
        )
        assert outcome.finish_cycles == [0, 100]


class TestSingleCoreInvariant:
    """cores=1 multi-core simulation == the existing single-core path, bit for bit."""

    @pytest.mark.parametrize("kind,pattern", KERNEL_KINDS)
    def test_cycles_and_counters_bit_identical(self, kind, pattern):
        shape = GemmShape(m=64, n=64, k=512)
        sharded = shard_kernel(kind, shape, pattern, 1)
        program = sharded.programs[0]
        multi = simulate_multicore(sharded.programs, engine=ENGINE)
        single = CycleApproximateSimulator(engine=ENGINE).run(program.trace)
        assert multi.core_cycles == single.core_cycles
        assert multi.finish_cycles == [single.core_cycles]
        assert multi.per_core[0].memory_counters == single.memory_counters
        assert not multi.contended

    @pytest.mark.parametrize("kind,pattern", KERNEL_KINDS[:3])
    def test_invariant_holds_without_prefetch(self, kind, pattern):
        # The memory-bound machine maximises DRAM traffic; even then one
        # core's demand cannot oversubscribe the shared channel, because the
        # shared supply mirrors the private simulator's effective line rate.
        machine = memory_bound_machine()
        sharded = shard_kernel(kind, GemmShape(m=64, n=64, k=512), pattern, 1)
        program = sharded.programs[0]
        multi = simulate_multicore(sharded.programs, machine=machine, engine=ENGINE)
        single = CycleApproximateSimulator(machine=machine, engine=ENGINE).run(program.trace)
        assert multi.core_cycles == single.core_cycles
        assert multi.per_core[0].memory_counters == single.memory_counters
        assert not multi.contended

    def test_invariant_holds_for_non_default_line_size(self):
        # The shared supply and footprint accounting follow the machine's
        # cache line size, so the invariant is not tied to 64 B lines.
        from repro.cpu.params import CacheParams, MachineParams

        machine = MachineParams(
            l1=CacheParams(name="L1D", capacity_bytes=48 * 1024, line_bytes=128),
            l2=CacheParams(name="L2", capacity_bytes=2 * 1024 * 1024, line_bytes=128),
            prefetch_into_l2=False,
        )
        sharded = shard_kernel(
            "gemm", GemmShape(m=64, n=64, k=256), SparsityPattern.DENSE_4_4, 1
        )
        program = sharded.programs[0]
        multi = simulate_multicore(sharded.programs, machine=machine, engine=ENGINE)
        single = CycleApproximateSimulator(machine=machine, engine=ENGINE).run(program.trace)
        assert multi.core_cycles == single.core_cycles
        assert not multi.contended

    def test_exact_mode_matches_too(self):
        sharded = shard_kernel(
            "gemm", GemmShape(m=64, n=64, k=256), SparsityPattern.DENSE_4_4, 1
        )
        program = sharded.programs[0]
        multi = simulate_multicore(sharded.programs, engine=ENGINE, mode="exact")
        single = CycleApproximateSimulator(engine=ENGINE, mode="exact").run(
            program.trace
        )
        assert multi.core_cycles == single.core_cycles


class TestMulticoreScaling:
    """The acceptance-criteria scaling shape of the ISSUE."""

    def test_compute_bound_workload_scales_at_least_6x_on_8_cores(self):
        shape = GemmShape(m=256, n=256, k=1024)
        single = shard_kernel("gemm", shape, SparsityPattern.DENSE_4_4, 1).programs[0]
        baseline = CycleApproximateSimulator(engine=ENGINE).run(single.trace)
        sharded = shard_kernel("gemm", shape, SparsityPattern.DENSE_4_4, 8, "row-block")
        multi = simulate_multicore(sharded.programs, engine=ENGINE)
        speedup = multi.speedup_over(baseline.core_cycles)
        assert speedup >= 6.0
        assert not multi.contended

    def test_memory_bound_workload_is_bandwidth_limited_on_8_cores(self):
        machine = memory_bound_machine()
        shape = GemmShape(m=256, n=256, k=512)
        single = shard_kernel("gemm", shape, SparsityPattern.DENSE_4_4, 1).programs[0]
        baseline = CycleApproximateSimulator(machine=machine, engine=ENGINE).run(single.trace)
        sharded = shard_kernel("gemm", shape, SparsityPattern.DENSE_4_4, 8, "row-block")
        multi = simulate_multicore(sharded.programs, machine=machine, engine=ENGINE)
        speedup = multi.speedup_over(baseline.core_cycles)
        assert multi.contended
        assert speedup < 4.0  # far sub-linear: the shared channel saturates
        assert multi.bandwidth_utilization > 0.9

    def test_idle_cores_show_up_as_load_imbalance(self):
        # 16 cores row-block over an 8-row block grid: half the cores idle.
        shape = GemmShape(m=256, n=256, k=256)
        sharded = shard_kernel("gemm", shape, SparsityPattern.DENSE_4_4, 16, "row-block")
        multi = simulate_multicore(sharded.programs, engine=ENGINE)
        assert sharded.tiles_per_core.count(0) == 8
        assert multi.load_imbalance > 1.9

    def test_2d_cyclic_beats_row_block_when_rows_run_out(self):
        shape = GemmShape(m=256, n=256, k=256)
        row = simulate_multicore(
            shard_kernel("gemm", shape, SparsityPattern.DENSE_4_4, 16, "row-block").programs,
            engine=ENGINE,
        )
        cyclic = simulate_multicore(
            shard_kernel("gemm", shape, SparsityPattern.DENSE_4_4, 16, "2d-cyclic").programs,
            engine=ENGINE,
        )
        assert cyclic.core_cycles < row.core_cycles


class TestSharedMemory:
    def test_default_supply_mirrors_private_effective_rate(self):
        machine = default_machine()
        # 94 GB/s at 2 GHz = 47 B/cycle; the private model charges whole
        # cycles per 64 B line, so the effective shared rate is 1 line/cycle.
        assert flat_topology().lines_per_cycle(machine) == 1.0

    def test_explicit_bandwidth_uses_nominal_rate(self):
        machine = default_machine()
        root = TopologyNode(name="dram", level="dram", bandwidth_gbps=64.0, cores=1)
        assert root.lines_per_cycle(machine) == pytest.approx(0.5)

    def test_empty_program_list_rejected(self):
        with pytest.raises(SimulationError):
            simulate_multicore([])

    def test_result_reports_per_core_state(self):
        sharded = shard_kernel(
            "gemm", GemmShape(m=64, n=64, k=256), SparsityPattern.DENSE_4_4, 2
        )
        multi = simulate_multicore(sharded.programs, engine=ENGINE)
        assert isinstance(multi, MulticoreSimulationResult)
        assert multi.cores == 2
        assert len(multi.private_cycles) == 2
        assert multi.runtime_seconds > 0
        assert multi.memory_counters["l1_hits"] == sum(
            result.memory_counters["l1_hits"] for result in multi.per_core
        )


class TestRearbitration:
    """Private results do not depend on the topology: re-arbitrating one
    topology's per-core results under the flat preset (the ``scaling``
    sweep's numa leg) equals a fresh flat simulation in every field."""

    @pytest.mark.parametrize("memo", [True, False])
    @pytest.mark.parametrize("machine", [default_machine, memory_bound_machine])
    def test_flat_rearbitration_equals_flat_simulation(self, machine, memo):
        machine = machine()
        topology = dual_socket_machine()
        programs = shard_kernel(
            "gemm",
            GemmShape(m=128, n=128, k=256),
            SparsityPattern.DENSE_4_4,
            8,
            "2d-cyclic",
            topology=topology,
        ).programs
        result = simulate_multicore(
            programs, machine=machine, engine=ENGINE, topology=topology, memo=memo
        )
        rearbitrated = arbitrate_cores(
            programs, result.per_core, machine=machine, engine=ENGINE, topology=flat_topology()
        )
        fresh = simulate_multicore(programs, machine=machine, engine=ENGINE, memo=memo)
        for field in dataclasses.fields(MulticoreSimulationResult):
            assert getattr(rearbitrated, field.name) == getattr(fresh, field.name), field.name
