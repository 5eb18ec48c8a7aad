"""Tests for the recursive bandwidth topology (tree, placement, arbiter).

The load-bearing invariant: the ``flat`` preset (a recursive model with one
level) is *bit-identical* — cycles, cache counters, contention flags — to
the pre-refactor flat pool and its two-resource arbiter.  The reference
implementation of that pool (its supply rules, the flat shared-L3 analytic
and the arbiter) is embedded below verbatim, so the equivalence is checked
against the real pre-refactor math, not against the refactored code itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_ops import footprint_lines

from repro.analysis.runtime import resolve_engine
from repro.cpu.multicore import clear_simulation_memo, simulate_multicore
from repro.cpu.params import (
    TOPOLOGY_PRESETS,
    chiplet_machine,
    default_machine,
    dual_socket_machine,
    flat_topology,
    get_topology,
    memory_bound_machine,
)
from repro.cpu.simulator import CycleApproximateSimulator
from repro.cpu.topology import (
    TopologyNode,
    arbitrate_topology,
    place_cores,
    resolve_traffic,
)
from repro.errors import ConfigurationError, SimulationError
from repro.kernels.sharding import shard_kernel
from repro.types import GemmShape, SparsityPattern

ENGINE = resolve_engine("VEGETA-S-16-2+OF+SPGEMM")

#: Every kernel kind x partition strategy the flat-equivalence test pins.
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


# -- the pre-refactor reference implementation --------------------------------

#: The pre-refactor flat pool's defaults: a 32 MB shared L3 at 128 B/cycle
#: over a DRAM channel that mirrors the private simulator's line rate.
LEGACY_L3_CAPACITY_BYTES = 32 * 1024 * 1024
LEGACY_L3_BYTES_PER_CYCLE = 128.0


def legacy_dram_lines_per_cycle(machine, dram_bandwidth_gbps=None):
    """The pre-refactor flat pool's DRAM supply rule, kept verbatim.

    Without an explicit bandwidth the supply mirrors the private simulator's
    effective line rate (whole-cycle service time per DRAM line).
    """
    line_bytes = machine.l1.line_bytes
    if dram_bandwidth_gbps is None:
        bytes_per_cycle = max(1.0, machine.memory.dram_bytes_per_core_cycle)
        service_cycles = int(line_bytes / bytes_per_cycle)
        return 1.0 / service_cycles if service_cycles > 0 else math.inf
    bytes_per_cycle = dram_bandwidth_gbps / machine.core.frequency_ghz
    return bytes_per_cycle / line_bytes


def legacy_l3_lines_per_cycle(machine, l3_bytes_per_cycle=LEGACY_L3_BYTES_PER_CYCLE):
    """The pre-refactor flat pool's shared-L3 port supply rule, kept verbatim."""
    return l3_bytes_per_cycle / machine.l1.line_bytes


def flat_tree(l3_capacity_bytes, dram_bandwidth_gbps=None, cores=1):
    """A one-level tree with the flat pool's shape and the given parameters."""
    return TopologyNode(
        name="dram",
        level="dram",
        bandwidth_gbps=dram_bandwidth_gbps,
        children=(
            TopologyNode(
                name="l3",
                level="l3",
                capacity_bytes=l3_capacity_bytes,
                bytes_per_cycle=LEGACY_L3_BYTES_PER_CYCLE,
                cores=cores,
            ),
        ),
    )


def legacy_arbitrate(
    core_cycles,
    dram_lines,
    l3_lines,
    *,
    dram_lines_per_cycle,
    l3_lines_per_cycle,
):
    """The pre-refactor two-resource fluid arbiter, kept verbatim."""
    cores = len(core_cycles)
    dram_rates = [
        dram_lines[i] / core_cycles[i] if core_cycles[i] else 0.0
        for i in range(cores)
    ]
    l3_rates = [
        l3_lines[i] / core_cycles[i] if core_cycles[i] else 0.0
        for i in range(cores)
    ]
    remaining = [float(cycles) for cycles in core_cycles]
    finish = [0.0] * cores
    active = [i for i in range(cores) if remaining[i] > 0]
    wall = 0.0
    contended = False
    while active:
        dram_demand = sum(dram_rates[i] for i in active)
        l3_demand = sum(l3_rates[i] for i in active)
        dram_throttle = (
            min(1.0, dram_lines_per_cycle / dram_demand) if dram_demand > 0 else 1.0
        )
        l3_throttle = (
            min(1.0, l3_lines_per_cycle / l3_demand) if l3_demand > 0 else 1.0
        )
        if min(dram_throttle, l3_throttle) < 1.0:
            contended = True
        factors = {}
        for i in active:
            factor = 1.0
            if dram_rates[i] > 0.0:
                factor = min(factor, dram_throttle)
            if l3_rates[i] > 0.0:
                factor = min(factor, l3_throttle)
            factors[i] = factor
        step = min(remaining[i] / factors[i] for i in active)
        wall += step
        still_active = []
        for i in active:
            remaining[i] -= factors[i] * step
            if remaining[i] <= 1e-9:
                remaining[i] = 0.0
                finish[i] = wall
            else:
                still_active.append(i)
        active = still_active
    finish_cycles = [
        int(math.ceil(value - 1e-6)) if value > 0 else 0 for value in finish
    ]
    makespan = max(finish_cycles) if finish_cycles else 0
    return finish_cycles, makespan, contended


def legacy_flat_filter(private_dram, footprints, line_bytes, l3_capacity_bytes):
    """The pre-refactor flat shared-L3 capacity analytic, kept verbatim.

    Returns (dram_lines, l3_hit_lines); the shared-L3 port demand stays the
    unfiltered private line counts (a hit still consumed the port).
    """
    combined_lines = (
        int(np.unique(np.concatenate(footprints)).size) if footprints else 0
    )
    combined_bytes = combined_lines * line_bytes
    fit = (
        min(1.0, l3_capacity_bytes / combined_bytes) if combined_bytes else 1.0
    )
    dram_lines, l3_hit_lines = [], []
    for lines, footprint in zip(private_dram, footprints):
        capacity_misses = max(0, lines - int(footprint.size))
        hits = int(capacity_misses * fit)
        l3_hit_lines.append(hits)
        dram_lines.append(lines - hits)
    return dram_lines, l3_hit_lines


# -- tree structure -----------------------------------------------------------


class TestTopologyNode:
    def test_leaf_and_interior_shape_is_enforced(self):
        with pytest.raises(SimulationError):
            TopologyNode(name="x", level="l3")  # neither children nor cores
        leaf = TopologyNode(name="leaf", level="l3", cores=4)
        with pytest.raises(SimulationError):
            TopologyNode(name="x", level="dram", children=(leaf,), cores=4)

    def test_parameter_validation(self):
        with pytest.raises(SimulationError):
            TopologyNode(name="", level="l3", cores=4)
        with pytest.raises(SimulationError):
            TopologyNode(name="x", level="l3", cores=4, capacity_bytes=0)
        with pytest.raises(SimulationError):
            TopologyNode(name="x", level="l3", cores=4, bytes_per_cycle=-1.0)
        with pytest.raises(SimulationError):
            TopologyNode(name="x", level="dram", cores=4, bandwidth_gbps=0.0)
        with pytest.raises(SimulationError):
            TopologyNode(name="x", level="l3", cores=4, bandwidth_scale=0.0)

    def test_duplicate_names_rejected(self):
        leaves = tuple(
            TopologyNode(name="slice", level="l3", cores=2) for _ in range(2)
        )
        with pytest.raises(SimulationError, match="duplicate"):
            TopologyNode(name="dram", level="dram", children=leaves)

    def test_walk_paths_and_structure(self):
        tree = dual_socket_machine()
        paths = [path for path, _ in tree.walk()]
        assert paths[0] == "dram"
        assert "dram/socket0/l3-00" in paths
        assert "dram/socket1/l3-11" in paths
        assert len(tree.leaves()) == 4
        assert tree.total_cores == 128
        levels = {path.count("/"): node.level for path, node in tree.walk()}
        assert levels == {0: "dram", 1: "interconnect", 2: "l3"}

    def test_flat_supply_matches_legacy_rules(self):
        # The flat preset (and a flat tree with an explicit DRAM bandwidth)
        # must resolve the exact same lines/cycle supplies as the
        # pre-refactor flat pool, on both machines.
        for machine in (default_machine(), memory_bound_machine()):
            for tree, bandwidth in (
                (flat_topology(), None),
                (flat_tree(LEGACY_L3_CAPACITY_BYTES, dram_bandwidth_gbps=100.0), 100.0),
            ):
                (l3_node,) = tree.children
                assert l3_node.capacity_bytes == LEGACY_L3_CAPACITY_BYTES
                assert tree.lines_per_cycle(machine) == legacy_dram_lines_per_cycle(
                    machine, bandwidth
                )
                assert l3_node.lines_per_cycle(machine) == legacy_l3_lines_per_cycle(
                    machine
                )

    def test_bandwidth_scale_multiplies_the_mirrored_rate(self):
        machine = default_machine()
        base = TopologyNode(name="a", level="dram", cores=1)
        scaled = TopologyNode(name="b", level="dram", cores=1, bandwidth_scale=2.0)
        assert scaled.lines_per_cycle(machine) == 2.0 * base.lines_per_cycle(machine)


class TestPresets:
    def test_registry(self):
        assert list(TOPOLOGY_PRESETS) == ["flat", "dual-socket", "chiplet"]
        for name in TOPOLOGY_PRESETS:
            assert get_topology(name).total_cores == 128

    def test_unknown_preset_names_the_known_ones(self):
        with pytest.raises(ConfigurationError, match="dual-socket"):
            get_topology("torus")

    def test_preset_depths(self):
        def depth(tree):
            return 1 + max(path.count("/") for path, _ in tree.walk())

        assert depth(flat_topology()) == 2
        assert depth(dual_socket_machine()) == 3
        assert depth(chiplet_machine()) == 3

    def test_every_preset_level_supplies_the_mirrored_rate(self):
        # The basis of the cores=1 invariance: no level of any preset
        # supplies less than the private simulator's own DRAM line rate, so
        # a single core can never oversubscribe any path.
        for machine in (default_machine(), memory_bound_machine()):
            mirror = legacy_dram_lines_per_cycle(machine)
            for name in TOPOLOGY_PRESETS:
                for _, node in get_topology(name).walk():
                    assert node.lines_per_cycle(machine) >= mirror


# -- core placement -----------------------------------------------------------


class TestPlacement:
    def test_single_core_lands_on_the_first_leaf(self):
        for name in TOPOLOGY_PRESETS:
            placement = place_cores(get_topology(name), 1)
            assert placement.leaf_index == (0,)

    def test_flat_topology_is_one_domain(self):
        placement = place_cores(flat_topology(), 128)
        assert set(placement.leaf_index) == {0}
        assert placement.paths[0] == "l3"

    def test_full_dual_socket_split_is_even_and_contiguous(self):
        placement = place_cores(dual_socket_machine(), 128)
        assert placement.domain_sizes() == [32, 32, 32, 32]
        assert list(placement.leaf_index) == sorted(placement.leaf_index)
        assert placement.paths[0] == "socket0/l3-00"
        assert placement.paths[-1] == "socket1/l3-11"

    def test_partial_and_oversubscribed_counts_stay_proportional(self):
        tree = chiplet_machine()
        for count in (2, 8, 16, 100, 256):
            placement = place_cores(tree, count)
            assert placement.cores == count
            assert list(placement.leaf_index) == sorted(placement.leaf_index)
            sizes = placement.domain_sizes()
            assert sum(sizes) == count
            # Proportional split: no populated domain more than one core
            # apart from the perfectly even share of its slot weight.
            if count >= len(tree.leaves()):
                assert max(sizes) - min(sizes) <= 1

    def test_placement_requires_cores(self):
        with pytest.raises(SimulationError):
            place_cores(flat_topology(), 0)


# -- the generalized arbiter vs the pre-refactor reference --------------------


@st.composite
def arbiter_cases(draw):
    cores = draw(st.integers(min_value=1, max_value=6))
    core_cycles = draw(
        st.lists(
            st.integers(min_value=0, max_value=5000), min_size=cores, max_size=cores
        )
    )
    dram = draw(
        st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=cores, max_size=cores
        )
    )
    l3 = draw(
        st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=cores, max_size=cores
        )
    )
    supply = st.floats(
        min_value=0.01, max_value=64.0, allow_nan=False, allow_infinity=False
    )
    return core_cycles, dram, l3, draw(supply), draw(supply)


class TestArbiterEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(case=arbiter_cases())
    def test_two_resource_case_is_bit_identical_to_legacy(self, case):
        core_cycles, dram, l3, dram_rate, l3_rate = case
        expected_finish, expected_makespan, expected_contended = legacy_arbitrate(
            core_cycles,
            dram,
            l3,
            dram_lines_per_cycle=dram_rate,
            l3_lines_per_cycle=l3_rate,
        )
        outcome = arbitrate_topology(
            core_cycles,
            demands=[dram, l3],
            supplies=[dram_rate, l3_rate],
            names=["dram", "l3"],
        )
        assert outcome.finish_cycles == expected_finish
        assert outcome.makespan == expected_makespan
        assert outcome.contended == expected_contended

    def test_mismatched_inputs_are_rejected(self):
        with pytest.raises(SimulationError):
            arbitrate_topology([10, 10], [[1, 2]], [1.0, 2.0], ["a", "b"])
        with pytest.raises(SimulationError):
            arbitrate_topology([10, 10], [[1]], [1.0], ["a"])

    def test_saturated_resources_are_reported_by_name(self):
        outcome = arbitrate_topology(
            [100, 100],
            demands=[[400, 400], [1, 1]],
            supplies=[1.0, 100.0],
            names=["link", "l3"],
        )
        assert outcome.contended
        assert outcome.saturated == ["link"]


@st.composite
def flat_traffic_cases(draw):
    cores = draw(st.integers(min_value=1, max_value=5))
    core_cycles = draw(
        st.lists(
            st.integers(min_value=1, max_value=5000), min_size=cores, max_size=cores
        )
    )
    traffic = draw(
        st.lists(
            st.integers(min_value=0, max_value=2000), min_size=cores, max_size=cores
        )
    )
    footprints = []
    for _ in range(cores):
        start = draw(st.integers(min_value=0, max_value=200))
        size = draw(st.integers(min_value=0, max_value=300))
        footprints.append(np.arange(start, start + size, dtype=np.int64))
    capacity = draw(st.integers(min_value=1, max_value=1 << 14))
    return core_cycles, traffic, footprints, capacity


class TestFlatTrafficEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(case=flat_traffic_cases())
    def test_one_level_resolution_matches_the_legacy_analytic(self, case):
        # The ISSUE's property: a recursive topology with one level and flat
        # parameters filters and arbitrates bit-identically to the
        # pre-refactor shared-L3 analytic + two-resource arbiter.
        core_cycles, private_dram, footprints, capacity = case
        machine = default_machine()
        topology = flat_tree(capacity, cores=len(core_cycles))
        placement = place_cores(topology, len(core_cycles))
        traffic = resolve_traffic(
            topology, machine, placement, private_dram, footprints
        )
        expected_dram, expected_hits = legacy_flat_filter(
            private_dram, footprints, machine.l1.line_bytes, capacity
        )
        assert traffic.root_lines == expected_dram
        assert traffic.hit_lines == expected_hits
        # The L3 port sees the unfiltered lines; DRAM the filtered ones.
        assert traffic.names == ["l3", "dram"]
        assert traffic.demands[0] == list(private_dram)
        assert traffic.demands[1] == expected_dram

        outcome = arbitrate_topology(
            core_cycles, traffic.demands, traffic.supplies, traffic.names
        )
        expected_finish, expected_makespan, expected_contended = legacy_arbitrate(
            core_cycles,
            expected_dram,
            list(private_dram),
            dram_lines_per_cycle=legacy_dram_lines_per_cycle(machine),
            l3_lines_per_cycle=legacy_l3_lines_per_cycle(machine),
        )
        assert outcome.finish_cycles == expected_finish
        assert outcome.makespan == expected_makespan
        assert outcome.contended == expected_contended


class TestTrafficDomains:
    @pytest.mark.parametrize("count", [1, 3, 8, 200])
    @pytest.mark.parametrize("name", list(TOPOLOGY_PRESETS))
    def test_resources_are_the_populated_nodes_children_first(self, name, count):
        topology = get_topology(name)
        placement = place_cores(topology, count)
        leaves = topology.leaves()

        def placed_under(node):
            subtree = [candidate for _, candidate in node.walk()]
            return [
                core
                for core, leaf in enumerate(placement.leaf_index)
                if any(leaves[leaf] is candidate for candidate in subtree)
            ]

        populated = []

        def postorder(node):
            for child in node.children:
                postorder(child)
            if placed_under(node):
                populated.append(node)

        postorder(topology)
        # Every core sends traffic and has a non-empty footprint, so no
        # cache can filter its demand to zero.
        traffic = resolve_traffic(
            topology,
            default_machine(),
            placement,
            [8 + core for core in range(count)],
            [np.arange(core, core + 4, dtype=np.int64) for core in range(count)],
        )
        assert traffic.names == [node.name for node in populated]
        for row, node in zip(traffic.demands, populated):
            assert [core for core, lines in enumerate(row) if lines] == placed_under(node)


# -- full-pipeline flat equivalence per kernel x strategy ---------------------

#: Both spellings of the flat pool: no topology, and the named preset.
FLAT_TOPOLOGIES = {"default": lambda: None, "preset": lambda: get_topology("flat")}


class TestFlatPipelineBitIdentity:
    @pytest.mark.parametrize("flat", sorted(FLAT_TOPOLOGIES))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("kind,pattern", KERNEL_KINDS)
    def test_flat_default_matches_legacy_reference(self, kind, pattern, strategy, flat):
        sharded = shard_kernel(kind, GemmShape(64, 64, 256), pattern, 4, strategy)
        machine = default_machine()
        result = simulate_multicore(
            sharded.programs,
            machine=machine,
            engine=ENGINE,
            topology=FLAT_TOPOLOGIES[flat](),
        )

        line_bytes = machine.l1.line_bytes
        simulator = CycleApproximateSimulator(machine=machine, engine=ENGINE)
        per_core = [
            simulator.run(program.trace)
            for program in sharded.programs
        ]
        footprints = [
            footprint_lines(program.trace.ops(), line_bytes) for program in sharded.programs
        ]
        private_dram = [
            r.memory_counters.get("dram_line_requests", 0) for r in per_core
        ]
        expected_dram, expected_hits = legacy_flat_filter(
            private_dram, footprints, line_bytes, LEGACY_L3_CAPACITY_BYTES
        )
        expected_finish, expected_makespan, expected_contended = legacy_arbitrate(
            [r.core_cycles for r in per_core],
            expected_dram,
            private_dram,
            dram_lines_per_cycle=legacy_dram_lines_per_cycle(machine),
            l3_lines_per_cycle=legacy_l3_lines_per_cycle(machine),
        )
        assert result.core_cycles == expected_makespan
        assert result.finish_cycles == expected_finish
        assert result.contended == expected_contended
        assert result.dram_lines == expected_dram
        assert result.l3_hit_lines == expected_hits
        assert result.memory_counters["l3_hit_lines"] == sum(expected_hits)
        assert result.memory_counters["shared_dram_lines"] == sum(expected_dram)

    def test_contended_membound_case_matches_legacy(self):
        machine = memory_bound_machine()
        sharded = shard_kernel(
            "gemm", GemmShape(64, 64, 512), SparsityPattern.DENSE_4_4, 8, "row-block"
        )
        result = simulate_multicore(
            sharded.programs, machine=machine, engine=ENGINE
        )
        assert result.contended

        line_bytes = machine.l1.line_bytes
        private_dram = [
            r.memory_counters.get("dram_line_requests", 0) for r in result.per_core
        ]
        footprints = [
            footprint_lines(program.trace.ops(), line_bytes) for program in sharded.programs
        ]
        expected_dram, _ = legacy_flat_filter(
            private_dram, footprints, line_bytes, LEGACY_L3_CAPACITY_BYTES
        )
        expected_finish, expected_makespan, expected_contended = legacy_arbitrate(
            [r.core_cycles for r in result.per_core],
            expected_dram,
            private_dram,
            dram_lines_per_cycle=legacy_dram_lines_per_cycle(machine),
            l3_lines_per_cycle=legacy_l3_lines_per_cycle(machine),
        )
        assert result.core_cycles == expected_makespan
        assert result.finish_cycles == expected_finish
        assert result.contended == expected_contended
        assert result.saturated  # the flat DRAM channel was the bottleneck


# -- cores=1 invariance under every preset ------------------------------------


class TestSingleCoreInvariance:
    @pytest.mark.parametrize("preset", sorted(TOPOLOGY_PRESETS))
    @pytest.mark.parametrize("kind,pattern", KERNEL_KINDS)
    def test_one_core_matches_the_private_simulation(self, preset, kind, pattern):
        sharded = shard_kernel(kind, GemmShape(64, 64, 256), pattern, 1)
        single = CycleApproximateSimulator(engine=ENGINE).run(sharded.programs[0].trace)
        multi = simulate_multicore(
            sharded.programs, engine=ENGINE, topology=get_topology(preset)
        )
        assert multi.core_cycles == single.core_cycles
        assert multi.finish_cycles == [single.core_cycles]
        assert not multi.contended
        assert len(set(multi.placement.leaf_index)) == 1

    @pytest.mark.parametrize("preset", sorted(TOPOLOGY_PRESETS))
    def test_one_core_invariance_holds_on_the_membound_machine(self, preset):
        machine = memory_bound_machine()
        sharded = shard_kernel(
            "gemm", GemmShape(64, 64, 512), SparsityPattern.DENSE_4_4, 1
        )
        simulator = CycleApproximateSimulator(machine=machine, engine=ENGINE)
        single = simulator.run(sharded.programs[0].trace)
        multi = simulate_multicore(
            sharded.programs,
            machine=machine,
            engine=ENGINE,
            topology=get_topology(preset),
        )
        assert multi.core_cycles == single.core_cycles
        assert not multi.contended


# -- topology semantics -------------------------------------------------------


class TestTopologySemantics:
    def test_dual_socket_relieves_the_membound_bottleneck(self):
        # Two memory channels vs one: the dual-socket tree must beat the
        # flat pool on a bandwidth-bound kernel sharded across both sockets.
        machine = memory_bound_machine()
        sharded = shard_kernel(
            "gemm", GemmShape(512, 64, 512), SparsityPattern.DENSE_4_4, 8, "row-block"
        )
        assert min(len(p.trace) for p in sharded.programs) > 0
        flat = simulate_multicore(sharded.programs, machine=machine, engine=ENGINE)
        numa = simulate_multicore(
            sharded.programs,
            machine=machine,
            engine=ENGINE,
            topology=dual_socket_machine(),
        )
        assert flat.contended
        assert numa.core_cycles < flat.core_cycles
        assert len(set(numa.placement.leaf_index)) > 1
        assert 0.0 < numa.level_utilization["interconnect"] <= 1.0
        assert set(numa.node_utilization) >= {"dram", "socket0", "socket1"}

    def test_memoized_cores_are_reused_across_topologies(self, monkeypatch):
        # The signature key is topology-independent on purpose: sweeping the
        # topology axis must not re-simulate a single core.
        sharded = shard_kernel(
            "gemm", GemmShape(256, 256, 256), SparsityPattern.DENSE_4_4, 8, "row-block"
        )
        runs = []
        original = CycleApproximateSimulator.run

        def counting_run(self, trace, **kwargs):
            runs.append(len(trace))
            return original(self, trace, **kwargs)

        monkeypatch.setattr(CycleApproximateSimulator, "run", counting_run)
        simulate_multicore(sharded.programs, engine=ENGINE)
        first = len(runs)
        assert first > 0
        simulate_multicore(
            sharded.programs, engine=ENGINE, topology=dual_socket_machine()
        )
        simulate_multicore(
            sharded.programs, engine=ENGINE, topology=chiplet_machine()
        )
        assert len(runs) == first


# -- the arbiter backstop -----------------------------------------------------


class TestArbiterBackstop:
    def test_exceeding_max_steps_names_the_congested_resource(self):
        # Two cores with different lengths need two completion steps; a
        # one-step budget must fail loudly and name the bottleneck.
        with pytest.raises(SimulationError) as excinfo:
            arbitrate_topology(
                [100, 200],
                demands=[[100, 200]],
                supplies=[0.5],
                names=["socket0"],
                max_steps=1,
            )
        message = str(excinfo.value)
        assert "exceeded 1 time steps" in message
        assert "'socket0'" in message
        assert "supply 0.5" in message
