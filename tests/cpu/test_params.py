"""Tests for machine parameter validation."""

import dataclasses

import pytest

from repro.cpu.params import (
    TOPOLOGY_PRESETS,
    CacheParams,
    CoreParams,
    MachineParams,
    MemoryParams,
    default_machine,
    memory_bound_machine,
)
from repro.errors import ConfigurationError


class TestCoreParams:
    def test_defaults_match_evaluation_setup(self):
        core = default_machine().core
        assert core.frequency_ghz == 2.0
        assert core.matrix_engine_frequency_ghz == 0.5
        assert core.issue_width == 4
        assert core.rob_entries == 97
        assert core.load_buffer_entries == 96

    def test_engine_clock_ratio(self):
        assert default_machine().core.engine_clock_ratio == 4

    def test_engine_cannot_outpace_core(self):
        with pytest.raises(ConfigurationError):
            CoreParams(frequency_ghz=1.0, matrix_engine_frequency_ghz=2.0)

    def test_positive_widths_required(self):
        with pytest.raises(ConfigurationError):
            CoreParams(issue_width=0)

    def test_positive_buffers_required(self):
        with pytest.raises(ConfigurationError):
            CoreParams(rob_entries=0)


class TestCacheParams:
    def test_num_sets(self):
        cache = CacheParams(name="L1", capacity_bytes=32 * 1024, associativity=8)
        assert cache.num_sets == 64
        assert cache.num_sets * cache.associativity * cache.line_bytes == 32 * 1024

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            CacheParams(name="bad", capacity_bytes=1000, associativity=3)

    def test_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            CacheParams(name="bad", capacity_bytes=0)


class TestMemoryParams:
    def test_bandwidth_per_cycle(self):
        memory = MemoryParams(dram_bandwidth_gbps=94.0, core_frequency_ghz=2.0)
        assert memory.dram_bytes_per_core_cycle == pytest.approx(47.0)

    @pytest.mark.parametrize(
        "field, value",
        [("dram_bandwidth_gbps", 0.0), ("dram_bandwidth_gbps", -5.0), ("core_frequency_ghz", 0.0)],
    )
    def test_nonpositive_rates_rejected(self, field, value):
        # A non-positive DRAM rate used to be clamped to 1 B/cycle in silence.
        with pytest.raises(ConfigurationError):
            MemoryParams(**{field: value})
        with pytest.raises(ConfigurationError):
            dataclasses.replace(MemoryParams(), **{field: value})


class TestMachineParams:
    def test_default_machine_prefetches_into_l2(self):
        assert default_machine().prefetch_into_l2

    def test_l2_larger_than_l1(self):
        machine = default_machine()
        assert machine.l2.capacity_bytes > machine.l1.capacity_bytes


#: Machines the constructor rejects: name -> fields changed from the default.
INVALID_MACHINES = {
    # An L2 below the 48 KB L1: fast mode simulated it, exact mode raised.
    "l2-below-l1": {"l2": CacheParams(name="L2", capacity_bytes=16 * 1024, hit_latency=14)},
    # The DRAM rate reads memory.core_frequency_ghz: at 3 GHz it stayed 47 B/cycle.
    "core-clock-mismatch": {"core": CoreParams(frequency_ghz=3.0)},
    "memory-clock-mismatch": {"memory": MemoryParams(core_frequency_ghz=2.5)},
}


class TestMachineValidation:
    @pytest.mark.parametrize("name", sorted(INVALID_MACHINES))
    def test_rejected_through_every_constructor(self, name):
        changes = INVALID_MACHINES[name]
        with pytest.raises(ConfigurationError):
            MachineParams(**changes)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(default_machine(), **changes)
        data = default_machine().to_dict()
        data.update({field: dataclasses.asdict(value) for field, value in changes.items()})
        with pytest.raises(ConfigurationError):
            MachineParams.from_dict(data)

    @pytest.mark.parametrize("bandwidth", [0, -5])
    def test_nonpositive_dram_bandwidth_rejected_through_from_dict(self, bandwidth):
        data = memory_bound_machine().to_dict()
        data["memory"]["dram_bandwidth_gbps"] = bandwidth
        with pytest.raises(ConfigurationError):
            MachineParams.from_dict(data)

    def test_equal_l2_and_l1_capacity_is_allowed(self):
        l1 = default_machine().l1
        machine = MachineParams(l2=dataclasses.replace(l1, name="L2", hit_latency=14))
        assert machine.l2.capacity_bytes == machine.l1.capacity_bytes

    def test_matching_clocks_set_the_dram_rate(self):
        machine = MachineParams(
            core=CoreParams(frequency_ghz=3.0), memory=MemoryParams(core_frequency_ghz=3.0)
        )
        assert machine.memory.dram_bytes_per_core_cycle == pytest.approx(94.0 / 3.0)

    def test_shipped_machines_and_topologies_construct(self):
        for machine in (default_machine(), memory_bound_machine()):
            assert MachineParams.from_dict(machine.to_dict()) == machine
            assert list(machine.to_dict()) == ["core", "l1", "l2", "memory", "prefetch_into_l2"]
            assert list(machine.to_dict()["memory"]) == [
                "dram_latency_cycles",
                "dram_bandwidth_gbps",
                "core_frequency_ghz",
            ]
            for factory in TOPOLOGY_PRESETS.values():
                assert factory().lines_per_cycle(machine) > 0
