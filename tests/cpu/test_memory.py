"""Tests for the memory system (bandwidth + hierarchy)."""

import pytest

from repro.cpu.memory import MemorySystem
from repro.cpu.params import default_machine, memory_bound_machine
from repro.errors import SimulationError


class TestMemorySystem:
    def test_tile_load_touches_16_lines(self):
        memory = MemorySystem(default_machine())
        result = memory.request(0x10000, 1024, cycle=0)
        assert result.lines == 16

    def test_prefetched_region_hits_l2(self):
        # The default machine carries the paper's ideal L2 prefetch.
        memory = MemorySystem(default_machine())
        result = memory.request(0x10000, 1024, cycle=0)
        assert result.dram_lines == 0
        assert result.l2_hits == 16
        assert result.latency == 15 + default_machine().l2.hit_latency

    def test_cold_region_goes_to_dram(self):
        machine = memory_bound_machine()
        memory = MemorySystem(machine)
        result = memory.request(0x20000, 64, cycle=0)
        assert result.dram_lines == 1
        assert result.latency >= machine.memory.dram_latency_cycles

    def test_second_touch_hits_the_l2_without_prefetch(self):
        memory = MemorySystem(memory_bound_machine())
        memory.request(0x0, 64 * 1024, cycle=0)  # evicts 0x0 from the 48 KB L1
        result = memory.request(0x0, 64, cycle=10_000)
        assert result.l2_hits == 1 and result.dram_lines == 0

    def test_l2_port_serialises_lines(self):
        memory = MemorySystem(default_machine())
        result = memory.request(0x0, 4096, cycle=0)
        # 64 lines at one per cycle plus the L2 hit latency for the last line.
        assert result.latency >= 64

    def test_repeated_access_hits_l1_and_gets_faster(self):
        memory = MemorySystem(default_machine())
        first = memory.request(0x0, 1024, cycle=0)
        second = memory.request(0x0, 1024, cycle=first.complete_cycle)
        assert second.latency <= first.latency
        assert second.l1_hits == 16

    def test_counters_accumulate(self):
        memory = MemorySystem(default_machine())
        memory.request(0x0, 128, cycle=0)
        memory.request(0x1000, 128, cycle=10)
        counters = memory.counters()
        assert counters["total_requests"] == 2
        assert counters["total_bytes"] == 256

    def test_invalid_request_rejected(self):
        memory = MemorySystem(default_machine())
        with pytest.raises(SimulationError):
            memory.request(0x0, 0, cycle=0)
