"""Tests for the memory system (two LRU tag arrays, L2 port, DRAM channel).

Every request goes through :meth:`MemorySystem.complete`; where a line was
served is read from the counter deltas around the request.
"""

import pytest

from repro.cpu.memory import MemorySystem
from repro.cpu.params import (
    CacheParams,
    MachineParams,
    MemoryParams,
    default_machine,
    memory_bound_machine,
)
from repro.errors import SimulationError

L1_LATENCY, L2_LATENCY, DRAM_LATENCY = 4, 14, 200


def small_machine(prefetch=False, l1_ways=8, l2_line=64):
    """A 4 KB L1 of ``l1_ways`` ways in front of a 64 KB L2, 200-cycle DRAM."""
    return MachineParams(
        l1=CacheParams(
            name="L1", capacity_bytes=4 * 1024, associativity=l1_ways, hit_latency=L1_LATENCY
        ),
        l2=CacheParams(
            name="L2", capacity_bytes=64 * 1024, line_bytes=l2_line, hit_latency=L2_LATENCY
        ),
        memory=MemoryParams(dram_latency_cycles=DRAM_LATENCY),
        prefetch_into_l2=prefetch,
    )


def issue(memory, address, nbytes, cycle):
    """Issue one request; returns its latency and the counter deltas it caused."""
    before = memory.counters()
    latency = memory.complete(address, nbytes, cycle) - cycle
    after = memory.counters()
    return latency, {key: after[key] - before[key] for key in after}


class Probe:
    """Single-line requests, each issued after the previous one has drained."""

    def __init__(self, machine):
        self.memory = MemorySystem(machine)
        self.cycle = 0

    def __call__(self, address):
        """Access the line at ``address``; returns (latency, level)."""
        self.cycle += 10_000
        latency, delta = issue(self.memory, address, 1, self.cycle)
        if delta["l1_hits"]:
            return latency, "L1"
        return latency, "DRAM" if delta["dram_line_requests"] else "L2"


class TestLevels:
    def test_miss_then_hit(self):
        probe = Probe(small_machine())
        assert probe(0x100) == (DRAM_LATENCY, "DRAM")
        assert probe(0x100) == (L1_LATENCY, "L1")
        counters = probe.memory.counters()
        assert counters["l1_hits"] == 1 and counters["l1_misses"] == 1
        assert counters["dram_line_requests"] == 1

    def test_same_line_different_offsets_hit(self):
        probe = Probe(small_machine())
        probe(0x100)
        assert probe(0x13F) == (L1_LATENCY, "L1")

    def test_lru_eviction_in_one_set(self):
        # 2-way L1: three lines mapping to one set evict the LRU.
        machine = small_machine(l1_ways=2)
        probe = Probe(machine)
        span = machine.l1.num_sets * 64
        a, b, c = 0, span, 2 * span
        probe(a)
        probe(b)
        probe(a)  # a becomes MRU
        probe(c)  # evicts b
        assert probe(a)[1] == "L1"
        assert probe(b) == (L2_LATENCY, "L2")

    def test_l1_capacity_overflow_falls_back_to_l2(self):
        probe = Probe(small_machine())
        for index in range(2 * 4 * 1024 // 64):
            probe(index * 64)
        # The first line left the L1 but is still in the L2.
        assert probe(0) == (L2_LATENCY, "L2")

    def test_ideal_prefetch_gives_l2_hits(self):
        probe = Probe(small_machine(prefetch=True))
        assert probe(0x2000) == (L2_LATENCY, "L2")
        counters = probe.memory.counters()
        assert counters["l2_hits"] == 1 and counters["l2_misses"] == 0

    def test_ideal_prefetch_survives_capacity_pressure(self):
        # The ideal prefetch is not subject to LRU eviction: a line stays
        # deliverable at L2 latency after the whole L2 has been streamed
        # over and evicted it.
        probe = Probe(small_machine(prefetch=True))
        probe(0x2000)
        for index in range(2 * 64 * 1024 // 64):
            assert probe(0x100000 + index * 64) == (L2_LATENCY, "L2")
        assert probe(0x2000) == (L2_LATENCY, "L2")
        counters = probe.memory.counters()
        assert counters["dram_line_requests"] == 0 and counters["l2_misses"] == 0
        assert counters["l2_hits"] == counters["l1_misses"]

    def test_ideal_prefetch_covers_smaller_l1_lines(self):
        # With L2 lines twice the L1 line, both L1 halves of one 128-byte L2
        # line are delivered at L2 latency: the odd L1 line too.
        probe = Probe(small_machine(prefetch=True, l2_line=128))
        assert probe(64) == (L2_LATENCY, "L2")
        assert probe(0) == (L2_LATENCY, "L2")
        assert probe.memory.counters()["dram_line_requests"] == 0

    def test_l2_lines_twice_the_l1_line_without_prefetch(self):
        # The L2 is indexed at its own line size: the second L1 half of a
        # 128-byte L2 line is an L2 hit, not a second DRAM line.
        probe = Probe(small_machine(l2_line=128))
        assert probe(64)[1] == "DRAM"
        assert probe(0) == (L2_LATENCY, "L2")
        assert probe(128)[1] == "DRAM"
        assert probe.memory.counters()["dram_line_requests"] == 2


class TestMemorySystem:
    def test_tile_load_touches_16_lines(self):
        _, delta = issue(MemorySystem(default_machine()), 0x10000, 1024, 0)
        assert delta["l1_hits"] + delta["l1_misses"] == 16
        assert delta["total_requests"] == 1 and delta["total_bytes"] == 1024

    def test_prefetched_region_hits_l2(self):
        # The default machine carries the paper's ideal L2 prefetch.
        latency, delta = issue(MemorySystem(default_machine()), 0x10000, 1024, 0)
        assert delta["dram_line_requests"] == 0
        assert delta["l2_hits"] == 16
        assert latency == 15 + default_machine().l2.hit_latency

    def test_cold_region_goes_to_dram(self):
        machine = memory_bound_machine()
        latency, delta = issue(MemorySystem(machine), 0x20000, 64, 0)
        assert delta["dram_line_requests"] == 1 and delta["l2_misses"] == 1
        assert latency == machine.memory.dram_latency_cycles

    def test_second_touch_hits_the_l2_without_prefetch(self):
        memory = MemorySystem(memory_bound_machine())
        memory.complete(0x0, 64 * 1024, cycle=0)  # evicts 0x0 from the 48 KB L1
        _, delta = issue(memory, 0x0, 64, 10_000)
        assert delta["l2_hits"] == 1 and delta["dram_line_requests"] == 0

    def test_l2_port_serialises_lines(self):
        memory = MemorySystem(default_machine())
        # 64 lines at one per cycle plus the L2 hit latency for the last line.
        assert memory.complete(0x0, 4096, cycle=0) == 63 + default_machine().l2.hit_latency

    def test_dram_channel_serialises_lines(self):
        # 12 GB/s at 2 GHz is 6 B per core cycle: a 64-byte line holds the
        # channel for 10 cycles, so the 4th DRAM line is readied 30 cycles in.
        machine = memory_bound_machine()
        assert machine.memory.dram_bytes_per_core_cycle == 6.0
        latency, delta = issue(MemorySystem(machine), 0x0, 256, 0)
        assert delta["dram_line_requests"] == 4
        assert latency == 30 + machine.memory.dram_latency_cycles

    def test_repeated_access_hits_l1_and_gets_faster(self):
        memory = MemorySystem(default_machine())
        first, _ = issue(memory, 0x0, 1024, 0)
        second, delta = issue(memory, 0x0, 1024, first)
        assert second <= first
        assert delta["l1_hits"] == 16

    def test_shift_time_moves_both_clocks(self):
        machine = memory_bound_machine()
        shifted, plain = MemorySystem(machine), MemorySystem(machine)
        for memory in (shifted, plain):
            memory.complete(0x0, 4096, cycle=0)
        shifted.shift_time(1000)
        # Both clocks are busy past cycle 0; a shift delays the next request
        # by exactly the shift.
        assert shifted.complete(0x10000, 256, 0) == plain.complete(0x10000, 256, 0) + 1000

    def test_counters_accumulate(self):
        memory = MemorySystem(default_machine())
        memory.complete(0x0, 128, cycle=0)
        memory.complete(0x1000, 128, cycle=10)
        counters = memory.counters()
        assert list(counters) == [
            "l1_hits",
            "l1_misses",
            "l2_hits",
            "l2_misses",
            "dram_line_requests",
            "total_bytes",
            "total_requests",
        ]
        assert counters["total_requests"] == 2
        assert counters["total_bytes"] == 256

    def test_invalid_request_rejected(self):
        memory = MemorySystem(default_machine())
        for nbytes in (0, -64):
            with pytest.raises(SimulationError):
                memory.complete(0x0, nbytes, cycle=0)
