"""Tests for the set-associative cache and two-level hierarchy."""

import pytest

from repro.cpu.cache import Cache, CacheHierarchy
from repro.cpu.params import CacheParams
from repro.errors import ConfigurationError


def small_cache(capacity=1024, associativity=2, line=64):
    return Cache(CacheParams(name="test", capacity_bytes=capacity, associativity=associativity, line_bytes=line))


class TestCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(0x100)
        assert cache.access(0x100)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_same_line_different_offsets_hit(self):
        cache = small_cache()
        cache.access(0x100)
        assert cache.access(0x13F)

    def test_lru_eviction(self):
        # 2-way, 8 sets, 64B lines: three lines mapping to the same set evict the LRU.
        cache = small_cache()
        sets = cache.params.num_sets
        line = cache.params.line_bytes
        a, b, c = 0, sets * line, 2 * sets * line
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a becomes MRU
        cache.access(c)  # evicts b
        assert cache.contains(a)
        assert not cache.contains(b)
        assert cache.stats.evictions == 1

    def test_fill_installs_without_lookup_stats(self):
        cache = small_cache()
        for address in (0x0, 0x40):
            cache.fill(address)
        assert cache.stats.misses == 0
        assert cache.access(0x0)

    def test_flush(self):
        cache = small_cache()
        cache.access(0x0)
        cache.flush()
        assert cache.resident_lines == 0

    def test_hit_rate(self):
        cache = small_cache()
        cache.access(0x0)
        cache.access(0x0)
        cache.access(0x0)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_hit_rate_zero_without_accesses(self):
        assert small_cache().stats.hit_rate == 0.0


class TestHierarchy:
    def _hierarchy(self, ideal_prefetch=False):
        l1 = CacheParams(name="L1", capacity_bytes=4 * 1024, hit_latency=4)
        l2 = CacheParams(name="L2", capacity_bytes=64 * 1024, hit_latency=14)
        return CacheHierarchy(l1, l2, dram_latency=200, ideal_prefetch=ideal_prefetch)

    def test_cold_access_goes_to_dram(self):
        hierarchy = self._hierarchy()
        result = hierarchy.access_line(0x1000)
        assert result.level == "DRAM"
        assert result.latency == 200

    def test_second_access_hits_l1(self):
        hierarchy = self._hierarchy()
        hierarchy.access_line(0x1000)
        result = hierarchy.access_line(0x1000)
        assert result.level == "L1"
        assert result.latency == 4

    def test_ideal_prefetch_gives_l2_hits(self):
        hierarchy = self._hierarchy(ideal_prefetch=True)
        result = hierarchy.access_line(0x2000)
        assert result.level == "L2"
        assert result.latency == 14
        assert hierarchy.dram_line_requests == 0
        # The line was installed on demand: L2 fill, then the L2 hit.
        assert hierarchy.l2.stats.fills == 1 and hierarchy.l2.stats.hits == 1

    def test_l1_capacity_overflow_falls_back_to_l2(self):
        hierarchy = self._hierarchy()
        lines = 4 * 1024 // 64
        for index in range(lines * 2):
            hierarchy.access_line(index * 64)
        # Re-access the first line: it must have been evicted from L1 but kept in L2.
        result = hierarchy.access_line(0)
        assert result.level == "L2"

    def test_ideal_prefetch_survives_capacity_pressure(self):
        # The ideal prefetch is not subject to LRU eviction: a line stays
        # deliverable at L2 latency even after the whole L2 has been
        # streamed over and evicted it.
        hierarchy = self._hierarchy(ideal_prefetch=True)
        hierarchy.access_line(0x2000)
        lines = 64 * 1024 // 64
        for index in range(lines * 2):
            hierarchy.access_line(0x100000 + index * 64)
        assert not hierarchy.l2.contains(0x2000)
        assert hierarchy.l2.stats.evictions > 0
        assert hierarchy.access_line(0x2000).level == "L2"
        assert hierarchy.dram_line_requests == 0

    def test_ideal_prefetch_covers_smaller_l1_lines(self):
        # With l2.line_bytes > l1.line_bytes, both L1 halves of one 128-byte
        # L2 line are delivered at L2 latency: the odd L1 line too.
        l1 = CacheParams(name="L1", capacity_bytes=4 * 1024, line_bytes=64, hit_latency=4)
        l2 = CacheParams(name="L2", capacity_bytes=64 * 1024, line_bytes=128, hit_latency=14)
        hierarchy = CacheHierarchy(l1, l2, dram_latency=200, ideal_prefetch=True)
        assert hierarchy.access_line(64).level == "L2"
        assert hierarchy.access_line(0).level == "L2"
        assert hierarchy.dram_line_requests == 0
        assert hierarchy.l2.stats.fills == 1  # one 128-byte L2 line

    def test_l2_must_be_larger_than_l1(self):
        l1 = CacheParams(name="L1", capacity_bytes=64 * 1024)
        l2 = CacheParams(name="L2", capacity_bytes=4 * 1024)
        with pytest.raises(ConfigurationError):
            CacheHierarchy(l1, l2, dram_latency=100)

    def test_counters(self):
        hierarchy = self._hierarchy()
        hierarchy.access_line(0)
        hierarchy.access_line(0)
        counters = hierarchy.counters()
        assert counters["dram_line_requests"] == 1
        assert counters["l1_hits"] == 1
