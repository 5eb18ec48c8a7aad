"""Set-associative cache model with LRU replacement.

The simulator needs per-access hit/miss decisions to attribute latency to
tile and vector loads.  The model tracks tags only (data lives in the
functional :class:`~repro.core.memory_image.ByteMemory`), supports LRU
replacement, and exposes the counters the benchmarks report (hits, misses,
evictions).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ConfigurationError
from .params import CacheParams


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    fills: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0 when there were no accesses)."""
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """A single level of set-associative, write-allocate, LRU cache."""

    def __init__(self, params: CacheParams) -> None:
        self.params = params
        self.stats = CacheStats()
        # One ordered dict (tag -> True) per set; order encodes recency.
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(params.num_sets)
        ]
        # Hot-path geometry, resolved once (the properties recompute).
        self._line_bytes = params.line_bytes
        self._num_sets = params.num_sets
        self._associativity = params.associativity

    def _locate(self, address: int) -> Tuple[int, int]:
        line = address // self._line_bytes
        set_index = line % self._num_sets
        tag = line // self._num_sets
        return set_index, tag

    def lookup(self, address: int) -> bool:
        """Probe the cache; returns True on hit and updates LRU state."""
        set_index, tag = self._locate(address)
        target_set = self._sets[set_index]
        if tag in target_set:
            target_set.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, address: int) -> bool:
        """Install the line containing ``address``; returns True if it evicted."""
        set_index, tag = self._locate(address)
        target_set = self._sets[set_index]
        evicted = False
        if tag in target_set:
            target_set.move_to_end(tag)
            return False
        if len(target_set) >= self._associativity:
            target_set.popitem(last=False)
            self.stats.evictions += 1
            evicted = True
        target_set[tag] = True
        self.stats.fills += 1
        return evicted

    def access(self, address: int) -> bool:
        """Lookup followed by fill-on-miss; returns True on hit."""
        hit = self.lookup(address)
        if not hit:
            self.fill(address)
        return hit

    def contains(self, address: int) -> bool:
        """Non-destructive residency check (does not update LRU or stats)."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    def flush(self) -> None:
        """Invalidate every line and keep the statistics."""
        for target_set in self._sets:
            target_set.clear()

    @property
    def resident_lines(self) -> int:
        """Number of lines currently installed."""
        return sum(len(target_set) for target_set in self._sets)


@dataclass
class AccessResult:
    """Latency breakdown of one memory access through the hierarchy."""

    latency: int
    level: str
    l1_hit: bool
    l2_hit: bool


class CacheHierarchy:
    """Two-level cache hierarchy in front of DRAM.

    ``ideal_prefetch`` models the paper's "data has been prefetched to the L2
    cache" assumption (Section VI-B) as an *ideal prefetcher*: an L1 miss to
    a line the L2 does not hold installs the line in the L2 and is delivered
    at L2-hit latency instead of paying the DRAM round trip.  Installing on
    demand (rather than bulk-filling the L2 arrays up front) keeps the
    assumption meaningful for kernels whose footprint exceeds the L2
    capacity — a bulk preload would simply evict itself.
    """

    def __init__(
        self,
        l1: CacheParams,
        l2: CacheParams,
        dram_latency: int,
        ideal_prefetch: bool = False,
    ) -> None:
        if l2.capacity_bytes < l1.capacity_bytes:
            raise ConfigurationError("L2 must be at least as large as L1")
        self.l1 = Cache(l1)
        self.l2 = Cache(l2)
        self.dram_latency = dram_latency
        self.dram_line_requests = 0
        self.ideal_prefetch = ideal_prefetch

    def access_line(self, address: int) -> AccessResult:
        """Access one cache line and return where it was found."""
        if self.l1.access(address):
            return AccessResult(
                latency=self.l1.params.hit_latency, level="L1", l1_hit=True, l2_hit=True
            )
        if self.ideal_prefetch and not self.l2.contains(address):
            # The ideal prefetcher delivered this line ahead of the demand.
            self.l2.fill(address)
        if self.l2.access(address):
            # Fill into L1 as well (inclusive behaviour).
            self.l1.fill(address)
            return AccessResult(
                latency=self.l2.params.hit_latency, level="L2", l1_hit=False, l2_hit=True
            )
        self.dram_line_requests += 1
        self.l2.fill(address)
        self.l1.fill(address)
        return AccessResult(
            latency=self.dram_latency, level="DRAM", l1_hit=False, l2_hit=False
        )

    def counters(self) -> Dict[str, int]:
        """Flat counter dictionary for reporting."""
        return {
            "l1_hits": self.l1.stats.hits,
            "l1_misses": self.l1.stats.misses,
            "l2_hits": self.l2.stats.hits,
            "l2_misses": self.l2.stats.misses,
            "dram_line_requests": self.dram_line_requests,
        }
