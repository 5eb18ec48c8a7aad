"""The memory system as it stood before it owned its two LRU levels.

:class:`repro.cpu.memory.MemorySystem` keeps one array of LRU sets per
cache level and counts hits and misses in plain integers.  This module keeps
the model it replaced, unchanged: a :class:`Cache` object per level, a
:class:`CacheHierarchy` that walks each line through them and returns an
:class:`AccessResult`, and a memory system whose :meth:`request` returns a
:class:`MemoryRequestResult` per request.  The differential tests drive both
with the same request streams and compare every completion cycle, both
clocks, the counters and the resident tags, so the folded model is pinned
against independent code rather than against itself.  :class:`Cache` is also the object-level
reference of :func:`repro.cpu.columnar.lru_outcome_bits`.
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cpu.params import CacheParams, MachineParams
from repro.errors import ConfigurationError, SimulationError


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


@dataclass
class MemoryRequestResult:
    """Timing of one (multi-line) memory request."""

    start_cycle: int
    complete_cycle: int
    lines: int
    l1_hits: int
    l2_hits: int
    dram_lines: int

    @property
    def latency(self) -> int:
        """Total cycles from request start to last line delivered."""
        return self.complete_cycle - self.start_cycle


class ReferenceMemorySystem:
    """Cache hierarchy + bandwidth model used by the simulator."""

    def __init__(self, params: MachineParams) -> None:
        self.params = params
        self.hierarchy = CacheHierarchy(
            params.l1,
            params.l2,
            params.memory.dram_latency_cycles,
            ideal_prefetch=params.prefetch_into_l2,
        )
        #: Next core cycle at which the L2->core port is free.
        self._l2_port_free = 0
        #: Next core cycle at which the DRAM channel is free.
        self._dram_free = 0
        self.total_bytes = 0
        self.total_requests = 0
        # Per-request constants, resolved once.
        self._line_bytes = params.l1.line_bytes
        self._dram_latency = params.memory.dram_latency_cycles
        #: DRAM channel cycles one line occupies.
        self._dram_line_cycles = int(
            self._line_bytes / max(1.0, params.memory.dram_bytes_per_core_cycle)
        )

    # -- fast-forward support ----------------------------------------------------

    def shift_time(self, delta: int) -> None:
        """Advance the bandwidth bookkeeping clocks by ``delta`` core cycles.

        Used by the simulator's fast path when it skips a steady-state block
        of trace: the L2 port and DRAM channel availability move forward in
        lock-step with the rest of the machine state.
        """
        self._l2_port_free += delta
        self._dram_free += delta

    # -- request path ----------------------------------------------------------------

    def request(self, address: int, nbytes: int, cycle: int) -> MemoryRequestResult:
        """Issue a request of ``nbytes`` at ``address`` starting at ``cycle``.

        Lines are serviced one per core cycle on the L2 port; lines missing to
        DRAM additionally wait for DRAM latency and occupy DRAM bandwidth.
        Stores are treated as write-allocate and buffered (their completion
        matters only for memory-ordering, which the in-order trace respects).
        """
        if nbytes <= 0:
            raise SimulationError(f"invalid memory request of {nbytes} bytes")
        line_bytes = self._line_bytes
        first = address // line_bytes
        last = (address + nbytes - 1) // line_bytes
        lines = last - first + 1
        access_line = self.hierarchy.access_line

        l1_hits = 0
        l2_hits = 0
        dram_lines = 0
        complete = cycle
        for number in range(first, last + 1):
            line_address = number * line_bytes
            result = access_line(line_address)
            # The L2->core port moves one line per cycle.
            port_ready = max(self._l2_port_free, cycle)
            self._l2_port_free = port_ready + 1
            line_complete = port_ready + result.latency
            if result.level == "DRAM":
                dram_lines += 1
                dram_ready = max(self._dram_free, cycle)
                self._dram_free = dram_ready + self._dram_line_cycles
                line_complete = max(line_complete, dram_ready + self._dram_latency)
            elif result.level == "L2":
                l2_hits += 1
            else:
                l1_hits += 1
            complete = max(complete, line_complete)

        self.total_bytes += nbytes
        self.total_requests += 1
        return MemoryRequestResult(
            start_cycle=cycle,
            complete_cycle=complete,
            lines=lines,
            l1_hits=l1_hits,
            l2_hits=l2_hits,
            dram_lines=dram_lines,
        )

    def complete(self, address: int, nbytes: int, cycle: int) -> int:
        """Issue a request (as :meth:`request`) and return its completion cycle."""
        return self.request(address, nbytes, cycle).complete_cycle

    def counters(self) -> Dict[str, int]:
        """Aggregate counters for reporting."""
        counters = self.hierarchy.counters()
        counters["total_bytes"] = self.total_bytes
        counters["total_requests"] = self.total_requests
        return counters
