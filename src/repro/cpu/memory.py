"""Memory system: the cache hierarchy plus bandwidth accounting.

Tile loads are converted into 64-byte line requests (a ``TILE_LOAD_T`` is 16
cache-line requests through the load/store queue, per Section V-F).  The
:class:`MemorySystem` walks each line through the two-level cache hierarchy,
charges the L2-to-core port (one line per core cycle) and the DRAM bandwidth
(94 GB/s by default) and returns the completion cycle of the whole request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from ..errors import SimulationError
from .cache import AccessResult, CacheHierarchy
from .params import MachineParams


class ScriptedHierarchy:
    """Replays precomputed cache outcomes instead of simulating tag arrays.

    Under the paper's prefetch-into-L2 assumption every L1 miss is served at
    L2-hit latency: a demanded line is either L2 resident or delivered by the
    ideal prefetcher, so the hierarchy never reports an L2 miss or a DRAM
    line request.  The only data-dependent outcome left is the L1 lookup,
    which depends solely on the line-address sequence — something the
    simulator's fast path can compute exactly for the whole trace up front
    (:meth:`repro.cpu.columnar.ColumnarTrace.l1_outcome_bits`).

    This class replays that per-line hit/miss script through the same
    ``access_line`` interface as :class:`~repro.cpu.cache.CacheHierarchy`.
    Because outcomes are precomputed, the fast path can also jump the cursor
    over whole steady-state spans (:meth:`advance`) while keeping the
    counters bit-identical to an exact replay.
    """

    def __init__(self, hit_bits, l1_hit_latency: int, l2_hit_latency: int) -> None:
        self._hit_bits = hit_bits
        self._cursor = 0
        self._l1_result = AccessResult(
            latency=l1_hit_latency, level="L1", l1_hit=True, l2_hit=True
        )
        self._l2_result = AccessResult(
            latency=l2_hit_latency, level="L2", l1_hit=False, l2_hit=True
        )
        self.l1_hits = 0
        self.l1_misses = 0

    @property
    def cursor(self) -> int:
        """Index of the next scripted line access."""
        return self._cursor

    def access_line(self, address: int) -> AccessResult:
        """Pop the next scripted outcome (the address is already encoded in it)."""
        hit = self._hit_bits[self._cursor]
        self._cursor += 1
        if hit:
            self.l1_hits += 1
            return self._l1_result
        self.l1_misses += 1
        return self._l2_result

    def advance(self, lines: int, l1_hits: int) -> None:
        """Skip ``lines`` scripted accesses of which ``l1_hits`` were L1 hits."""
        self._cursor += lines
        self.l1_hits += l1_hits
        self.l1_misses += lines - l1_hits

    def warm_l2(self, addresses) -> None:
        """No-op: the script already assumes the fully prefetched footprint."""

    def counters(self) -> Dict[str, int]:
        """Counters identical to an exact prefetched-hierarchy replay."""
        return {
            "l1_hits": self.l1_hits,
            "l1_misses": self.l1_misses,
            "l2_hits": self.l1_misses,
            "l2_misses": 0,
            "dram_line_requests": 0,
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


class MemorySystem:
    """Cache hierarchy + bandwidth model used by the simulator."""

    def __init__(self, params: MachineParams) -> None:
        self.params = params
        self.hierarchy = CacheHierarchy(
            params.l1, params.l2, params.memory.dram_latency_cycles
        )
        #: Next core cycle at which the L2->core port is free.
        self._l2_port_free = 0
        #: Next core cycle at which the DRAM channel is free.
        self._dram_free = 0
        self.total_bytes = 0
        self.total_requests = 0

    # -- prefetch modelling ------------------------------------------------------

    def prefetch_regions(self, regions: Iterable) -> None:
        """Install every line of the given (address, nbytes) regions in the L2.

        Models the paper's assumption that kernel data has been prefetched
        into the L2 before the measured region starts.
        """
        line = self.params.l2.line_bytes
        for address, nbytes in regions:
            first = address // line
            last = (address + nbytes - 1) // line
            self.hierarchy.warm_l2(number * line for number in range(first, last + 1))

    # -- fast-forward support ----------------------------------------------------

    def shift_time(self, delta: int) -> None:
        """Advance the bandwidth bookkeeping clocks by ``delta`` core cycles.

        Used by the simulator's fast path when it skips a steady-state block
        of trace: the L2 port and DRAM channel availability move forward in
        lock-step with the rest of the machine state.
        """
        self._l2_port_free += delta
        self._dram_free += delta

    def skip_span(self, requests: int, nbytes: int, lines: int, l1_hits: int) -> None:
        """Account for the traffic of a skipped steady-state span.

        The bandwidth clocks are moved by :meth:`shift_time` (called from the
        simulator state's ``shift``); this adds the span's exact request and
        hit counts so the final counters match an op-by-op replay.  Requires
        the scripted hierarchy — a stateful tag-array hierarchy cannot jump.
        """
        if not isinstance(self.hierarchy, ScriptedHierarchy):
            raise SimulationError("skip_span requires a ScriptedHierarchy")
        self.total_requests += requests
        self.total_bytes += nbytes
        self.hierarchy.advance(lines, l1_hits)

    def shift_digest(self, base: int) -> tuple:
        """Bandwidth-clock state relative to ``base`` (for shift digests).

        Clocks at or before ``base`` saturate to zero: a future request sees
        ``max(clock, cycle)`` with ``cycle >= base``, so earlier values are
        indistinguishable.
        """
        return (
            self._l2_port_free - base if self._l2_port_free > base else 0,
            self._dram_free - base if self._dram_free > base else 0,
        )

    # -- request path ----------------------------------------------------------------

    def request(self, address: int, nbytes: int, cycle: int, is_store: bool = False) -> MemoryRequestResult:
        """Issue a request of ``nbytes`` at ``address`` starting at ``cycle``.

        Lines are serviced one per core cycle on the L2 port; lines missing to
        DRAM additionally wait for DRAM latency and occupy DRAM bandwidth.
        Stores are treated as write-allocate and buffered (their completion
        matters only for memory-ordering, which the in-order trace respects).
        """
        if nbytes <= 0:
            raise SimulationError(f"invalid memory request of {nbytes} bytes")
        line_bytes = self.params.l1.line_bytes
        first = address // line_bytes
        last = (address + nbytes - 1) // line_bytes
        lines = last - first + 1

        l1_hits = 0
        l2_hits = 0
        dram_lines = 0
        complete = cycle
        dram_bytes_per_cycle = max(
            1.0, self.params.memory.dram_bytes_per_core_cycle
        )
        for number in range(first, last + 1):
            line_address = number * line_bytes
            result = self.hierarchy.access_line(line_address)
            # The L2->core port moves one line per cycle.
            port_ready = max(self._l2_port_free, cycle)
            self._l2_port_free = port_ready + 1
            line_complete = port_ready + result.latency
            if result.level == "DRAM":
                dram_lines += 1
                dram_ready = max(self._dram_free, cycle)
                self._dram_free = dram_ready + int(line_bytes / dram_bytes_per_cycle)
                line_complete = max(
                    line_complete, dram_ready + self.params.memory.dram_latency_cycles
                )
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

    def counters(self) -> Dict[str, int]:
        """Aggregate counters for reporting."""
        counters = self.hierarchy.counters()
        counters["total_bytes"] = self.total_bytes
        counters["total_requests"] = self.total_requests
        return counters
