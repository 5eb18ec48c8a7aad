"""Memory system: the cache hierarchy plus bandwidth accounting.

Tile loads are converted into 64-byte line requests (a ``TILE_LOAD_T`` is 16
cache-line requests through the load/store queue, per Section V-F).  The
:class:`MemorySystem` walks each line through the two-level cache hierarchy,
charges the L2-to-core port (one line per core cycle) and the DRAM bandwidth
(94 GB/s by default) and returns the completion cycle of the whole request.

Under the paper's prefetch-into-L2 assumption the walk has a closed form per
request, precomputed once per trace (:class:`RequestScript`) and replayed by
:class:`ScriptedMemory` on the simulator's oracle fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..errors import SimulationError
from .cache import CacheHierarchy
from .params import MachineParams


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


class RequestScript:
    """Per-request timing of a request stream under the ideal L2 prefetch.

    With every demanded line prefetched into the L2, :meth:`MemorySystem.request`
    never reaches DRAM: each line is an L1 hit or an L2 hit, and which one is
    fixed by the line-address sequence alone (``hit_bits``, one per line, from
    an exact L1 LRU replay).  A request issued at ``cycle`` then takes the L2
    port at ``port = max(l2_port_free, cycle)``, delivers line ``j`` at
    ``port + j + latency_j`` and leaves the port free at ``port + lines``.  So
    request ``k`` is two numbers, independent of when it is issued:

    * ``delay[k] = max_j(j + latency_j)``, its completion offset from ``port``;
    * ``lines[k]``, its L2 port occupancy.

    ``lines_cum``, ``hits_cum`` and ``bytes_cum`` are prefix sums indexed by
    request boundary, so the counters at any request cursor are lookups.
    """

    __slots__ = ("delay", "lines", "lines_cum", "hits_cum", "bytes_cum")

    def __init__(
        self,
        addresses: np.ndarray,
        nbytes: np.ndarray,
        hit_bits: np.ndarray,
        line_bytes: int,
        l1_hit_latency: int,
        l2_hit_latency: int,
    ) -> None:
        addresses = np.asarray(addresses, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        first = addresses // line_bytes
        lines = (addresses + nbytes - 1) // line_bytes - first + 1
        lines_cum = np.concatenate(([0], np.cumsum(lines)))
        line_start = lines_cum[:-1]
        latency = np.where(hit_bits, l1_hit_latency, l2_hit_latency).astype(np.int64)
        within = np.arange(int(lines_cum[-1]), dtype=np.int64) - np.repeat(line_start, lines)
        self.delay = np.maximum.reduceat(within + latency, line_start).astype(np.int32)
        self.lines = lines.astype(np.int32)
        self.lines_cum = lines_cum
        self.hits_cum = np.concatenate(([0], np.cumsum(hit_bits)))[lines_cum]
        self.bytes_cum = np.concatenate(([0], np.cumsum(nbytes)))


class ScriptedMemory:
    """Replays a :class:`RequestScript` in place of a :class:`MemorySystem`.

    The simulator's oracle fast path runs on this instead of tag arrays: a
    request is the three steps of the closed form (``port = max(l2_port_free,
    cycle)``, ``l2_port_free = port + lines[k]``, completion ``port +
    delay[k]``), and the counters are the script's prefix sums at the request
    cursor, so skipping a steady-state span only moves the cursor
    (:meth:`skip_span`).  Requests must arrive in script order.
    """

    def __init__(self, script: RequestScript) -> None:
        self._script = script
        # Memoryviews index to plain ints (numpy scalars would leak into
        # every cycle the simulator derives from a completion).
        self._delay = memoryview(script.delay)
        self._lines = memoryview(script.lines)
        #: Index of the next scripted request.
        self._cursor = 0
        #: Next core cycle at which the L2->core port is free.
        self._l2_port_free = 0

    def complete(self, address: int, nbytes: int, cycle: int) -> int:
        """Issue the next scripted request at ``cycle``; returns its completion cycle."""
        index = self._cursor
        self._cursor = index + 1
        port = self._l2_port_free
        if cycle > port:
            port = cycle
        self._l2_port_free = port + self._lines[index]
        return port + self._delay[index]

    def skip_span(self, requests: int) -> None:
        """Account for ``requests`` requests of a skipped steady-state span.

        The port clock is moved by :meth:`shift_time` (called from the
        simulator state's ``shift``); the counters follow the cursor.
        """
        self._cursor += requests

    def shift_time(self, delta: int) -> None:
        """Advance the L2 port clock by ``delta`` core cycles."""
        self._l2_port_free += delta

    def shift_digest(self, base: int) -> tuple:
        """The port clock relative to ``base`` (for the state's shift digest).

        A clock at or before ``base`` saturates to zero: a future request sees
        ``max(clock, cycle)`` with ``cycle >= base``, so earlier values are
        indistinguishable.
        """
        port = self._l2_port_free
        return (port - base if port > base else 0,)

    def counters(self) -> Dict[str, int]:
        """Counters identical to a tag-array :class:`MemorySystem` with the ideal prefetch."""
        script = self._script
        index = self._cursor
        lines = int(script.lines_cum[index])
        hits = int(script.hits_cum[index])
        return {
            "l1_hits": hits,
            "l1_misses": lines - hits,
            "l2_hits": lines - hits,
            "l2_misses": 0,
            "dram_line_requests": 0,
            "total_bytes": int(script.bytes_cum[index]),
            "total_requests": index,
        }
