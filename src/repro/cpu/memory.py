"""Memory system: two LRU tag arrays, the L2 port and the DRAM channel.

Tile loads are converted into 64-byte line requests (a ``TILE_LOAD_T`` is 16
cache-line requests through the load/store queue, per Section V-F).  The
:class:`MemorySystem` looks each line up in the core's private L1 and L2,
charges the L2-to-core port (one line per core cycle) and the DRAM channel
(94 GB/s by default) and returns the completion cycle of the whole request.
The L1 is LRU over every line access; the L2 is LRU over the L1-miss stream.

Under the paper's prefetch-into-L2 assumption the lookups have a closed form
per request, precomputed once per trace (:class:`RequestScript`) and replayed
by :class:`ScriptedMemory` on the simulator's oracle fast path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

import numpy as np

from ..errors import SimulationError
from .params import MachineParams


def _lru_access(ways: OrderedDict, tag: int, associativity: int) -> bool:
    """Look ``tag`` up in one LRU set and install it on a miss; True on a hit."""
    if tag in ways:
        ways.move_to_end(tag)
        return True
    if len(ways) >= associativity:
        ways.popitem(last=False)
    ways[tag] = True
    return False


class MemorySystem:
    """The core's private L1/L2 tag arrays, L2 port and DRAM channel.

    Each level is an array of LRU sets (one ordered dict of tags per set,
    least recently used first) and only tracks tags; data lives in the
    functional :class:`~repro.core.memory_image.ByteMemory`.

    * The L1 sees every line access, at its own line size.
    * The L2 sees the L1-miss stream, at the L2's line size.  An L1 miss to a
      line the L2 holds is served at L2-hit latency.
    * With the ideal prefetch (``MachineParams.prefetch_into_l2``, the
      paper's "data has been prefetched to the L2 cache", Section VI-B) an
      L2 miss installs the line and is served at L2-hit latency too.
      Installing on demand, rather than bulk-filling the L2 up front, keeps
      the assumption meaningful for footprints beyond the L2's capacity.
    * Without it an L2 miss installs the line and is a DRAM line, timed on
      the DRAM channel clock.

    Line ``j`` of a request issued at ``cycle`` leaves the L2 port at
    ``port + j`` with ``port = max(l2_port_free, cycle)`` and completes one
    hit latency later.  The ``d``-th DRAM line of the request is readied by
    the channel at ``D + d * c`` with ``D = max(dram_free, cycle)`` and ``c``
    the channel cycles one line occupies, and completes at ``max(port + j,
    D + d * c) + dram_latency``.  A request completes with its last line.
    """

    def __init__(self, machine: MachineParams) -> None:
        l1, l2 = machine.l1, machine.l2
        self._l1_sets: List[OrderedDict] = [OrderedDict() for _ in range(l1.num_sets)]
        self._l2_sets: List[OrderedDict] = [OrderedDict() for _ in range(l2.num_sets)]
        self._l1_hits = 0
        self._l1_misses = 0
        self._l2_hits = 0
        self._l2_misses = 0
        self._dram_lines = 0
        self._total_bytes = 0
        self._total_requests = 0
        #: Next core cycle at which the L2->core port is free.
        self._l2_port_free = 0
        #: Next core cycle at which the DRAM channel is free.
        self._dram_free = 0
        # Per-line constants, resolved once.
        self._line_bytes = l1.line_bytes
        self._l1_geometry = (l1.num_sets, l1.associativity, l1.hit_latency)
        self._l2_geometry = (l2.line_bytes, l2.num_sets, l2.associativity, l2.hit_latency)
        self._prefetch = machine.prefetch_into_l2
        self._dram_latency = machine.memory.dram_latency_cycles
        #: DRAM channel cycles one line occupies.
        self._dram_line_cycles = int(
            self._line_bytes / max(1.0, machine.memory.dram_bytes_per_core_cycle)
        )

    def shift_time(self, delta: int) -> None:
        """Advance the L2 port and DRAM channel clocks by ``delta`` core cycles.

        Used by the simulator's fast path when it skips a steady-state block
        of trace: the clocks move forward in lock-step with the rest of the
        machine state.
        """
        self._l2_port_free += delta
        self._dram_free += delta

    def complete(self, address: int, nbytes: int, cycle: int) -> int:
        """Issue ``nbytes`` at ``address`` at ``cycle``; returns the completion cycle.

        Stores are treated as write-allocate and buffered (their completion
        matters only for memory ordering, which the in-order trace respects).
        """
        if nbytes <= 0:
            raise SimulationError(f"invalid memory request of {nbytes} bytes")
        line_bytes = self._line_bytes
        first = address // line_bytes
        last = (address + nbytes - 1) // line_bytes
        l1_sets = self._l1_sets
        l1_num_sets, l1_ways, l1_latency = self._l1_geometry
        port = self._l2_port_free
        if cycle > port:
            port = cycle
        self._l2_port_free = port + last - first + 1
        self._total_bytes += nbytes
        self._total_requests += 1
        complete = cycle
        misses = 0
        for line in range(first, last + 1):
            if _lru_access(l1_sets[line % l1_num_sets], line // l1_num_sets, l1_ways):
                done = port + l1_latency
            else:
                misses += 1
                done = self._l2_access(line * line_bytes, port, cycle)
            if done > complete:
                complete = done
            port += 1
        self._l1_hits += last - first + 1 - misses
        self._l1_misses += misses
        return complete

    def _l2_access(self, address: int, port: int, cycle: int) -> int:
        """Look up an L1-miss line leaving the port at ``port``; returns its completion."""
        line_bytes, num_sets, associativity, latency = self._l2_geometry
        line = address // line_bytes
        hit = _lru_access(self._l2_sets[line % num_sets], line // num_sets, associativity)
        if hit or self._prefetch:
            # The ideal prefetch delivered a missing line ahead of the demand.
            self._l2_hits += 1
            return port + latency
        self._l2_misses += 1
        self._dram_lines += 1
        dram = self._dram_free
        if cycle > dram:
            dram = cycle
        self._dram_free = dram + self._dram_line_cycles
        return (port if port > dram else dram) + self._dram_latency

    def counters(self) -> Dict[str, int]:
        """Aggregate counters for reporting."""
        return {
            "l1_hits": self._l1_hits,
            "l1_misses": self._l1_misses,
            "l2_hits": self._l2_hits,
            "l2_misses": self._l2_misses,
            "dram_line_requests": self._dram_lines,
            "total_bytes": self._total_bytes,
            "total_requests": self._total_requests,
        }


class RequestScript:
    """Per-request timing of a request stream under the ideal L2 prefetch.

    With every demanded line prefetched into the L2, :meth:`MemorySystem.complete`
    never reaches DRAM: each line is an L1 hit or an L2 hit, and which one is
    fixed by the line-address sequence alone (``hit_bits``, one per line: the
    exact L1 LRU outcomes of
    :meth:`~repro.cpu.columnar.ColumnarTrace.l1_outcome_bits`, decided per
    request and set arc with no cache state stepped).  A request issued at
    ``cycle`` then takes the L2
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
