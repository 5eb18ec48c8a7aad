"""Differential test of the memory system against its pre-fold reference.

:class:`~repro.cpu.memory.MemorySystem` keeps one array of LRU sets per cache
level; :class:`reference_memory.ReferenceMemorySystem` walks each line
through :class:`reference_memory.CacheHierarchy` and its two
:class:`reference_memory.Cache` objects, as the simulator did before.  Both
are driven with the same random request streams on random geometries, and
after every request they must agree on the completion cycle, the L2 port and
DRAM channel clocks, the counters (values and key order) and the resident
tags of both levels in LRU order.  Under the ideal prefetch the L2 tags are
the only place an L2 install shows: every L1 miss is served at L2 latency
whatever the L2 holds.
"""

from hypothesis import given, settings, strategies as st
from reference_memory import ReferenceMemorySystem

from repro.cpu.memory import MemorySystem
from repro.cpu.params import CacheParams, MachineParams, MemoryParams

#: Set counts drawn for both levels, powers of two and not.
SET_COUNTS = st.one_of(st.sampled_from([1, 2, 3, 5, 8, 12, 16, 48]), st.integers(1, 40))


@st.composite
def machines(draw):
    """A machine with a random L1/L2 geometry, latencies and DRAM rate."""
    l1_line = draw(st.sampled_from([32, 64]))
    l1_ways = draw(st.integers(1, 16))
    l1 = CacheParams(
        name="L1",
        capacity_bytes=draw(SET_COUNTS) * l1_ways * l1_line,
        line_bytes=l1_line,
        associativity=l1_ways,
        hit_latency=draw(st.integers(0, 10)),
    )
    l2_line = l1_line * draw(st.sampled_from([1, 2]))
    l2_ways = draw(st.integers(1, 16))
    # The L2 holds at least as much as the L1 (the machine rejects less).
    min_sets = -(-l1.capacity_bytes // (l2_ways * l2_line))
    l2 = CacheParams(
        name="L2",
        capacity_bytes=max(min_sets, draw(SET_COUNTS)) * l2_ways * l2_line,
        line_bytes=l2_line,
        associativity=l2_ways,
        hit_latency=draw(st.integers(0, 40)),
    )
    # DRAM rates from well under one byte to several lines per core cycle.
    memory = MemoryParams(
        dram_latency_cycles=draw(st.integers(0, 400)),
        dram_bandwidth_gbps=draw(st.sampled_from([0.5, 3.0, 12.0, 94.0, 130.0, 400.0])),
    )
    return MachineParams(l1=l1, l2=l2, memory=memory, prefetch_into_l2=draw(st.booleans()))


#: (address, bytes, issue cycle relative to the L2 port clock, clock shift).
requests_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=64 * 1024),
        st.integers(min_value=1, max_value=8192),
        st.integers(min_value=-64, max_value=64),
        st.one_of(st.just(0), st.integers(0, 500)),
    ),
    min_size=1,
    max_size=40,
)


def resident(sets):
    """Every set's tags, least recently used first."""
    return [tuple(ways) for ways in sets]


@settings(max_examples=300, deadline=None)
@given(machine=machines(), requests=requests_strategy)
def test_memory_system_matches_reference(machine, requests):
    reference = ReferenceMemorySystem(machine)
    memory = MemorySystem(machine)
    for address, nbytes, offset, shift in requests:
        if shift:
            reference.shift_time(shift)
            memory.shift_time(shift)
        cycle = max(0, reference._l2_port_free + offset)
        want = reference.request(address, nbytes, cycle).complete_cycle
        assert memory.complete(address, nbytes, cycle) == want
        assert memory._l2_port_free == reference._l2_port_free
        assert memory._dram_free == reference._dram_free
        assert list(memory.counters().items()) == list(reference.counters().items())
        assert resident(memory._l1_sets) == resident(reference.hierarchy.l1._sets)
        assert resident(memory._l2_sets) == resident(reference.hierarchy.l2._sets)
