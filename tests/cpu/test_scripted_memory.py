"""Differential test of the oracle fast path's per-request scripted memory.

:class:`~repro.cpu.memory.ScriptedMemory` replaces the tag-array
:class:`~repro.cpu.memory.MemorySystem` on the oracle path, replaying a
:class:`~repro.cpu.memory.RequestScript` built from the exact L1 LRU
outcomes.  Under the ideal L2 prefetch both must agree request for request:
the same completion cycle, the same L2-port clock and the same counters —
also when a span of requests is skipped the way the fast path skips a
steady-state span (cursor jump plus a clock shift).
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cpu.columnar import lru_outcome_bits
from repro.cpu.memory import MemorySystem, RequestScript, ScriptedMemory
from repro.cpu.params import CacheParams, default_machine

#: L1 geometries: the default (48 KB, 12-way) and a small 2-way L1 with its
#: own hit latency, where a few requests already force evictions.
L1_VARIANTS = (
    default_machine().l1,
    CacheParams(name="L1D", capacity_bytes=4 * 1024, associativity=2, hit_latency=3),
)

requests_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=96 * 1024),  # unaligned address
        st.integers(min_value=1, max_value=8192),  # bytes
        st.integers(min_value=-64, max_value=64),  # issue cycle vs the L2 port
    ),
    min_size=1,
    max_size=24,
)


def _script(machine, requests) -> RequestScript:
    """The request stream's script, from an independent L1 LRU replay."""
    line_bytes = machine.l1.line_bytes
    lines = np.concatenate(
        [
            np.arange(address // line_bytes, (address + nbytes - 1) // line_bytes + 1)
            for address, nbytes, _ in requests
        ]
    )
    return RequestScript(
        [address for address, _, _ in requests],
        [nbytes for _, nbytes, _ in requests],
        lru_outcome_bits(lines, machine.l1.num_sets, machine.l1.associativity),
        line_bytes,
        machine.l1.hit_latency,
        machine.l2.hit_latency,
    )


@settings(max_examples=150, deadline=None)
@given(
    requests=requests_strategy,
    l1=st.sampled_from(L1_VARIANTS),
    skip=st.tuples(st.integers(0, 24), st.integers(0, 24)),
)
def test_scripted_memory_matches_tag_arrays(requests, l1, skip):
    machine = dataclasses.replace(default_machine(), l1=l1)
    assert machine.prefetch_into_l2
    reference = MemorySystem(machine)
    scripted = ScriptedMemory(_script(machine, requests))
    skip_start, skip_end = sorted(min(bound, len(requests)) for bound in skip)

    def issue(address, nbytes, offset):
        cycle = max(0, reference._l2_port_free + offset)
        return cycle, reference.complete(address, nbytes, cycle)

    def assert_same_state():
        assert scripted._l2_port_free == reference._l2_port_free
        assert scripted.counters() == reference.counters()

    def step_both(span):
        for address, nbytes, offset in span:
            cycle, want = issue(address, nbytes, offset)
            assert scripted.complete(address, nbytes, cycle) == want
            assert_same_state()

    step_both(requests[:skip_start])
    # Skip a span as the fast path does: the reference steps it, the script
    # only moves its cursor and shifts its port clock by the elapsed time.
    port = reference._l2_port_free
    for request in requests[skip_start:skip_end]:
        issue(*request)
    scripted.skip_span(skip_end - skip_start)
    scripted.shift_time(reference._l2_port_free - port)
    assert_same_state()
    step_both(requests[skip_end:])

    counters = reference.counters()
    assert counters["dram_line_requests"] == 0  # the ideal prefetch holds
    assert list(scripted.counters()) == list(counters)  # same report order


def test_request_script_closed_form():
    # One 4-line request: lines 0 and 1 hit the L1 (4 cycles), 2 and 3 hit
    # the L2 (14 cycles); line j leaves the port j cycles after the first.
    script = RequestScript([0x40], [256], np.array([1, 1, 0, 0], bool), 64, 4, 14)
    assert list(script.delay) == [3 + 14]
    assert list(script.lines) == [4]
    assert list(script.hits_cum) == [0, 2]
    assert list(script.bytes_cum) == [0, 256]
    memory = ScriptedMemory(script)
    assert memory.complete(0x40, 256, cycle=10) == 10 + 17
    assert memory._l2_port_free == 14
