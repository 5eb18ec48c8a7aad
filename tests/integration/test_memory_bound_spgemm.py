"""Memory-bound SpGEMM study (ROADMAP): the traffic win becomes a cycle win.

On the paper's default machine the ideal L2 prefetch hides all memory
traffic, so the SpGEMM kernel's compressed-B advantage over sparse x dense
SPMM shows up only as bytes (``traffic_vs_spmm < 1``) while its stream-merge
feed overhead makes it *slower* in cycles.  On the bandwidth-starved
:func:`~repro.cpu.params.memory_bound_machine` (prefetch off, 256 KB L2,
12 GB/s DRAM) the byte advantage dominates and SpGEMM wins in cycles too —
the effect the memory-bound sweep (``repro run spgemm`` with the
``membound`` option) is meant to show.
"""

import pytest

from repro.analysis.runtime import resolve_engine
from repro.cpu.params import default_machine, memory_bound_machine
from repro.cpu.simulator import CycleApproximateSimulator
from repro.kernels.spgemm import build_spgemm_kernel
from repro.kernels.spmm import build_spmm_kernel
from repro.types import GemmShape, SparsityPattern

ENGINE = resolve_engine("VEGETA-S-16-2+OF+SPGEMM")

CASES = [
    (GemmShape(m=128, n=128, k=512), SparsityPattern.SPARSE_2_4),
    (GemmShape(m=128, n=128, k=512), SparsityPattern.SPARSE_1_4),
    (GemmShape(m=128, n=128, k=1024), SparsityPattern.SPARSE_1_4),
]


def _cycles(machine, program):
    simulator = CycleApproximateSimulator(machine=machine, engine=ENGINE)
    return simulator.run(program.trace).core_cycles


@pytest.mark.parametrize("shape,pattern", CASES)
def test_traffic_win_becomes_cycle_win_when_memory_bound(shape, pattern):
    spgemm = build_spgemm_kernel(shape, pattern)
    spmm = build_spmm_kernel(shape, pattern)

    # The structural advantage: compressed B moves fewer bytes, always.
    spgemm_traffic = spgemm.summary().memory_bytes
    spmm_traffic = spmm.summary().memory_bytes
    assert spgemm_traffic < spmm_traffic

    # With ideal prefetch the feed overhead makes SpGEMM the slower path...
    prefetch = default_machine()
    assert _cycles(prefetch, spgemm) > _cycles(prefetch, spmm)

    # ...and on the memory-bound machine the byte win turns into cycles.
    membound = memory_bound_machine()
    spgemm_cycles = _cycles(membound, spgemm)
    spmm_cycles = _cycles(membound, spmm)
    assert spgemm_cycles < spmm_cycles, (
        f"expected the {pattern.value} compressed-B traffic win "
        f"({spgemm_traffic}/{spmm_traffic} bytes) to become a cycle win, got "
        f"{spgemm_cycles} vs {spmm_cycles}"
    )


def test_membound_spgemm_experiment_reports_cycle_win():
    """The `membound` option of the spgemm experiment pins the same effect."""
    from repro.experiments.runner import run_named

    table = run_named(
        "spgemm",
        {
            "membound": True,
            "shapes": ((128, 128, 512, False),),
        },
        cache=False,
    )
    assert len(table) == 4  # 2 A patterns x 2 B patterns
    for row in table.rows:
        if row["pattern_a"] == row["pattern_b"]:
            # Matched pairs always move fewer bytes than sparse x dense...
            assert row["traffic_vs_spmm"] < 1.0
        if row["traffic_vs_spmm"] < 1.0:
            # ...and wherever the traffic win exists, it shows up as cycles
            # on the memory-bound machine.  (A mixed pair can *lose* traffic
            # because it degrades to the joint 2:4 pattern — the open
            # mixed-pattern ROADMAP item — and then no cycle win is owed.)
            assert row["speedup_vs_spmm"] > 1.0
