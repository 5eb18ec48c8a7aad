"""simulate_shared: one simulation per trace, machine, engine timing and mode.

The single-core trial runners simulate through
:func:`repro.cpu.simulator.simulate_shared`, which keeps each result on its
trace.  These tests pin what may share a result (engines of equal timing),
what may not (another timing, machine, mode or super-period cap), and that
no caller sees another caller's engine or mutations.
"""

import pytest

from repro.analysis.runtime import resolve_engine
from repro.cpu.fastsim import MAX_SUPER_PERIOD_ENV
from repro.cpu.multicore import result_to_payload
from repro.cpu.params import default_machine, memory_bound_machine
from repro.cpu.simulator import CycleApproximateSimulator, simulate_shared
from repro.errors import SimulationError
from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.spgemm import build_spgemm_kernel
from repro.types import GemmShape, SparsityPattern

SHAPE = GemmShape(m=64, n=64, k=256)

#: Dense kernel whose fast path skips blocks at the default super-period cap
#: and skips none at a cap of 1.
SKIPPING_SHAPE = GemmShape(m=128, n=128, k=256)


@pytest.fixture
def runs(monkeypatch):
    """The engine of every CycleApproximateSimulator.run call, in order."""
    engines = []
    original = CycleApproximateSimulator.run

    def counting_run(self, trace, **kwargs):
        engines.append(self.engine)
        return original(self, trace, **kwargs)

    monkeypatch.setattr(CycleApproximateSimulator, "run", counting_run)
    return engines


def test_engines_of_equal_timing_share_one_simulation(runs):
    trace = build_dense_gemm_kernel(SHAPE).trace
    machine = default_machine()
    engines = [resolve_engine(name) for name in ("VEGETA-D-1-2", "STC-like", "VEGETA-S-1-2")]
    results = [simulate_shared(trace, machine=machine, engine=engine) for engine in engines]
    assert runs == engines[:1]
    fresh = result_to_payload(CycleApproximateSimulator(machine, engines[-1]).run(trace))
    for engine, result in zip(engines, results):
        assert result.engine is engine
        assert result.machine is machine
        assert result_to_payload(result) == fresh


def test_timing_machine_and_mode_each_get_their_own_simulation(runs):
    trace = build_dense_gemm_kernel(SHAPE).trace
    engine = resolve_engine("VEGETA-S-16-2")
    distinct = 0
    for machine in (default_machine(), memory_bound_machine()):
        for mode in ("fast", "exact"):
            for variant in (engine, engine.with_output_forwarding()):
                first = simulate_shared(trace, machine=machine, engine=variant, mode=mode)
                again = simulate_shared(trace, machine=machine, engine=variant, mode=mode)
                distinct += 1
                assert len(runs) == distinct
                assert result_to_payload(again) == result_to_payload(first)
    assert len(runs) == 8


def test_each_call_returns_a_private_result():
    trace = build_dense_gemm_kernel(SHAPE).trace
    machine = default_machine()
    engine = resolve_engine("VEGETA-S-8-2")
    first = simulate_shared(trace, machine=machine, engine=engine)
    expected = result_to_payload(first)
    first.memory_counters.clear()
    first.trace_summary.by_opcode.clear()
    first.trace_summary.total = 0
    first.core_cycles = 0
    second = simulate_shared(trace, machine=machine, engine=resolve_engine("VEGETA-S-16-2"))
    assert result_to_payload(second) == expected
    assert second.engine.name == "VEGETA-S-16-2"


def test_super_period_cap_re_simulates(monkeypatch, runs):
    trace = build_dense_gemm_kernel(SKIPPING_SHAPE).trace
    machine = default_machine()
    engine = resolve_engine("VEGETA-S-16-2")
    default = simulate_shared(trace, machine=machine, engine=engine)
    monkeypatch.setenv(MAX_SUPER_PERIOD_ENV, "1")
    stepped = simulate_shared(trace, machine=machine, engine=engine)
    assert len(runs) == 2
    assert stepped.core_cycles == default.core_cycles
    assert stepped.fast_blocks_stepped > default.fast_blocks_stepped


def test_a_raising_simulation_keeps_nothing(runs):
    trace = build_spgemm_kernel(SHAPE, SparsityPattern.SPARSE_2_4).trace
    machine = default_machine()
    engine = resolve_engine("VEGETA-S-16-2")
    for attempt in (1, 2):
        with pytest.raises(SimulationError, match="VEGETA-S-16-2 cannot execute"):
            simulate_shared(trace, machine=machine, engine=engine)
        assert len(runs) == attempt
    result = simulate_shared(trace, machine=machine, engine=engine.with_spgemm())
    assert result.engine.spgemm and len(runs) == 3
