"""The packed-row transition against the op-by-op reference (``reference_step.py``).

Random op streams cover every record kind: tile loads into aliased
treg/ureg/vreg destinations and metadata registers, stores, every compute
opcode (SpGEMM with a stamped and with a worst-case ``-1`` feed overhead),
vector loads, stores and FMAs (one without a destination), scalars and
branches.  They run on random core knobs and engines, against a tag-array
:class:`~repro.cpu.memory.MemorySystem` with and without the ideal L2
prefetch and against a :class:`~repro.cpu.memory.ScriptedMemory`.  Every op's
issue and completion cycle, the final :class:`SimulationResult` and the
errors must agree.
"""

import dataclasses

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from reference_step import reference_run

from repro.analysis.runtime import resolve_engine
from repro.core.isa import Opcode
from repro.core.registers import mreg, treg, ureg, vreg
from repro.cpu.columnar import ColumnarTrace, TraceBuilder
from repro.cpu.fastsim import _oracle_script
from repro.cpu.memory import MemorySystem, ScriptedMemory
from repro.cpu.params import MachineParams, default_machine, memory_bound_machine
from repro.cpu.simulator import CycleApproximateSimulator, SimulatorState
from repro.errors import SimulationError

#: Engines the streams run on; None has no matrix engine at all.
ENGINES = (
    None,
    "VEGETA-D-1-2",
    "VEGETA-S-2-2",
    "VEGETA-S-16-2+SPGEMM",
    "VEGETA-S-4-2+SPGEMM",
)

#: A small address pool, so lines are reused and evicted.
ADDRESSES = st.integers(min_value=0, max_value=63).map(lambda slot: slot * 0x1C0)


def _emit_tile(draw, builder, computes):
    """Append a tile instruction; ``computes`` are the compute kinds allowed."""
    choice = draw(st.sampled_from(("load_t", "load_u", "load_v", "load_m", "store") + computes))
    # Four tregs (two uregs, one vreg) make aliasing and reuse common.
    t = lambda: treg(draw(st.integers(0, 3)))  # noqa: E731
    u = lambda: ureg(draw(st.integers(0, 1)))  # noqa: E731
    if choice == "load_t":
        builder.tile_load_t(t(), draw(ADDRESSES))
    elif choice == "load_u":
        builder.tile_load_u(u(), draw(ADDRESSES))
    elif choice == "load_v":
        builder.tile_load(Opcode.TILE_LOAD_V, vreg(0), draw(ADDRESSES))
    elif choice == "load_m":
        builder.tile_load_m(mreg(draw(st.integers(0, 3))), draw(ADDRESSES))
    elif choice == "store":
        builder.tile_store_t(draw(ADDRESSES), t())
    elif choice == "gemm":
        builder.tile_compute(Opcode.TILE_GEMM, t(), t(), t())
    elif choice == "spmm_u":
        builder.tile_compute(Opcode.TILE_SPMM_U, t(), t(), u())
    elif choice == "spmm_v":
        builder.tile_compute(Opcode.TILE_SPMM_V, t(), t(), vreg(0))
    elif choice == "spmm_r":
        builder.tile_compute(Opcode.TILE_SPMM_R, u(), t(), u())
    else:
        opcode = draw(st.sampled_from((Opcode.TILE_SPGEMM_U, Opcode.TILE_SPGEMM_V)))
        dst, src_a, src_b = t(), t(), t()
        builder.tile_compute(
            opcode, dst, src_a, src_b, feed_overhead=draw(st.integers(-1, 24))
        )


@st.composite
def scenarios(draw, max_length=48):
    """``(engine name, trace)``: mostly streams the engine can run, some it cannot."""
    engine_name = draw(st.sampled_from(ENGINES))
    computes = ("gemm", "spmm_u", "spmm_v", "spmm_r")
    if engine_name is not None and engine_name.endswith("+SPGEMM"):
        computes += ("spgemm", "spgemm")
    elif draw(st.integers(0, 9)) == 0:
        computes += ("spgemm",)  # rejected by a non-SpGEMM engine
    if engine_name is None and draw(st.integers(0, 4)):
        computes = ()  # a vector/scalar stream; otherwise rejected without engine
    builder = TraceBuilder()
    for _ in range(draw(st.integers(min_value=1, max_value=max_length))):
        kind = draw(st.sampled_from(("tile", "tile", "tile", "vload", "vstore",
                                     "vfma", "scalar", "branch")))
        v = lambda: draw(st.integers(0, 3))  # noqa: E731
        if kind == "tile":
            _emit_tile(draw, builder, computes)
        elif kind == "vload":
            dst = v()
            builder.vector_load(dst, draw(ADDRESSES), draw(st.sampled_from((64, 96, 200))))
        elif kind == "vstore":
            src = v()
            builder.vector_store(src, draw(ADDRESSES))
        elif kind == "vfma":
            if draw(st.booleans()):
                dst = v()
                builder.vector_fma(dst, [v() for _ in range(draw(st.integers(0, 2)))])
            else:  # an FMA without a destination register
                builder.vector_fma(None, (v(), v()))
        elif kind == "scalar":
            builder.scalar()
        else:
            builder.branch()
    return engine_name, builder.finish()


@st.composite
def machines(draw):
    base = draw(st.sampled_from((default_machine(), memory_bound_machine())))
    ratio = draw(st.integers(1, 3))
    core = dataclasses.replace(
        base.core,
        frequency_ghz=2.0,
        matrix_engine_frequency_ghz=2.0 / ratio,
        issue_width=draw(st.integers(1, 4)),
        rob_entries=draw(st.integers(2, 64)),
        load_buffer_entries=draw(st.integers(1, 32)),
    )
    assert core.engine_clock_ratio == ratio
    return dataclasses.replace(base, core=core)


def _memory(machine: MachineParams, trace: ColumnarTrace, scripted: bool):
    if scripted:
        return ScriptedMemory(_oracle_script(machine, trace).requests)
    return MemorySystem(machine)


def _packed_run(machine, engine, trace, memory):
    """Step every op through ``advance``; returns the events and the result."""
    state = SimulatorState(machine, engine, trace, memory=memory)
    events = []
    for signature, address in zip(trace.signature_ids().tolist(),
                                  trace.columns["address"].tolist()):
        completion = state.advance(state.records[signature], address)
        events.append((state.issue_cycle, completion))
    core_cycles = max(state.last_completion, state.issue_cycle + 1)
    return events, state.result(trace.summarize(), core_cycles)


@settings(max_examples=400, deadline=None)
@given(
    scenario=scenarios(),
    machine=machines(),
    forwarding=st.booleans(),
    scripted=st.booleans(),
)
def test_packed_transition_matches_reference(scenario, machine, forwarding, scripted):
    engine_name, trace = scenario
    engine = resolve_engine(engine_name) if engine_name is not None else None
    if engine is not None and forwarding:
        engine = engine.with_output_forwarding()
    try:
        want = reference_run(machine, engine, trace, _memory(machine, trace, scripted))
    except SimulationError as error:
        event("error")
        with pytest.raises(SimulationError) as raised:
            _packed_run(machine, engine, trace, _memory(machine, trace, scripted))
        assert str(raised.value) == str(error)
        return
    event("stepped")
    events, result = _packed_run(machine, engine, trace, _memory(machine, trace, scripted))
    assert events == want[0]
    assert result == want[1]
    if not scripted:
        # The public exact path runs the same transition over the same rows.
        exact = CycleApproximateSimulator(machine=machine, engine=engine, mode="exact")
        assert exact.run(trace) == want[1]


@pytest.mark.parametrize(
    "engine_name, opcode, message",
    [
        (None, Opcode.TILE_GEMM, "no engine was configured"),
        ("VEGETA-S-16-2", Opcode.TILE_SPGEMM_U, "SpGEMM stream merging is not enabled"),
    ],
)
def test_errors_match_reference(engine_name, opcode, message):
    engine = resolve_engine(engine_name) if engine_name is not None else None
    builder = TraceBuilder()
    builder.scalar()
    builder.tile_load_t(treg(1), 0x40)
    builder.tile_compute(opcode, treg(0), treg(1), treg(2))
    trace = builder.finish()
    machine = default_machine()
    with pytest.raises(SimulationError, match=message):
        reference_run(machine, engine, trace, MemorySystem(machine))
    for mode in ("exact", "fast"):
        with pytest.raises(SimulationError, match=message):
            CycleApproximateSimulator(machine=machine, engine=engine).run(trace, mode=mode)
