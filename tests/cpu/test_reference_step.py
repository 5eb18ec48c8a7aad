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
from repro.core import isa
from repro.core.registers import mreg, treg, ureg, vreg
from repro.cpu.columnar import ColumnarTrace
from repro.cpu.fastsim import _oracle_script
from repro.cpu.memory import MemorySystem, ScriptedMemory
from repro.cpu.params import MachineParams, default_machine, memory_bound_machine
from repro.cpu.simulator import CycleApproximateSimulator, SimulatorState
from repro.cpu.trace import (
    TraceOp,
    TraceOpKind,
    branch_op,
    scalar_op,
    tile_op,
    vector_fma,
    vector_load,
    vector_store,
)
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


def _tile_instruction(draw, computes):
    """A tile instruction; ``computes`` are the compute kinds allowed."""
    choice = draw(st.sampled_from(("load_t", "load_u", "load_v", "load_m", "store") + computes))
    # Four tregs (two uregs, one vreg) make aliasing and reuse common.
    t = lambda: treg(draw(st.integers(0, 3)))  # noqa: E731
    u = lambda: ureg(draw(st.integers(0, 1)))  # noqa: E731
    if choice == "load_t":
        return isa.tile_load_t(t(), draw(ADDRESSES))
    if choice == "load_u":
        return isa.tile_load_u(u(), draw(ADDRESSES))
    if choice == "load_v":
        return isa.tile_load_v(vreg(0), draw(ADDRESSES))
    if choice == "load_m":
        return isa.tile_load_m(mreg(draw(st.integers(0, 3))), draw(ADDRESSES))
    if choice == "store":
        return isa.tile_store_t(draw(ADDRESSES), t())
    if choice == "gemm":
        return isa.tile_gemm(t(), t(), t())
    if choice == "spmm_u":
        return isa.tile_spmm_u(t(), t(), u())
    if choice == "spmm_v":
        return isa.tile_spmm_v(t(), t(), vreg(0))
    if choice == "spmm_r":
        return isa.tile_spmm_r(u(), t(), u())
    build = draw(st.sampled_from((isa.tile_spgemm_u, isa.tile_spgemm_v)))
    return build(t(), t(), t(), feed_overhead=draw(st.integers(-1, 24)))


@st.composite
def scenarios(draw, max_length=48):
    """``(engine name, ops)``: mostly streams the engine can run, some it cannot."""
    engine_name = draw(st.sampled_from(ENGINES))
    computes = ("gemm", "spmm_u", "spmm_v", "spmm_r")
    if engine_name is not None and engine_name.endswith("+SPGEMM"):
        computes += ("spgemm", "spgemm")
    elif draw(st.integers(0, 9)) == 0:
        computes += ("spgemm",)  # rejected by a non-SpGEMM engine
    if engine_name is None and draw(st.integers(0, 4)):
        computes = ()  # a vector/scalar stream; otherwise rejected without engine
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_length))):
        kind = draw(st.sampled_from(("tile", "tile", "tile", "vload", "vstore",
                                     "vfma", "scalar", "branch")))
        v = lambda: draw(st.integers(0, 3))  # noqa: E731
        if kind == "tile":
            ops.append(tile_op(_tile_instruction(draw, computes)))
        elif kind == "vload":
            ops.append(vector_load(v(), draw(ADDRESSES), draw(st.sampled_from((64, 96, 200)))))
        elif kind == "vstore":
            ops.append(vector_store(v(), draw(ADDRESSES)))
        elif kind == "vfma":
            if draw(st.booleans()):
                ops.append(vector_fma(v(), [v() for _ in range(draw(st.integers(0, 2)))]))
            else:  # an FMA without a destination register
                ops.append(TraceOp(kind=TraceOpKind.VECTOR_FMA, src_regs=(v(), v())))
        elif kind == "scalar":
            ops.append(scalar_op())
        else:
            ops.append(branch_op())
    return engine_name, ops


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
    engine_name, ops = scenario
    engine = resolve_engine(engine_name) if engine_name is not None else None
    if engine is not None and forwarding:
        engine = engine.with_output_forwarding()
    trace = ColumnarTrace.from_ops(ops)
    try:
        want = reference_run(
            machine, engine, ops, _memory(machine, trace, scripted), trace.summarize()
        )
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
    "engine_name, op, message",
    [
        (None, isa.tile_gemm(treg(0), treg(1), treg(2)), "no engine was configured"),
        (
            "VEGETA-S-16-2",
            isa.tile_spgemm_u(treg(0), treg(1), treg(2)),
            "SpGEMM stream merging is not enabled",
        ),
    ],
)
def test_errors_match_reference(engine_name, op, message):
    engine = resolve_engine(engine_name) if engine_name is not None else None
    ops = [scalar_op(), tile_op(isa.tile_load_t(treg(1), 0x40)), tile_op(op)]
    machine = default_machine()
    trace = ColumnarTrace.from_ops(ops)
    with pytest.raises(SimulationError, match=message):
        reference_run(machine, engine, ops, MemorySystem(machine), trace.summarize())
    for mode in ("exact", "fast"):
        with pytest.raises(SimulationError, match=message):
            CycleApproximateSimulator(machine=machine, engine=engine).run(trace, mode=mode)
