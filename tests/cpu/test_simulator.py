"""Tests for the cycle-approximate trace-driven simulator."""

import dataclasses

import pytest

from repro.core.engine import get_engine
from repro.core.isa import Opcode
from repro.core.registers import mreg, treg, ureg
from repro.cpu.columnar import TraceBuilder
from repro.cpu.params import CoreParams, MachineParams, default_machine
from repro.cpu.simulator import CycleApproximateSimulator
from repro.errors import SimulationError
from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.spmm import build_spmm_kernel
from repro.types import GemmShape, SparsityPattern


def _gemm_builder(compute_count=4, accumulators=4):
    """Two operand loads, then GEMMs cycling over ``accumulators`` tregs."""
    builder = TraceBuilder()
    builder.tile_load_t(treg(4), 0x1000)
    builder.tile_load_t(treg(5), 0x2000)
    for index in range(compute_count):
        builder.tile_compute(Opcode.TILE_GEMM, treg(index % accumulators), treg(4), treg(5))
    return builder


def _simple_gemm_trace(compute_count=4):
    """Loads followed by independent GEMMs into distinct accumulators."""
    return _gemm_builder(compute_count).finish()


def _single_gemm_trace():
    builder = TraceBuilder()
    builder.tile_compute(Opcode.TILE_GEMM, treg(0), treg(1), treg(2))
    return builder.finish()


def _repeated(emit, count):
    """A trace of ``count`` ops, each appended by ``emit(builder)``."""
    builder = TraceBuilder()
    for _ in range(count):
        emit(builder)
    return builder.finish()


class TestBasicBehaviour:
    def test_empty_trace(self):
        result = CycleApproximateSimulator(engine=get_engine("VEGETA-D-1-2")).run(
            TraceBuilder().finish()
        )
        assert result.core_cycles >= 0
        assert result.tile_compute_ops == 0

    def test_scalar_only_trace_is_issue_bound(self):
        simulator = CycleApproximateSimulator()
        result = simulator.run(_repeated(TraceBuilder.scalar, 400))
        # 4-wide issue: at least 100 cycles.
        assert result.core_cycles >= 100
        assert result.core_cycles < 200

    def test_compute_requires_engine(self):
        simulator = CycleApproximateSimulator(engine=None)
        with pytest.raises(SimulationError):
            simulator.run(_single_gemm_trace())

    def test_result_counts_match_trace(self):
        trace = _simple_gemm_trace(6)
        result = CycleApproximateSimulator(engine=get_engine("VEGETA-D-1-2")).run(trace)
        assert result.tile_compute_ops == 6
        assert result.trace_summary.total == len(trace)
        assert result.engine_busy_cycles == 6 * 16

    def test_runtime_seconds_positive(self):
        result = CycleApproximateSimulator(engine=get_engine("VEGETA-D-1-2")).run(
            _simple_gemm_trace()
        )
        assert result.runtime_seconds > 0
        assert result.core_cycles > 0


class TestDependences:
    def test_compute_waits_for_operand_loads(self):
        engine = get_engine("VEGETA-D-1-2")
        builder = TraceBuilder()
        builder.tile_compute(Opcode.TILE_GEMM, treg(0), treg(4), treg(5))
        only_compute = builder.finish()
        with_loads = _simple_gemm_trace(1)
        fast = CycleApproximateSimulator(engine=engine).run(only_compute)
        slow = CycleApproximateSimulator(engine=engine).run(with_loads)
        assert slow.core_cycles > fast.core_cycles

    def test_accumulator_chain_slower_than_independent(self):
        engine = get_engine("VEGETA-S-16-2")
        chained = _gemm_builder(8, accumulators=1).finish()
        independent = _gemm_builder(8).finish()
        chained_cycles = CycleApproximateSimulator(engine=engine).run(chained).core_cycles
        independent_cycles = (
            CycleApproximateSimulator(engine=engine).run(independent).core_cycles
        )
        assert chained_cycles > independent_cycles

    def test_output_forwarding_speeds_up_chains(self):
        base = get_engine("VEGETA-S-16-2")
        trace = _gemm_builder(16, accumulators=1).finish()
        without = CycleApproximateSimulator(engine=base).run(trace).core_cycles
        with_of = (
            CycleApproximateSimulator(engine=base.with_output_forwarding())
            .run(trace)
            .core_cycles
        )
        assert with_of < without

    def test_store_waits_for_compute(self):
        engine = get_engine("VEGETA-D-1-2")
        builder = _gemm_builder(1)
        builder.tile_store_t(0x8000, treg(0))
        result = CycleApproximateSimulator(engine=engine).run(builder.finish())
        # The store completes after the compute's engine latency has elapsed.
        assert result.core_cycles >= engine.instruction_latency * 4

    def test_sparse_compute_waits_for_metadata(self):
        engine = get_engine("VEGETA-S-16-2")

        def spmm_trace(load_metadata):
            builder = TraceBuilder()
            builder.tile_load_t(treg(2), 0x1000)
            builder.tile_load_u(ureg(2), 0x2000)
            if load_metadata:
                builder.tile_load_m(mreg(2), 0x40000)
            builder.tile_compute(Opcode.TILE_SPMM_U, treg(0), treg(2), ureg(2))
            return builder.finish()

        a = CycleApproximateSimulator(engine=engine).run(spmm_trace(False)).core_cycles
        b = CycleApproximateSimulator(engine=engine).run(spmm_trace(True)).core_cycles
        assert b >= a


class TestEngineComparisons:
    def test_rasa_sm_slower_than_rasa_dm_on_dense_kernel(self):
        shape = GemmShape(m=64, n=64, k=256)
        program = build_dense_gemm_kernel(shape)
        sm = CycleApproximateSimulator(engine=get_engine("VEGETA-D-1-1")).run(program.trace)
        dm = CycleApproximateSimulator(engine=get_engine("VEGETA-D-1-2")).run(program.trace)
        assert sm.core_cycles > dm.core_cycles

    def test_sparse_kernel_faster_than_dense_on_sparse_engine(self):
        shape = GemmShape(m=64, n=64, k=512)
        dense_program = build_dense_gemm_kernel(shape)
        sparse_program = build_spmm_kernel(shape, SparsityPattern.SPARSE_2_4)
        engine = get_engine("VEGETA-S-16-2").with_output_forwarding()
        dense_cycles = CycleApproximateSimulator(engine=engine).run(dense_program.trace).core_cycles
        sparse_cycles = CycleApproximateSimulator(engine=engine).run(sparse_program.trace).core_cycles
        assert sparse_cycles < dense_cycles
        assert dense_cycles / sparse_cycles > 1.5

    def test_1_4_kernel_faster_than_2_4(self):
        shape = GemmShape(m=64, n=64, k=512)
        engine = get_engine("VEGETA-S-16-2").with_output_forwarding()
        two_four = CycleApproximateSimulator(engine=engine).run(
            build_spmm_kernel(shape, SparsityPattern.SPARSE_2_4).trace
        )
        one_four = CycleApproximateSimulator(engine=engine).run(
            build_spmm_kernel(shape, SparsityPattern.SPARSE_1_4).trace
        )
        assert one_four.core_cycles < two_four.core_cycles


class TestVectorPath:
    def test_vector_fma_throughput_limits_runtime(self):
        machine = default_machine()
        trace = _repeated(lambda builder: builder.vector_fma(0, (1,)), 100)
        result = CycleApproximateSimulator(machine=machine).run(trace)
        # 0.5 FMAs per cycle -> at least 200 cycles.
        assert result.core_cycles >= 100 / machine.core.vector_fma_per_cycle

    def test_vector_load_feeds_fma(self):
        builder = TraceBuilder()
        builder.vector_load(1, 0x1000)
        builder.vector_fma(0, (1,))
        result = CycleApproximateSimulator().run(builder.finish())
        assert result.core_cycles > 1

    def test_engine_clock_ratio_slows_tile_compute(self):
        fast_core = dataclasses.replace(
            default_machine().core, matrix_engine_frequency_ghz=2.0
        )
        fast = MachineParams(core=fast_core)
        engine = get_engine("VEGETA-D-1-2")
        trace = _simple_gemm_trace(8)
        slow_cycles = CycleApproximateSimulator(engine=engine).run(trace).core_cycles
        fast_cycles = (
            CycleApproximateSimulator(machine=fast, engine=engine).run(trace).core_cycles
        )
        assert fast_cycles < slow_cycles


class TestStructuralLimits:
    def test_small_rob_increases_runtime(self):
        small_rob_core = dataclasses.replace(default_machine().core, rob_entries=8)
        small = MachineParams(core=small_rob_core)
        engine = get_engine("VEGETA-D-1-2")
        program = build_dense_gemm_kernel(GemmShape(m=64, n=64, k=128))
        baseline = CycleApproximateSimulator(engine=engine).run(program.trace).core_cycles
        constrained = (
            CycleApproximateSimulator(machine=small, engine=engine)
            .run(program.trace)
            .core_cycles
        )
        assert constrained >= baseline

    def test_engine_utilization_bounded(self):
        program = build_dense_gemm_kernel(GemmShape(m=64, n=64, k=256))
        result = CycleApproximateSimulator(engine=get_engine("VEGETA-D-1-2")).run(program.trace)
        assert 0.0 < result.engine_utilization <= 1.0
