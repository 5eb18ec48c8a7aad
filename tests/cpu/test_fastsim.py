"""Cross-validation of the simulator's steady-state fast path.

The acceptance contract for the fast path is that it matches ``mode="exact"``
bit for bit on kernel traces — cycles, memory counters, engine makespan and
busy cycles, and the instruction-mix summary — while skipping the bulk of
the steady-state work; on traces too small or too irregular to skip it falls
back to behaviour that is bit-identical to the exact path as well.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.runtime import FIGURE13_ENGINE_NAMES, resolve_engine
from repro.core.engine import get_engine
from repro.core.isa import Opcode
from repro.core.registers import treg
from repro.cpu.columnar import ColumnarTrace, TraceBuilder
from repro.cpu import fastsim
from repro.cpu.fastsim import (
    _oracle_script,
    block_segments,
    build_segments,
    derive_block_starts,
    run_fast,
)
from repro.cpu.params import MachineParams, default_machine, memory_bound_machine
from repro.cpu.simulator import CycleApproximateSimulator
from repro.errors import SimulationError
from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.memo import build_kernel
from repro.kernels.spmm import build_spmm_kernel
from repro.kernels.vector import build_vector_gemm_kernel
from repro.types import GemmShape, SparsityPattern


def _with_hints(trace, block_starts):
    """The rows of ``trace`` under other block hints (``None``: no hints)."""
    return ColumnarTrace(trace.columns, trace.labels, trace.geometry, block_starts)


def _trace(*emits):
    """A trace whose ops are appended by ``emit(builder)`` in order."""
    builder = TraceBuilder()
    for emit in emits:
        emit(builder)
    return builder.finish()


def _compare(program, engine, machine=None, hint=True):
    simulator = CycleApproximateSimulator(machine=machine, engine=engine)
    trace = program.trace if hint else _with_hints(program.trace, None)
    exact = simulator.run(trace, mode="exact")
    fast = simulator.run(trace)
    assert fast.core_cycles == exact.core_cycles
    assert fast.memory_counters == exact.memory_counters
    assert fast.engine_makespan_cycles == exact.engine_makespan_cycles
    assert fast.engine_busy_cycles == exact.engine_busy_cycles
    assert fast.tile_compute_ops == exact.tile_compute_ops
    assert fast.trace_summary == exact.trace_summary
    return fast


class TestFastMatchesExactOnKernels:
    """Tier-1 kernel traces: fast path bit-identical to the exact scoreboard."""

    def test_dense_optimized_kernel(self):
        program = build_dense_gemm_kernel(GemmShape(256, 256, 1024))
        _compare(program, get_engine("VEGETA-D-1-2"))

    def test_dense_on_every_dense_engine(self):
        program = build_dense_gemm_kernel(GemmShape(128, 128, 1024))
        for name in ("VEGETA-D-1-1", "VEGETA-D-1-2", "VEGETA-D-16-1"):
            _compare(program, get_engine(name))

    def test_dense_listing1_variant(self):
        program = build_dense_gemm_kernel(GemmShape(128, 128, 512), variant="listing1")
        _compare(program, get_engine("VEGETA-D-1-2"))

    def test_dense_odd_tile_grid(self):
        # 13x13 C tiles: the last block row/column use smaller blocks, so the
        # trace holds several distinct periodic segments.
        program = build_dense_gemm_kernel(GemmShape(208, 208, 512))
        _compare(program, get_engine("VEGETA-D-1-2"))

    def test_spmm_2_4_kernel(self):
        program = build_spmm_kernel(GemmShape(256, 256, 1024), SparsityPattern.SPARSE_2_4)
        _compare(program, get_engine("VEGETA-S-16-2"))

    def test_spmm_kernels_with_output_forwarding(self):
        engine = get_engine("VEGETA-S-16-2").with_output_forwarding()
        for pattern in (SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4):
            program = build_spmm_kernel(GemmShape(256, 256, 1024), pattern)
            _compare(program, engine)

    def test_detection_without_builder_hints(self):
        program = build_spmm_kernel(GemmShape(256, 256, 1024), SparsityPattern.SPARSE_2_4)
        _compare(program, get_engine("VEGETA-S-16-2"), hint=False)

    def test_vector_kernel_without_hints(self):
        program = build_vector_gemm_kernel(GemmShape(64, 64, 256))
        _compare(program, None, hint=False)

    def test_no_prefetch_machine(self):
        machine = dataclasses.replace(default_machine(), prefetch_into_l2=False)
        program = build_dense_gemm_kernel(GemmShape(256, 256, 512))
        _compare(program, get_engine("VEGETA-D-1-2"), machine=machine)

    def test_oracle_covers_long_l2_latencies(self, monkeypatch):
        # The oracle's input word sizes its delay field from the data, so a
        # machine whose scripted delays exceed 600 cycles still takes the
        # oracle path, never the profile path.
        def no_profile(*args):
            raise AssertionError("profile path on a prefetch machine")

        monkeypatch.setattr("repro.cpu.fastsim._run_profiled", no_profile)
        base = default_machine()
        machine = dataclasses.replace(base, l2=dataclasses.replace(base.l2, hit_latency=600))
        program = build_dense_gemm_kernel(GemmShape(128, 128, 512))
        assert _oracle_script(machine, program.trace).requests.delay.max() >= 600
        fast = _compare(program, get_engine("VEGETA-D-1-2"), machine=machine)
        assert fast.fast_blocks_skipped > 0

    def test_oracle_rejects_latencies_beyond_its_input_word(self):
        base = default_machine()
        machine = dataclasses.replace(base, l2=dataclasses.replace(base.l2, hit_latency=1 << 16))
        program = build_dense_gemm_kernel(GemmShape(64, 64, 256))
        simulator = CycleApproximateSimulator(machine=machine, engine=get_engine("VEGETA-D-1-2"))
        with pytest.raises(SimulationError, match="65536"):
            simulator.run(program.trace)

    def test_unit_engine_clock_ratio(self):
        core = dataclasses.replace(
            default_machine().core, matrix_engine_frequency_ghz=2.0
        )
        program = build_dense_gemm_kernel(GemmShape(256, 256, 512))
        _compare(program, get_engine("VEGETA-D-1-2"), machine=MachineParams(core=core))

    def test_structural_pressure_machine(self):
        core = dataclasses.replace(default_machine().core, rob_entries=8)
        program = build_dense_gemm_kernel(GemmShape(256, 256, 512))
        _compare(program, get_engine("VEGETA-D-1-2"), machine=MachineParams(core=core))

    def test_fast_path_actually_skips(self, monkeypatch):
        # On a long uniform kernel the fast path must not fall back to
        # stepping every op: the proven steady state lets it jump.
        from repro.cpu.simulator import SimulatorState

        program = build_dense_gemm_kernel(GemmShape(256, 256, 1024))
        stepped = 0

        class CountingState(SimulatorState):
            def advance(self, record, address):
                nonlocal stepped
                stepped += 1
                return super().advance(record, address)

        monkeypatch.setattr("repro.cpu.fastsim.SimulatorState", CountingState)
        result = run_fast(default_machine(), get_engine("VEGETA-D-1-2"), program.trace)
        assert result is not None
        # Counting a transition nothing calls would pass vacuously at 0.
        assert 0 < stepped < len(program.trace) / 2


class TestSharedTraceEngines:
    """The ten Figure 13 engines run back-to-back on memoized traces (shared
    signature ids, oracle scripts and materialised ops) exactly as each runs
    on a fresh build: cycles, counters, summary and stepped/skipped blocks."""

    SHAPE = GemmShape(128, 64, 512)

    @pytest.mark.parametrize("mode", ["fast", "exact"])
    @pytest.mark.parametrize(
        "pattern",
        [SparsityPattern.DENSE_4_4, SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4],
        ids=lambda pattern: pattern.value,
    )
    def test_figure13_engines_match_fresh_builds(self, pattern, mode):
        traces = {}
        for name in FIGURE13_ENGINE_NAMES:
            engine = resolve_engine(name)
            executed = engine.executable_pattern(pattern)
            if executed is SparsityPattern.DENSE_4_4:
                shared = build_kernel("gemm", self.SHAPE, geometry=engine.geometry)
                fresh = build_dense_gemm_kernel(self.SHAPE, geometry=engine.geometry)
            else:
                shared = build_kernel("spmm", self.SHAPE, executed)
                fresh = build_spmm_kernel(self.SHAPE, executed)
            assert traces.setdefault(executed, shared.trace) is shared.trace
            simulator = CycleApproximateSimulator(engine=engine, mode=mode)
            got = simulator.run(shared.trace)
            want = simulator.run(fresh.trace)
            assert got == want, name


class TestSmallTraceEquivalence:
    """Traces with nothing to skip must be bit-identical to exact mode."""

    def test_tiny_gemm_trace(self):
        trace = _trace(
            lambda b: b.tile_load_t(treg(4), 0x1000),
            lambda b: b.tile_load_t(treg(5), 0x2000),
            *(
                lambda b, i=i: b.tile_compute(Opcode.TILE_GEMM, treg(i % 4), treg(4), treg(5))
                for i in range(6)
            ),
        )
        simulator = CycleApproximateSimulator(engine=get_engine("VEGETA-D-1-2"))
        exact = simulator.run(trace, mode="exact")
        fast = simulator.run(trace, mode="fast")
        assert fast.core_cycles == exact.core_cycles
        assert fast.memory_counters == exact.memory_counters

    def test_small_kernel_identical(self):
        program = build_dense_gemm_kernel(GemmShape(32, 32, 64))
        simulator = CycleApproximateSimulator(engine=get_engine("VEGETA-D-1-2"))
        exact = simulator.run(program.trace, mode="exact")
        fast = simulator.run(program.trace)
        assert fast.core_cycles == exact.core_cycles

    def test_repeated_vector_fmas(self):
        trace = _trace(*[lambda b: b.vector_fma(0, (1,))] * 100)
        simulator = CycleApproximateSimulator()
        assert (
            simulator.run(trace, mode="fast").core_cycles
            == simulator.run(trace, mode="exact").core_cycles
        )


class TestEdgeContracts:
    """Pinned contracts for degenerate traces (both modes)."""

    @pytest.mark.parametrize("mode", ["fast", "exact"])
    def test_empty_trace_takes_zero_time(self, mode):
        result = CycleApproximateSimulator(engine=get_engine("VEGETA-D-1-2")).run(
            _trace(), mode=mode
        )
        assert result.core_cycles == 0
        assert result.runtime_seconds == 0.0
        assert result.trace_summary.total == 0
        assert result.tile_compute_ops == 0

    @pytest.mark.parametrize("mode", ["fast", "exact"])
    def test_single_op_trace(self, mode):
        result = CycleApproximateSimulator().run(_trace(TraceBuilder.scalar), mode=mode)
        assert result.core_cycles == 1
        assert result.trace_summary.total == 1

    @pytest.mark.parametrize("mode", ["fast", "exact"])
    def test_single_load_trace(self, mode):
        result = CycleApproximateSimulator().run(
            _trace(lambda b: b.vector_load(0, 0x1000)), mode=mode
        )
        assert result.core_cycles > 1
        assert result.memory_counters["total_requests"] == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError):
            CycleApproximateSimulator(mode="warp")
        with pytest.raises(SimulationError):
            CycleApproximateSimulator().run(_trace(TraceBuilder.scalar), mode="warp")

    def test_compute_without_engine_rejected_in_fast_mode(self):
        trace = _trace(lambda b: b.tile_compute(Opcode.TILE_GEMM, treg(0), treg(1), treg(2)))
        with pytest.raises(SimulationError):
            CycleApproximateSimulator(engine=None).run(trace, mode="fast")


class TestZeroByteRequests:
    """A zero-byte memory request is an error on every path."""

    @pytest.mark.parametrize("nbytes", [0, -64])
    @pytest.mark.parametrize("emit", ["vector_load", "vector_store"])
    def test_builder_rejects_non_positive_sizes(self, emit, nbytes):
        with pytest.raises(SimulationError, match="invalid memory request"):
            getattr(TraceBuilder(), emit)(0, 0x1000, nbytes)

    @pytest.mark.parametrize("mode", ["fast", "exact"])
    def test_zero_byte_row_raises_from_run(self, mode):
        program = build_vector_gemm_kernel(GemmShape(64, 64, 256))
        columns = program.trace.columns.copy()
        columns["nbytes"][np.flatnonzero(columns["address"] >= 0)[-1]] = 0
        trace = ColumnarTrace(columns, program.trace.labels)
        with pytest.raises(SimulationError):
            CycleApproximateSimulator().run(trace, mode=mode)


class TestPeriodicityHelpers:
    def test_signature_ignores_addresses(self):
        ids = _trace(
            lambda b: b.tile_load_t(treg(1), 0x1000, "load A"),
            lambda b: b.tile_load_t(treg(1), 0x9000, "load A"),
            lambda b: b.tile_load_t(treg(2), 0x1000, "load A"),
        ).signature_ids()
        assert ids[0] == ids[1]
        assert ids[0] != ids[2]

    def test_derive_block_starts_finds_builder_blocks(self):
        program = build_dense_gemm_kernel(GemmShape(128, 128, 256))
        starts = derive_block_starts(program.trace.signature_ids())
        assert starts is not None
        # The detected anchors recur with the builder's block period.
        hints = program.trace.block_starts
        assert starts[1] - starts[0] == hints[1] - hints[0]
        assert len(starts) == len(hints)

    def test_derive_block_starts_rejects_irregular_traces(self):
        trace = _trace(*(lambda b, i=i: b.scalar(f"unique-{i}") for i in range(32)))
        assert derive_block_starts(trace.signature_ids()) is None

    def test_build_segments_splits_on_length_change(self):
        signatures = np.zeros(75, dtype=np.int64)
        bounds, segments = build_segments([0, 10, 20, 30, 45, 60], 75, signatures)
        assert bounds[-1] == 75
        assert segments == [(0, 3), (3, 3)]

    def test_run_fast_returns_none_without_periodicity(self):
        trace = _trace(*(lambda b, i=i: b.scalar(f"u{i}") for i in range(16)))
        assert run_fast(default_machine(), None, trace) is None

    def test_segments_are_found_once_per_trace(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return build_segments(*args)

        monkeypatch.setattr(fastsim, "build_segments", counting)
        trace = build_dense_gemm_kernel(GemmShape(64, 64, 128)).trace
        for name in ("VEGETA-D-1-2", "VEGETA-D-16-1"):
            for machine in (default_machine(), memory_bound_machine()):
                assert run_fast(machine, get_engine(name), trace) is not None
        assert len(calls) == 1
        bounds, segments = block_segments(trace)
        assert isinstance(bounds, tuple) and isinstance(segments, tuple)
        assert bounds[-1] == len(trace)

    def test_signature_ids_are_deterministic(self):
        # Regression: hash()-based signatures made anchor selection depend on
        # PYTHONHASHSEED.  Ids must be assigned in first-appearance order.
        program = build_dense_gemm_kernel(GemmShape(64, 64, 128))
        ids = program.trace.signature_ids()
        assert ids[0] == 0
        seen = set()
        expected_next = 0
        for value in ids:
            if value not in seen:
                assert value == expected_next  # first appearance gets the next id
                seen.add(value)
                expected_next += 1

    def test_detection_is_stable_across_hash_seeds(self):
        import os
        import subprocess
        import sys

        script = (
            "from repro.cpu.fastsim import derive_block_starts\n"
            "from repro.kernels.gemm import build_dense_gemm_kernel\n"
            "from repro.types import GemmShape\n"
            "trace = build_dense_gemm_kernel(GemmShape(64, 64, 256)).trace\n"
            "starts = derive_block_starts(trace.signature_ids())\n"
            "print(list(starts))\n"
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = set()
        for seed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src_dir},
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1


class TestHintValidation:
    """Builder hints only choose where blocks start; their content is never
    trusted.  Every fast-path segment is signature-verified in full, so a
    lying or malformed hint costs skipping, never correctness."""

    def _blocks_of_different_composition(self):
        # Two interleaved equal-length block flavours: same length (3 ops),
        # different scalar/branch mix — a lying hint must not corrupt the
        # instruction-mix summary.
        builder = TraceBuilder()
        starts = []
        for index in range(12):
            starts.append(len(builder))
            builder.scalar("a")
            if index % 2 == 0:
                builder.scalar("a")
            else:
                builder.branch("a")
            builder.branch("a")
        return _with_hints(builder.finish(), tuple(starts))

    def test_lying_hint_falls_back_to_exact(self):
        # Neighbouring blocks differ, so full segment verification leaves
        # every segment one block long and every block is stepped exactly.
        trace = self._blocks_of_different_composition()
        simulator = CycleApproximateSimulator()
        exact = simulator.run(trace, mode="exact")
        fast = simulator.run(trace)
        assert fast.core_cycles == exact.core_cycles
        assert fast.trace_summary == exact.trace_summary

    def test_lying_hint_inside_skipped_span_is_caught(self):
        # Mismatching blocks that sit entirely between the simulated anchors
        # must not be accounted as copies of the segment head: full segment
        # verification splits them into a segment of their own.
        builder = TraceBuilder()
        starts = []
        for index in range(30):
            starts.append(len(builder))
            for _ in range(3):
                if 8 <= index < 28:
                    builder.vector_fma(0, (1,))
                else:
                    builder.scalar("x")
        trace = _with_hints(builder.finish(), tuple(starts))
        simulator = CycleApproximateSimulator()
        exact = simulator.run(trace, mode="exact")
        fast = simulator.run(trace)
        assert fast.core_cycles == exact.core_cycles
        assert fast.trace_summary == exact.trace_summary

    def test_malformed_hints_are_ignored(self):
        program = build_dense_gemm_kernel(GemmShape(64, 64, 256))
        simulator = CycleApproximateSimulator(engine=get_engine("VEGETA-D-1-2"))
        exact = simulator.run(program.trace, mode="exact")
        for bad in ((5, 3, 1), (0, 10, 10**9), (-3, 0, 5)):
            fast = simulator.run(_with_hints(program.trace, bad))
            assert fast.core_cycles == exact.core_cycles
            assert fast.trace_summary == exact.trace_summary
