"""Tests for the WL/FF/FS/DR pipeline model and output forwarding."""

import pytest

from repro.core.engine import get_engine
from repro.core.pipeline import (
    MatrixEnginePipeline,
    TileComputeRequest,
    dependent_chain_interval,
    steady_state_issue_interval,
)
from repro.errors import SimulationError


class TestSingleInstruction:
    def test_stage_ordering(self):
        pipeline = MatrixEnginePipeline(get_engine("VEGETA-D-1-2"))
        timing = pipeline.schedule(TileComputeRequest(op_id=0))
        assert timing.wl_start == 0
        assert timing.ff_start >= timing.wl_end
        assert timing.fs_start >= timing.ff_end
        assert timing.dr_start >= timing.fs_end
        assert timing.complete >= timing.dr_end

    def test_latency_matches_engine_formula(self):
        for name in ("VEGETA-D-1-1", "VEGETA-S-16-2", "VEGETA-S-2-2"):
            engine = get_engine(name)
            pipeline = MatrixEnginePipeline(engine)
            timing = pipeline.schedule(TileComputeRequest(op_id=0))
            assert timing.latency == engine.instruction_latency

    def test_operand_ready_delays_start(self):
        pipeline = MatrixEnginePipeline(get_engine("VEGETA-S-2-2"))
        timing = pipeline.schedule(TileComputeRequest(op_id=0, operands_ready=100))
        assert timing.wl_start == 100


class TestPipelining:
    def test_independent_instructions_issue_every_16_cycles(self):
        for name in ("VEGETA-D-1-2", "VEGETA-S-16-2"):
            assert steady_state_issue_interval(get_engine(name)) == pytest.approx(16)

    def test_no_two_instructions_share_a_stage(self):
        pipeline = MatrixEnginePipeline(get_engine("VEGETA-S-2-2"))
        timings = pipeline.schedule_all(
            [TileComputeRequest(op_id=i) for i in range(6)]
        )
        for earlier, later in zip(timings, timings[1:]):
            assert later.ff_start >= earlier.ff_end
            assert later.dr_start >= earlier.dr_end

    def test_makespan_grows_linearly_in_steady_state(self):
        engine = get_engine("VEGETA-S-16-2")
        pipeline = MatrixEnginePipeline(engine)
        pipeline.schedule_all([TileComputeRequest(op_id=i) for i in range(20)])
        # 20 instructions at a 16-cycle interval plus one latency of overhead.
        assert pipeline.makespan <= 20 * 16 + engine.instruction_latency

    def test_utilization_approaches_one_for_long_streams(self):
        pipeline = MatrixEnginePipeline(get_engine("VEGETA-D-1-2"))
        pipeline.schedule_all([TileComputeRequest(op_id=i) for i in range(200)])
        busy = pipeline.timing.busy_cycles_per_instruction * 200
        assert busy / pipeline.makespan > 0.9


class TestDependences:
    def test_dependent_chain_slower_without_forwarding(self):
        engine = get_engine("VEGETA-S-16-2")
        without = dependent_chain_interval(engine)
        with_of = dependent_chain_interval(engine.with_output_forwarding())
        assert with_of < without

    def test_forwarded_chain_interval_bounded_by_output_ready_latency(self):
        engine = get_engine("VEGETA-S-16-2").with_output_forwarding()
        interval = dependent_chain_interval(engine, depth=16)
        assert interval <= engine.output_ready_latency + 1

    def test_unforwarded_chain_waits_for_completion(self):
        engine = get_engine("VEGETA-S-16-2")
        pipeline = MatrixEnginePipeline(engine)
        first = pipeline.schedule(TileComputeRequest(op_id=0))
        second = pipeline.schedule(
            TileComputeRequest(op_id=1, accumulator_dep=0)
        )
        assert second.ff_start >= first.complete

    def test_forwarded_consumer_starts_before_producer_completes(self):
        engine = get_engine("VEGETA-D-1-2").with_output_forwarding()
        pipeline = MatrixEnginePipeline(engine)
        first = pipeline.schedule(TileComputeRequest(op_id=0))
        second = pipeline.schedule(TileComputeRequest(op_id=1, accumulator_dep=0))
        assert second.ff_start < first.complete

    def test_unknown_dependency_rejected(self):
        pipeline = MatrixEnginePipeline(get_engine("VEGETA-D-1-1"))
        with pytest.raises(SimulationError):
            pipeline.schedule(TileComputeRequest(op_id=0, accumulator_dep=99))

    def test_duplicate_op_id_rejected(self):
        pipeline = MatrixEnginePipeline(get_engine("VEGETA-D-1-1"))
        pipeline.schedule(TileComputeRequest(op_id=0))
        with pytest.raises(SimulationError):
            pipeline.schedule(TileComputeRequest(op_id=0))

