"""SpGEMM fast-path parity: feed-overhead-aware steady-state detection.

The SpGEMM kernels stamp a data-dependent Feed-First overhead on every tile
instruction (the dual-operand metadata intersection), so the fast path's
shift-invariance proof must treat the overhead sequence as part of a block's
identity: blocks are skippable only when their overhead sequences match
element-wise.  These tests pin the acceptance contract — fast == exact
*bit-for-bit* across random dual sparsity structures, with and without
output forwarding, including operands crafted so neighbouring blocks carry
different overhead sequences and the fast path must refuse to skip.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import get_engine
from repro.cpu.fastsim import (
    DEFAULT_MAX_SUPER_PERIOD,
    MAX_SUPER_PERIOD_ENV,
    resolve_max_super_period,
    run_fast,
)
from repro.cpu.multicore import simulation_cache_key
from repro.cpu.params import default_machine
from repro.cpu.simulator import CycleApproximateSimulator
from repro.errors import ConfigurationError
from repro.kernels.spgemm import build_spgemm_kernel
from repro.sparse.pruning import prune_to_pattern
from repro.types import DEFAULT_GEOMETRY, GemmShape, SparsityPattern

ENGINE_OF = get_engine("VEGETA-S-16-2").with_output_forwarding().with_spgemm()
ENGINE_NO_OF = get_engine("VEGETA-S-16-2").with_spgemm()


def _random_dual_sparse(shape, pattern, rng, a_density=1.0, b_density=1.0):
    """Random operands satisfying the joint pattern, with optional whole
    K-blocks zeroed to vary the metadata-intersection occupancy."""
    a = prune_to_pattern(
        rng.standard_normal((shape.m, shape.k)).astype(np.float32), pattern
    )
    b = prune_to_pattern(
        rng.standard_normal((shape.k, shape.n)).astype(np.float32).T, pattern
    ).T
    if a_density < 1.0:
        blocks = a.reshape(shape.m, shape.k // 4, 4)
        mask = rng.random((shape.m, shape.k // 4)) < a_density
        a = (blocks * mask[:, :, None]).reshape(shape.m, shape.k)
    if b_density < 1.0:
        blocks = b.T.reshape(shape.n, shape.k // 4, 4)
        mask = rng.random((shape.n, shape.k // 4)) < b_density
        b = (blocks * mask[:, :, None]).reshape(shape.n, shape.k).T
    return a, b


def _assert_bit_identical(program, engine):
    simulator = CycleApproximateSimulator(engine=engine)
    exact = simulator.run(program.trace, mode="exact")
    fast = simulator.run(program.trace)
    assert fast.core_cycles == exact.core_cycles
    assert fast.memory_counters == exact.memory_counters
    assert fast.engine_busy_cycles == exact.engine_busy_cycles
    assert fast.tile_compute_ops == exact.tile_compute_ops
    assert fast.trace_summary == exact.trace_summary
    return exact, fast


class TestSpgemmFastExactParity:
    """fast == exact bit-for-bit across random dual sparsity structures."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        pattern=st.sampled_from(
            [SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4]
        ),
        k_tiles=st.integers(min_value=1, max_value=3),
        forwarding=st.booleans(),
        a_density=st.sampled_from([1.0, 0.6, 0.2]),
        b_density=st.sampled_from([1.0, 0.5]),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_dual_sparsity(
        self, seed, pattern, k_tiles, forwarding, a_density, b_density
    ):
        shape = GemmShape(64, 64, k_tiles * 32 * pattern.compression_ratio)
        rng = np.random.default_rng(seed)
        a, b = _random_dual_sparse(shape, pattern, rng, a_density, b_density)
        program = build_spgemm_kernel(shape, pattern, a=a, b=b)
        engine = ENGINE_OF if forwarding else ENGINE_NO_OF
        _assert_bit_identical(program, engine)

    def test_trace_only_kernel_unchanged(self):
        # Without operand data every feed stays -1 and the simulator applies
        # the engine's worst-case formula — the pre-existing behaviour.
        program = build_spgemm_kernel(
            GemmShape(128, 128, 512), SparsityPattern.SPARSE_2_4
        )
        _assert_bit_identical(program, ENGINE_OF)

    def test_differing_overhead_sequences_force_fallback(self):
        # Craft A so the first output-tile row pair is fully dense while the
        # second has most K-blocks zeroed: blocks in different row pairs then
        # carry different feed-overhead sequences and must not be proven
        # shift-invariant against each other; equality must come from
        # stepping, not from an unsound skip.
        pattern = SparsityPattern.SPARSE_2_4
        shape = GemmShape(64, 32, 128)
        rng = np.random.default_rng(11)
        a, b = _random_dual_sparse(shape, pattern, rng)
        sparse_rows = slice(2 * DEFAULT_GEOMETRY.rows, 4 * DEFAULT_GEOMETRY.rows)
        # Zeroing 8 whole K-blocks of the second row pair halves the first
        # K-tile's occupied-block count (16 -> 8): merge overhead 2 vs 4.
        a[sparse_rows, 0:32] = 0.0
        program = build_spgemm_kernel(shape, pattern, a=a, b=b)

        feeds = {
            op.tile.feed_overhead
            for op in program.trace.ops()
            if op.tile is not None and op.tile.opcode.is_compute
        }
        assert len(feeds) > 1, "operands failed to produce distinct overheads"
        exact, fast = _assert_bit_identical(program, ENGINE_OF)
        # Both row pairs contribute blocks the detector cannot fuse, so at
        # least one block per distinct overhead profile is stepped.
        assert fast.fast_blocks_stepped >= 2

    def test_uniform_spgemm_reaches_high_coverage(self):
        # The padded layouts and issue-aligned blocks keep dense-random 2:4
        # operands in steady state: nearly every block is skipped, which is
        # what backs the benchmark's >= 8x speedup floor structurally.
        pattern = SparsityPattern.SPARSE_2_4
        shape = GemmShape(256, 256, 1024)
        rng = np.random.default_rng(7)
        a, b = _random_dual_sparse(shape, pattern, rng)
        program = build_spgemm_kernel(shape, pattern, a=a, b=b)
        exact, fast = _assert_bit_identical(program, ENGINE_OF)
        assert fast.fast_blocks_stepped + fast.fast_blocks_skipped == len(
            program.trace.block_starts
        )
        assert fast.fast_path_coverage > 0.9
        # The exact path reports no fast-path activity at all.
        assert exact.fast_blocks_skipped == 0
        assert exact.fast_path_coverage == 0.0


class TestSuperPeriodKnob:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(MAX_SUPER_PERIOD_ENV, raising=False)
        assert resolve_max_super_period() == DEFAULT_MAX_SUPER_PERIOD

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(MAX_SUPER_PERIOD_ENV, "4")
        assert resolve_max_super_period() == 4

    @pytest.mark.parametrize("raw", ["zero", "", "0", "-3"])
    def test_invalid_values_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(MAX_SUPER_PERIOD_ENV, raw)
        with pytest.raises(ConfigurationError):
            resolve_max_super_period()

    def test_tight_cap_still_exact(self):
        # A cap of 1 only allows directly adjacent block jumps; the result
        # must stay bit-identical, merely with lower coverage.
        pattern = SparsityPattern.SPARSE_2_4
        shape = GemmShape(64, 64, 256)
        rng = np.random.default_rng(3)
        a, b = _random_dual_sparse(shape, pattern, rng)
        program = build_spgemm_kernel(shape, pattern, a=a, b=b)
        simulator = CycleApproximateSimulator(engine=ENGINE_OF)
        exact = simulator.run(program.trace, mode="exact")
        capped = run_fast(default_machine(), ENGINE_OF, program.trace, max_super_period=1)
        assert capped is not None
        assert capped.core_cycles == exact.core_cycles
        assert capped.memory_counters == exact.memory_counters


class TestMemoKeyFeedParity:
    """The multicore memo key must distinguish feed-only trace differences."""

    machine = default_machine()

    def _key(self, program):
        return simulation_cache_key(program, self.machine, ENGINE_OF, "fast")

    def test_same_structure_different_feeds_distinct_keys(self):
        # Two kernels with identical op/address structure whose operands
        # differ only in K-block occupancy — same instruction stream, only
        # the feed-overhead column differs.  Replaying one's cached result
        # for the other would be wrong, so their keys must differ.
        pattern = SparsityPattern.SPARSE_2_4
        shape = GemmShape(32, 32, 128)
        rng = np.random.default_rng(5)
        a_full, b = _random_dual_sparse(shape, pattern, rng)
        # Zeroing 4 whole K-blocks drops the first K-tile's occupied-block
        # count from 16 to 12 and its merge overhead from 4 to 3 cycles.
        a_sparse = a_full.copy()
        a_sparse[:, 0:16] = 0.0

        dense_program = build_spgemm_kernel(shape, pattern, a=a_full, b=b)
        sparse_program = build_spgemm_kernel(shape, pattern, a=a_sparse, b=b)

        def signature(program):
            return [
                (op.kind, op.nbytes, op.tile.opcode if op.tile else None)
                for op in program.trace.ops()
            ]

        assert signature(dense_program) == signature(sparse_program)
        assert self._key(dense_program) != self._key(sparse_program)

    def test_equal_feeds_equal_keys(self):
        pattern = SparsityPattern.SPARSE_2_4
        shape = GemmShape(32, 32, 128)
        rng = np.random.default_rng(9)
        a, b = _random_dual_sparse(shape, pattern, rng)
        first = build_spgemm_kernel(shape, pattern, a=a, b=b)
        second = build_spgemm_kernel(shape, pattern, a=a, b=b)
        assert self._key(first) == self._key(second)

    def test_key_ignores_raw_values_with_equal_occupancy(self):
        # Scaling non-zeros changes the data but not the metadata
        # intersection, the addresses or the op stream — the simulation
        # outcome is identical, so the key may (and should) coincide.
        pattern = SparsityPattern.SPARSE_2_4
        shape = GemmShape(32, 32, 128)
        rng = np.random.default_rng(13)
        a, b = _random_dual_sparse(shape, pattern, rng)
        first = build_spgemm_kernel(shape, pattern, a=a, b=b)
        second = build_spgemm_kernel(shape, pattern, a=2.0 * a, b=b)
        assert self._key(first) == self._key(second)
