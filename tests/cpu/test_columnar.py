"""Tests for the columnar trace representation and its vectorised views."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_memory import Cache
from reference_ops import (
    expand_lines,
    footprint_lines,
    intern_signatures,
    line_address_structure_digest,
    line_l1_outcome_bits,
    summarize_ops,
)
from reference_ops import lru_outcome_bits as reference_lru_outcome_bits

from repro.analysis.runtime import resolve_engine
from repro.core.engine import SME_GEOMETRY
from repro.core.isa import Opcode
from repro.core.pipeline import TileComputeRequest, TileComputeTiming
from repro.core.registers import treg
from repro.cpu import columnar
from repro.cpu.columnar import (
    _LRU_SLAB_ACCESSES,
    KIND_CODES,
    TRACE_DTYPE,
    ColumnarTrace,
    TraceBuilder,
    distinct_line_count,
    frozen_trace,
    lru_outcome_bits,
    sorted_unique,
)
from repro.cpu.fastsim import _build_oracle, _oracle_script, _OracleScript
from repro.cpu.memory import RequestScript
from repro.cpu.multicore import simulation_cache_key
from repro.cpu.params import CacheParams, default_machine, memory_bound_machine
from repro.cpu.simulator import CycleApproximateSimulator
from repro.cpu.trace import TraceOp, TraceOpKind
from repro.errors import SimulationError
from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.sharding import shard_kernel
from repro.kernels.spgemm import build_spgemm_kernel
from repro.kernels.spmm import build_spmm_kernel
from repro.kernels.vector import build_vector_gemm_kernel
from repro.types import DEFAULT_GEOMETRY, GemmShape, SparsityPattern, TileGeometry
from repro.workloads.generator import generate_dual_sparse


def register_code(ref):
    """The documented column encoding of a tile register: kind code * 64 + index."""
    return -1 if ref is None else ("treg", "ureg", "vreg", "mreg").index(ref.kind) * 64 + ref.index


def reemit(ops):
    """Encode materialised ops again, one ``TraceBuilder`` call per op.

    The geometry is read back from the tile instructions, as the ops carry it.
    """
    geometry = next((op.tile.geometry for op in ops if op.tile is not None), DEFAULT_GEOMETRY)
    builder = TraceBuilder(geometry)
    for op in ops:
        tile = op.tile
        if tile is None:
            if op.kind is TraceOpKind.VECTOR_LOAD:
                builder.vector_load(op.dst_reg, op.address, op.nbytes, op.label)
            elif op.kind is TraceOpKind.VECTOR_STORE:
                builder.vector_store(op.src_regs[0], op.address, op.nbytes, op.label)
            elif op.kind is TraceOpKind.VECTOR_FMA:
                builder.vector_fma(op.dst_reg, op.src_regs, op.label)
            elif op.kind is TraceOpKind.SCALAR:
                builder.scalar(op.label)
            else:
                builder.branch(op.label)
        elif tile.opcode.is_load:
            builder.tile_load(tile.opcode, tile.dst, tile.memory.address, tile.label)
        elif tile.opcode.is_store:
            builder.tile_store_t(tile.memory.address, tile.src_a, tile.label)
        else:
            builder.tile_compute(
                tile.opcode, tile.dst, tile.src_a, tile.src_b, tile.label, tile.feed_overhead
            )
    return builder.finish()


def all_programs():
    shape = GemmShape(64, 64, 256)
    return [
        build_dense_gemm_kernel(shape),
        build_dense_gemm_kernel(shape, variant="listing1"),
        build_spmm_kernel(shape, SparsityPattern.SPARSE_2_4),
        build_spmm_kernel(shape, SparsityPattern.SPARSE_1_4),
        build_spgemm_kernel(shape, SparsityPattern.SPARSE_2_4),
        build_vector_gemm_kernel(GemmShape(16, 64, 64)),
    ]


def view_programs():
    """``all_programs()`` plus an SME-geometry dense kernel and a SpGEMM kernel
    built from operands, whose computes carry stamped feed overheads."""
    shape = GemmShape(64, 64, 128)
    pattern = SparsityPattern.SPARSE_2_4
    operands = generate_dual_sparse(shape, pattern, pattern, seed=3)
    return all_programs() + [
        build_dense_gemm_kernel(shape, geometry=SME_GEOMETRY),
        build_spgemm_kernel(shape, pattern, a=operands.a, b=operands.b),
    ]


def view_id(program):
    return f"{program.label}-{program.trace.geometry.name}" + ("-data" if program.has_data else "")


class TestColumnarParity:
    """The columnar views agree with the op-by-op reference computations."""

    @pytest.mark.parametrize("program", all_programs(), ids=lambda p: p.label)
    def test_materialised_ops_roundtrip(self, program):
        # Re-materialising from columns alone reproduces the op objects the
        # legacy builders would have produced, field for field.
        trace = program.trace
        rebuilt = ColumnarTrace(columns=trace.columns, labels=trace.labels)
        assert rebuilt.ops() == trace.ops()

    @pytest.mark.parametrize("program", all_programs(), ids=lambda p: p.label)
    def test_signature_ids_match_interning(self, program):
        ops = program.trace.ops()
        assert np.array_equal(program.trace.signature_ids(), intern_signatures(ops))

    @pytest.mark.parametrize("program", all_programs(), ids=lambda p: p.label)
    def test_summaries_and_footprints(self, program):
        ops = program.trace.ops()
        assert program.trace.summarize() == summarize_ops(ops)
        assert np.array_equal(
            program.trace.footprint_line_numbers(64), footprint_lines(ops, 64)
        )
        span = ColumnarTrace(columns=program.trace.columns[3:41], labels=program.trace.labels)
        assert span.summarize() == summarize_ops(ops[3:41])
        assert np.array_equal(span.footprint_line_numbers(64), footprint_lines(ops[3:41], 64))

    @settings(max_examples=60, deadline=None)
    @given(
        accesses=st.lists(
            st.tuples(st.integers(0, 1 << 20), st.integers(1, 4096), st.booleans()),
            max_size=80,
        ),
        line_bytes=st.sampled_from([32, 64, 128]),
    )
    def test_footprint_lines_match_expand_then_unique(self, accesses, line_bytes):
        # Repeated and overlapping regions, loads and stores mixed with
        # non-memory rows: expanding the sorted, disjoint atoms must give
        # the same sorted lines as expanding every access.
        builder = TraceBuilder()
        for address, nbytes, store in accesses:
            builder.scalar("pad")
            if store:
                builder.vector_store(0, address, nbytes)
            else:
                builder.vector_load(0, address, nbytes)
            builder.vector_load(1, address, nbytes)
        trace = builder.finish()
        expected = np.unique(expand_lines(trace.columns, line_bytes))
        got = trace.footprint_line_numbers(line_bytes)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("program", view_programs(), ids=view_id)
    def test_materialised_ops_match_their_rows(self, program):
        # ``ops()`` is the one object view: every op restores its row field
        # for field, instruction labels and geometry included (the golden
        # text prints no tile labels and hashes columns, not objects).
        trace = program.trace
        labels = trace.labels
        ops = trace.ops()
        assert len(ops) == len(trace)
        for op, row in zip(ops, trace.columns.tolist()):
            kind, opcode, dst, src_a, src_b, address, nbytes, oplabel, ilabel, feed = row
            assert op.kind is list(TraceOpKind)[kind]
            assert op.label == labels[oplabel]
            if op.kind is TraceOpKind.TILE:
                instruction = op.tile
                assert instruction.opcode is list(Opcode)[opcode]
                assert register_code(instruction.dst) == dst
                assert register_code(instruction.src_a) == src_a
                assert register_code(instruction.src_b) == src_b
                memory = instruction.memory
                if memory is None:
                    assert (address, nbytes) == (-1, 0)
                else:
                    assert (memory.address, memory.nbytes) == (address, nbytes)
                    assert memory.label == labels[ilabel]
                assert instruction.label == labels[ilabel]
                assert instruction.feed_overhead == feed
                assert instruction.geometry == trace.geometry
            else:
                assert opcode == -1 and feed == -1 and oplabel == ilabel
                assert op.dst_reg == (dst if dst >= 0 else None)
                assert op.src_regs == tuple(reg for reg in (src_a, src_b) if reg >= 0)
                assert op.address == (address if address >= 0 else None)
                assert op.nbytes == nbytes

    @pytest.mark.parametrize("program", view_programs(), ids=view_id)
    def test_reemitted_ops_equal_builder_columns(self, program):
        # The other direction: ``TraceBuilder``, the one encoder, turns the
        # view back into the builder's columns, labels and geometry.
        trace = program.trace
        rebuilt = reemit(trace.ops())
        assert np.array_equal(rebuilt.columns, trace.columns)
        assert rebuilt.labels == trace.labels
        assert rebuilt.geometry == trace.geometry


class TestDeterministicIds:
    def test_first_appearance_order(self):
        ids = build_dense_gemm_kernel(GemmShape(64, 64, 128)).trace.signature_ids()
        seen = set()
        expected_next = 0
        for value in ids:
            if value not in seen:
                assert value == expected_next
                seen.add(value)
                expected_next += 1


#: A valid geometry whose 16 KB tile loads overflow the region packing.
BIG_TILE_GEOMETRY = TileGeometry(
    name="big", rows=64, row_bytes=256, metadata_reg_bytes=0, num_metadata_regs=0
)


class TestStrictEncoder:
    """``TraceBuilder`` is the one encoder: an op the columns cannot hold
    raises at emission or at ``finish()``, and ``run`` takes nothing else.
    (Non-positive vector transfer sizes: ``TestZeroByteRequests`` in
    ``test_fastsim.py``.)"""

    def test_three_source_fma_is_rejected(self):
        builder = TraceBuilder()
        builder.vector_fma(0, (1, 2))
        with pytest.raises(SimulationError, match="at most two FMA sources"):
            builder.vector_fma(0, (1, 2, 3))

    @pytest.mark.parametrize(
        "emit, args",
        [
            ("vector_load", (0, -64)),
            ("vector_store", (0, -64)),
            ("tile_load_t", (treg(0), -64)),
            ("tile_store_t", (-64, treg(0))),
        ],
    )
    def test_negative_address_is_rejected(self, emit, args):
        with pytest.raises(SimulationError, match="negative memory address"):
            getattr(TraceBuilder(), emit)(*args)

    @pytest.mark.parametrize("feed", [-2, 511])
    def test_feed_overhead_beyond_the_packing_is_rejected(self, feed):
        builder = TraceBuilder()
        builder.tile_compute(Opcode.TILE_SPGEMM_U, treg(0), treg(1), treg(2), feed_overhead=510)
        with pytest.raises(SimulationError, match="feed_overhead"):
            builder.tile_compute(
                Opcode.TILE_SPGEMM_U, treg(0), treg(1), treg(2), feed_overhead=feed
            )

    def test_address_beyond_region_packing_is_rejected(self):
        # A request packs as ``address * 8192 + nbytes`` into one int64,
        # which wraps from 2**50 on; such a trace is refused at build.
        builder = TraceBuilder()
        builder.vector_load(0, 2**50 - 64, 64)
        builder.vector_load(1, 2**50, 64)
        with pytest.raises(SimulationError, match="trace row 1: "):
            builder.finish()

    def test_address_below_region_packing_keeps_its_footprint(self):
        builder = TraceBuilder()
        builder.vector_load(0, 2**50 - 128, 64)
        builder.vector_load(1, 2**50 - 64, 64)
        trace = builder.finish()
        assert trace.footprint_line_numbers(64).tolist() == [2**44 - 2, 2**44 - 1]

    def test_size_beyond_region_packing_is_rejected(self):
        # A row of 8192 B or more would carry into the packed address.
        builder = TraceBuilder()
        builder.scalar()
        builder.vector_load(1, 0x10000, 9000)
        with pytest.raises(SimulationError, match="trace row 1: 9000 B transfer"):
            builder.finish()

    def test_kernel_with_oversized_tile_loads_is_rejected_at_build(self):
        assert BIG_TILE_GEOMETRY.tile_reg_bytes == 16384
        with pytest.raises(SimulationError, match="16384 B transfer"):
            build_dense_gemm_kernel(GemmShape(128, 128, 256), geometry=BIG_TILE_GEOMETRY)

    def test_size_below_region_packing_keeps_its_footprint(self):
        builder = TraceBuilder()
        builder.vector_load(1, 0x10000, 8191)
        trace = builder.finish()
        assert trace.footprint_line_numbers(64).tolist() == list(range(1024, 1024 + 128))
        assert np.array_equal(
            trace.footprint_line_numbers(64), footprint_lines(trace.ops(), 64)
        )

    def test_run_takes_only_a_columnar_trace(self):
        builder = TraceBuilder()
        builder.scalar()
        with pytest.raises(SimulationError, match="not list; .* TraceBuilder"):
            CycleApproximateSimulator().run(builder.finish().ops())


class TestLazyMaterialisation:
    def test_signature_ops_are_first_occurrences(self):
        trace = build_dense_gemm_kernel(GemmShape(64, 64, 256)).trace
        ids = trace.signature_ids()
        representatives = trace.signature_ops()
        assert len(representatives) == int(ids.max()) + 1
        ops = trace.ops()
        for signature, op in enumerate(representatives):
            assert op == ops[int(np.flatnonzero(ids == signature)[0])]

    @pytest.mark.parametrize("mode", ["fast", "exact"])
    def test_simulation_never_materialises_the_op_list(self, mode, monkeypatch):
        # Objects are built per distinct signature, never per stepped op or
        # per simulated tile compute.
        built = {TraceOp: 0, TileComputeRequest: 0, TileComputeTiming: 0}
        for cls in built:
            original = cls.__init__

            def counting(self, *args, _cls=cls, _original=original, **kwargs):
                built[_cls] += 1
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        kernel = build_dense_gemm_kernel(GemmShape(128, 128, 512)).trace
        trace = ColumnarTrace(kernel.columns, kernel.labels, block_starts=kernel.block_starts)
        simulator = CycleApproximateSimulator(engine=resolve_engine("VEGETA-D-1-2"), mode=mode)
        first = simulator.run(trace)
        assert trace._ops is None
        assert first.tile_compute_ops > 0
        signatures = int(trace.signature_ids().max()) + 1
        assert built == {TraceOp: signatures, TileComputeRequest: 0, TileComputeTiming: 0}
        # A second run on the same trace decodes the kept ops again.
        simulator.run(trace)
        assert built[TraceOp] == signatures

    def test_pickle_ships_columns_not_ops(self):
        program = build_dense_gemm_kernel(GemmShape(64, 64, 128))
        trace = program.trace
        trace.ops()  # populate the cache
        clone = pickle.loads(pickle.dumps(trace))
        assert clone._ops is None
        assert clone.ops() == trace.ops()
        assert clone.block_starts == trace.block_starts is not None


def cache_outcome_bits(ids: np.ndarray, num_sets: int, associativity: int) -> np.ndarray:
    """Hit mask of the object-level :class:`Cache` for the line stream ``ids``."""
    cache = Cache(
        CacheParams(
            name="t",
            capacity_bytes=num_sets * associativity * 64,
            associativity=associativity,
            line_bytes=64,
        )
    )
    return np.array([cache.access(int(i) * 64) for i in ids], dtype=bool)


#: Largest line id the replay differential draws (2**44 lines of 64 B).
MAX_LINE_ID = 2**44


@st.composite
def lru_streams(draw):
    """A line stream with its cache geometry.

    Sets come from 1 to 4,096, with the default L1's 96 and L2's 512 always
    among the draws; the associativity ``A`` from 1 to 16.  Accesses go to a
    few touched sets (the others stay empty) and draw their tags from one of
    three pools.  A small pool (at most ``A`` tags) keeps windows of ``A`` or
    more accesses below ``A`` distinct lines, so the back scan ends at the
    previous access (a hit).  A mixed pool (up to ``2A + 2`` tags) lets the
    scan end at the ``A``-th distinct line too (a miss).  A streaming pool
    (more than ``A`` tags) is cycled per set, so the ``A`` accesses before
    each reuse are ``A`` distinct lines.  A tail of accesses to one set
    makes it deep beside shallow ones.
    """
    num_sets = draw(st.one_of(st.sampled_from([1, 96, 512, 4096]), st.integers(1, 4096)))
    associativity = draw(st.integers(1, 16))
    touched = draw(
        st.lists(st.integers(0, num_sets - 1), min_size=1, max_size=8, unique=True)
    )
    pool = draw(st.sampled_from(["small", "mixed", "streaming"]))
    sizes = {
        "small": (1, associativity),
        "mixed": (1, 2 * associativity + 2),
        "streaming": (associativity + 1, 3 * associativity + 2),
    }
    low, high = sizes[pool]
    tags = draw(
        st.lists(
            st.integers(0, (MAX_LINE_ID - num_sets) // num_sets),
            min_size=low,
            max_size=high,
            unique=True,
        )
    )
    if pool == "streaming":
        cycled = {s: 0 for s in touched}
        accesses = []
        for s in draw(st.lists(st.sampled_from(touched), max_size=120)):
            accesses.append((s, tags[cycled[s] % len(tags)]))
            cycled[s] += 1
    else:
        accesses = draw(
            st.lists(st.tuples(st.sampled_from(touched), st.sampled_from(tags)), max_size=120)
        )
    deep = draw(st.lists(st.sampled_from(tags), max_size=150))
    accesses += [(touched[0], tag) for tag in deep]
    ids = np.array([s + num_sets * tag for s, tag in accesses], dtype=np.int64)
    return ids, num_sets, associativity


#: One stream per rule and scan exit of ``lru_outcome_bits``: the lines of
#: one set (a letter each), the associativity, and the hand-derived hit mask
#: ("H" a hit); the last access is the one the case names.
LRU_RULE_CASES = {
    # Rule 1: no previous access to the line.
    "first-touch": ("abcd", 3, "----"),
    # Rule 2: two accesses since the previous "a", fewer than A = 3.
    "gap-below-ways": ("abca", 3, "---H"),
    # Rule 3: the three accesses before the last "a" are three distinct lines.
    "distinct-window": ("abcda", 3, "-----"),
    # Rule 4: "c c b" repeats a line, so the scan runs back to the first "a"
    # past two distinct lines.
    "scan-to-previous": ("abccba", 3, "---HHH"),
    # Rule 4: "c d d" repeats a line; the scan meets d, c and b, the third
    # distinct line, before reaching "a".
    "scan-to-ways": ("abcdda", 3, "----H-"),
    # A = 1: a gap of one access hits (rule 2), any longer gap misses (rule 3).
    "one-way": ("aaba", 1, "-H--"),
}


class TestLruOutcomeReplay:
    def test_matches_cache_model_on_random_streams(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            num_sets = int(rng.integers(2, 16))
            associativity = int(rng.integers(1, 5))
            ids = rng.integers(0, num_sets * associativity * 3, size=300)
            assert np.array_equal(
                cache_outcome_bits(ids, num_sets, associativity),
                lru_outcome_bits(ids, num_sets, associativity),
            )

    @settings(max_examples=200, deadline=None)
    @given(stream=lru_streams())
    def test_matches_reference_replay_and_cache_model(self, stream):
        ids, num_sets, associativity = stream
        bits = lru_outcome_bits(ids, num_sets, associativity)
        assert bits.dtype == bool and bits.shape == ids.shape
        assert np.array_equal(bits, reference_lru_outcome_bits(ids, num_sets, associativity))
        assert np.array_equal(bits, cache_outcome_bits(ids, num_sets, associativity))

    @pytest.mark.parametrize("case", sorted(LRU_RULE_CASES))
    def test_each_rule_and_scan_exit(self, case):
        letters, associativity, mask = LRU_RULE_CASES[case]
        expected = np.array([flag == "H" for flag in mask])
        num_sets = 4
        one_set = np.array([1 + num_sets * (ord(letter) - 96) for letter in letters])
        assert np.array_equal(lru_outcome_bits(one_set, num_sets, associativity), expected)
        # The same pattern in a second set, interleaved access by access,
        # leaves both sets' outcomes unchanged.
        other_set = one_set + 2 + num_sets * 1000
        ids = np.column_stack([one_set, other_set]).reshape(-1)
        both = np.repeat(expected, 2)
        bits = lru_outcome_bits(ids, num_sets, associativity)
        assert np.array_equal(bits, both)
        assert np.array_equal(reference_lru_outcome_bits(ids, num_sets, associativity), both)
        assert np.array_equal(cache_outcome_bits(ids, num_sets, associativity), both)

    def test_far_apart_line_ids(self):
        # Lines up to 2**61 apart leave no room to pack a position beside a
        # line in one int64 sort key, so the lines are grouped another way.
        rng = np.random.default_rng(13)
        tags = rng.choice(rng.integers(0, 2**55, size=20), size=400)
        ids = tags * 96 + rng.integers(0, 3, size=400)
        bits = lru_outcome_bits(ids, 96, 4)
        assert 0 < bits.sum() < len(ids)
        assert np.array_equal(bits, reference_lru_outcome_bits(ids, 96, 4))
        assert np.array_equal(bits, cache_outcome_bits(ids, 96, 4))

    def test_set_larger_than_a_slab(self):
        # Set-major order is cut into slabs of whole sets of at most
        # ``_LRU_SLAB_ACCESSES``; a set with more accesses is a slab alone.
        rng = np.random.default_rng(11)
        deep = rng.integers(0, 12, size=_LRU_SLAB_ACCESSES + 4000) * 96 + 5
        shallow = rng.integers(0, 12 * 96, size=3000)
        ids = np.concatenate([shallow[:1500], deep, shallow[1500:]])
        bits = lru_outcome_bits(ids, 96, 8)
        assert 0 < bits.sum() < len(ids)
        assert np.array_equal(bits, cache_outcome_bits(ids, 96, 8))

    def test_sets_straddling_a_slab_boundary(self):
        # 96 sets of 728 accesses each: the slab limit falls inside set 90,
        # whose reuses span it, so a cut inside a set would lose hits.
        rng = np.random.default_rng(12)
        per_set = _LRU_SLAB_ACCESSES // 90
        sets = rng.permutation(np.repeat(np.arange(96), per_set))
        ids = sets + 96 * rng.integers(0, 10, size=len(sets))
        assert 90 * per_set < _LRU_SLAB_ACCESSES < 91 * per_set < len(ids)
        bits = lru_outcome_bits(ids, 96, 8)
        assert 0 < bits.sum() < len(ids)
        assert np.array_equal(bits, cache_outcome_bits(ids, 96, 8))

    @pytest.mark.parametrize("num_sets, associativity", [(1, 1), (96, 8), (512, 16)])
    def test_empty_stream(self, num_sets, associativity):
        bits = lru_outcome_bits(np.empty(0, dtype=np.int64), num_sets, associativity)
        assert bits.dtype == bool and bits.shape == (0,)


def cache_level(name, line_bytes, num_sets, associativity):
    """A cache level of ``num_sets`` sets of ``associativity`` ways."""
    capacity = line_bytes * num_sets * associativity
    return CacheParams(name=name, capacity_bytes=capacity, associativity=associativity, line_bytes=line_bytes)


_SCALAR = KIND_CODES[TraceOpKind.SCALAR]
_REQUEST_KINDS = (KIND_CODES[TraceOpKind.VECTOR_LOAD], KIND_CODES[TraceOpKind.VECTOR_STORE])


def request_columns(requests):
    """Trace rows: a scalar op, then a load or store, per ``(address, nbytes,
    store)`` request.  Written as columns, so a request may be zero bytes."""
    columns = np.zeros(2 * len(requests), dtype=TRACE_DTYPE)
    columns["opcode"] = -1
    columns["feed"] = -1
    columns["kind"][0::2] = _SCALAR
    columns["address"][0::2] = -1
    if requests:
        address, nbytes, store = np.array(requests, dtype=np.int64).T
        columns["kind"][1::2] = np.take(_REQUEST_KINDS, store)
        columns["address"][1::2] = address
        columns["nbytes"][1::2] = nbytes
    return columns


@st.composite
def keyed_traces(draw):
    """A request stream and a two-level machine to key it on.

    The L1 line is 32, 64 or 128 bytes and the L2 line 1x or 2x the L1's;
    each level has 1 to 4,096 sets (few sets, and the presets' 96 / 512 /
    4,096, more often; the L2 more when it would hold less than the L1) and
    1 to 16 ways (up to 4 more often); the ideal L2 prefetch is on or off.
    Requests repeat from a pool of regions.  A region starts on a byte, a
    half line, a line or a KB, plus a whole number of one level's way spans
    (so regions collide in the sets), and runs 0 (a zero-byte request) to
    8,191 bytes, so regions overlap each other, straddle lines and can be
    longer than the sets.
    """
    line = draw(st.sampled_from([32, 64, 128]))
    sets = st.one_of(st.integers(1, 8), st.sampled_from([96, 512, 4096]), st.integers(1, 4096))
    ways = st.one_of(st.integers(1, 4), st.integers(1, 16))
    l1 = cache_level("L1D", line, draw(sets), draw(ways))
    l2_line = line * draw(st.sampled_from([1, 2]))
    l2_ways = draw(ways)
    # A machine's L2 holds at least as much as its L1.
    l2_sets = max(draw(sets), -(-l1.capacity_bytes // (l2_line * l2_ways)))
    l2 = cache_level("L2", l2_line, l2_sets, l2_ways)
    machine = dataclasses.replace(
        default_machine(), l1=l1, l2=l2, prefetch_into_l2=draw(st.booleans())
    )
    unit = draw(st.sampled_from([1, line // 2, line, 1024]))
    span = draw(st.sampled_from([l1, l2])).num_sets * draw(st.sampled_from([line, l2_line]))
    size = st.one_of(
        st.just(0), st.sampled_from([64, 1024]), st.integers(1, 256), st.integers(1, 8191)
    )
    regions = draw(
        st.lists(
            st.tuples(st.one_of(st.integers(0, 3), st.integers(0, 64)), st.integers(0, 24), size),
            min_size=1,
            max_size=24,
        )
    )
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(regions) - 1), st.booleans()), min_size=1, max_size=48
        )
    )
    requests = []
    for index, store in picks:
        offset, way, nbytes = regions[index]
        requests.append((offset * unit + way * span, nbytes, store))
    return request_columns(requests), machine


def element_counts(trace, machine, monkeypatch):
    """Input lengths of the :func:`lru_outcome_bits` calls of one memo key."""
    lengths = []

    def recorded(ids, num_sets, associativity):
        lengths.append(len(ids))
        return lru_outcome_bits(ids, num_sets, associativity)

    monkeypatch.setattr(columnar, "lru_outcome_bits", recorded)
    trace.address_structure_hash(machine)
    return lengths


class TestRegionArcDifferential:
    """The memo key's digest, the L1 mask and the footprint, decided per
    request, set arc and atom, equal the line-level reference byte for
    byte."""

    @settings(max_examples=300, deadline=None)
    @given(case=keyed_traces())
    @example(
        # Two overlapping unaligned requests, a zero-byte request inside a
        # line and one on a line, and a request longer than the 3 sets.
        case=(
            request_columns(
                [(96, 200, False), (32, 64, True), (8, 0, False), (64, 0, False),
                 (0, 640, False), (96, 200, True)]
            ),
            dataclasses.replace(
                default_machine(),
                l1=cache_level("L1D", 64, 3, 2),
                l2=cache_level("L2", 128, 2, 2),
                prefetch_into_l2=False,
            ),
        )
    )
    def test_digest_and_mask_equal_the_line_reference(self, case):
        columns, machine = case
        trace = frozen_trace(columns, ("",), DEFAULT_GEOMETRY)
        l1 = machine.l1
        assert trace.address_structure_hash(machine) == line_address_structure_digest(
            columns, machine
        )
        mask = trace.l1_outcome_bits(l1)
        assert mask.dtype == bool
        assert np.array_equal(mask, line_l1_outcome_bits(columns, l1))
        footprint = trace.footprint_line_numbers(l1.line_bytes)
        assert np.array_equal(footprint, np.unique(expand_lines(columns, l1.line_bytes)))

    def test_one_element_per_request_on_gemm_compute_shards(self, monkeypatch):
        # The scaling sweep's gemm-compute shards on 8 cores, row-block:
        # 1 KB requests on KB boundaries cut the L1's 96 sets into six arcs
        # of 16, so the L1 decides one element per request, not 16 lines.
        machine = default_machine()
        sharded = shard_kernel("gemm", GemmShape(256, 256, 1024), SparsityPattern.DENSE_4_4, 8)
        for program in sharded.programs:
            trace = program.trace
            requests = int((trace.columns["address"] >= 0).sum())
            assert requests == 1088
            assert element_counts(trace, machine, monkeypatch) == [requests]
            assert len(trace.l1_outcome_bits(machine.l1)) == 16 * requests


INT64 = np.iinfo(np.int64)


class TestSortedUnique:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.integers(INT64.min, INT64.max), max_size=60),
            st.lists(
                st.sampled_from([INT64.min, INT64.min + 1, -1, 0, 1, INT64.max]), max_size=60
            ),
        )
    )
    @example(values=[])
    @example(values=[5])
    @example(values=[-3] * 7)
    @example(values=[INT64.max, INT64.min, INT64.max, INT64.min])
    def test_equals_np_unique(self, values):
        array = np.array(values, dtype=np.int64)
        got = sorted_unique(array)
        expected = np.unique(array)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert np.array_equal(sorted_unique(array, kind="stable"), expected)

    @settings(max_examples=100, deadline=None)
    @given(
        footprints=st.lists(
            st.lists(st.integers(0, 2**44), max_size=40).map(
                lambda lines: np.unique(np.array(lines, dtype=np.int64))
            ),
            max_size=6,
        )
    )
    def test_distinct_line_count(self, footprints):
        expected = len(np.unique(np.concatenate(footprints))) if footprints else 0
        assert distinct_line_count(footprints) == expected


class TestSimulationKey:
    def test_rebuilt_kernel_shares_key(self):
        machine = default_machine()
        first = build_dense_gemm_kernel(GemmShape(64, 64, 256))
        second = build_dense_gemm_kernel(GemmShape(64, 64, 256))
        assert first.trace.simulation_key(machine) == second.trace.simulation_key(machine)

    def test_key_sees_structural_differences(self):
        machine = default_machine()
        base = build_dense_gemm_kernel(GemmShape(64, 64, 256))
        other = build_dense_gemm_kernel(GemmShape(64, 64, 512))
        assert base.trace.simulation_key(machine) != other.trace.simulation_key(machine)

    def test_key_includes_block_hints(self):
        machine = default_machine()
        trace = build_dense_gemm_kernel(GemmShape(64, 64, 256)).trace
        without = ColumnarTrace(trace.columns, trace.labels, trace.geometry)
        assert trace.block_starts
        assert trace.simulation_key(machine) != without.simulation_key(machine)
        # Empty hints hash like absent ones.
        empty = ColumnarTrace(trace.columns, trace.labels, trace.geometry, ())
        assert empty.simulation_key(machine) == without.simulation_key(machine)

    def test_empty_trace_has_a_key(self):
        empty = TraceBuilder().finish()
        assert empty.simulation_key(default_machine()) is not None


def _small_l1_machine():
    """Same line size as the default L1, different sets, ways and latency."""
    l1 = CacheParams(name="L1D", capacity_bytes=32 * 1024, associativity=4, hit_latency=5)
    return dataclasses.replace(default_machine(), l1=l1)


SHARED_VIEW_MACHINES = {
    "default": default_machine,
    "membound": memory_bound_machine,
    "small-l1": _small_l1_machine,
}

PROGRAM_COUNT = len(all_programs())


class TestSharedTraceViews:
    """One trace evaluated under several machines, in either order, answers
    every machine exactly as an independently built copy does: each cached
    view is keyed by all the machine fields it reads."""

    @pytest.mark.parametrize(
        "order",
        [("default", "membound", "small-l1"), ("small-l1", "membound", "default")],
    )
    @pytest.mark.parametrize("index", range(PROGRAM_COUNT))
    def test_views_match_an_independent_build(self, index, order):
        engine = resolve_engine("VEGETA-S-16-2+OF+SPGEMM")
        shared = all_programs()[index]
        for name in order:
            machine = SHARED_VIEW_MACHINES[name]()
            fresh = all_programs()[index]
            line_bytes = machine.l1.line_bytes
            assert simulation_cache_key(shared, machine, engine, "fast") == (
                simulation_cache_key(fresh, machine, engine, "fast")
            )
            assert np.array_equal(
                shared.trace.footprint_line_numbers(line_bytes),
                fresh.trace.footprint_line_numbers(line_bytes),
            )
            ours = _oracle_script(machine, shared.trace)
            theirs = _build_oracle(machine, fresh.trace)
            for slot in _OracleScript.__slots__:
                if slot == "requests":
                    continue
                assert np.array_equal(getattr(ours, slot), getattr(theirs, slot)), slot
            # The per-request memory script: completion offsets, L2-port
            # occupancies and the counter prefix sums.
            for slot in RequestScript.__slots__:
                assert np.array_equal(
                    getattr(ours.requests, slot), getattr(theirs.requests, slot)
                ), slot

    def test_views_are_read_only_and_not_pickled(self):
        program = build_dense_gemm_kernel(GemmShape(64, 64, 128))
        trace = program.trace
        bits = trace.l1_outcome_bits(default_machine().l1)
        with pytest.raises(ValueError):
            bits[0] = not bits[0]
        clone = pickle.loads(pickle.dumps(trace))
        assert clone._views == {}
        assert np.array_equal(clone.l1_outcome_bits(default_machine().l1), bits)
