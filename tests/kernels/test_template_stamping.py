"""Stamped kernel builds are byte-identical to the per-op reference emitters.

The builders emit each block class once as a template and stamp it across
the chosen cells (:mod:`repro.kernels.template`).  These tests draw shapes
with edge blocks on both axes, every tile geometry, sharded / shuffled /
empty cell lists and truncations, and require the stamped program to equal
the one the original op-by-op loops emit (``reference_emitters.py``): every
column byte, the label table, the block starts, the covered fraction and the
label.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_emitters import reference_dense_gemm, reference_spgemm, reference_spmm
from repro.core.engine import AMX_GEOMETRY, SME_GEOMETRY
from repro.errors import KernelError, SimulationError
from repro.kernels import memo, spgemm, template
from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.memo import clear_build_memo
from repro.kernels.sharding import shard_kernel
from repro.kernels.spgemm import build_spgemm_kernel
from repro.kernels.spmm import build_spmm_kernel
from repro.kernels.tiling import PARTITION_STRATEGIES, TileGrid, partition_grid
from repro.types import DEFAULT_GEOMETRY, GemmShape, SparsityPattern
from repro.workloads.generator import generate_dense, generate_dual_sparse, generate_structured

SPARSE = (SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4)
MAX_OUTPUT_TILES = st.sampled_from([None, 1, 2, 3, 7, 64])


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_build_memo()
    yield
    clear_build_memo()


def _assert_same_build(program, reference):
    assert program.trace.columns.tobytes() == reference.trace.columns.tobytes()
    assert program.trace.labels == reference.trace.labels
    assert program.trace.geometry == reference.trace.geometry
    assert program.trace.block_starts == reference.trace.block_starts
    assert program.simulated_fraction == reference.simulated_fraction
    assert program.label == reference.label


def _block_grid(kind, shape, pattern=SparsityPattern.DENSE_4_4, geometry=DEFAULT_GEOMETRY):
    """(rows, cols) of a builder's block grid."""
    grid = TileGrid(shape=shape, pattern=pattern, geometry=geometry)
    if kind == "listing1":
        return grid.tiles_m, grid.tiles_n
    cols = -(-grid.tiles_n // 2) if kind == "gemm" else grid.tiles_n
    return -(-grid.tiles_m // 2), cols


def _draw_blocks(data, rows, cols):
    """None, one core's cells of a partition (as dealt or shuffled), or none."""
    choice = data.draw(st.sampled_from(["all", "core", "shuffled", "empty"]))
    if choice == "all":
        return None
    if choice == "empty":
        return []
    cores = data.draw(st.integers(1, 8))
    strategy = data.draw(st.sampled_from(PARTITION_STRATEGIES))
    cells = partition_grid(rows, cols, cores, strategy)[data.draw(st.integers(0, cores - 1))]
    return data.draw(st.permutations(cells)) if choice == "shuffled" else cells


def _draw_shape(data):
    dims = st.integers(1, 300)
    return GemmShape(data.draw(dims), data.draw(dims), data.draw(dims))


class TestStampedEqualsReference:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dense(self, data):
        shape = _draw_shape(data)
        variant = data.draw(st.sampled_from(["optimized", "listing1"]))
        geometry = data.draw(st.sampled_from([DEFAULT_GEOMETRY, AMX_GEOMETRY, SME_GEOMETRY]))
        kind = "gemm" if variant == "optimized" else "listing1"
        options = dict(
            variant=variant,
            geometry=geometry,
            max_output_tiles=data.draw(MAX_OUTPUT_TILES),
            blocks=_draw_blocks(data, *_block_grid(kind, shape, geometry=geometry)),
        )
        _assert_same_build(
            build_dense_gemm_kernel(shape, **options), reference_dense_gemm(shape, **options)
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sparse(self, data):
        shape = _draw_shape(data)
        pattern = data.draw(st.sampled_from(SPARSE))
        kind = data.draw(st.sampled_from(["spmm", "spgemm"]))
        options = dict(
            max_output_tiles=data.draw(MAX_OUTPUT_TILES),
            blocks=_draw_blocks(data, *_block_grid(kind, shape, pattern)),
        )
        if kind == "spmm":
            program = build_spmm_kernel(shape, pattern, **options)
            reference = reference_spmm(shape, pattern, **options)
        else:
            program = build_spgemm_kernel(shape, pattern, **options)
            reference = reference_spgemm(shape, pattern, **options)
        _assert_same_build(program, reference)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_data_builds(self, data):
        # Pruning works on groups of four along K.
        dims = st.integers(1, 96)
        shape = GemmShape(data.draw(dims), data.draw(dims), 4 * data.draw(st.integers(1, 24)))
        kind = data.draw(st.sampled_from(["gemm", "spmm", "spgemm"]))
        pattern = data.draw(st.sampled_from(SPARSE))
        seed = data.draw(st.integers(0, 1000))
        options = dict(
            max_output_tiles=data.draw(MAX_OUTPUT_TILES),
        )
        if kind == "gemm":
            operands = generate_dense(shape, seed=seed)
            options["blocks"] = _draw_blocks(data, *_block_grid("gemm", shape))
            program = build_dense_gemm_kernel(shape, a=operands.a, b=operands.b, **options)
            reference = reference_dense_gemm(shape, **options)
        elif kind == "spmm":
            operands = generate_structured(shape, pattern, seed=seed)
            options["blocks"] = _draw_blocks(data, *_block_grid("spmm", shape, pattern))
            program = build_spmm_kernel(shape, pattern, a=operands.a, b=operands.b, **options)
            reference = reference_spmm(shape, pattern, **options)
        else:
            operands = generate_dual_sparse(shape, pattern, pattern, seed=seed)
            options["blocks"] = _draw_blocks(data, *_block_grid("spgemm", shape, pattern))
            program = build_spgemm_kernel(shape, pattern, a=operands.a, b=operands.b, **options)
            reference = reference_spgemm(shape, pattern, a=operands.a, b=operands.b, **options)
            assert (_compute_feeds(program) >= 0).all()
        assert program.has_data
        _assert_same_build(program, reference)


def _compute_feeds(program):
    """Feed overheads of the trace's tile computes (register-writing, no memory)."""
    columns = program.trace.columns
    return columns["feed"][(columns["dst"] >= 0) & (columns["address"] < 0)]


def test_data_carrying_spgemm_stamps_its_feed_overheads():
    shape = GemmShape(48, 40, 256)
    pattern = SparsityPattern.SPARSE_2_4
    operands = generate_dual_sparse(shape, pattern, pattern)
    program = build_spgemm_kernel(shape, pattern, a=operands.a, b=operands.b)
    feeds = _compute_feeds(program)
    assert len(feeds) and (feeds >= 0).all()
    assert (_compute_feeds(build_spgemm_kernel(shape, pattern)) == -1).all()
    _assert_same_build(program, reference_spgemm(shape, pattern, a=operands.a, b=operands.b))


class TestChecksStay:
    @pytest.mark.parametrize(
        "build",
        [
            lambda blocks: build_dense_gemm_kernel(GemmShape(64, 64, 64), blocks=blocks),
            lambda blocks: build_dense_gemm_kernel(
                GemmShape(32, 32, 64), variant="listing1", blocks=blocks
            ),
            lambda blocks: build_spmm_kernel(
                GemmShape(64, 32, 128), SparsityPattern.SPARSE_2_4, blocks=blocks
            ),
            lambda blocks: build_spgemm_kernel(
                GemmShape(64, 32, 128), SparsityPattern.SPARSE_1_4, blocks=blocks
            ),
        ],
    )
    def test_out_of_range_and_duplicate_blocks_raise(self, build):
        with pytest.raises(KernelError, match="outside"):
            build([(0, 0), (9, 0)])
        with pytest.raises(KernelError, match="outside"):
            build([(0, -1)])
        with pytest.raises(KernelError, match="assigned twice"):
            build([(0, 1), (0, 0), (0, 1)])

    def test_feed_past_the_packing_bound_raises(self, monkeypatch):
        shape = GemmShape(32, 32, 128)
        pattern = SparsityPattern.SPARSE_2_4
        operands = generate_dual_sparse(shape, pattern, pattern)
        real = spgemm._spgemm_feed_overheads

        def oversized(grid, a_padded, b_padded):
            feeds = real(grid, a_padded, b_padded)
            feeds[-1, -1, -1] = 511
            return feeds

        monkeypatch.setattr(spgemm, "_spgemm_feed_overheads", oversized)
        with pytest.raises(SimulationError, match="feed_overhead 511"):
            build_spgemm_kernel(shape, pattern, a=operands.a, b=operands.b)

    def test_zero_output_tiles_is_rejected(self):
        with pytest.raises(KernelError, match="simulated_fraction"):
            build_dense_gemm_kernel(GemmShape(32, 32, 64), max_output_tiles=0)


class TestTemplateReuse:
    @pytest.mark.parametrize("cores", [1, 8, 32])
    def test_shard_builds_each_block_class_once(self, cores, monkeypatch):
        calls = []
        real = template.TemplateBuilder.template

        def counted(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(template.TemplateBuilder, "template", counted)
        # 17 x 9 tiles: all four dense block classes occur.
        shape = GemmShape(17 * 16, 9 * 16, 256)
        shard_kernel("gemm", shape, SparsityPattern.DENSE_4_4, cores)
        assert len(calls) == 4
        shard_kernel("gemm", shape, SparsityPattern.DENSE_4_4, cores, "2d-cyclic")
        assert len(calls) == 4

    def test_templates_are_cleared_with_the_build_memo(self):
        build_dense_gemm_kernel(GemmShape(64, 64, 64))
        assert memo._TEMPLATES
        clear_build_memo()
        assert not memo._TEMPLATES

    def test_template_memo_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(memo, "TEMPLATE_MEMO_MAX_KERNELS", 2)
        for k in (32, 64, 96):
            build_dense_gemm_kernel(GemmShape(32, 32, k))
        assert len(memo._TEMPLATES) == 2
        assert [key[1].k for key in memo._TEMPLATES] == [64, 96]


@pytest.mark.parametrize("blocks", [None, [(1, 0), (0, 0)]])
def test_label_first_appearance_spans_block_classes(blocks):
    # 3 tile rows, one K-step: the row-pair block is a whole number of issue
    # groups, the trailing single-row block pads with "block-align".  In
    # grid order that label first appears in the second block.
    shape = GemmShape(48, 16, 64)
    pattern = SparsityPattern.SPARSE_2_4
    options = dict(blocks=blocks)
    program = build_spgemm_kernel(shape, pattern, **options)
    _assert_same_build(program, reference_spgemm(shape, pattern, **options))
    first_block = program.trace.columns["oplabel"][: program.trace.block_starts[1]]
    align = program.trace.labels.index("block-align")
    assert (align in first_block) == (blocks is not None)
