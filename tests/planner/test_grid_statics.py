"""The grid-priced partition statics equal the trace-derived ones, field by field.

The planner prices a partition from its tile grid, its cells and the
kernel's block templates (:func:`repro.planner.prefilter.partition_statics`)
and builds no trace.  ``reference_statics.py`` keeps the pricing that reads
the built shard's per-core traces.  Hypothesis draws every kernel kind the
planner selects, every catalog tile geometry, strategy, topology preset and
core count it enumerates, oversubscribed core counts and grids with odd
tile counts on both axes, and requires the two to agree on the compute-rich
and the bandwidth-starved machine.

CI reruns this file under ten more hypothesis seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_statics import reference_partition_statics
from repro.core.engine import AMX_GEOMETRY, SME_GEOMETRY
from repro.core.registers import treg
from repro.cpu.params import TOPOLOGY_PRESETS, default_machine, get_topology, memory_bound_machine
from repro.errors import KernelError
from repro.kernels.memo import build_memo_rows, clear_build_memo
from repro.kernels.sharding import partition_kernel, shard_kernel
from repro.kernels.template import BlockTemplates, TemplateBuilder, cell_totals
from repro.kernels.tiling import PARTITION_STRATEGIES
from repro.planner.experiment import AUTOTUNE_CORES
from repro.planner.prefilter import partition_statics
from repro.types import DEFAULT_GEOMETRY, GemmShape, SparsityPattern

MACHINES = (default_machine(), memory_bound_machine())

#: (kind, executed pattern, geometry): every kernel the planner can select.
KERNELS = (
    ("gemm", SparsityPattern.DENSE_4_4, DEFAULT_GEOMETRY),
    ("gemm", SparsityPattern.DENSE_4_4, AMX_GEOMETRY),
    ("gemm", SparsityPattern.DENSE_4_4, SME_GEOMETRY),
    ("spmm", SparsityPattern.SPARSE_2_4, DEFAULT_GEOMETRY),
    ("spmm", SparsityPattern.SPARSE_1_4, DEFAULT_GEOMETRY),
    ("spgemm", SparsityPattern.SPARSE_2_4, DEFAULT_GEOMETRY),
    ("spgemm", SparsityPattern.SPARSE_1_4, DEFAULT_GEOMETRY),
)

#: The planner's core counts, plus counts above a small grid's cell count.
CORES = tuple(AUTOTUNE_CORES) + (3, 5, 7, 40)


def _tiles(geometry, count):
    """A dimension of ``count`` tiles of ``geometry``, the last one partial."""
    return geometry.rows * count - 3


class TestGridStaticsDifferential:
    @given(
        kernel=st.sampled_from(KERNELS),
        m_tiles=st.integers(min_value=1, max_value=9),
        n_tiles=st.integers(min_value=1, max_value=9),
        k=st.integers(min_value=1, max_value=600),
        cores=st.sampled_from(CORES),
        strategy=st.sampled_from(PARTITION_STRATEGIES),
        topology_name=st.sampled_from(sorted(TOPOLOGY_PRESETS)),
    )
    @settings(max_examples=150, deadline=None)
    def test_grid_statics_equal_the_trace_statics(
        self, kernel, m_tiles, n_tiles, k, cores, strategy, topology_name
    ):
        kind, pattern, geometry = kernel
        shape = GemmShape(m=_tiles(geometry, m_tiles), n=_tiles(geometry, n_tiles), k=k)
        topology = get_topology(topology_name)
        args = (kind, shape, pattern, cores, strategy)
        partition = partition_kernel(*args, topology=topology, geometry=geometry)
        sharded = shard_kernel(*args, topology=topology, geometry=geometry)
        assert partition.blocks == sharded.blocks
        assert partition.tiles_per_core == sharded.tiles_per_core
        for machine in MACHINES:
            assert partition_statics(partition, machine, topology) == (
                reference_partition_statics(sharded, machine, topology)
            )

    def test_every_autotune_kernel_at_full_size(self):
        # The planner's own 256 x 256 x 1024 workloads, on the largest core
        # count and the deepest topology.
        shape = GemmShape(256, 256, 1024)
        topology = get_topology("chiplet")
        for kind, pattern, geometry in KERNELS:
            for strategy in PARTITION_STRATEGIES:
                args = (kind, shape, pattern, 32, strategy)
                partition = partition_kernel(*args, topology=topology, geometry=geometry)
                sharded = shard_kernel(*args, topology=topology, geometry=geometry)
                for machine in MACHINES:
                    assert partition_statics(partition, machine, topology) == (
                        reference_partition_statics(sharded, machine, topology)
                    )

    def test_pricing_builds_no_trace(self):
        clear_build_memo()
        partition = partition_kernel(
            "spmm", GemmShape(96, 80, 256), SparsityPattern.SPARSE_2_4, 4, "2d-cyclic"
        )
        partition_statics(partition, MACHINES[0], get_topology("flat"))
        assert build_memo_rows() == 0


def _templates(*loads):
    """One block class loading a tile register at each address form."""
    builder = TemplateBuilder()
    for form, register in loads:
        builder.tile_load_t(register, form)
    return BlockTemplates((builder.template(),))


def _count(templates, cells=((0, 0), (1, 1)), line_bytes=64):
    coords = np.array([(i, i, j, j, 1) for i, j in cells], dtype=np.int64)
    owners = np.zeros(len(cells), dtype=np.int64)
    classes = np.zeros(len(cells), dtype=np.int64)
    return cell_totals(templates, classes, coords, owners, 1, line_bytes)


class TestLayoutFacts:
    """The count assumes aligned, whole-line, disjoint regions; it raises
    rather than miscount a kernel that breaks one."""

    def test_aligned_disjoint_regions_are_counted(self):
        totals = _count(_templates(((4096, 0, 0, 0, 0x10000), treg(0))))
        assert totals.combined_lines == 2 * 1024 // 64
        assert totals.lines.tolist() == [32]

    def test_unaligned_region_raises(self):
        with pytest.raises(KernelError, match="whole"):
            _count(_templates(((4096, 0, 0, 0, 0x10000 + 32), treg(0))))

    def test_overlapping_regions_raise(self):
        # Two rows 512 B apart, each 1 KB wide.
        with pytest.raises(KernelError, match="overlap"):
            _count(_templates(((512, 0, 0, 0, 0x10000), treg(0))))

    def test_two_rows_in_one_form_raise(self):
        with pytest.raises(KernelError, match="two tile rows"):
            _count(_templates(((4096, 4096, 0, 0, 0x10000), treg(0))))

    def test_regions_that_are_not_one_product_raise(self):
        # One family read through i0 at two offsets and through i1 at one.
        templates = _templates(
            ((4096, 0, 0, 0, 0x10000), treg(0)),
            ((4096, 0, 0, 0, 0x10400), treg(1)),
            ((0, 4096, 0, 0, 0x10000), treg(2)),
        )
        with pytest.raises(KernelError, match="product"):
            _count(templates)
