"""Cross-ISA backend tests: AMX-like and SME-like kernels end to end.

The flexible tile geometry threads through the ISA, register files,
functional semantics, latency formulas and kernel tiling; these tests pin
the whole stack for the two foreign backends the catalog models:

* functional results match the BF16/FP32 numpy reference on random shapes;
* the fast-path simulator stays bit-exact with the exact event loop;
* sparse kernel builders refuse geometries without metadata registers;
* traces carry their geometry through the columnar pipeline and pickling;
* the simulation memo key distinguishes programs by tile geometry.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st
from reference_checks import validate_kernel

from repro.core.engine import AMX_GEOMETRY, SME_GEOMETRY, get_engine
from repro.cpu.columnar import TraceBuilder
from repro.cpu.multicore import simulation_cache_key
from repro.cpu.params import default_machine
from repro.cpu.simulator import CycleApproximateSimulator
from repro.errors import KernelError
from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.spgemm import build_spgemm_kernel
from repro.kernels.spmm import build_spmm_kernel
from repro.kernels.tiling import TileGrid
from repro.types import DEFAULT_GEOMETRY, GemmShape, SparsityPattern, TileGeometry
from repro.workloads.generator import generate_dense

BACKENDS = {
    "AMX-like": AMX_GEOMETRY,
    "SME-like": SME_GEOMETRY,
}


def _shape_strategy(geometry):
    """Random GEMM shapes that tile evenly under ``geometry``."""
    tile_m, tile_n, tile_k = geometry.rows, geometry.fp32_cols, geometry.bf16_cols
    return st.builds(
        GemmShape,
        m=st.integers(1, 2).map(lambda f: f * tile_m),
        n=st.integers(1, 2).map(lambda f: f * tile_n),
        k=st.integers(1, 3).map(lambda f: f * tile_k),
    )


class TestFunctionalParity:
    @settings(max_examples=8, deadline=None)
    @given(shape=_shape_strategy(AMX_GEOMETRY), seed=st.integers(0, 2**16))
    def test_amx_dense_gemm_matches_numpy(self, shape, seed):
        operands = generate_dense(shape, seed=seed)
        program = build_dense_gemm_kernel(
            shape, a=operands.a, b=operands.b, geometry=AMX_GEOMETRY
        )
        matches, error = validate_kernel(program, operands.a, operands.b)
        assert matches, f"AMX-like result diverged (max abs error {error})"

    @settings(max_examples=8, deadline=None)
    @given(shape=_shape_strategy(SME_GEOMETRY), seed=st.integers(0, 2**16))
    def test_sme_dense_gemm_matches_numpy(self, shape, seed):
        operands = generate_dense(shape, seed=seed)
        program = build_dense_gemm_kernel(
            shape, a=operands.a, b=operands.b, geometry=SME_GEOMETRY
        )
        matches, error = validate_kernel(program, operands.a, operands.b)
        assert matches, f"SME-like result diverged (max abs error {error})"


class TestFastPathBitExactness:
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_fast_equals_exact_on_foreign_backends(self, data):
        name = data.draw(st.sampled_from(sorted(BACKENDS)))
        engine = get_engine(name)
        shape = data.draw(_shape_strategy(engine.geometry))
        program = build_dense_gemm_kernel(shape, geometry=engine.geometry)
        simulator = CycleApproximateSimulator(engine=engine)
        exact = simulator.run(program.trace, mode="exact")
        fast = simulator.run(program.trace)
        assert fast.core_cycles == exact.core_cycles
        assert fast.engine_busy_cycles == exact.engine_busy_cycles


class TestSparseKernelGuards:
    @pytest.mark.parametrize("geometry", [AMX_GEOMETRY, SME_GEOMETRY])
    def test_spmm_refuses_metadata_free_geometries(self, geometry):
        with pytest.raises(KernelError, match="default VEGETA geometry"):
            build_spmm_kernel(
                GemmShape(m=64, n=64, k=128),
                SparsityPattern.SPARSE_2_4,
                geometry=geometry,
            )

    @pytest.mark.parametrize("geometry", [AMX_GEOMETRY, SME_GEOMETRY])
    def test_spgemm_refuses_metadata_free_geometries(self, geometry):
        with pytest.raises(KernelError, match="default VEGETA geometry"):
            build_spgemm_kernel(
                GemmShape(m=64, n=64, k=128),
                SparsityPattern.SPARSE_2_4,
                geometry=geometry,
            )

    def test_tile_grid_refuses_sparse_patterns_without_metadata(self):
        with pytest.raises(KernelError, match="no metadata registers"):
            TileGrid(
                GemmShape(m=64, n=64, k=128),
                pattern=SparsityPattern.SPARSE_2_4,
                geometry=AMX_GEOMETRY,
            )

    def test_tile_grid_follows_geometry_tile_sizes(self):
        grid = TileGrid(
            GemmShape(m=64, n=64, k=128),
            pattern=SparsityPattern.DENSE_4_4,
            geometry=SME_GEOMETRY,
        )
        assert (grid.tile_m, grid.tile_n, grid.tile_k) == (32, 32, 64)


class TestTraceGeometry:
    def test_builder_stamps_geometry_transfer_sizes(self):
        program = build_dense_gemm_kernel(
            GemmShape(m=32, n=32, k=64), geometry=SME_GEOMETRY
        )
        trace = program.trace
        assert trace.geometry is SME_GEOMETRY
        # A treg load under the SME geometry moves a 4 KB tile image.
        nbytes = trace.columns["nbytes"]
        assert int(nbytes.max()) == SME_GEOMETRY.tile_reg_bytes

    def test_geometry_survives_pickling(self):
        program = build_dense_gemm_kernel(
            GemmShape(m=32, n=32, k=64), geometry=SME_GEOMETRY
        )
        restored = pickle.loads(pickle.dumps(program.trace))
        assert restored.geometry == SME_GEOMETRY
        assert restored.simulation_key(default_machine()) == program.trace.simulation_key(
            default_machine()
        )

    def test_default_builder_keeps_default_geometry(self):
        builder = TraceBuilder()
        assert builder.geometry is DEFAULT_GEOMETRY
        assert builder.finish().geometry is DEFAULT_GEOMETRY


class TestMemoKeyGeometry:
    def test_key_distinguishes_engines_by_geometry_alone(self):
        # Same program, same machine, engines identical except for the tile
        # geometry: the memo key must not alias their simulations.
        program = build_dense_gemm_kernel(GemmShape(m=64, n=64, k=128))
        machine = default_machine()
        base = get_engine("VEGETA-D-1-2")
        sme_twin = dataclasses.replace(base, geometry=SME_GEOMETRY)
        key_default = simulation_cache_key(program, machine, base, "fast")
        key_sme = simulation_cache_key(program, machine, sme_twin, "fast")
        assert key_default is not None
        assert key_default != key_sme

    def test_key_is_structural_not_nominal(self):
        # A renamed geometry with VEGETA's exact structure hashes equal on
        # purpose: the simulation outcome only depends on the tile shape and
        # register files, never on the geometry's display name.
        program = build_dense_gemm_kernel(GemmShape(m=64, n=64, k=128))
        machine = default_machine()
        base = get_engine("VEGETA-D-1-2")
        twin = dataclasses.replace(base, geometry=TileGeometry(name="vegeta-twin"))
        assert simulation_cache_key(program, machine, base, "fast") == (
            simulation_cache_key(program, machine, twin, "fast")
        )

    def test_same_rows_different_geometry_traces_key_apart(self):
        # Two dense programs of one logical GEMM under different geometries:
        # the columnar traces themselves must already key apart (their
        # transfer sizes and block structure follow the tile geometry).
        shape = GemmShape(m=64, n=64, k=128)
        machine = default_machine()
        default_program = build_dense_gemm_kernel(shape)
        sme_program = build_dense_gemm_kernel(shape, geometry=SME_GEOMETRY)
        assert default_program.trace.simulation_key(machine) != (
            sme_program.trace.simulation_key(machine)
        )
