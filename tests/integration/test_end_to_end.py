"""Integration tests spanning kernels, functional model and simulator."""

import numpy as np
import pytest
from reference_checks import validate_kernel

from repro import (
    CycleApproximateSimulator,
    GemmShape,
    SparsityPattern,
    build_dense_gemm_kernel,
    build_spmm_kernel,
    get_engine,
)
from repro.analysis.runtime import resolve_engine, simulate_layer
from repro.kernels.validate import reference_gemm
from repro.sparse import transform_unstructured
from repro.workloads import generate_structured, generate_unstructured, get_layer


class TestFunctionalPlusTiming:
    def test_same_kernel_runs_functionally_and_on_simulator(self):
        shape = GemmShape(m=48, n=32, k=128)
        data = generate_structured(shape, SparsityPattern.SPARSE_2_4, seed=0)
        program = build_spmm_kernel(shape, SparsityPattern.SPARSE_2_4, a=data.a, b=data.b)
        matches, _ = validate_kernel(program, data.a, data.b)
        assert matches
        result = CycleApproximateSimulator(engine=get_engine("VEGETA-S-4-2")).run(program.trace)
        assert result.core_cycles > 0
        assert result.tile_compute_ops == program.summary().tile_compute

    def test_engine_ranking_on_sparse_layer(self):
        """Figure 13's qualitative ordering on a 1:4 sparse layer."""
        shape = GemmShape(m=64, n=64, k=512)
        kernels = {}
        for name in ("VEGETA-D-1-1", "VEGETA-D-1-2", "STC-like", "VEGETA-S-16-2", "VEGETA-S-16-2+OF"):
            engine = resolve_engine(name)
            pattern = engine.executable_pattern(SparsityPattern.SPARSE_1_4)
            if pattern is SparsityPattern.DENSE_4_4:
                program = build_dense_gemm_kernel(shape)
            else:
                program = build_spmm_kernel(shape, pattern)
            kernels[name] = CycleApproximateSimulator(engine=engine).run(program.trace).core_cycles
        assert kernels["VEGETA-D-1-1"] > kernels["VEGETA-D-1-2"]
        assert kernels["VEGETA-D-1-2"] > kernels["STC-like"]
        assert kernels["STC-like"] > kernels["VEGETA-S-16-2"]
        assert kernels["VEGETA-S-16-2"] > kernels["VEGETA-S-16-2+OF"]


class TestUnstructuredFlow:
    def test_unstructured_to_rowwise_preserves_gemm_result(self):
        shape = GemmShape(m=32, n=32, k=128)
        data = generate_unstructured(shape, 0.9, seed=7)
        tile = transform_unstructured(data.a)
        recovered = tile.decompress()
        assert np.allclose(
            reference_gemm(recovered, data.b), reference_gemm(data.a, data.b)
        )


class TestLayerSimulationSanity:
    @pytest.mark.parametrize("layer_name", ["ResNet50-L2", "BERT-L1"])
    def test_runtime_scales_with_mac_count(self, layer_name):
        small = get_layer("GPT-L1")
        large = get_layer(layer_name)
        engine = get_engine("VEGETA-D-1-2")
        small_runtime = simulate_layer(small, SparsityPattern.DENSE_4_4, engine, max_output_tiles=1)
        large_runtime = simulate_layer(large, SparsityPattern.DENSE_4_4, engine, max_output_tiles=1)
        if large.macs > small.macs:
            assert large_runtime.core_cycles_scaled > small_runtime.core_cycles_scaled
