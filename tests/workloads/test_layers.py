"""Tests for the Table IV workload definitions."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.layers import TABLE_IV_MACS, all_layers, get_layer


def layers_of(*models):
    layers = [layer for layer in all_layers() if layer.model in models]
    assert layers, models
    return layers


class TestTableIV:
    def test_twelve_layers(self):
        assert len(all_layers()) == 12

    @pytest.mark.parametrize("name,expected_macs", sorted(TABLE_IV_MACS.items()))
    def test_mac_counts_match_paper(self, name, expected_macs):
        assert get_layer(name).macs == expected_macs

    def test_resnet_layers_are_convolutions(self):
        for layer in layers_of("ResNet50"):
            assert layer.conv.gemm_shape() == layer.gemm

    def test_transformer_layers_are_plain_gemms(self):
        for layer in layers_of("BERT", "GPT-3"):
            assert layer.conv is None

    def test_bert_l1_dimensions(self):
        gemm = get_layer("BERT-L1").gemm
        assert (gemm.m, gemm.n, gemm.k) == (512, 768, 768)

    def test_resnet_l1_gemm_dimensions(self):
        gemm = get_layer("ResNet50-L1").gemm
        assert (gemm.m, gemm.n, gemm.k) == (64, 56 * 56, 256)

    def test_gpt_l3_has_largest_mac_count(self):
        largest = max(all_layers(), key=lambda layer: layer.macs)
        assert largest.name == "GPT-L3"

    def test_lookup_case_insensitive(self):
        assert get_layer("bert-l2").name == "BERT-L2"

    def test_unknown_layer(self):
        with pytest.raises(WorkloadError):
            get_layer("VGG-L1")

    def test_describe_has_table_columns(self):
        row = get_layer("ResNet50-L2").describe()
        assert row["macs"] == 115_605_504
        assert row["filter"] == "3x3"
