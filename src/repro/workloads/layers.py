"""The DNN layers of Table IV and their GEMM formulations.

The evaluation uses six ResNet-50 convolutional layers (lowered to GEMM via
im2col with 'same' padding, so the output feature map matches the input
spatial size) and six Transformer GEMMs from BERT and GPT-3.  Each layer is
exposed as a :class:`WorkloadLayer` carrying both the original layer
dimensions and the GEMM shape the kernels operate on; the MAC counts match
the "# of MACs" column of Table IV exactly (checked by the unit tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import WorkloadError
from ..kernels.im2col import ConvShape
from ..types import GemmShape


@dataclass(frozen=True)
class WorkloadLayer:
    """One DNN layer of the evaluation suite.

    ``conv`` is populated for convolutional layers; ``gemm`` always holds the
    GEMM the kernels actually execute (the im2col lowering for convolutions).
    """

    name: str
    model: str
    gemm: GemmShape
    conv: Optional[ConvShape] = None

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations of the layer (Table IV column)."""
        return self.gemm.macs

    def describe(self) -> Dict[str, object]:
        """Row of Table IV for this layer."""
        row: Dict[str, object] = {
            "name": self.name,
            "model": self.model,
            "M": self.gemm.m,
            "N": self.gemm.n,
            "K": self.gemm.k,
            "macs": self.macs,
        }
        if self.conv is not None:
            row.update(
                {
                    "out_channels": self.conv.out_channels,
                    "in_channels": self.conv.in_channels,
                    "fmap": f"{self.conv.in_height}x{self.conv.in_width}",
                    "filter": f"{self.conv.filter_height}x{self.conv.filter_width}",
                }
            )
        return row


def _conv_layer(
    name: str,
    out_channels: int,
    in_channels: int,
    height: int,
    width: int,
    filter_height: int,
    filter_width: int,
) -> WorkloadLayer:
    """Build a ResNet-50 layer with 'same' padding (output size = input size)."""
    padding = (filter_height - 1) // 2
    conv = ConvShape(
        out_channels=out_channels,
        in_channels=in_channels,
        in_height=height,
        in_width=width,
        filter_height=filter_height,
        filter_width=filter_width,
        stride=1,
        padding=padding,
    )
    return WorkloadLayer(name=name, model="ResNet50", gemm=conv.gemm_shape(), conv=conv)


def _gemm_layer(name: str, model: str, m: int, n: int, k: int) -> WorkloadLayer:
    return WorkloadLayer(name=name, model=model, gemm=GemmShape(m=m, n=n, k=k))


_LAYERS: Tuple[WorkloadLayer, ...] = (
    _conv_layer("ResNet50-L1", 64, 256, 56, 56, 1, 1),
    _conv_layer("ResNet50-L2", 64, 64, 56, 56, 3, 3),
    _conv_layer("ResNet50-L3", 256, 64, 56, 56, 1, 1),
    _conv_layer("ResNet50-L4", 128, 128, 28, 28, 3, 3),
    _conv_layer("ResNet50-L5", 512, 128, 28, 28, 1, 1),
    _conv_layer("ResNet50-L6", 256, 256, 14, 14, 3, 3),
    _gemm_layer("BERT-L1", "BERT", 512, 768, 768),
    _gemm_layer("BERT-L2", "BERT", 512, 512, 768),
    _gemm_layer("BERT-L3", "BERT", 512, 768, 512),
    _gemm_layer("GPT-L1", "GPT-3", 256, 256, 2048),
    _gemm_layer("GPT-L2", "GPT-3", 512, 512, 2048),
    _gemm_layer("GPT-L3", "GPT-3", 256, 256, 12288),
)

#: Expected MAC counts from the paper's Table IV, keyed by layer name.
TABLE_IV_MACS: Dict[str, int] = {
    "ResNet50-L1": 51_380_224,
    "ResNet50-L2": 115_605_504,
    "ResNet50-L3": 51_380_224,
    "ResNet50-L4": 115_605_504,
    "ResNet50-L5": 51_380_224,
    "ResNet50-L6": 115_605_504,
    "BERT-L1": 301_989_888,
    "BERT-L2": 201_326_592,
    "BERT-L3": 201_326_592,
    "GPT-L1": 134_217_728,
    "GPT-L2": 536_870_912,
    "GPT-L3": 805_306_368,
}


def all_layers() -> List[WorkloadLayer]:
    """Every layer of Table IV in paper order."""
    return list(_LAYERS)


def get_layer(name: str) -> WorkloadLayer:
    """Look a layer up by its Table IV name (case-insensitive)."""
    for layer in _LAYERS:
        if layer.name.lower() == name.lower():
            return layer
    raise WorkloadError(
        f"unknown layer {name!r}; known layers: {', '.join(l.name for l in _LAYERS)}"
    )
