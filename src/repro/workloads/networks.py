"""Layer tables of the real-world DNNs benchmarked in the paper (Table III).

The paper benchmarks ResNet-18 and VGG-16 (CNNs) plus ViT-Base/16 and
BERT-Base (Transformers) on the FPGA prototype and reports the GeMM-core
utilization of each network.  This module provides the standard layer shapes
of those four networks as :class:`~repro.workloads.spec.Workload` lists with
repetition counts, so the network-level performance estimator
(:mod:`repro.analysis.network_perf`) can weight every layer by its share of
the network's compute.

Shapes follow the original publications: ResNet-18 / VGG-16 for 224×224
ImageNet inference, ViT-B/16 with 196+1 tokens, BERT-Base with a sequence
length of 128.  All layers are expressed for batch size 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .spec import ConvWorkload, GemmWorkload, Workload


@dataclass(frozen=True)
class NetworkLayer:
    """One (possibly repeated) layer of a network."""

    workload: Workload
    count: int = 1

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("layer repetition count must be positive")


@dataclass(frozen=True)
class NetworkModel:
    """A named network: an ordered list of layers with repetition counts."""

    name: str
    kind: str  # "CNN" or "Transformer"
    layers: Tuple[NetworkLayer, ...]

    def unique_workloads(self) -> List[Workload]:
        """Layer workloads with repeats removed, first-occurrence order.

        Repeated stages (stacked residual blocks, per-layer transformer
        sub-blocks) share one workload spec; deduplicating here keeps the
        parity/perf suites from simulating identical kernels repeatedly.
        """
        unique: List[Workload] = []
        seen = set()
        for layer in self.layers:
            if layer.workload not in seen:
                seen.add(layer.workload)
                unique.append(layer.workload)
        return unique


def _conv(
    name: str,
    hw: int,
    cin: int,
    cout: int,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> ConvWorkload:
    return ConvWorkload(
        name=name,
        in_height=hw,
        in_width=hw,
        in_channels=cin,
        out_channels=cout,
        kernel_h=kernel,
        kernel_w=kernel,
        stride=stride,
        padding=padding,
    )


def _gemm(name: str, m: int, n: int, k: int, transposed: bool = False) -> GemmWorkload:
    return GemmWorkload(name=name, m=m, n=n, k=k, transposed_a=transposed)


# ----------------------------------------------------------------------
# ResNet-18 (He et al., 224x224 input).
# ----------------------------------------------------------------------
def resnet18() -> NetworkModel:
    layers = [
        NetworkLayer(_conv("rn18_conv1", 224, 3, 64, 7, stride=2, padding=3)),
        # Stage 1: 56x56, 64 channels.
        NetworkLayer(_conv("rn18_s1_conv3x3", 56, 64, 64, 3, padding=1), count=4),
        # Stage 2: downsample to 28x28, 128 channels.
        NetworkLayer(_conv("rn18_s2_down3x3", 56, 64, 128, 3, stride=2, padding=1)),
        NetworkLayer(_conv("rn18_s2_skip1x1", 56, 64, 128, 1, stride=2)),
        NetworkLayer(_conv("rn18_s2_conv3x3", 28, 128, 128, 3, padding=1), count=3),
        # Stage 3: downsample to 14x14, 256 channels.
        NetworkLayer(_conv("rn18_s3_down3x3", 28, 128, 256, 3, stride=2, padding=1)),
        NetworkLayer(_conv("rn18_s3_skip1x1", 28, 128, 256, 1, stride=2)),
        NetworkLayer(_conv("rn18_s3_conv3x3", 14, 256, 256, 3, padding=1), count=3),
        # Stage 4: downsample to 7x7, 512 channels.
        NetworkLayer(_conv("rn18_s4_down3x3", 14, 256, 512, 3, stride=2, padding=1)),
        NetworkLayer(_conv("rn18_s4_skip1x1", 14, 256, 512, 1, stride=2)),
        NetworkLayer(_conv("rn18_s4_conv3x3", 7, 512, 512, 3, padding=1), count=3),
        # Classifier.
        NetworkLayer(_gemm("rn18_fc", 1, 1000, 512)),
    ]
    return NetworkModel(name="ResNet-18", kind="CNN", layers=tuple(layers))


# ----------------------------------------------------------------------
# VGG-16 (Simonyan & Zisserman, 224x224 input).
# ----------------------------------------------------------------------
def vgg16() -> NetworkModel:
    layers = [
        NetworkLayer(_conv("vgg_conv1_1", 224, 3, 64, 3, padding=1)),
        NetworkLayer(_conv("vgg_conv1_2", 224, 64, 64, 3, padding=1)),
        NetworkLayer(_conv("vgg_conv2_1", 112, 64, 128, 3, padding=1)),
        NetworkLayer(_conv("vgg_conv2_2", 112, 128, 128, 3, padding=1)),
        NetworkLayer(_conv("vgg_conv3_1", 56, 128, 256, 3, padding=1)),
        NetworkLayer(_conv("vgg_conv3_x", 56, 256, 256, 3, padding=1), count=2),
        NetworkLayer(_conv("vgg_conv4_1", 28, 256, 512, 3, padding=1)),
        NetworkLayer(_conv("vgg_conv4_x", 28, 512, 512, 3, padding=1), count=2),
        NetworkLayer(_conv("vgg_conv5_x", 14, 512, 512, 3, padding=1), count=3),
        NetworkLayer(_gemm("vgg_fc6", 1, 4096, 25088)),
        NetworkLayer(_gemm("vgg_fc7", 1, 4096, 4096)),
        NetworkLayer(_gemm("vgg_fc8", 1, 1000, 4096)),
    ]
    return NetworkModel(name="VGG-16", kind="CNN", layers=tuple(layers))


# ----------------------------------------------------------------------
# ViT-Base/16 (Dosovitskiy et al., 224x224 input, 196+1 tokens, 12 blocks).
# ----------------------------------------------------------------------
def vit_base_16() -> NetworkModel:
    tokens = 197
    hidden = 768
    heads = 12
    head_dim = hidden // heads
    mlp = 3072
    blocks = 12
    layers = [
        # Patch embedding: a 16x16/16 convolution == GeMM of 196 patches.
        NetworkLayer(_gemm("vit_patch_embed", 196, hidden, 16 * 16 * 3)),
        # Per encoder block.
        NetworkLayer(_gemm("vit_qkv_proj", tokens, 3 * hidden, hidden), count=blocks),
        NetworkLayer(
            _gemm("vit_attn_scores", tokens, tokens, head_dim, transposed=True),
            count=blocks * heads,
        ),
        NetworkLayer(
            _gemm("vit_attn_context", tokens, head_dim, tokens), count=blocks * heads
        ),
        NetworkLayer(_gemm("vit_attn_out", tokens, hidden, hidden), count=blocks),
        NetworkLayer(_gemm("vit_mlp_fc1", tokens, mlp, hidden), count=blocks),
        NetworkLayer(_gemm("vit_mlp_fc2", tokens, hidden, mlp), count=blocks),
        # Classification head.
        NetworkLayer(_gemm("vit_head", 1, 1000, hidden)),
    ]
    return NetworkModel(name="ViT-B-16", kind="Transformer", layers=tuple(layers))


# ----------------------------------------------------------------------
# BERT-Base (Devlin et al., sequence length 128, 12 layers).
# ----------------------------------------------------------------------
def bert_base(sequence_length: int = 128) -> NetworkModel:
    hidden = 768
    heads = 12
    head_dim = hidden // heads
    ffn = 3072
    blocks = 12
    seq = sequence_length
    layers = [
        NetworkLayer(_gemm("bert_qkv_proj", seq, 3 * hidden, hidden), count=blocks),
        NetworkLayer(
            _gemm("bert_attn_scores", seq, seq, head_dim, transposed=True),
            count=blocks * heads,
        ),
        NetworkLayer(_gemm("bert_attn_context", seq, head_dim, seq), count=blocks * heads),
        NetworkLayer(_gemm("bert_attn_out", seq, hidden, hidden), count=blocks),
        NetworkLayer(_gemm("bert_ffn_fc1", seq, ffn, hidden), count=blocks),
        NetworkLayer(_gemm("bert_ffn_fc2", seq, hidden, ffn), count=blocks),
        NetworkLayer(_gemm("bert_pooler", 1, hidden, hidden)),
    ]
    return NetworkModel(name="BERT-Base", kind="Transformer", layers=tuple(layers))


# ----------------------------------------------------------------------
# MobileNetV2 (Sandler et al., 224x224 input) — depthwise-heavy.
# ----------------------------------------------------------------------
def _inverted_residual(
    tag: str,
    hw: int,
    cin: int,
    cout: int,
    stride: int = 1,
    expansion: int = 6,
    repeats: int = 1,
) -> List[NetworkLayer]:
    """One MobileNetV2 bottleneck stage: expand 1x1 → depthwise 3x3 → project 1x1.

    Depthwise convolutions have no cross-channel reduction, so each one is
    modelled as a per-channel ``1 -> 1`` convolution repeated ``channels``
    times — preserving the MAC count and the bandwidth-bound, reduction-poor
    access pattern that makes these layers hard for a GeMM-style engine.
    """
    hidden = cin * expansion
    out_hw = hw // stride
    layers: List[NetworkLayer] = []
    if expansion != 1:
        layers.append(NetworkLayer(_conv(f"{tag}_expand1x1", hw, cin, hidden, 1)))
    layers.append(
        NetworkLayer(
            _conv(f"{tag}_dw3x3", hw, 1, 1, 3, stride=stride, padding=1),
            count=hidden,
        )
    )
    layers.append(NetworkLayer(_conv(f"{tag}_project1x1", out_hw, hidden, cout, 1)))
    for repeat in range(1, repeats):
        rtag = f"{tag}r{repeat}"
        rhidden = cout * expansion
        layers.append(NetworkLayer(_conv(f"{rtag}_expand1x1", out_hw, cout, rhidden, 1)))
        layers.append(
            NetworkLayer(
                _conv(f"{rtag}_dw3x3", out_hw, 1, 1, 3, padding=1), count=rhidden
            )
        )
        layers.append(NetworkLayer(_conv(f"{rtag}_project1x1", out_hw, rhidden, cout, 1)))
    return layers


def mobilenet_v2() -> NetworkModel:
    """MobileNetV2: the depthwise-separable, bandwidth-bound CNN scenario."""
    layers = [NetworkLayer(_conv("mb2_conv1", 224, 3, 32, 3, stride=2, padding=1))]
    layers += _inverted_residual("mb2_b1", 112, 32, 16, expansion=1)
    layers += _inverted_residual("mb2_b2", 112, 16, 24, stride=2, repeats=2)
    layers += _inverted_residual("mb2_b3", 56, 24, 32, stride=2, repeats=3)
    layers += _inverted_residual("mb2_b4", 28, 32, 64, stride=2, repeats=4)
    layers += _inverted_residual("mb2_b5", 14, 64, 96, repeats=3)
    layers += _inverted_residual("mb2_b6", 14, 96, 160, stride=2, repeats=3)
    layers += _inverted_residual("mb2_b7", 7, 160, 320)
    layers.append(NetworkLayer(_conv("mb2_conv_last", 7, 320, 1280, 1)))
    layers.append(NetworkLayer(_gemm("mb2_fc", 1, 1000, 1280)))
    return NetworkModel(name="MobileNet-V2", kind="CNN", layers=tuple(layers))


# ----------------------------------------------------------------------
# Registry used by the Table III experiment.
# ----------------------------------------------------------------------
def benchmark_networks() -> Dict[str, NetworkModel]:
    """The four networks of Table III plus the depthwise-heavy MobileNetV2.

    The first four are the paper's Table III columns; MobileNetV2 extends
    the suite with a bandwidth-bound scenario for design-space exploration.
    """
    return {
        "ResNet-18": resnet18(),
        "VGG-16": vgg16(),
        "ViT-B-16": vit_base_16(),
        "BERT-Base": bert_base(),
        "MobileNet-V2": mobilenet_v2(),
    }
