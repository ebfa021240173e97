"""Tests for the real-world DNN layer tables (Table III networks)."""

import pytest

from repro.workloads import (
    ConvWorkload,
    GemmWorkload,
    benchmark_networks,
    bert_base,
    mobilenet_v2,
    resnet18,
    vgg16,
    vit_base_16,
)


def total_macs(model):
    """A network's MACs: each layer's workload times its instance count."""
    return sum(layer.workload.macs * layer.count for layer in model.layers)


class TestNetworkTables:
    def test_benchmark_networks_cover_table3_plus_mobilenet(self):
        networks = benchmark_networks()
        # Table III's four networks plus the depthwise-heavy DSE scenario.
        assert set(networks) == {
            "ResNet-18",
            "VGG-16",
            "ViT-B-16",
            "BERT-Base",
            "MobileNet-V2",
        }
        assert networks["ResNet-18"].kind == "CNN"
        assert networks["BERT-Base"].kind == "Transformer"
        assert networks["MobileNet-V2"].kind == "CNN"

    def test_resnet18_structure(self):
        model = resnet18()
        convs = [l for l in model.layers if isinstance(l.workload, ConvWorkload)]
        gemms = [l for l in model.layers if isinstance(l.workload, GemmWorkload)]
        assert len(gemms) == 1  # the classifier
        # 7x7 stem with stride 2 present.
        stem = model.layers[0].workload
        assert stem.kernel_h == 7 and stem.stride == 2
        # ResNet-18 has 20 convolutions (16 block convs + stem + 3 downsample skips).
        assert sum(l.count for l in convs) == 20
        # ~1.8 GMACs for 224x224 inference.
        assert 1.6e9 < total_macs(model) < 2.1e9

    def test_vgg16_structure(self):
        model = vgg16()
        assert sum(l.count for l in model.layers) == 16
        # ~15.5 GMACs for 224x224 inference.
        assert 1.4e10 < total_macs(model) < 1.6e10

    def test_vit_structure(self):
        model = vit_base_16()
        names = [layer.workload.name for layer in model.layers]
        assert "vit_qkv_proj" in names
        assert "vit_attn_scores" in names
        scores = next(l for l in model.layers if l.workload.name == "vit_attn_scores")
        assert scores.workload.transposed_a
        assert scores.count == 12 * 12
        # ~17 GMACs with 197 tokens.
        assert 1.5e10 < total_macs(model) < 2.0e10

    def test_bert_structure(self):
        model = bert_base()
        assert model.name == "BERT-Base"
        ffn = next(l for l in model.layers if l.workload.name == "bert_ffn_fc1")
        assert ffn.workload.n == 3072 and ffn.workload.k == 768
        # ~11 GMACs at sequence length 128.
        assert 0.9e10 < total_macs(model) < 1.3e10

    def test_mobilenet_v2_structure(self):
        model = mobilenet_v2()
        assert model.name == "MobileNet-V2"
        # ~300 MMACs at 224x224 — an order of magnitude below ResNet-18.
        assert 2.5e8 < total_macs(model) < 3.5e8
        assert total_macs(model) < total_macs(resnet18()) / 5

    def test_mobilenet_v2_is_depthwise_heavy(self):
        model = mobilenet_v2()
        depthwise = [l for l in model.layers if l.workload.name.endswith("_dw3x3")]
        pointwise = [
            l
            for l in model.layers
            if isinstance(l.workload, ConvWorkload) and l.workload.is_pointwise
        ]
        assert len(depthwise) == 17  # one per inverted-residual block
        assert len(pointwise) >= 30  # expand + project pairs + head
        for layer in depthwise:
            # Depthwise = per-channel convolution: no cross-channel reduction.
            assert layer.workload.in_channels == 1
            assert layer.workload.out_channels == 1
            assert layer.count > 1  # repeated once per channel
        # Depthwise layers carry many instances but little of the compute:
        # the reduction-poor, bandwidth-bound regime exploration should cover.
        dw_macs = sum(l.workload.macs * l.count for l in depthwise)
        assert sum(l.count for l in depthwise) > 5000
        assert dw_macs / total_macs(model) < 0.15

    def test_mobilenet_v2_spatial_pyramid(self):
        model = mobilenet_v2()
        stem = model.layers[0].workload
        assert stem.in_height == 224 and stem.stride == 2
        strided = [
            l.workload
            for l in model.layers
            if isinstance(l.workload, ConvWorkload) and l.workload.is_strided
        ]
        assert len(strided) == 5  # stem + four downsampling depthwise stages

    def test_bert_sequence_length_parameter(self):
        short = bert_base(sequence_length=64)
        long = bert_base(sequence_length=256)
        assert total_macs(long) > total_macs(short)

    def test_layer_counts_positive(self):
        with pytest.raises(ValueError):
            from repro.workloads.networks import NetworkLayer

            NetworkLayer(GemmWorkload(name="x", m=8, n=8, k=8), count=0)

    def test_unique_workloads_deduplicates_repeats(self):
        from repro.workloads.networks import NetworkLayer, NetworkModel

        shared = GemmWorkload(name="block_proj", m=16, n=16, k=16)
        other = GemmWorkload(name="head", m=4, n=8, k=16)
        model = NetworkModel(
            name="toy",
            kind="Transformer",
            layers=(
                NetworkLayer(shared, count=2),
                NetworkLayer(other),
                NetworkLayer(shared),  # same spec listed again
            ),
        )
        unique = model.unique_workloads()
        assert unique == [shared, other]  # first-occurrence order, no repeats

    def test_unique_workloads_keeps_distinct_layers_intact(self):
        for model in benchmark_networks().values():
            unique = model.unique_workloads()
            assert len(unique) == len(set(unique))
            # Every layer's workload is still represented.
            assert set(unique) == {layer.workload for layer in model.layers}

    def test_total_macs_sanity_table(self):
        """One table pinning every model's total MACs to its published
        ballpark — a drifted layer table moves the total and fails here."""
        expectations = {
            "ResNet-18": (1.6e9, 2.1e9),
            "VGG-16": (1.4e10, 1.6e10),
            "ViT-B-16": (1.5e10, 2.0e10),
            "BERT-Base": (0.9e10, 1.3e10),
            "MobileNet-V2": (2.5e8, 3.5e8),
        }
        networks = benchmark_networks()
        assert set(expectations) == set(networks)
        for name, (low, high) in expectations.items():
            model = networks[name]
            assert low < total_macs(model) < high, (
                f"{name}: total_macs={total_macs(model):.3e} outside "
                f"({low:.1e}, {high:.1e})"
            )
            # The total is exactly the count-weighted layer sum.
            assert total_macs(model) == sum(
                layer.workload.macs * layer.count for layer in model.layers
            )
