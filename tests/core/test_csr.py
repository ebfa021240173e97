"""Tests for the CSR programming model (encode/decode round trip)."""

import pytest

from repro.core import (
    CsrAddressMap,
    ExtensionSpec,
    StreamerDesign,
    StreamerMode,
    StreamerRuntimeConfig,
    decode_runtime_config,
    encode_runtime_config,
)

GROUP_OPTIONS = [16, 4, 1]


def make_design():
    return StreamerDesign(
        name="dm_a",
        mode=StreamerMode.READ,
        num_channels=8,
        spatial_bounds=(8,),
        temporal_dims=6,
        bank_width_bits=64,
        extensions=(
            ExtensionSpec.make("transposer", rows=8, cols=8, element_bytes=1),
            ExtensionSpec.make("broadcaster", factor=1),
        ),
    )


def make_runtime(**overrides):
    params = dict(
        base_address=0x1000,
        temporal_bounds=(4, 2, 8),
        temporal_strides=(64, 0, 512),
        spatial_strides=(8,),
        bank_group_size=4,
        active_channels=None,
        extension_enables=(True, False),
        extension_params=(
            ("transposer", (("cols", 8), ("element_bytes", 1), ("rows", 8))),
            ("broadcaster", (("factor", 2),)),
        ),
    )
    params.update(overrides)
    return StreamerRuntimeConfig(**params)


def encoder_offsets(csr_map):
    """The offsets the encoder and decoder use, in register order."""
    return [
        csr_map.base_offset,
        *csr_map.bound_offsets,
        *csr_map.stride_offsets,
        *csr_map.spatial_offsets,
        csr_map.mode_offset,
        csr_map.active_offset,
        csr_map.enable_offset,
        *(offset for slots in csr_map.extension_offsets for offset in slots),
    ]


class TestCsrAddressMap:
    def test_all_fields_have_unique_offsets(self):
        csr_map = CsrAddressMap(make_design())
        offsets = encoder_offsets(csr_map)
        assert len(offsets) == len(set(offsets))
        # ``start`` and ``status`` close the map, one word each.
        assert csr_map.size_bytes == (len(offsets) + 2) * 4 == len(csr_map) * 4

    def test_field_lookup_roundtrip(self):
        """The encoder's offsets are consecutive words in register order."""
        csr_map = CsrAddressMap(make_design())
        offsets = encoder_offsets(csr_map)
        assert offsets == list(range(0, 4 * len(offsets), 4))
        assert csr_map.bound_offsets[3] == 4 * (1 + 3)

    def test_map_scales_with_design(self):
        small = StreamerDesign(
            name="dm_s",
            mode=StreamerMode.WRITE,
            num_channels=2,
            spatial_bounds=(2,),
            temporal_dims=2,
        )
        assert CsrAddressMap(small).size_bytes < CsrAddressMap(make_design()).size_bytes


class TestEncodeDecode:
    def test_roundtrip_preserves_semantics(self):
        design = make_design()
        runtime = make_runtime()
        writes = encode_runtime_config(design, runtime, GROUP_OPTIONS)
        image = dict(writes)
        decoded = decode_runtime_config(design, image, GROUP_OPTIONS)
        assert decoded.base_address == runtime.base_address
        assert decoded.temporal_bounds == runtime.temporal_bounds
        assert decoded.temporal_strides == runtime.temporal_strides
        assert decoded.spatial_strides == runtime.spatial_strides
        assert decoded.bank_group_size == runtime.bank_group_size
        assert decoded.extension_enables == runtime.extension_enables
        decoded_params = {k: dict(v) for k, v in decoded.extension_params_dict().items()}
        assert decoded_params["transposer"] == {"rows": 8, "cols": 8, "element_bytes": 1}
        assert decoded_params["broadcaster"] == {"factor": 2}

    def test_unused_temporal_dims_padded_with_unit_bounds(self):
        design = make_design()
        runtime = make_runtime(temporal_bounds=(4,), temporal_strides=(64,))
        writes = dict(encode_runtime_config(design, runtime, GROUP_OPTIONS))
        csr_map = CsrAddressMap(design)
        assert writes[csr_map.bound_offsets[5]] == 1
        assert writes[csr_map.stride_offsets[5]] == 0
        decoded = decode_runtime_config(design, writes, GROUP_OPTIONS)
        assert decoded.temporal_bounds == (4,)

    def test_active_channels_roundtrip(self):
        design = make_design()
        runtime = make_runtime(active_channels=4)
        writes = dict(encode_runtime_config(design, runtime, GROUP_OPTIONS))
        decoded = decode_runtime_config(design, writes, GROUP_OPTIONS)
        assert decoded.active_channels == 4

    def test_group_size_must_be_available(self):
        design = make_design()
        runtime = make_runtime(bank_group_size=2)
        with pytest.raises(ValueError):
            encode_runtime_config(design, runtime, GROUP_OPTIONS)

    def test_decode_rejects_bad_mode_index(self):
        design = make_design()
        csr_map = CsrAddressMap(design)
        image = {csr_map.mode_offset: 17}
        with pytest.raises(ValueError):
            decode_runtime_config(design, image, GROUP_OPTIONS)

    def test_encode_validates_runtime(self):
        design = make_design()
        runtime = make_runtime(spatial_strides=(8, 8))
        with pytest.raises(ValueError):
            encode_runtime_config(design, runtime, GROUP_OPTIONS)
