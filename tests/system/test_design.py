"""Tests for the evaluation-system design description (Fig. 6 parameters)."""

import pytest

from repro.core import StreamerMode
from repro.system import (
    PORT_NAMES,
    datamaestro_evaluation_system,
    validate_port_widths,
)
from repro.system.design import AcceleratorSystemDesign


class TestEvaluationSystemDesign:
    def test_five_ports_with_expected_roles(self):
        design = datamaestro_evaluation_system()
        assert tuple(s.name for s in design.streamers) == PORT_NAMES
        assert design.streamer("A").mode is StreamerMode.READ
        assert design.streamer("B").mode is StreamerMode.READ
        assert design.streamer("C").mode is StreamerMode.READ
        assert design.streamer("D").mode is StreamerMode.WRITE
        assert design.streamer("E").mode is StreamerMode.WRITE

    def test_paper_figure6_parameters(self):
        design = datamaestro_evaluation_system()
        # 8x8x8 Tensor-Core-like array -> 512 PEs, 1 TOPS peak at 1 GHz.
        assert design.num_pes == 512
        assert 2 * design.num_pes * design.clock_frequency_ghz == pytest.approx(1024.0)
        # 128 KiB scratchpad with 64-bit banks.
        assert design.memory.capacity_bytes == 128 * 1024
        assert design.memory.bank_width_bits == 64
        # Port widths: A/B 512-bit, C/D 2048-bit, E 512-bit.
        assert design.streamer("A").word_bytes == 64
        assert design.streamer("B").word_bytes == 64
        assert design.streamer("C").word_bytes == 256
        assert design.streamer("D").word_bytes == 256
        assert design.streamer("E").word_bytes == 64
        # Deep data FIFOs on the per-cycle streams, single-entry elsewhere.
        assert design.streamer("A").data_buffer_depth == 8
        assert design.streamer("C").data_buffer_depth == 1
        # The 6-D temporal AGU of port A enables implicit im2col.
        assert design.streamer("A").temporal_dims == 6
        # Extensions: Transposer on A, Broadcaster on the init stream C.
        assert [spec.kind for spec in design.streamer("A").extensions] == ["transposer"]
        assert [spec.kind for spec in design.streamer("C").extensions] == ["broadcaster"]

    def test_group_size_options_cover_all_three_modes(self):
        design = datamaestro_evaluation_system()
        options = design.group_size_options()
        assert design.memory.num_banks in options  # FIMA
        assert 1 in options  # NIMA
        assert any(1 < option < design.memory.num_banks for option in options)  # GIMA

    def test_port_width_validation_passes(self):
        validate_port_widths(datamaestro_evaluation_system())

    def test_port_width_validation_catches_mismatch(self):
        design = datamaestro_evaluation_system()
        bad = AcceleratorSystemDesign(
            name="bad",
            memory=design.memory,
            streamers=design.streamers,
            gemm_mu=16,
            gemm_nu=8,
            gemm_ku=8,
        )
        with pytest.raises(ValueError):
            validate_port_widths(bad)

    def test_unknown_port_raises(self):
        with pytest.raises(KeyError):
            datamaestro_evaluation_system().streamer("Z")

    def test_streamer_map(self):
        design = datamaestro_evaluation_system()
        assert [d.name for d in design.streamers] == list(PORT_NAMES)
        for name in PORT_NAMES:
            assert design.streamer(name).name == name

    def test_configurable_scratchpad_size(self):
        design = datamaestro_evaluation_system(scratchpad_kib=256)
        assert design.memory.capacity_bytes == 256 * 1024

    def test_invalid_parameters_rejected(self):
        design = datamaestro_evaluation_system()
        with pytest.raises(ValueError):
            AcceleratorSystemDesign(
                name="bad",
                memory=design.memory,
                streamers=design.streamers,
                gemm_mu=0,
            )
        with pytest.raises(ValueError):
            AcceleratorSystemDesign(
                name="bad",
                memory=design.memory,
                streamers=design.streamers,
                dma_words_per_cycle=0,
            )
