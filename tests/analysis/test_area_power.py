"""Tests for the parametric area, power and FPGA resource models.

These are also the checks of the paper's Fig. 8 (FPGA resources) and
Fig. 9 / §IV-D (area and power breakdowns, energy efficiency): the
``fig8_fpga`` and ``fig9_breakdown`` experiments print exactly these
models next to the paper's numbers.
"""

import pytest

from repro.analysis import (
    AreaModel,
    FpgaResourceModel,
    PAPER_FPGA_REFERENCE,
    PAPER_SILICON_REFERENCE,
    PowerModel,
    gemm64_power_report,
)
from repro.analysis.technology import AreaCoefficients
from repro.compiler import compile_workload
from repro.system import AcceleratorSystem, datamaestro_evaluation_system
from repro.workloads import GemmWorkload

DESIGN = datamaestro_evaluation_system()


@pytest.fixture(scope="module")
def area_breakdown():
    return AreaModel(DESIGN).system_breakdown()


@pytest.fixture(scope="module")
def gemm64_report():
    return gemm64_power_report(DESIGN)


class TestAreaModel:
    def test_total_is_sum_of_components(self, area_breakdown):
        shares = area_breakdown.shares_percent()
        assert sum(shares.values()) == pytest.approx(100.0)

    def test_memory_dominates_area(self, area_breakdown):
        shares = area_breakdown.shares_percent()
        assert shares["memory_subsystem"] == max(shares.values())

    def test_fig9a_shape(self, area_breakdown):
        """Fig. 9(a): the scratchpad outweighs the GeMM array, which outweighs
        the quantizer; the five DataMaestros stay small (paper: 6.43%)."""
        shares = area_breakdown.shares_percent()
        assert shares["memory_subsystem"] > shares["gemm_accelerator"]
        assert shares["quantizer"] < shares["gemm_accelerator"]
        assert shares["datamaestros"] < 15.0

    def test_datamaestros_are_a_small_fraction(self, area_breakdown):
        shares = area_breakdown.shares_percent()
        paper = PAPER_SILICON_REFERENCE["area_share_percent"]["datamaestros"]
        assert shares["datamaestros"] < 2.5 * paper
        assert shares["datamaestros"] > 0.5 * paper

    def test_streamer_ordering_follows_buffering(self, area_breakdown):
        per_dm = area_breakdown.streamer_shares_percent()
        # A and B (deep FIFOs) are the largest; E (narrow) is the smallest.
        assert per_dm["A"] >= per_dm["C"]
        assert per_dm["E"] == min(per_dm.values())
        assert per_dm["A"] == max(per_dm.values())

    def test_datamaestro_a_composition(self, area_breakdown):
        composition = area_breakdown.streamers["A"].shares_percent()
        assert composition["fifo_buffers"] > 70.0
        assert 3.0 < composition["agu"] < 20.0
        assert composition["address_remapper"] < 2.0
        assert "transposer" in composition
        assert sum(composition.values()) == pytest.approx(100.0)

    def test_transposer_only_on_port_a(self, area_breakdown):
        assert "transposer" in area_breakdown.streamers["A"].extensions
        assert "transposer" not in area_breakdown.streamers["B"].extensions

    def test_area_scales_with_fifo_depth(self):
        shallow = AreaModel(DESIGN, AreaCoefficients(fifo_bit=1.0))
        deep = AreaModel(DESIGN, AreaCoefficients(fifo_bit=4.0))
        assert (
            deep.system_breakdown().datamaestros_total
            > shallow.system_breakdown().datamaestros_total
        )


class TestPowerModel:
    def test_shares_sum_to_100(self, gemm64_report):
        assert sum(gemm64_report["power_shares_percent"].values()) == pytest.approx(100.0)

    def test_total_power_in_paper_range(self, gemm64_report):
        # Paper: 329.4 mW; the model should land within a factor of 2.
        assert 150.0 < gemm64_report["total_power_mw"] < 660.0

    def test_energy_efficiency_in_paper_range(self, gemm64_report):
        # Paper: 2.57 TOPS/W.
        assert 1.0 < gemm64_report["energy_efficiency_tops_per_w"] < 6.0

    def test_host_and_compute_are_major_consumers(self, gemm64_report):
        shares = gemm64_report["power_shares_percent"]
        assert shares["riscv_host"] > 15.0
        assert shares["gemm_accelerator"] > 10.0
        # Fig. 9(c): DataMaestros take a modest share of power (paper: 15%).
        assert shares["datamaestros"] < 25.0

    def test_gemm64_runs_at_full_utilization(self, gemm64_report):
        assert gemm64_report["utilization"] > 0.95

    def test_power_scales_with_activity(self):
        system = AcceleratorSystem(DESIGN)
        model = PowerModel(DESIGN)
        busy = system.run(
            compile_workload(GemmWorkload(name="pw_busy", m=32, n=32, k=64), DESIGN)
        )
        idleish = system.run(
            compile_workload(
                GemmWorkload(name="pw_idle", m=32, n=32, k=64), DESIGN,
                features=None, seed=0,
            )
        )
        # Same workload twice: identical power (determinism check).
        assert model.breakdown(busy).total == pytest.approx(
            model.breakdown(idleish).total
        )

    def test_quantizer_power_nonzero_only_when_used(self):
        system = AcceleratorSystem(DESIGN)
        model = PowerModel(DESIGN)
        plain = system.run(
            compile_workload(GemmWorkload(name="pw_plain", m=16, n=16, k=16), DESIGN)
        )
        quant = system.run(
            compile_workload(
                GemmWorkload(name="pw_quant", m=16, n=16, k=16, quantize=True), DESIGN
            )
        )
        assert model.breakdown(plain).quantizer == 0.0
        assert model.breakdown(quant).quantizer > 0.0


class TestFpgaModel:
    def test_totals_close_to_paper(self):
        resources = FpgaResourceModel(DESIGN).estimate()
        assert 150_000 < resources.luts_total < 500_000
        assert 30_000 < resources.regs_total < 150_000

    def test_gemm_dominates_luts(self):
        resources = FpgaResourceModel(DESIGN).estimate()
        assert resources.luts_gemm > resources.luts_datamaestros
        assert resources.luts_gemm > resources.luts_quantizer

    def test_fig8_shape(self):
        """Fig. 8: the GeMM array dominates the LUTs, the DataMaestros are a
        small fraction, and the totals land within 2x of the VPK180's."""
        resources = FpgaResourceModel(DESIGN).estimate()
        assert resources.luts_gemm > 0.3 * resources.luts_total
        assert resources.luts_datamaestros < 0.12 * resources.luts_total
        assert 0.5 < resources.luts_total / PAPER_FPGA_REFERENCE["luts_total"] < 2.0
        assert 0.5 < resources.regs_total / PAPER_FPGA_REFERENCE["regs_total"] < 2.0

    def test_shares_api(self):
        shares = FpgaResourceModel(DESIGN).estimate().shares_percent()
        assert 0 < shares["luts_datamaestros_percent"] < 20
