"""Smoke and shape tests for the per-figure experiment modules.

The heavyweight sweeps run in ``benchmarks/``; here every experiment is
exercised at reduced scale to check structure, report formatting and the
registry plumbing.
"""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    fig4_agu,
    fig7_ablation,
    fig8_fpga,
    fig9_breakdown,
    table1_features,
    table3_networks,
)
from repro.workloads import GemmWorkload, NetworkLayer, NetworkModel


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "fig4",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "table3",
        }

    def test_every_module_has_run_report_main(self):
        for module in EXPERIMENTS.values():
            assert callable(module.run)
            assert callable(module.report)
            assert callable(module.main)


class TestTable1:
    def test_matrix_and_report(self):
        matrix = table1_features.run()
        assert len(matrix) == 9
        text = table1_features.report(matrix)
        assert "DataMaestro" in text and "Buffet" in text

    def test_paper_reference_rows_match(self):
        matrix = table1_features.run()
        for solution, expected in table1_features.PAPER_TABLE1.items():
            assert matrix[solution] == expected


class TestFig4:
    def test_exact_paper_match(self):
        results = fig4_agu.run()
        assert results["matches_paper"]
        assert len(results["rows"]) == 8
        text = fig4_agu.report(results)
        assert "matches the paper's Figure 4(c): True" in text


class TestFig7SmallScale:
    @pytest.fixture(scope="class")
    def results(self):
        return fig7_ablation.run(workloads_per_group=1, full=False)

    def test_structure(self, results):
        assert results["num_simulations"] == 18
        assert set(results["mean_utilization"]) == {
            "gemm",
            "transposed_gemm",
            "convolution",
        }
        for by_step in results["mean_utilization"].values():
            assert set(by_step) == {
                "1_baseline",
                "2_prefetch",
                "3_transposer",
                "4_broadcaster",
                "5_im2col",
                "6_full",
            }

    def test_report_contains_both_panels(self, results):
        text = fig7_ablation.report(results)
        assert "Figure 7(a)" in text
        assert "Figure 7(b)" in text
        assert "max speedup" in text

    def test_full_suite_env_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_SUITE", "1")
        assert fig7_ablation.full_suite_requested(None)
        monkeypatch.setenv("REPRO_FULL_SUITE", "0")
        assert not fig7_ablation.full_suite_requested(None)
        assert fig7_ablation.full_suite_requested(True)


class TestFig8AndFig9:
    def test_fig8_report(self):
        results = fig8_fpga.run()
        text = fig8_fpga.report(results)
        assert "VPK180" in text
        assert results["model"]["luts_total"] > 0

    def test_fig9_report(self):
        results = fig9_breakdown.run()
        text = fig9_breakdown.report(results)
        assert "Figure 9(a)" in text
        assert "Figure 9(b)" in text
        assert "Figure 9(c)" in text
        assert "TOPS/W" in text or "energy efficiency" in text


class TestTable3SmallScale:
    def test_custom_network_dictionary(self):
        tiny = NetworkModel(
            name="TinyFormer",
            kind="Transformer",
            layers=(
                NetworkLayer(GemmWorkload(name="tf_proj", m=64, n=64, k=64), count=2),
            ),
        )
        results = table3_networks.run(networks={"TinyFormer": tiny})
        assert "TinyFormer" in results["summary"]
        assert results["summary"]["TinyFormer"]["utilization_percent"] > 90
        text = table3_networks.report(results)
        assert "TinyFormer" in text
