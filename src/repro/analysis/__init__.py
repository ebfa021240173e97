"""Analysis layer: metrics, ablation driver, network estimation, area/power."""

from .ablation import AblationStudy
from .area import AreaModel, FpgaResourceModel
from .metrics import BoxStats
from .network_perf import NetworkPerformanceEstimator, representative_crop
from .power import PowerModel, gemm64_power_report
from .technology import PAPER_FPGA_REFERENCE, PAPER_SILICON_REFERENCE
from .reporting import (
    format_check_marks,
    format_comparison,
    format_percentage_map,
    format_table,
)

__all__ = [
    "AblationStudy",
    "AreaModel",
    "FpgaResourceModel",
    "BoxStats",
    "NetworkPerformanceEstimator",
    "representative_crop",
    "PowerModel",
    "gemm64_power_report",
    "PAPER_SILICON_REFERENCE",
    "PAPER_FPGA_REFERENCE",
    "format_table",
    "format_percentage_map",
    "format_comparison",
    "format_check_marks",
]
