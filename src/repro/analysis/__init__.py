"""Analysis layer: metrics, ablation driver, network estimation, area/power."""

from .ablation import (
    AblationEntry,
    AblationResults,
    AblationStudy,
    STEP_LABELS,
)
from .area import (
    AreaModel,
    FpgaResourceModel,
    FpgaResources,
    StreamerAreaBreakdown,
    SystemAreaBreakdown,
)
from .metrics import BoxStats
from .network_perf import (
    LayerEstimate,
    NetworkEstimate,
    NetworkPerformanceEstimator,
    representative_crop,
)
from .power import PowerBreakdown, PowerModel, gemm64_power_report
from .technology import (
    AreaCoefficients,
    DEFAULT_AREA,
    DEFAULT_ENERGY,
    DEFAULT_FPGA,
    EnergyCoefficients,
    FpgaCoefficients,
    PAPER_FPGA_REFERENCE,
    PAPER_SILICON_REFERENCE,
)
from .reporting import (
    format_check_marks,
    format_comparison,
    format_percentage_map,
    format_table,
)

__all__ = [
    "AblationStudy",
    "AblationResults",
    "AblationEntry",
    "STEP_LABELS",
    "AreaModel",
    "SystemAreaBreakdown",
    "StreamerAreaBreakdown",
    "FpgaResourceModel",
    "FpgaResources",
    "BoxStats",
    "LayerEstimate",
    "NetworkEstimate",
    "NetworkPerformanceEstimator",
    "representative_crop",
    "PowerModel",
    "PowerBreakdown",
    "gemm64_power_report",
    "AreaCoefficients",
    "EnergyCoefficients",
    "FpgaCoefficients",
    "DEFAULT_AREA",
    "DEFAULT_ENERGY",
    "DEFAULT_FPGA",
    "PAPER_SILICON_REFERENCE",
    "PAPER_FPGA_REFERENCE",
    "format_table",
    "format_percentage_map",
    "format_comparison",
    "format_check_marks",
]
