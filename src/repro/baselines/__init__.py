"""State-of-the-art comparator models for Table I and Figure 10.

Every comparator registers in :data:`BASELINE_REGISTRY` (slug → factory),
which is the single source of truth consumed by the Table I / Fig. 10
experiment modules and by the :mod:`repro.runtime` backend registry — no
caller enumerates model classes by hand.
"""

from typing import Callable, Dict, List

from .base import TABLE1_FEATURES, DataMovementSolution, OverheadProfile
from .bitwave import BitWaveModel
from .datamaestro_profile import DataMaestroSolution
from .feather import FeatherModel
from .gemmini import GemminiModel, workload_as_gemm
from .streaming import (
    BuffetModel,
    HwpeModel,
    SoftbrainModel,
    SparseProgrammableDataflowModel,
    SsrModel,
)

#: All comparator models, keyed by slug.  Insertion order matters: it is the
#: Fig. 10 ordering for the models that have performance models.
BASELINE_REGISTRY: Dict[str, Callable[[], DataMovementSolution]] = {
    "gemmini-os": lambda: GemminiModel("OS"),
    "gemmini-ws": lambda: GemminiModel("WS"),
    "bitwave": BitWaveModel,
    "feather": FeatherModel,
    "ssr": SsrModel,
    "hwpe": HwpeModel,
    "buffet": BuffetModel,
    "softbrain": SoftbrainModel,
    "sparse-dataflow": SparseProgrammableDataflowModel,
    "datamaestro": DataMaestroSolution,
}

#: Table I column order (paper layout), expressed as registry slugs.
TABLE1_ORDER = (
    "gemmini-os",
    "bitwave",
    "sparse-dataflow",
    "feather",
    "ssr",
    "hwpe",
    "buffet",
    "softbrain",
    "datamaestro",
)

#: The solutions whose data-movement overhead the paper compiled (Fig. 10
#: right), in presentation order.
OVERHEAD_ORDER = ("buffet", "softbrain", "bitwave", "feather")


def create_baseline(slug: str) -> DataMovementSolution:
    """Instantiate one registered comparator model by slug."""
    try:
        factory = BASELINE_REGISTRY[slug]
    except KeyError:
        raise KeyError(
            f"unknown baseline {slug!r}; available: {sorted(BASELINE_REGISTRY)}"
        ) from None
    model = factory()
    # Stamp the registry key so describe()/slug round-trips through
    # create_baseline() and the CLI's baseline:<slug> backend names.
    model._slug = slug
    return model


def table1_solutions() -> List[DataMovementSolution]:
    """All solutions compared in Table I, in the paper's column order."""
    return [create_baseline(slug) for slug in TABLE1_ORDER]


def throughput_baselines() -> List[DataMovementSolution]:
    """The accelerators compared in Fig. 10 (left), excluding DataMaestro.

    Derived from the registry by capability: every model that implements a
    performance model, except DataMaestro itself (whose utilization is
    measured, not modelled).
    """
    baselines = []
    for slug in BASELINE_REGISTRY:
        if slug == "datamaestro":
            continue
        model = create_baseline(slug)
        if model.has_performance_model:
            baselines.append(model)
    return baselines


def overhead_comparison() -> Dict[str, OverheadProfile]:
    """The Fig. 10 (right) data-movement area/power share table."""
    comparison: Dict[str, OverheadProfile] = {}
    for slug in OVERHEAD_ORDER:
        solution = create_baseline(slug)
        profile = solution.overhead_profile()
        if profile is not None:
            comparison[solution.name] = profile
    return comparison


__all__ = [
    "TABLE1_FEATURES",
    "BASELINE_REGISTRY",
    "GemminiModel",
    "BitWaveModel",
    "FeatherModel",
    "BuffetModel",
    "SoftbrainModel",
    "DataMaestroSolution",
    "workload_as_gemm",
    "create_baseline",
    "table1_solutions",
    "throughput_baselines",
    "overhead_comparison",
]
