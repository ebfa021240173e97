"""Base classes for the state-of-the-art comparison models (Table I, Fig. 10).

Each comparator from the paper is described by:

* a **feature profile** — the qualitative rows of Table I (open source,
  reusable design, decoupled access/execute, programmable affine dimensions,
  fine-grained prefetch, runtime addressing-mode switching, on-the-fly data
  manipulation);
* an **overhead profile** — the share of system area/power its data-movement
  machinery occupies, as compiled by the paper in Fig. 10 (right);
* optionally a **performance model** — an analytic utilization estimate used
  for the normalized-throughput comparison of Fig. 10 (left).  These models
  are behavioural approximations built from each accelerator's documented
  data-orchestration scheme (see DESIGN.md, substitution table); they are not
  re-implementations of the original RTL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..workloads.spec import Workload


#: Feature keys in the order Table I lists them.
TABLE1_FEATURES = (
    "open_source",
    "reusable_design",
    "decoupled_access_execute",
    "programmable_affine_dims",
    "fine_grained_prefetch",
    "runtime_addressing_mode_switching",
    "on_the_fly_data_manipulation",
)


@dataclass(frozen=True)
class FeatureProfile:
    """One row set of Table I."""

    open_source: bool
    reusable_design: bool
    decoupled_access_execute: bool
    #: Number of programmable affine dimensions (0 = not programmable,
    #: ``None`` encodes the paper's "N-D" for DataMaestro).
    programmable_affine_dims: Optional[int]
    fine_grained_prefetch: bool
    runtime_addressing_mode_switching: bool
    on_the_fly_data_manipulation: bool

    def as_dict(self) -> Dict[str, object]:
        dims = self.programmable_affine_dims
        if dims is None:
            dims_text = "N-D"
        elif dims == 0:
            dims_text = False
        else:
            dims_text = f"{dims}-D"
        return {
            "open_source": self.open_source,
            "reusable_design": self.reusable_design,
            "decoupled_access_execute": self.decoupled_access_execute,
            "programmable_affine_dims": dims_text,
            "fine_grained_prefetch": self.fine_grained_prefetch,
            "runtime_addressing_mode_switching": self.runtime_addressing_mode_switching,
            "on_the_fly_data_manipulation": self.on_the_fly_data_manipulation,
        }


@dataclass(frozen=True)
class OverheadProfile:
    """Share of the whole accelerator system used by data movement."""

    area_percent: Optional[float]
    power_percent: Optional[float]
    source: str = "paper Fig. 10 (right)"


class DataMovementSolution:
    """A state-of-the-art data movement solution / accelerator."""

    #: Display name (matching the paper's Table I column headers).
    name: str = "unnamed"
    #: Publication reference, for reports.
    reference: str = ""

    @property
    def slug(self) -> str:
        """Registry identifier of this model.

        ``BASELINE_REGISTRY`` stamps its authoritative key onto every model
        it instantiates; models built directly fall back to a slug derived
        from the display name.
        """
        assigned = getattr(self, "_slug", None)
        if assigned is not None:
            return assigned
        text = self.name.lower()
        for old, new in ((" (", "-"), (")", ""), (" ", "-"), ("[", ""), ("]", ""), (".", "")):
            text = text.replace(old, new)
        return text

    def feature_profile(self) -> FeatureProfile:
        raise NotImplementedError

    def overhead_profile(self) -> Optional[OverheadProfile]:
        """Data-movement area/power share, if the literature reports it."""
        return None

    # ------------------------------------------------------------------
    # Performance model (only the Fig. 10 throughput baselines implement it).
    # ------------------------------------------------------------------
    @property
    def has_performance_model(self) -> bool:
        return False

    def utilization(self, workload: Workload) -> float:
        """Estimated PE-array utilization on ``workload`` (0..1)."""
        raise NotImplementedError(f"{self.name} has no performance model")

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name,
            "slug": self.slug,
            "reference": self.reference,
            "has_performance_model": self.has_performance_model,
        }
        data.update(self.feature_profile().as_dict())
        overhead = self.overhead_profile()
        if overhead is not None:
            data["data_movement_area_percent"] = overhead.area_percent
            data["data_movement_power_percent"] = overhead.power_percent
        return data
