"""Multi-objective scoring of design candidates and Pareto extraction.

Every evaluated candidate gets a *metrics* record combining the cycle-level
measurements (utilization, cycles, memory activity) with the analytic energy
and area models of :mod:`repro.analysis.power` / :mod:`repro.analysis.area`,
computed from the same design-time parameters the simulator used.  An
:class:`ObjectiveSpec` names one metric and its optimisation direction; the
exploration engine optimises a list of them and reports the set of
non-dominated candidates (:func:`pareto_frontier`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.params import FeatureSet
from ..runtime.outcome import SimOutcome
from ..system.design import AcceleratorSystemDesign
from .space import Candidate

#: Direction of every supported objective metric.
OBJECTIVE_DIRECTIONS: Dict[str, str] = {
    "utilization": "max",
    "cycles": "min",
    "prepass_cycles": "min",
    "bank_conflicts": "min",
    "memory_accesses": "min",
    "energy_pj": "min",
    "area": "min",
    "edp": "min",  # energy-delay product
}


@dataclass(frozen=True)
class ObjectiveSpec:
    """One scoring dimension: a metric name and its direction."""

    name: str
    goal: str  # "min" or "max"

    def __post_init__(self) -> None:
        if self.goal not in ("min", "max"):
            raise ValueError(f"objective {self.name!r}: goal must be min or max")

    @staticmethod
    def parse(text: str) -> "ObjectiveSpec":
        """Parse ``"cycles"`` (intrinsic direction) or ``"min:cycles"``."""
        if ":" in text:
            goal, name = text.split(":", 1)
        else:
            name = text
            goal = OBJECTIVE_DIRECTIONS.get(name)
            if goal is None:
                raise ValueError(
                    f"unknown objective {name!r}; available: "
                    f"{sorted(OBJECTIVE_DIRECTIONS)}"
                )
        if name not in OBJECTIVE_DIRECTIONS:
            raise ValueError(
                f"unknown objective {name!r}; available: {sorted(OBJECTIVE_DIRECTIONS)}"
            )
        return ObjectiveSpec(name=name, goal=goal)


def parse_objectives(text: str) -> List[ObjectiveSpec]:
    """Parse a comma-separated objective list (CLI ``--objectives``)."""
    specs = [ObjectiveSpec.parse(token.strip()) for token in text.split(",") if token.strip()]
    if not specs:
        raise ValueError("at least one objective is required")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate objectives in {names}")
    return specs


DEFAULT_OBJECTIVES = (
    ObjectiveSpec("cycles", "min"),
    ObjectiveSpec("energy_pj", "min"),
    ObjectiveSpec("area", "min"),
)


# ----------------------------------------------------------------------
# Candidate evaluation records.
# ----------------------------------------------------------------------
@dataclass
class Evaluation:
    """One scored candidate: full metrics + the selected objective values."""

    candidate: Candidate
    metrics: Dict[str, float]
    job_hashes: List[str] = field(default_factory=list)
    from_journal: bool = False

    def as_dict(self, objectives: Sequence[ObjectiveSpec]) -> Dict[str, object]:
        record: Dict[str, object] = dict(self.candidate.as_dict())
        for spec in objectives:
            record[spec.name] = self.metrics.get(spec.name)
        return record


def score_candidate(
    candidate: Candidate,
    design: AcceleratorSystemDesign,
    features: FeatureSet,
    outcomes: Sequence[SimOutcome],
) -> Evaluation:
    """Aggregate per-workload outcomes + analytic models into one record.

    Cycle counts, conflicts and accesses are summed over the workload suite;
    utilization is compute-weighted (total ideal cycles over total measured
    cycles); energy sums the activity-driven power model over each kernel;
    area is workload-independent.
    """
    # Imported here, not at module level: repro.analysis re-exports the DSE
    # sweeps which are built on repro.explore — a cycle at import time.
    from ..analysis.area import AreaModel
    from ..analysis.power import PowerModel

    if not outcomes:
        raise ValueError(f"candidate {candidate.key()}: no outcomes to score")
    total_cycles = sum(outcome.kernel_cycles for outcome in outcomes)
    total_ideal = sum(outcome.ideal_compute_cycles for outcome in outcomes)
    utilization = total_ideal / total_cycles if total_cycles else 0.0

    power_model = PowerModel(design)
    energy_pj = 0.0
    for outcome in outcomes:
        if outcome.result is not None:
            # Average power (mW) × kernel time (ns at the design clock) = pJ.
            breakdown = power_model.breakdown(outcome.result)
            energy_pj += breakdown.total * (
                outcome.kernel_cycles / design.clock_frequency_ghz
            )
        else:
            # Analytic backends carry no activity counters; approximate with
            # peak-rate MAC energy so cross-backend comparisons stay sane.
            macs = outcome.ideal_compute_cycles * design.num_pes
            energy_pj += macs * power_model.coeff.int8_mac
    area = AreaModel(design).system_breakdown().total

    metrics: Dict[str, float] = {
        "utilization": utilization,
        "cycles": float(total_cycles),
        "prepass_cycles": float(sum(o.prepass_cycles for o in outcomes)),
        "bank_conflicts": float(sum(o.bank_conflicts for o in outcomes)),
        "memory_accesses": float(sum(o.memory_accesses for o in outcomes)),
        "energy_pj": energy_pj,
        "area": area,
        "edp": energy_pj * total_cycles,
    }
    return Evaluation(
        candidate=candidate,
        metrics=metrics,
        job_hashes=[outcome.job_hash for outcome in outcomes],
    )


# ----------------------------------------------------------------------
# Pareto dominance.
# ----------------------------------------------------------------------
def dominates(
    first: Evaluation, second: Evaluation, objectives: Sequence[ObjectiveSpec]
) -> bool:
    """True when ``first`` is no worse on every objective and better on one."""
    strictly_better = False
    for spec in objectives:
        a = first.metrics[spec.name]
        b = second.metrics[spec.name]
        if spec.goal == "max":
            a, b = -a, -b
        if a > b:
            return False
        if a < b:
            strictly_better = True
    return strictly_better


def pareto_frontier(
    evaluations: Sequence[Evaluation], objectives: Sequence[ObjectiveSpec]
) -> List[Evaluation]:
    """Non-dominated evaluations, sorted by candidate key (deterministic).

    Duplicate candidates (same key) keep their first occurrence; candidates
    with identical objective vectors are all kept — neither dominates.
    """
    unique: Dict[str, Evaluation] = {}
    for evaluation in evaluations:
        unique.setdefault(evaluation.candidate.key(), evaluation)
    frontier = [
        evaluation
        for evaluation in unique.values()
        if not any(
            dominates(other, evaluation, objectives)
            for other in unique.values()
            if other is not evaluation
        )
    ]
    return sorted(frontier, key=lambda evaluation: evaluation.candidate.key())


def best_by_scalar(
    evaluations: Sequence[Evaluation], objective: ObjectiveSpec
) -> Evaluation:
    """The single best evaluation on one objective (ties: candidate key)."""
    if not evaluations:
        raise ValueError("no evaluations to choose from")
    sign = -1.0 if objective.goal == "max" else 1.0
    return min(
        evaluations,
        key=lambda evaluation: (
            sign * evaluation.metrics[objective.name],
            evaluation.candidate.key(),
        ),
    )
