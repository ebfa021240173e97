"""Ablation-study driver (paper §IV-B, Figure 7).

The paper evaluates six architecture points by progressively enabling the
DataMaestro features on top of a plain-data-mover baseline:

    ① baseline → ② +fine-grained prefetch → ③ +Transposer → ④ +Broadcaster
    → ⑤ +implicit im2col → ⑥ +addressing-mode switching

over a synthetic suite of GeMM / transposed-GeMM / convolution workloads, and
reports (a) the GeMM-core utilization distribution per group and architecture
and (b) the data access counts normalized to the baseline.

:class:`AblationStudy` runs exactly that sweep on the cycle-level system and
exposes the same two summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..core.params import ABLATION_STEPS, FeatureSet
from ..engine import DEFAULT_ENGINE
from ..runtime.job import SimJob
from ..runtime.simulator import Simulator
from ..system.design import AcceleratorSystemDesign, datamaestro_evaluation_system
from ..workloads.spec import Workload, WorkloadGroup
from ..workloads.synthetic import stratified_subset, synthetic_suite
from .metrics import BoxStats

#: Human-readable labels matching the paper's circled architecture numbers.
STEP_LABELS = {
    "1_baseline": "(1) baseline",
    "2_prefetch": "(2) +prefetch",
    "3_transposer": "(3) +transposer",
    "4_broadcaster": "(4) +broadcaster",
    "5_im2col": "(5) +implicit im2col",
    "6_full": "(6) +addr-mode switching",
}


@dataclass(frozen=True)
class AblationEntry:
    """One (architecture step, workload) simulation outcome."""

    step: str
    group: WorkloadGroup
    workload_name: str
    ideal_cycles: int
    kernel_cycles: int
    utilization: float
    memory_accesses: int
    bank_conflicts: int


@dataclass
class AblationResults:
    """All entries of one ablation sweep plus the paper-style summaries."""

    entries: List[AblationEntry] = field(default_factory=list)

    # ------------------------------------------------------------------
    def steps(self) -> List[str]:
        ordered = [name for name, _ in ABLATION_STEPS]
        present = {entry.step for entry in self.entries}
        return [name for name in ordered if name in present]

    def groups(self) -> List[WorkloadGroup]:
        present = {entry.group for entry in self.entries}
        return [group for group in WorkloadGroup if group in present]

    def _select(self, step: str, group: WorkloadGroup) -> List[AblationEntry]:
        return [
            entry
            for entry in self.entries
            if entry.step == step and entry.group == group
        ]

    # ------------------------------------------------------------------
    # Figure 7(a): utilization distribution and averages.
    # ------------------------------------------------------------------
    def utilization_distribution(self) -> Dict[WorkloadGroup, Dict[str, BoxStats]]:
        summary: Dict[WorkloadGroup, Dict[str, BoxStats]] = {}
        for group in self.groups():
            summary[group] = {}
            for step in self.steps():
                samples = [e.utilization for e in self._select(step, group)]
                if samples:
                    summary[group][step] = BoxStats.from_samples(samples)
        return summary

    def mean_utilization(self) -> Dict[WorkloadGroup, Dict[str, float]]:
        return {
            group: {step: stats.mean for step, stats in by_step.items()}
            for group, by_step in self.utilization_distribution().items()
        }

    def speedup_over_baseline(self) -> Dict[WorkloadGroup, Dict[str, float]]:
        """Per-group mean speedup of each step vs architecture ①."""
        speedups: Dict[WorkloadGroup, Dict[str, float]] = {}
        baseline_step = self.steps()[0]
        for group in self.groups():
            baseline_cycles = {
                e.workload_name: e.kernel_cycles
                for e in self._select(baseline_step, group)
            }
            speedups[group] = {}
            for step in self.steps():
                ratios = []
                for entry in self._select(step, group):
                    base = baseline_cycles.get(entry.workload_name)
                    if base:
                        ratios.append(base / entry.kernel_cycles)
                if ratios:
                    speedups[group][step] = sum(ratios) / len(ratios)
        return speedups

    # ------------------------------------------------------------------
    # Figure 7(b): data access counts normalized to the baseline.
    # ------------------------------------------------------------------
    def normalized_access_counts(self) -> Dict[WorkloadGroup, Dict[str, float]]:
        normalized: Dict[WorkloadGroup, Dict[str, float]] = {}
        baseline_step = self.steps()[0]
        for group in self.groups():
            baseline_accesses = {
                e.workload_name: e.memory_accesses
                for e in self._select(baseline_step, group)
            }
            normalized[group] = {}
            for step in self.steps():
                ratios = []
                for entry in self._select(step, group):
                    base = baseline_accesses.get(entry.workload_name)
                    if base:
                        ratios.append(entry.memory_accesses / base)
                if ratios:
                    normalized[group][step] = sum(ratios) / len(ratios)
        return normalized

    # ------------------------------------------------------------------
    def max_speedup(self) -> float:
        """Largest single-workload speedup of ⑥ over ① (paper: up to 2.89×)."""
        final_step = self.steps()[-1]
        baseline_step = self.steps()[0]
        best = 0.0
        baseline = {
            (e.group, e.workload_name): e.kernel_cycles
            for e in self.entries
            if e.step == baseline_step
        }
        for entry in self.entries:
            if entry.step != final_step:
                continue
            base = baseline.get((entry.group, entry.workload_name))
            if base:
                best = max(best, base / entry.kernel_cycles)
        return best

    def max_access_reduction(self) -> float:
        """Largest single-workload access reduction of ⑥ vs ① (paper: 21.15%)."""
        final_step = self.steps()[-1]
        baseline_step = self.steps()[0]
        best = 0.0
        baseline = {
            (e.group, e.workload_name): e.memory_accesses
            for e in self.entries
            if e.step == baseline_step
        }
        for entry in self.entries:
            if entry.step != final_step:
                continue
            base = baseline.get((entry.group, entry.workload_name))
            if base:
                best = max(best, 1.0 - entry.memory_accesses / base)
        return best


class AblationStudy:
    """Runs the ①–⑥ feature ladder over a workload suite.

    All simulation goes through the :class:`~repro.runtime.simulator.Simulator`
    facade, so a study with a cached/parallel simulator is incremental and
    can fan out across worker processes.
    """

    def __init__(
        self,
        design: Optional[AcceleratorSystemDesign] = None,
        steps: Optional[Sequence[str]] = None,
        seed: int = 0,
        simulator: Optional[Simulator] = None,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        self.design = design or datamaestro_evaluation_system()
        self.simulator = simulator or Simulator()
        self.engine = engine
        all_steps = dict(ABLATION_STEPS)
        if steps is None:
            self.steps: Dict[str, FeatureSet] = dict(ABLATION_STEPS)
        else:
            unknown = [name for name in steps if name not in all_steps]
            if unknown:
                raise ValueError(f"unknown ablation steps: {unknown}")
            self.steps = {name: all_steps[name] for name in steps}
        self.seed = seed

    # ------------------------------------------------------------------
    def job_for(self, workload: Workload, features: FeatureSet) -> SimJob:
        return SimJob(
            workload=workload,
            design=self.design,
            features=features,
            seed=self.seed,
            engine=self.engine,
        )

    def run(
        self,
        suite: Optional[Mapping[WorkloadGroup, Sequence[Workload]]] = None,
        workloads_per_group: Optional[int] = None,
        verify_functional: bool = False,
    ) -> AblationResults:
        """Run the sweep; optionally subsample each group for quick runs."""
        if suite is None:
            suite = synthetic_suite()
        points: List[tuple] = []
        for group, workloads in suite.items():
            selected = list(workloads)
            if workloads_per_group is not None:
                selected = stratified_subset(selected, workloads_per_group)
            for workload in selected:
                for step, features in self.steps.items():
                    points.append((group, workload, step, features))

        outcomes = self.simulator.simulate_many(
            self.job_for(workload, features)
            for _, workload, _, features in points
        )

        results = AblationResults()
        for (group, workload, step, _), outcome in zip(points, outcomes):
            if verify_functional and outcome.functional_match is False:
                raise AssertionError(
                    f"functional mismatch for {workload.name} at step {step}"
                )
            results.entries.append(
                AblationEntry(
                    step=step,
                    group=group,
                    workload_name=workload.name,
                    ideal_cycles=outcome.ideal_compute_cycles,
                    kernel_cycles=outcome.kernel_cycles,
                    utilization=outcome.utilization,
                    memory_accesses=outcome.memory_accesses,
                    bank_conflicts=outcome.bank_conflicts,
                )
            )
        return results
