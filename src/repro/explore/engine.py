"""The exploration engine: strategy-driven, cached, journaled evaluation.

:class:`ExplorationEngine` closes the loop between a
:class:`~repro.explore.space.SearchSpace`, a
:class:`~repro.explore.strategies.Strategy` and the
:class:`~repro.runtime.simulator.Simulator`:

1. the strategy proposes a batch of candidates (bounded by the budget);
2. candidates already in the run journal are *replayed* (no simulation at
   all); the rest are materialised into :class:`~repro.runtime.job.SimJob`
   batches and pushed through ``Simulator.simulate_many`` — so the on-disk
   result cache makes repeated exploration incremental, and with
   ``--jobs N`` a batch runs on N shard processes;
3. fresh evaluations are scored against the objective layer, appended to the
   journal, and reported back to the strategy for the next round.

Because every component is a deterministic function of (space, strategy,
seed, workloads), a fixed-seed run is exactly reproducible, a warm-cache
re-run performs zero new cycle simulations, and an interrupted run resumed
from its journal converges to the same Pareto frontier as an uninterrupted
one.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..engine import DEFAULT_ENGINE
from ..runtime.job import DATAMAESTRO_BACKEND, SimJob, stable_digest, canonical_encode
from ..runtime.simulator import Simulator
from ..sim.result import DEFAULT_CYCLE_BUDGET
from ..workloads.spec import GemmWorkload, Workload
from .journal import JournalError, RunJournal
from .objectives import (
    DEFAULT_OBJECTIVES,
    Evaluation,
    ObjectiveSpec,
    best_by_scalar,
    pareto_frontier,
    score_candidate,
)
from .space import Candidate, SearchSpace
from .strategies import Strategy


def default_exploration_workloads() -> List[Workload]:
    """The default evaluation kernel: a mid-sized GeMM."""
    return [GemmWorkload(name="dse_gemm", m=64, n=64, k=96)]


@dataclass
class ExplorationReport:
    """Everything one exploration run produced."""

    space: Dict[str, object]
    strategy: str
    seed: int
    budget: int
    objectives: List[ObjectiveSpec]
    evaluations: List[Evaluation] = field(default_factory=list)
    frontier: List[Evaluation] = field(default_factory=list)
    simulated: int = 0
    cache_hits: int = 0
    replayed_from_journal: int = 0
    #: Proposals the run fell short of its budget (the strategy stopped
    #: producing candidates early) — a non-zero value explains an
    #: under-spent budget.
    proposal_shortfall: int = 0

    # ------------------------------------------------------------------
    def best(self, objective: Optional[ObjectiveSpec] = None) -> Evaluation:
        """Best evaluation on one objective (default: the first declared)."""
        return best_by_scalar(self.evaluations, objective or self.objectives[0])

    def objective_names(self) -> List[str]:
        return [spec.name for spec in self.objectives]

    def as_dict(self) -> Dict[str, object]:
        return {
            "space": self.space,
            "strategy": self.strategy,
            "seed": self.seed,
            "budget": self.budget,
            "objectives": [f"{spec.goal}:{spec.name}" for spec in self.objectives],
            "num_evaluations": len(self.evaluations),
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "replayed_from_journal": self.replayed_from_journal,
            "proposal_shortfall": self.proposal_shortfall,
            "evaluations": [
                {
                    "candidate": evaluation.candidate.as_dict(),
                    "metrics": evaluation.metrics,
                    "on_frontier": evaluation in self.frontier,
                }
                for evaluation in self.evaluations
            ],
            "frontier": [
                {
                    "candidate": evaluation.candidate.as_dict(),
                    "metrics": evaluation.metrics,
                }
                for evaluation in self.frontier
            ],
        }

    def to_json(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def to_csv_text(self) -> str:
        """Flat CSV: one row per evaluation, axes then metrics then frontier."""
        axis_names = sorted(
            {name for e in self.evaluations for name, _ in e.candidate.assignment}
        )
        metric_names = sorted({name for e in self.evaluations for name in e.metrics})
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(axis_names + metric_names + ["on_frontier"])
        frontier_keys = {e.candidate.key() for e in self.frontier}
        for evaluation in self.evaluations:
            values = evaluation.candidate.as_dict()
            writer.writerow(
                [values.get(name, "") for name in axis_names]
                + [evaluation.metrics.get(name, "") for name in metric_names]
                + [evaluation.candidate.key() in frontier_keys]
            )
        return buffer.getvalue()

    def to_csv(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_csv_text(), encoding="utf-8")

    def frontier_rows(self) -> List[List[object]]:
        """Tabular frontier view: candidate key + objective values."""
        return [
            [evaluation.candidate.key()]
            + [evaluation.metrics[spec.name] for spec in self.objectives]
            for evaluation in self.frontier
        ]


class ExplorationEngine:
    """Runs one multi-objective exploration over a design space."""

    def __init__(
        self,
        space: SearchSpace,
        strategy: Strategy,
        objectives: Sequence[ObjectiveSpec] = DEFAULT_OBJECTIVES,
        workloads: Optional[Sequence[Workload]] = None,
        simulator: Optional[Simulator] = None,
        seed: int = 0,
        sim_seed: int = 0,
        backend: str = DATAMAESTRO_BACKEND,
        max_cycles: int = DEFAULT_CYCLE_BUDGET,
        sim_engine: str = DEFAULT_ENGINE,
    ) -> None:
        """``simulator=Simulator(service=client)`` routes every candidate
        batch through a shared simulation service, so several concurrent
        explorations coalesce duplicate candidate evaluations and share one
        scheduler and cache (``docs/SERVE.md``)."""
        if not objectives:
            raise ValueError("at least one objective is required")
        self.space = space
        self.strategy = strategy
        self.objectives = list(objectives)
        self.workloads = list(workloads or default_exploration_workloads())
        self.simulator = simulator or Simulator()
        self.seed = seed
        self.sim_seed = sim_seed
        self.backend = backend
        self.max_cycles = max_cycles
        self.sim_engine = sim_engine

    # ------------------------------------------------------------------
    def journal_header(self, budget: int) -> Dict[str, object]:
        """Run identity written to (and checked against) the journal."""
        from .. import __version__

        return {
            "package_version": __version__,
            "space_digest": self.space.digest(),
            "strategy": self.strategy.name,
            # Hyperparameters too: resuming an evolutionary run with a
            # different population would silently change parent selection.
            "strategy_config": self.strategy.describe(),
            "seed": self.seed,
            "sim_seed": self.sim_seed,
            "backend": self.backend,
            "sim_engine": self.sim_engine,
            "objectives": [f"{spec.goal}:{spec.name}" for spec in self.objectives],
            "workloads": stable_digest(
                [canonical_encode(workload) for workload in self.workloads]
            ),
            "budget": budget,
        }

    def _evaluate_batch(
        self, batch: Sequence[Candidate], served: "Counter[bool]"
    ) -> List[Evaluation]:
        """Simulate a batch of candidates (all workloads, one runtime call);
        count each distinct job once in ``served``, by ``cache_hit``."""
        built = [self.space.build(candidate) for candidate in batch]
        jobs: List[SimJob] = []
        for candidate, (design, features) in zip(batch, built):
            for workload in self.workloads:
                jobs.append(
                    SimJob(
                        workload=workload,
                        design=design,
                        features=features,
                        backend=self.backend,
                        seed=self.sim_seed,
                        max_cycles=self.max_cycles,
                        engine=self.sim_engine,
                        label=f"explore:{candidate.key()}",
                    )
                )
        outcomes = self.simulator.simulate_many(jobs)
        served.update({o.job_hash: o.cache_hit for o in outcomes}.values())
        evaluations = []
        stride = len(self.workloads)
        for index, (candidate, (design, features)) in enumerate(zip(batch, built)):
            chunk = outcomes[index * stride : (index + 1) * stride]
            evaluations.append(score_candidate(candidate, design, features, chunk))
        return evaluations

    @staticmethod
    def _record_metrics(
        evaluated: int, simulated: int, cache_hits: int, replayed: int
    ) -> None:
        """Fold one run() into the process-wide obs registry."""
        from ..obs.metrics import get_registry

        registry = get_registry()
        for name, help, amount in (
            (
                "repro_explore_evaluated_total",
                "Candidates scored across exploration runs.",
                evaluated,
            ),
            (
                "repro_explore_simulated_total",
                "Backend simulations performed for exploration.",
                simulated,
            ),
            (
                "repro_explore_cache_hits_total",
                "Exploration jobs resolved from the result cache.",
                cache_hits,
            ),
            (
                "repro_explore_replayed_total",
                "Evaluations replayed from a run journal.",
                replayed,
            ),
        ):
            if amount:
                registry.counter(name, help).inc(amount)

    # ------------------------------------------------------------------
    def run(
        self,
        budget: int,
        journal: Optional[Union[str, Path, RunJournal]] = None,
        resume: bool = False,
    ) -> ExplorationReport:
        """Explore until the strategy stops or ``budget`` proposals are spent.

        ``journal`` enables checkpointing; with ``resume=True`` an existing
        journal's evaluations are replayed (its header must match this run's
        configuration) and only never-journaled candidates are simulated.
        """
        if budget <= 0:
            raise ValueError("budget must be positive")
        if isinstance(journal, (str, Path)):
            journal = RunJournal(journal)

        # Reset before building the header: describe() contributes to the
        # journal identity and must reflect a pristine strategy (e.g. a
        # zero draw-shortfall) whether the object is fresh or reused.
        self.strategy.reset(self.space, self.seed)
        header = self.journal_header(budget)
        replayed: Dict[str, Evaluation] = {}
        if journal is not None:
            if resume:
                if not journal.exists():
                    raise JournalError(
                        f"nothing to resume: journal {journal.path} does not "
                        f"exist or is empty"
                    )
                contents = journal.resume(header)
                replayed = journal.evaluation_map(contents)
            elif journal.exists():
                raise JournalError(
                    f"journal {journal.path} already exists; pass resume=True "
                    f"(--resume) to continue it, or remove the file to start "
                    f"a fresh run"
                )
            else:
                journal.start(header)

        # Outcomes of this run's own jobs, by whether a cache answered them:
        # the simulator's counters may be a service's, shared with others.
        served: "Counter[bool]" = Counter()
        evaluated: Dict[str, Evaluation] = {}
        order: List[str] = []
        proposed = 0
        while proposed < budget:
            batch = self.strategy.propose(evaluated, budget - proposed)
            if not batch:
                break
            batch = batch[: budget - proposed]
            proposed += len(batch)

            fresh: List[Candidate] = []
            fresh_keys: set = set()
            for candidate in batch:
                key = candidate.key()
                if key in evaluated or key in replayed or key in fresh_keys:
                    continue
                fresh_keys.add(key)
                fresh.append(candidate)
            fresh_map: Dict[str, Evaluation] = {}
            for evaluation in self._evaluate_batch(fresh, served) if fresh else []:
                fresh_map[evaluation.candidate.key()] = evaluation
                if journal is not None:
                    journal.append(evaluation)
            for candidate in batch:
                key = candidate.key()
                if key in evaluated:
                    continue  # defensive: strategy re-proposed a candidate
                evaluated[key] = replayed[key] if key in replayed else fresh_map[key]
                order.append(key)

        evaluations = [evaluated[key] for key in order]
        self._record_metrics(
            evaluated=len(evaluations),
            simulated=served[False],
            cache_hits=served[True],
            replayed=sum(1 for e in evaluations if e.from_journal),
        )
        return ExplorationReport(
            space=self.space.describe(),
            strategy=self.strategy.name,
            seed=self.seed,
            budget=budget,
            objectives=self.objectives,
            evaluations=evaluations,
            frontier=pareto_frontier(evaluations, self.objectives),
            simulated=served[False],
            cache_hits=served[True],
            replayed_from_journal=sum(1 for e in evaluations if e.from_journal),
            proposal_shortfall=budget - proposed,
        )
