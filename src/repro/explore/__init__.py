"""Multi-objective design-space exploration over the simulation runtime.

``repro.explore`` turns the repository's reproduction into an exploration
tool: it searches the *design-time* parameter space the paper highlights
(FIFO depths, bank counts, bank-group sizes, feature switches) jointly, on
any workload suite, against multiple objectives at once.

* :mod:`repro.explore.space` — declarative :class:`SearchSpace` (axes,
  constraints, candidate materialisation) and the named CLI spaces;
* :mod:`repro.explore.objectives` — :class:`ObjectiveSpec`, candidate
  scoring via the cycle model + energy/area models, Pareto extraction;
* :mod:`repro.explore.strategies` — the
  :class:`~repro.explore.strategies.Strategy` protocol with ``grid`` /
  ``random`` / ``evolutionary`` implementations;
* :mod:`repro.explore.journal` — JSONL checkpointing and resume;
* :mod:`repro.explore.engine` — :class:`ExplorationEngine`, the loop that
  batches candidates through :class:`~repro.runtime.simulator.Simulator`.

See ``docs/EXPLORE.md`` for concepts and a CLI walkthrough.
"""

from .engine import ExplorationEngine
from .journal import JournalError, JournalMismatchError, RunJournal
from .objectives import (
    Evaluation,
    ObjectiveSpec,
    best_by_scalar,
    dominates,
    pareto_frontier,
    parse_objectives,
)
from .space import (
    Candidate,
    GROUP_DIVIDES_BANKS,
    ParameterAxis,
    SearchSpace,
    bank_count_space,
    datamaestro_builder,
    default_search_space,
    feature_space,
    fifo_depth_space,
    gima_group_space,
    named_search_spaces,
    search_space_by_name,
)
from .strategies import (
    EvolutionaryStrategy,
    GridStrategy,
    RandomStrategy,
    available_strategies,
    make_strategy,
)

__all__ = [
    "ExplorationEngine",
    "RunJournal",
    "JournalError",
    "JournalMismatchError",
    "ObjectiveSpec",
    "Evaluation",
    "parse_objectives",
    "dominates",
    "pareto_frontier",
    "best_by_scalar",
    "SearchSpace",
    "ParameterAxis",
    "Candidate",
    "GROUP_DIVIDES_BANKS",
    "datamaestro_builder",
    "default_search_space",
    "fifo_depth_space",
    "bank_count_space",
    "gima_group_space",
    "feature_space",
    "named_search_spaces",
    "search_space_by_name",
    "GridStrategy",
    "RandomStrategy",
    "EvolutionaryStrategy",
    "available_strategies",
    "make_strategy",
]
