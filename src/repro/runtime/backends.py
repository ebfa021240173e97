"""Simulation backends and the backend registry.

A backend turns a :class:`~repro.runtime.job.SimJob` into a
:class:`~repro.runtime.outcome.SimOutcome`.  Two families ship with the
repository:

* ``"datamaestro"`` — compiles the workload and executes it on the
  cycle-level :class:`~repro.system.system.AcceleratorSystem`.  This is the
  **only** place in the package that drives the system model directly; every
  experiment, analysis driver and CLI command goes through the runtime.
* ``"baseline:<slug>"`` — one backend per comparator model in
  :mod:`repro.baselines` that implements a performance model (Gemmini
  OS/WS, BitWave, FEATHER).  These produce analytic outcomes without a
  cycle simulation, but with the same :class:`SimOutcome` shape, so sweeps
  can mix measured and modelled systems freely.

Custom backends register through :func:`register_backend`; see
``docs/RUNTIME.md`` for a walk-through.

To keep the import graph acyclic (``repro.baselines`` may itself consult the
runtime), the default registry is populated lazily on first lookup and this
module never imports :mod:`repro.baselines` at module level.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..compiler.mapper import compile_workload
from ..sim.result import DEFAULT_PROGRESS_INTERVAL
from ..system.system import AcceleratorSystem
from .job import DATAMAESTRO_BACKEND, SimJob
from .outcome import SimOutcome

#: Prefix of every baseline-model backend name.
BASELINE_BACKEND_PREFIX = "baseline:"


class SimulationBackend:
    """Interface every backend implements."""

    #: Registry name of the backend.
    name: str = "unnamed"

    def execute(self, job: SimJob) -> SimOutcome:
        raise NotImplementedError

    def execute_with_progress(
        self,
        job: SimJob,
        progress_callback: Optional[Callable[[int], None]] = None,
        progress_interval: int = DEFAULT_PROGRESS_INTERVAL,
    ) -> SimOutcome:
        """Execute ``job``, streaming cooperative progress where supported.

        ``progress_callback`` receives the current cycle count roughly
        every ``progress_interval`` simulated cycles (the simulation
        engines' yield points — see ``docs/ENGINE.md``).  The base
        implementation ignores the callback and just executes: backends
        without a cycle loop (the analytic baselines, custom closed-form
        models) have no meaningful progress to report.
        """
        return self.execute(job)

    def describe(self) -> Dict[str, object]:
        return {"name": self.name, "kind": type(self).__name__}


class DataMaestroBackend(SimulationBackend):
    """Cycle-level simulation on the DataMaestro evaluation system."""

    name = DATAMAESTRO_BACKEND

    def execute(self, job: SimJob) -> SimOutcome:
        return self.execute_with_progress(job)

    def execute_with_progress(
        self,
        job: SimJob,
        progress_callback: Optional[Callable[[int], None]] = None,
        progress_interval: int = DEFAULT_PROGRESS_INTERVAL,
    ) -> SimOutcome:
        program = compile_workload(job.workload, job.design, job.features, seed=job.seed)
        system = AcceleratorSystem(job.design)
        result = system.run(
            program,
            max_cycles=job.max_cycles,
            engine=job.engine,
            progress_callback=progress_callback,
            progress_interval=progress_interval,
        )
        functional = system.verify_outputs(result)
        # Surface the macro-step engine's engagement (jumps, bulk-advanced
        # cycles) through the outcome so the serve/cluster snapshots can
        # aggregate it; absent (lockstep, pure next-event) stays absent.
        macro = system.steady_stats()
        if macro:
            return SimOutcome.from_result(
                job, result, functional_match=functional, macro_stats=macro
            )
        return SimOutcome.from_result(job, result, functional_match=functional)


class BaselineModelBackend(SimulationBackend):
    """Analytic outcome from one :mod:`repro.baselines` performance model."""

    def __init__(self, slug: str, factory: Callable[[], object]) -> None:
        self.name = f"{BASELINE_BACKEND_PREFIX}{slug}"
        self.slug = slug
        self._factory = factory
        self._model = None

    @property
    def model(self):
        if self._model is None:
            self._model = self._factory()
        return self._model

    def execute(self, job: SimJob) -> SimOutcome:
        design = job.design
        ideal = job.workload.ideal_compute_cycles(
            design.gemm_mu, design.gemm_nu, design.gemm_ku
        )
        return SimOutcome.analytic(
            job,
            utilization=self.model.utilization(job.workload),
            ideal_compute_cycles=ideal,
            model=self.model.name,
        )

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["model"] = self.model.name
        return info


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, SimulationBackend] = {}
_DEFAULTS_LOADED = False


def register_backend(backend: SimulationBackend, overwrite: bool = False) -> None:
    """Add ``backend`` to the registry under its ``name``."""
    if not overwrite and backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend


def _ensure_default_backends() -> None:
    """Populate the registry with the built-in backends (idempotent)."""
    global _DEFAULTS_LOADED
    if _DEFAULTS_LOADED:
        return
    _DEFAULTS_LOADED = True
    register_backend(DataMaestroBackend(), overwrite=True)
    # Imported here, not at module level: repro.baselines consults the
    # runtime for the DataMaestro profile, so a top-level import would cycle.
    from ..baselines import BASELINE_REGISTRY, DataMaestroSolution

    for slug, factory in BASELINE_REGISTRY.items():
        model = factory()
        if isinstance(model, DataMaestroSolution):
            continue  # that *is* the "datamaestro" backend
        if not model.has_performance_model:
            continue
        register_backend(
            BaselineModelBackend(slug, factory), overwrite=True
        )


def get_backend(name: str) -> SimulationBackend:
    """Look up a registered backend by name."""
    _ensure_default_backends()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_backends() -> List[str]:
    """Names of every registered backend, defaults included."""
    _ensure_default_backends()
    return sorted(_REGISTRY)


def execute_job_with_progress(
    job: SimJob,
    progress_callback: Optional[Callable[[int], None]] = None,
    progress_interval: int = DEFAULT_PROGRESS_INTERVAL,
) -> SimOutcome:
    """Run one job through its backend — what every executor calls.

    The thread service's workers pass ``progress_callback`` to turn the
    engines' cooperative yield points into streaming ``progress`` events;
    backends without a cycle loop silently ignore it.
    """
    return get_backend(job.backend).execute_with_progress(
        job, progress_callback=progress_callback, progress_interval=progress_interval
    )
