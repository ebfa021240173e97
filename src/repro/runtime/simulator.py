"""The :class:`Simulator` facade — the single front door for simulation.

Callers describe *what* to simulate as :class:`~repro.runtime.job.SimJob`
values; the simulator decides *how*: which backend executes it, whether the
result comes from the on-disk cache, and whether batches fan out over a
process pool.  All experiment modules, the analysis drivers and the CLI go
through this facade.

Typical use::

    from repro.runtime import SimJob, Simulator

    sim = Simulator(cache_dir="~/.cache/repro-datamaestro", max_workers=4)
    outcome = sim.simulate(SimJob(workload=my_gemm))
    outcomes = sim.simulate_many([SimJob(workload=w) for w in suite])
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from ..core.params import FeatureSet
from ..engine import DEFAULT_ENGINE
from ..system.design import AcceleratorSystemDesign
from ..workloads.spec import Workload
from .batch import BatchRunner, BatchStats
from .cache import ResultCache
from .job import DATAMAESTRO_BACKEND, SimJob
from .outcome import SimOutcome


class Simulator:
    """Compiles, runs and caches simulation jobs behind one uniform API.

    Parameters
    ----------
    cache:
        A ready-made :class:`ResultCache`, or ``None``.
    cache_dir:
        Convenience alternative to ``cache``: directory for a new result
        cache.  Ignored when ``cache`` is given.  When both are ``None``
        (the default) nothing is cached.
    max_workers:
        Default process-pool width for :meth:`simulate_many` /
        :meth:`sweep`; ``None`` or ``1`` runs in-process.
    service:
        Optional :class:`repro.serve.ServiceClient`.  When set, batch
        execution routes through the shared simulation
        service — one scheduler and one cache across DSE runs, sweeps and
        ad-hoc calls, with duplicate in-flight requests coalesced — instead
        of a private process pool (``max_workers`` is then ignored for
        execution).  See ``docs/SERVE.md``.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        max_workers: Optional[int] = None,
        service: Optional[object] = None,
    ) -> None:
        if max_workers is not None and max_workers < 0:
            # Here, not first inside the BatchRunner of a later simulate_many().
            raise ValueError("max_workers must be non-negative")
        if cache is None and cache_dir is not None:
            cache = ResultCache(Path(cache_dir).expanduser())
        self.cache = cache
        self.max_workers = max_workers
        self.service = service
        self.stats = BatchStats()

    # ------------------------------------------------------------------
    def simulate(self, job: SimJob) -> SimOutcome:
        """Execute one job (through the cache when one is configured): a
        batch of one, so in-process whatever ``max_workers`` says.

        With a ``service`` attached, the miss path submits to the shared
        simulation service (coalescing with any identical in-flight
        request) instead of executing in-process.
        """
        return self.simulate_many([job])[0]

    def simulate_many(
        self,
        jobs: Iterable[SimJob],
        max_workers: Optional[int] = None,
    ) -> List[SimOutcome]:
        """Execute a batch; outcome order always equals submission order."""
        runner = BatchRunner(
            cache=self.cache,
            max_workers=self.max_workers if max_workers is None else max_workers,
            service=self.service,
        )
        outcomes = runner.run(jobs)
        self.stats.merge(runner.stats)
        return outcomes

    # ------------------------------------------------------------------
    def sweep(
        self,
        workloads: Sequence[Workload],
        features: Optional[Sequence[FeatureSet]] = None,
        designs: Optional[Sequence[Optional[AcceleratorSystemDesign]]] = None,
        backends: Sequence[str] = (DATAMAESTRO_BACKEND,),
        seed: int = 0,
        max_workers: Optional[int] = None,
        engine: str = DEFAULT_ENGINE,
    ) -> List[SimOutcome]:
        """Cartesian sweep: workloads × features × designs × backends.

        Returns outcomes in the deterministic nesting order
        ``for backend / for design / for feature-set / for workload``.
        ``engine`` selects the simulation engine for every job of the sweep.
        """
        feature_axis: Sequence[Optional[FeatureSet]] = features or [None]
        design_axis = designs or [None]
        jobs = [
            SimJob(
                workload=workload,
                design=design,
                features=feature_set,
                backend=backend,
                seed=seed,
                engine=engine,
            )
            for backend in backends
            for design in design_axis
            for feature_set in feature_axis
            for workload in workloads
        ]
        return self.simulate_many(jobs, max_workers=max_workers)


# ----------------------------------------------------------------------
# Module-level default simulator (uncached, in-process).
# ----------------------------------------------------------------------
_DEFAULT_SIMULATOR: Optional[Simulator] = None


def default_simulator() -> Simulator:
    """Shared uncached, in-process simulator for one-off calls."""
    global _DEFAULT_SIMULATOR
    if _DEFAULT_SIMULATOR is None:
        _DEFAULT_SIMULATOR = Simulator()
    return _DEFAULT_SIMULATOR


def simulate(job: SimJob) -> SimOutcome:
    """Convenience wrapper: run one job on the default simulator."""
    return default_simulator().simulate(job)
