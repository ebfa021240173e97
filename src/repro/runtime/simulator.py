"""The :class:`Simulator` facade — the single front door for simulation.

Callers describe *what* to simulate as :class:`~repro.runtime.job.SimJob`
values; the simulator decides *how*.  Every job is admitted through the
simulator's own :class:`~repro.runtime.admission.AdmissionCore` — the same
core the thread service and the cluster run — so a duplicate inside a batch
coalesces and a cached job is answered by the probe; the new entries then
run through one executor: in-process on the caller's thread (each outcome
written back to the cache), or through the service's tickets when one is
attached.  All experiment modules, the analysis drivers and the CLI go
through this facade.

Typical use::

    from repro.runtime import SimJob, Simulator

    sim = Simulator(cache_dir="~/.cache/repro-datamaestro")
    outcome = sim.simulate(SimJob(workload=my_gemm))
    outcomes = sim.simulate_many([SimJob(workload=w) for w in suite])
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from ..core.params import FeatureSet
from ..engine import DEFAULT_ENGINE
from ..system.design import AcceleratorSystemDesign
from ..workloads.spec import Workload
from .admission import AdmissionCore, Entry, Stats
from .backends import execute_job_with_progress
from .cache import ResultCache, write_back
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
    service:
        Optional shared service — a ``ServiceClient``, or a
        ``ClusterService`` for process parallelism.  New entries then run
        through ``service.submit_wait``: one scheduler and one cache across
        DSE runs, sweeps and ad-hoc calls, with duplicate in-flight
        requests coalesced.  The service's cache is the one probed, so a
        ``cache`` or ``cache_dir`` beside it is a ``ValueError``; its core
        traces the jobs, so this one does not.  See ``docs/SERVE.md``.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        service: Optional[object] = None,
    ) -> None:
        if service is not None and (cache is not None or cache_dir is not None):
            raise ValueError(
                "a Simulator with a service probes the service's cache: "
                "give the cache to the service, not to both"
            )
        if cache is None and cache_dir is not None:
            cache = ResultCache(Path(cache_dir).expanduser())
        self.service = service
        #: The cache behind this simulator's outcomes: its own, or the service's.
        self.cache = cache if service is None else service.cache
        self._core = AdmissionCore(Stats("simulator"), cache)
        self._core.traced = service is None
        #: The core's counters: ``executed``, ``cache_hits``, ``coalesced``, …
        self.stats = self._core.stats
        #: Serialises the core: one simulator may serve several threads.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def simulate(self, job: SimJob) -> SimOutcome:
        """Execute one job (through the cache when one is configured)."""
        return self.simulate_many([job])[0]

    def simulate_many(self, jobs: Iterable[SimJob]) -> List[SimOutcome]:
        """Execute a batch; outcome order always equals submission order.

        The whole batch is admitted first, so a duplicate coalesces before
        it is probed: ``[job, job, job]`` on a cold cache is one counted
        miss, one execution and two coalesced submissions.
        """
        new: List[Entry] = []
        with self._lock:
            tickets = [self._core.admit(job, "simulator", new.append) for job in jobs]
        try:
            self._run(new, self.service)
        except BaseException:
            # An executor that raised leaves the rest of the batch unsettled:
            # retire it, so no later call coalesces onto a dead future.
            with self._lock:
                aborted = self._core.abandon(new, "batch aborted")
            for entry in aborted:
                entry.resolve()
            raise
        return [ticket.result() for ticket in tickets]

    def _run(self, new: List[Entry], service: Optional[object]) -> None:
        """Run the batch's new entries on one executor and settle each: on
        the caller's thread, where a backend error settles its entry and
        propagates, or through ``service``, each with its own ticket's
        outcome or error."""
        if service is None:
            for entry in new:
                self._core.announce("started", entry)
                try:
                    outcome = execute_job_with_progress(entry.job)
                except Exception as error:
                    self._settle(entry, None, error)
                    raise
                self._settle(entry, outcome)
            return
        tickets = [service.submit_wait(entry.job, "simulator") for entry in new]
        for entry, ticket in zip(new, tickets):
            error = ticket.future.exception()
            self._settle(entry, None if error else ticket.result(), error)

    def _settle(self, entry: Entry, outcome: Optional[SimOutcome], error=None) -> None:
        """Write ``outcome`` back to this simulator's cache, if it has one,
        then retire ``entry`` and release its waiters."""
        if outcome is not None:
            write_back(self._core.cache, entry.key, outcome)
        with self._lock:
            self._core.settle(entry.key, outcome, error)
        entry.resolve()

    # ------------------------------------------------------------------
    def sweep(
        self,
        workloads: Sequence[Workload],
        features: Optional[Sequence[FeatureSet]] = None,
        designs: Optional[Sequence[Optional[AcceleratorSystemDesign]]] = None,
        backends: Sequence[str] = (DATAMAESTRO_BACKEND,),
        seed: int = 0,
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
        return self.simulate_many(jobs)


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
