"""The :class:`Simulator` facade — the single front door for simulation.

Callers describe *what* to simulate as :class:`~repro.runtime.job.SimJob`
values; the simulator decides *how*.  A ``Simulator`` is no shell of its
own: it holds one, ``service``, and forwards to it — ``simulate_many`` is
``service.run(jobs, "simulator")``, and ``stats``, ``cache`` and
``snapshot()`` are the shell's.  ``Simulator()`` holds an inline
:class:`~repro.runtime.admission.AdmissionShell` (the one the thread
service and the cluster run): a duplicate inside a batch coalesces, a
cached job is answered by the probe, and the new entries run on the
caller's thread, each outcome written back to the cache.
``Simulator(service=s)`` holds ``s`` — a ``ServiceClient``, a
``ClusterService`` or any other shell.  All experiment modules, the
analysis drivers and the CLI go through this facade.

Typical use::

    from repro.runtime import SimJob, Simulator

    sim = Simulator(cache_dir="~/.cache/repro-datamaestro")
    outcome = sim.simulate(SimJob(workload=my_gemm))
    outcomes = sim.simulate_many([SimJob(workload=w) for w in suite])
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..core.params import FeatureSet
from ..engine import DEFAULT_ENGINE
from ..system.design import AcceleratorSystemDesign
from ..workloads.spec import Workload
from .admission import AdmissionShell
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
    service:
        Optional shell to hold instead of a new inline one — a
        ``ServiceClient``, or a ``ClusterService`` for process parallelism —
        that admits, probes, counts and runs every job: one scheduler and
        one cache across DSE runs, sweeps and ad-hoc calls.  Its ``stats``
        and ``cache`` are then the service's, so a ``cache`` or
        ``cache_dir`` beside it is a ``ValueError``.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        service: Optional[AdmissionShell] = None,
    ) -> None:
        if service is None:
            service = AdmissionShell(cache, cache_dir)
        elif cache is not None or cache_dir is not None:
            raise ValueError(
                "a Simulator with a service probes the service's cache: "
                "give the cache to the service, not to both"
            )
        #: The shell every job goes through.
        self.service = service
        #: The shell's counters (``executed``, ``cache_hits``, …) and cache.
        self.stats, self.cache = service.counters, service.cache

    # ------------------------------------------------------------------
    def simulate(self, job: SimJob) -> SimOutcome:
        """Execute one job (through the cache when one is configured)."""
        return self.simulate_many([job])[0]

    def simulate_many(self, jobs: Iterable[SimJob]) -> List[SimOutcome]:
        """Execute a batch; outcome order always equals submission order.

        A duplicate coalesces before it is probed: ``[job, job, job]`` on a
        cold cache is one counted miss, one execution and two coalesced
        submissions.  A backend error settles its job ``failed``, retires
        the jobs that never ran as ``cancelled`` and propagates."""
        return self.service.run(jobs, "simulator")

    def snapshot(self) -> Dict[str, object]:
        """The shell's ops snapshot (:meth:`AdmissionShell.snapshot`)."""
        return self.service.snapshot()

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
