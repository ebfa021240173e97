"""Unified simulation-service layer: declarative jobs, batching, caching.

This package is the single front door for running simulations in the
repository.  It mirrors the paper's decoupled access/execute idea at the
Python API level: a :class:`SimJob` *describes* a simulation (workload,
design, features, backend) and the runtime decides *how* to execute it —
which backend, in-process or through a service, freshly simulated or
served from the on-disk result cache.

* :mod:`repro.runtime.job` — :class:`SimJob`, the hashable job spec;
* :mod:`repro.runtime.outcome` — :class:`SimOutcome`, the uniform result;
* :mod:`repro.runtime.backends` — backend protocol + registry (the
  cycle-level DataMaestro system and the analytic baseline models);
* :mod:`repro.runtime.cache` — content-addressed on-disk result cache;
* :mod:`repro.runtime.admission` — the admission core (coalesce → probe →
  settle, the counters, the one lifecycle emit point) and the one shell
  around it, under every way a job runs: inline on the caller's thread,
  the thread service and the cluster;
* :mod:`repro.runtime.simulator` — the :class:`Simulator` facade over one
  shell: a new inline shell, or the service it was given.

See ``docs/RUNTIME.md`` for the job model, caching semantics and how to add
a backend; ``docs/ENGINE.md`` covers the ``engine`` job field (event-driven
vs lockstep simulation).
"""

from .backends import SimulationBackend, available_backends, get_backend, register_backend
from .cache import ResultCache, default_cache_dir
from .job import DATAMAESTRO_BACKEND, SimJob, canonical_encode, stable_digest
from .outcome import SimOutcome
from .simulator import Simulator, simulate

__all__ = [
    "SimJob",
    "SimOutcome",
    "Simulator",
    "ResultCache",
    "SimulationBackend",
    "simulate",
    "get_backend",
    "register_backend",
    "available_backends",
    "default_cache_dir",
    "canonical_encode",
    "stable_digest",
    "DATAMAESTRO_BACKEND",
]
