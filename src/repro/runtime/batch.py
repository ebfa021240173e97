"""Batched job execution: cache screening, deduplication, worker fan-out.

:class:`BatchRunner` executes a list of jobs with three guarantees:

* **deterministic ordering** — the i-th outcome always corresponds to the
  i-th submitted job, whether it was served from cache, deduplicated or
  computed on a worker process;
* **incrementality** — jobs whose hash is already in the
  :class:`~repro.runtime.cache.ResultCache` are never re-simulated, and
  duplicate jobs inside one batch are simulated once;
* **isolation** — worker processes receive the pickled job and resolve the
  backend themselves, so backends keep no shared mutable state.

With ``max_workers`` ≤ 1 (``0`` and ``None`` included) everything runs
in-process — the fan-out path never hands a zero worker count to the
``ProcessPoolExecutor``; larger values fan the cache misses out over a
process pool.  Alternatively, pass ``service=`` (a
:class:`repro.serve.ServiceClient`) to execute the misses through the
shared simulation service (``docs/SERVE.md``) instead of a
private pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from .backends import DEFAULT_PROGRESS_INTERVAL, get_backend
from .cache import ResultCache, write_back
from .job import SimJob
from .outcome import SimOutcome


def execute_job(job: SimJob) -> SimOutcome:
    """Run one job through its backend (module-level so pools can pickle it)."""
    return get_backend(job.backend).execute(job)


def execute_job_with_progress(
    job: SimJob,
    progress_callback: Optional[Callable[[int], None]] = None,
    progress_interval: int = DEFAULT_PROGRESS_INTERVAL,
) -> SimOutcome:
    """Like :func:`execute_job`, streaming engine progress where supported.

    The simulation service's workers use this to turn the engines'
    cooperative yield points into streaming ``progress`` events; backends
    without a cycle loop silently ignore the callback.
    """
    return get_backend(job.backend).execute_with_progress(
        job, progress_callback=progress_callback, progress_interval=progress_interval
    )


@dataclass
class BatchStats:
    """Execution counters of one runner (accumulated across ``run`` calls).

    ``cache_hits``/``cache_misses`` mirror the :class:`ResultCache` counters
    exactly: every screening lookup goes through the cache's counted
    ``get`` path, so after any number of runs against one fresh cache,
    ``cache.hits == stats.cache_hits`` and ``cache.misses ==
    stats.cache_misses == stats.executed + stats.deduplicated +
    stats.service_cache_hits``.

    ``service_cache_hits`` only moves on the service path: local misses
    that the shared service resolved from *its* cache (``outcome.cache_hit``
    on the returned outcome) are counted there, not as ``executed`` — so
    ``executed`` never claims simulations the service did not run for this
    batch.  (A job coalesced onto another caller's in-flight simulation
    still counts as ``executed``: it was simulated, once, on this batch's
    behalf.)
    """

    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    deduplicated: int = 0
    service_cache_hits: int = 0

    def merge(self, other: "BatchStats") -> None:
        self.executed += other.executed
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.deduplicated += other.deduplicated
        self.service_cache_hits += other.service_cache_hits


class BatchRunner:
    """Runs many jobs with caching, dedup and optional process-pool fan-out.

    ``service`` (a :class:`repro.serve.ServiceClient`) reroutes the
    execution stage through the shared simulation service instead of a
    private process pool: unique cache misses are submitted as one batch
    (with cooperative backpressure) so concurrent runners coalesce
    duplicate work and share the service's scheduler and cache.  Screening,
    dedup, ordering and the :class:`BatchStats` counters are unchanged.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        max_workers: Optional[int] = None,
        service: Optional[object] = None,
    ) -> None:
        if max_workers is not None and max_workers < 0:
            raise ValueError("max_workers must be non-negative")
        self.cache = cache
        self.max_workers = max_workers
        self.service = service
        self.stats = BatchStats()

    # ------------------------------------------------------------------
    def run(self, jobs: Iterable[SimJob]) -> List[SimOutcome]:
        """Execute ``jobs``; outcome order equals submission order."""
        jobs = list(jobs)
        outcomes: List[Optional[SimOutcome]] = [None] * len(jobs)
        keys = [job.job_hash() for job in jobs]

        # 1. Screen against the cache and deduplicate within the batch.
        # Screening goes through the cache's single counted lookup path
        # (get, never __contains__), so BatchStats and ResultCache counters
        # stay in lockstep: one hit or one miss per screened job.
        first_index: Dict[str, int] = {}
        pending: List[int] = []
        for index, (job, key) in enumerate(zip(jobs, keys)):
            if self.cache is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    outcomes[index] = hit
                    self.stats.cache_hits += 1
                    continue
                self.stats.cache_misses += 1
            if key in first_index:
                self.stats.deduplicated += 1
                continue
            first_index[key] = index
            pending.append(index)

        # 2. Execute the unique misses (in submission order).
        if pending:
            fresh = self._execute([jobs[i] for i in pending])
            for index, outcome in zip(pending, fresh):
                outcomes[index] = outcome
                write_back(self.cache, keys[index], outcome)
            if self.service is not None:
                # Outcomes the shared service pulled from its own cache were
                # not simulated for this batch — keep `executed` honest.
                served = sum(1 for outcome in fresh if outcome.cache_hit)
                self.stats.service_cache_hits += served
                self.stats.executed += len(pending) - served
            else:
                self.stats.executed += len(pending)

        # 3. Fan deduplicated / late cache consumers back out.
        for index, (key, outcome) in enumerate(zip(keys, outcomes)):
            if outcome is None:
                source = outcomes[first_index[key]]
                assert source is not None
                outcomes[index] = source
        return [outcome for outcome in outcomes if outcome is not None]

    # ------------------------------------------------------------------
    def _execute(self, jobs: List[SimJob]) -> List[SimOutcome]:
        if self.service is not None:
            # One waiting batch through the shared service; order preserved.
            return self.service.run(jobs)
        # 0 and None both normalize to in-process execution: the pool path
        # below must never see a non-positive worker count.
        workers = self.max_workers or 1
        workers = min(workers, len(jobs))
        if workers <= 1:
            return [execute_job(job) for job in jobs]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Executor.map preserves input order, giving deterministic output.
            return list(pool.map(execute_job, jobs))
