"""Per-layer measurements, all taken from outside the program.

Each function times calls into one layer's public functions.  The
decomposition replays, span by span, the sequence
``DataMaestroBackend.execute_with_progress`` runs, and is checked against
the facade's outcome so it cannot drift from the product path.
"""

from __future__ import annotations

import os
import pickle
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

from repro.cluster import JobJournal, channel_pair
from repro.compiler.mapper import compile_workload
from repro.obs import TraceRecorder, install_tracer, uninstall_tracer
from repro.runtime import ResultCache, SimJob, SimOutcome, get_backend
from repro.system.system import AcceleratorSystem

from .harness import REPO_ROOT, SpanRecorder, timed_process

#: The calls one backend execution makes, in order, as span names.
EXECUTE_SPAN = "runtime.execute"
STAGE_SPANS = ("compiler.compile", "system.build", "engine.run", "system.verify")


# ----------------------------------------------------------------------
# The decomposition of one backend execution.
# ----------------------------------------------------------------------
def replay_job(recorder: SpanRecorder, job: SimJob) -> SimOutcome:
    """Run ``job`` as the backend does, with a span around each layer call."""
    key = job.job_hash()
    with recorder.span(EXECUTE_SPAN, key):
        with recorder.span("compiler.compile", key):
            program = compile_workload(
                job.workload, job.design, job.features, seed=job.seed
            )
        with recorder.span("system.build", key):
            system = AcceleratorSystem(job.design)
        with recorder.span("engine.run", key):
            result = system.run(program, max_cycles=job.max_cycles, engine=job.engine)
        with recorder.span("system.verify", key):
            functional = system.verify_outputs(result)
        with recorder.span("runtime.outcome", key):
            metrics = {"functional_match": functional}
            macro = system.steady_stats()
            if macro:
                metrics["macro_stats"] = macro
            outcome = SimOutcome.from_result(job, result, **metrics)
    return outcome


def same_outcome(left: SimOutcome, right: SimOutcome) -> bool:
    """Whether two outcomes carry the same simulated result."""

    def fields(outcome: SimOutcome) -> tuple:
        return (
            outcome.job_hash,
            outcome.kernel_cycles,
            outcome.memory_accesses,
            outcome.bank_conflicts,
            outcome.utilization,
            outcome.functional_match,
            outcome.metrics.get("macro_stats"),
        )

    return fields(left) == fields(right)


@dataclass
class Decomposition:
    """What :func:`decompose` measured."""

    metrics: Dict[str, float]
    #: Outcomes of the replayed (traced) pass, in job order.
    outcomes: List[SimOutcome]
    #: Replayed outcomes that differed from the facade's.
    mismatched: int
    #: Per-job seconds of the untraced facade pass.
    facade_seconds: List[float]
    #: The program's own recorder, installed for the replayed pass.
    tracer: TraceRecorder


def decompose(recorder: SpanRecorder, jobs: Sequence[SimJob]) -> Decomposition:
    """Each job through the facade untraced and replayed traced; the split.

    The two executions of a job run back to back, in alternating order, so
    that drift in machine speed falls on both sides alike.  The program's
    own tracer is installed for the replays only: the ratio of the two sides
    is the tracing overhead.
    """
    tracer = TraceRecorder()
    facade_outcomes: List[SimOutcome] = []
    facade_seconds: List[float] = []
    replayed: List[SimOutcome] = []

    def facade(job: SimJob) -> None:
        started = time.perf_counter()
        facade_outcomes.append(get_backend(job.backend).execute(job))
        facade_seconds.append(time.perf_counter() - started)

    def replay(job: SimJob) -> None:
        install_tracer(tracer)
        try:
            replayed.append(replay_job(recorder, job))
        finally:
            uninstall_tracer()

    for index, job in enumerate(jobs):
        for side in (facade, replay) if index % 2 == 0 else (replay, facade):
            side(job)
    mismatched = sum(
        not same_outcome(ours, theirs)
        for ours, theirs in zip(replayed, facade_outcomes)
    )
    totals = recorder.totals()
    count = len(jobs)
    wall = totals[EXECUTE_SPAN]
    staged = sum(totals[name] for name in STAGE_SPANS)
    cycles = sum(outcome.kernel_cycles for outcome in replayed)
    metrics = {
        "compiler.compile_ms_per_job": totals["compiler.compile"] / count * 1e3,
        "compiler.share": totals["compiler.compile"] / wall,
        "system.build_ms_per_job": totals["system.build"] / count * 1e3,
        "system.verify_ms_per_job": totals["system.verify"] / count * 1e3,
        "engine.run_ms_per_job": totals["engine.run"] / count * 1e3,
        "engine.share": totals["engine.run"] / wall,
        "engine.cycles_per_s": cycles / totals["engine.run"],
        "runtime.backend_overhead_ms": (sum(facade_seconds) - staged) / count * 1e3,
        "obs.self_time_coverage": 1.0 - recorder.self_times()[EXECUTE_SPAN] / wall,
        "obs.trace_overhead_share": wall / sum(facade_seconds) - 1.0,
        "obs.events_per_job": len(tracer.events()) / count,
    }
    return Decomposition(metrics, replayed, mismatched, facade_seconds, tracer)


def outcome_metrics(outcomes: Sequence[SimOutcome]) -> Dict[str, float]:
    """Simulated counts read off the outcomes: exact, host-independent."""
    cycles = sum(outcome.kernel_cycles for outcome in outcomes)
    accesses = sum(outcome.memory_accesses for outcome in outcomes)
    conflicts = sum(outcome.bank_conflicts for outcome in outcomes)
    macro = [outcome.metrics.get("macro_stats") or {} for outcome in outcomes]
    return {
        "engine.macro_skipped_share": sum(m.get("cycles_skipped", 0) for m in macro)
        / max(cycles, 1),
        "engine.macro_jumps": sum(m.get("jumps", 0) for m in macro),
        "engine.macro_bails.bank_pattern": sum(
            m.get("bails", {}).get("bank_pattern", 0) for m in macro
        ),
        "engine.macro_bails.too_short": sum(
            m.get("bails", {}).get("too_short", 0) for m in macro
        ),
        "memory.accesses": accesses,
        "memory.bank_conflicts": conflicts,
        "memory.conflict_share": conflicts / max(accesses, 1),
        "accelerators.mean_utilization": statistics.fmean(
            outcome.utilization for outcome in outcomes
        ),
    }


def lockstep_rate(jobs: Sequence[SimJob], outcomes: Sequence[SimOutcome]) -> float:
    """Cycles per host second of the lockstep oracle on the 4 smallest jobs."""
    smallest = sorted(zip(outcomes, jobs), key=lambda pair: pair[0].kernel_cycles)[:4]
    cycles = 0
    started = time.perf_counter()
    for _, job in smallest:
        outcome = get_backend(job.backend).execute(job.with_updates(engine="lockstep"))
        cycles += outcome.kernel_cycles
    return cycles / (time.perf_counter() - started)


# ----------------------------------------------------------------------
# runtime: hashing and the on-disk cache.
# ----------------------------------------------------------------------
def runtime_micro(
    jobs: Sequence[SimJob], outcomes: Sequence[SimOutcome], directory: Path
) -> Dict[str, float]:
    jobs = list(jobs)[:200]
    started = time.perf_counter()
    for job in jobs:
        job.job_hash()
    hash_us = (time.perf_counter() - started) / len(jobs) * 1e6

    sample = list(outcomes)[:64]
    cache = ResultCache(directory / "micro-cache")
    started = time.perf_counter()
    for outcome in sample:
        cache.put(outcome.job_hash, outcome)
    put_us = (time.perf_counter() - started) / len(sample) * 1e6
    started = time.perf_counter()
    for outcome in sample:
        cache.get(outcome.job_hash)
    get_us = (time.perf_counter() - started) / len(sample) * 1e6
    return {
        "runtime.job_hash_us": hash_us,
        "runtime.cache_put_us": put_us,
        "runtime.cache_get_us": get_us,
        "runtime.cache_bytes_per_outcome": cache.size_bytes() / max(len(cache), 1),
    }


# ----------------------------------------------------------------------
# cluster: framing and the journal.
# ----------------------------------------------------------------------
def cluster_micro(job: SimJob, outcome: SimOutcome, directory: Path) -> Dict[str, float]:
    """Echo a settle-sized frame over a channel pair; append to a journal."""
    message = {"kind": "result", "seq": 1, "key": outcome.job_hash, "outcome": outcome}
    rounds = 200
    parent, child = channel_pair()

    def echo() -> None:
        for _ in range(rounds):
            child.send(child.recv())

    parent.settimeout(30.0)
    child.settimeout(30.0)
    thread = threading.Thread(target=echo, name="bench-echo", daemon=True)
    thread.start()
    try:
        started = time.perf_counter()
        for _ in range(rounds):
            parent.send(message)
            parent.recv()
        roundtrip_us = (time.perf_counter() - started) / rounds * 1e6
        thread.join(30.0)
    finally:
        parent.close()
        child.close()

    journal = JobJournal(directory / "micro-journal.jsonl")
    journal.start()
    appends = 25
    started = time.perf_counter()
    for _ in range(appends):
        journal.record_submission(outcome.job_hash, job)
        journal.record_completion(outcome.job_hash)
    append_us = (time.perf_counter() - started) / (2 * appends) * 1e6
    return {
        "cluster.frame_roundtrip_us": roundtrip_us,
        "cluster.outcome_pickle_bytes": len(
            pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        ),
        "cluster.journal_append_us": append_us,
    }


# ----------------------------------------------------------------------
# cli: what a cold `repro` invocation pays before doing anything.
# ----------------------------------------------------------------------
def cli_import_ms() -> float:
    """Median wall time of three cold ``import repro.cli`` processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    command = [sys.executable, "-c", "import repro.cli"]
    return statistics.median(timed_process(command, 60.0, env) * 1e3 for _ in range(3))


# ----------------------------------------------------------------------
# serve: durations of the spans the program's own recorder already emits.
# ----------------------------------------------------------------------
def program_span_ms(events, name: str) -> Dict[str, float]:
    """``{track: duration_ms}`` of the program's completed ``name`` spans."""
    begun: Dict[str, float] = {}
    durations: Dict[str, float] = {}
    for event in events:
        if event.name != name or event.cat != "job":
            continue
        if event.ph == "b":
            begun[event.track] = event.ts_us
        elif event.ph == "e" and event.track in begun:
            durations[event.track] = (event.ts_us - begun.pop(event.track)) / 1e3
    return durations
