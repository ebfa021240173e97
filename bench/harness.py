"""Measurement primitives shared by every workload.

Nothing here knows a workload: percentiles that refuse thin tails, spread
summaries, the pinned-statistics digest, bounded waits, the in-memory span
recorder of the traced pass, the open-loop load generator and the
provenance block of the result file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Every workload and metric name must match this (``BENCHMARK.json`` rule).
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Percentiles and spread.
# ----------------------------------------------------------------------
def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sample."""
    rank = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[rank]


def percentile(values: Iterable[float], pct: float) -> float:
    """Nearest-rank percentile that refuses a tail it cannot resolve.

    Raises ``ValueError`` when fewer than :data:`MIN_SAMPLES_BEYOND` samples
    lie beyond the requested rank — with fewer, the figure is one or two
    outliers, not a percentile.
    """
    ordered = sorted(values)
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be inside (0, 100), got {pct}")
    rank = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    beyond = len(ordered) - rank - 1
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    return ordered[rank]


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, range and interquartile distance of one metric's samples."""
    values = [float(value) for value in values]
    if not values:
        raise ValueError("cannot summarize an empty sample")
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "iqr": iqr,
        "n": len(values),
        "values": values,
    }


# ----------------------------------------------------------------------
# Host speed: a reference kernel run beside everything that is timed.
# ----------------------------------------------------------------------
#: Seconds one reference kernel takes on the 2-core VM the bounds were set on.
REFERENCE_KERNEL_S = 0.040


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, step: int) -> int:
        self.value = (self.value + step) % 1013
        return self.value


_CELLS = [_Cell() for _ in range(64)]
_TABLE = {index: index * 3 for index in range(256)}


def reference_kernel() -> int:
    """A fixed amount of interpreter work: calls, attributes, dict and list reads.

    It shares no code with ``src/``, so a change to the program cannot move it.
    """
    total = 0
    cells, table = _CELLS, _TABLE
    for index in range(240_000):
        total += cells[index & 63].bump(index) + table[index & 255]
        if total & 1:
            total ^= 64
    return total


class HostSpeed:
    """Corrects timings for how fast the host happens to run right now.

    The sizing VM's speed drifts by +-15 % over seconds to minutes (a fixed
    loop shows it), which no amount of repetition inside a 20 s run averages
    out.  So the reference kernel runs right before and right after every
    timed region, and the region's seconds are divided by how slow the kernel
    was against :data:`REFERENCE_KERNEL_S`.  Corrected times read as seconds
    on the reference host; raw times are kept beside them.
    """

    #: A probe this recent still describes the host (seconds).
    fresh_s = 0.02

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._last_end = float("-inf")

    def probe(self) -> float:
        started = time.perf_counter()
        reference_kernel()
        self._last_end = time.perf_counter()
        self.probes.append(self._last_end - started)
        return self.probes[-1]

    def timed(self, function: Callable, *args) -> Tuple[object, float, float]:
        """``(result, raw seconds, speed factor)`` of ``function(*args)``.

        The factor is above 1 when the host is slower than the reference;
        corrected seconds are ``raw / factor``.
        """
        if time.perf_counter() - self._last_end > self.fresh_s:
            self.probe()
        before = self.probes[-1]
        started = time.perf_counter()
        result = function(*args)
        seconds = time.perf_counter() - started
        after = self.probe()
        return result, seconds, (before + after) / 2.0 / REFERENCE_KERNEL_S


#: Seconds one reference lookup takes on the same VM at the same speed.
REFERENCE_LOOKUP_S = 65e-6


class ReferenceLookup:
    """Host speed as an operation of under a millisecond sees it.

    A warm-cache request takes 0.6 ms, too short to bracket with 40 ms
    kernels: between two probes that saw the same speed, whole groups of
    requests read 0.6 ms and then 1.0 ms.  So a reference operation of the
    requests' own kind runs after each of them -- open and read a small
    file, parse its JSON, hash its bytes, on files of the benchmark's own,
    standard library only -- and a group of requests takes the mean of the
    lookups that ran among it.  Of the references tried beside the same
    requests (a slice of the kernel, round trips to an event loop on this
    thread or on another), it followed them closest, and unlike the
    cross-thread one it has no thread wake-up in it, whose price on this
    host once doubled for minutes while nothing else moved.  The caller
    blends it with the kernel's factor: see ``ServeHotkey.lookup_weight``.
    """

    def __init__(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        document = json.dumps({"values": list(range(300)), "label": "x" * 200})
        self._paths = [directory / f"lookup-{index}.json" for index in range(64)]
        for path in self._paths:
            path.write_text(document, encoding="utf-8")
        self._next = 0

    def factor(self) -> float:
        """How slow one lookup ran just now, against the reference host."""
        self._next = (self._next + 1) % len(self._paths)
        started = time.perf_counter()
        with open(self._paths[self._next], "rb") as handle:
            data = handle.read()
        json.loads(data)
        hashlib.sha256(data).hexdigest()
        return (time.perf_counter() - started) / REFERENCE_LOOKUP_S


#: Seconds one reference start takes on the same VM at the same speed.
REFERENCE_START_S = 0.080


def reference_start() -> float:
    """Seconds a fresh interpreter takes to import a few standard modules.

    Host speed as a set-up sees it: process start and imports follow neither
    the kernel nor the lookup (corrected by either, set-up times spread wider
    than raw), but they do follow another process start.
    """
    return timed_process(
        [sys.executable, "-c", "import argparse, asyncio, hashlib, json, statistics"], 60.0
    )


# ----------------------------------------------------------------------
# Correctness: the pinned digest of simulated statistics.
# ----------------------------------------------------------------------
StatsRow = Tuple[str, int, int, int]


def stats_digest(rows: Iterable[StatsRow]) -> str:
    """sha256 over the sorted distinct ``(key, cycles, accesses, conflicts)``.

    ``key`` names the job without its operand seed (simulated statistics do
    not depend on operand values), so one pinned digest holds for every
    ``--seed``.
    """
    ordered = sorted(set(rows))
    payload = json.dumps(ordered, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Bounded waits.
# ----------------------------------------------------------------------
def bounded(function: Callable, timeout: float, *args):
    """Call ``function(*args)`` but give up after ``timeout`` seconds.

    The program's ``ServiceClient.run`` / ``close`` take no timeout; running
    them on a daemon thread turns a hang into a ``TimeoutError`` (a failed
    operation) and lets the process still exit.
    """
    box: Dict[str, object] = {}

    def target() -> None:
        try:
            box["value"] = function(*args)
        except BaseException as error:  # re-raised on the calling thread
            box["error"] = error

    thread = threading.Thread(target=target, name="bench-bounded", daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        name = getattr(function, "__qualname__", repr(function))
        raise TimeoutError(f"{name} did not return within {timeout:g}s")
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["value"]


def timed_process(command: Sequence[str], timeout: float, env: Optional[dict] = None) -> float:
    """Seconds ``command`` took from start to exit; raises unless it exits 0.

    ``subprocess.run(timeout=...)`` polls for the exit between sleeps that
    grow to 50 ms, and reads a 0.09 s process as 0.114 s whatever the host
    does; this blocks on the exit itself.
    """
    started = time.perf_counter()
    process = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
    try:
        status = bounded(process.wait, timeout)
        elapsed = time.perf_counter() - started
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if status != 0:
        raise RuntimeError(f"{command[0]} exited with status {status}")
    return elapsed


# ----------------------------------------------------------------------
# The harness's own spans (traced pass only).
# ----------------------------------------------------------------------
class SpanRecorder:
    """Spans recorded around calls into the program, kept in memory.

    Each span has a name (``<layer>.<call>``), start and end in seconds,
    the index of the span that was open when it began (``-1`` for a root)
    and the job it belongs to.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []
        self.origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, job: str = "") -> Iterator[None]:
        """Record one span; call from the harness's main thread only."""
        record = {
            "name": name,
            "job": job,
            "parent": self._open[-1] if self._open else -1,
            "start": time.perf_counter(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def totals(self) -> Dict[str, float]:
        """Summed duration per span name, in seconds."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span["name"]] = totals.get(span["name"], 0.0) + (
                span["end"] - span["start"]
            )
        return totals

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name: duration minus child spans."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] >= 0:
                own[span["parent"]] -= span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, own):
            totals[span["name"]] = totals.get(span["name"], 0.0) + seconds
        return totals

    def chrome_events(self) -> List[Dict[str, object]]:
        """Chrome complete events; ``id`` is the job-hash prefix the
        program's own recorder uses, so the two fold onto one track."""
        events = []
        for index, span in enumerate(self.spans):
            events.append(
                {
                    "name": span["name"],
                    "ph": "X",
                    "ts": (span["start"] - self.origin) * 1e6,
                    "dur": (span["end"] - span["start"]) * 1e6,
                    "pid": 2,
                    "tid": 1,
                    "cat": "bench",
                    "id": str(span["job"])[:16] or "0",
                    "args": {"span": index, "parent": span["parent"]},
                }
            )
        return events

    def export(self, path: Path, program_events: Sequence[Dict[str, object]] = ()) -> None:
        document = {
            "traceEvents": self.chrome_events() + list(program_events),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "bench.harness"},
        }
        Path(path).write_text(json.dumps(document) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Open-loop load generation.
# ----------------------------------------------------------------------
def run_open_loop(
    service,
    jobs: Sequence[object],
    due_s: Sequence[float],
    timeout: float,
) -> Tuple[List[float], List[float], int]:
    """Submit ``jobs[i]`` at ``due_s[i]`` seconds, whatever the service does.

    Latency runs from each request's *due* time to its completion, so the
    wait a stall imposes on later requests is counted; lateness is how far
    behind schedule the generator itself submitted.  Returns ``(latencies_ms,
    lateness_ms, failed)``.
    """
    done_at: List[Optional[float]] = [None] * len(jobs)
    remaining = threading.Semaphore(0)

    def stamp(index: int) -> Callable[[object], None]:
        def on_done(_ticket: object) -> None:
            done_at[index] = time.perf_counter()
            remaining.release()

        return on_done

    lateness_ms: List[float] = []
    tickets = []
    start = time.perf_counter()
    for index, (job, due) in enumerate(zip(jobs, due_s)):
        delay = start + due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lateness_ms.append(max(0.0, time.perf_counter() - start - due) * 1e3)
        ticket = service.submit(job)
        ticket.add_done_callback(stamp(index))
        tickets.append(ticket)
    deadline = time.perf_counter() + timeout
    failed = 0
    for _ in tickets:
        if not remaining.acquire(timeout=max(0.0, deadline - time.perf_counter())):
            break
    latencies_ms: List[float] = []
    for index, ticket in enumerate(tickets):
        if done_at[index] is None:
            failed += 1  # timed out: a failed operation, not a hang
            continue
        try:
            ticket.result(timeout=0)
        except Exception:  # the service re-raises the backend's error here
            failed += 1
            continue
        latencies_ms.append((done_at[index] - start - due_s[index]) * 1e3)
    return latencies_ms, lateness_ms, failed


# ----------------------------------------------------------------------
# Host facts.
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def provenance(seed: int) -> Dict[str, object]:
    """Where and on what the numbers were taken."""
    import numpy

    import repro

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "package_version": repro.__version__,
        "git_commit": commit or "unknown",
        "seed": seed,
    }
