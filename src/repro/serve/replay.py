"""Arrival-trace replay: realistic traffic regimes for the service layer.

``repro serve`` was built for millions-of-users traffic — coalescing for
duplicate bursts, the result cache for repeat offenders, bounded admission
for overload — but until this module nothing *drove* it that way.  Replay
closes the loop: it synthesises (or loads) an **arrival trace** — a list of
``(arrival time, workload)`` events — and plays it against a live
:class:`~repro.serve.client.ServiceClient` or
:class:`~repro.cluster.service.ClusterService` in real (scaled) time,
measuring what the hand-written throughput benchmarks cannot: latency
percentiles and avoidance rates *under a specific traffic shape*.

Four built-in regimes (see :data:`REGIMES`):

``poisson``
    memoryless arrivals, keys uniform over the pool — the neutral baseline;
``diurnal``
    a day-night load curve (non-homogeneous Poisson via thinning) — long
    quiet valleys then sustained peaks;
``bursty``
    correlated bursts: geometric-size clumps of near-simultaneous arrivals
    separated by idle gaps — the retry-storm / fan-out shape coalescing
    was built for;
``hotkey``
    Poisson arrivals with Zipf-skewed key choice — a few viral workloads
    dominate, exactly the cache + coalescing sweet spot.

Traces round-trip through JSONL (:func:`save_trace` / :func:`load_trace`),
so a production trace can be replayed in CI and a synthetic regime can be
archived as a regression artifact.  ``python -m repro.cli replay`` is the
command-line front door; ``tests/serve/test_replay.py`` replays every
regime and checks that each submission is accounted for exactly once.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..runtime.job import SimJob
from ..workloads.generate import WorkloadGenerator, zipf_weights
from ..workloads.spec import ConvWorkload, GemmWorkload, Workload

__all__ = [
    "REGIMES",
    "ReplayRegime",
    "ReplayReport",
    "TraceEvent",
    "build_trace",
    "load_trace",
    "replay_trace",
    "save_trace",
]


# ----------------------------------------------------------------------
# Trace model + JSONL round-trip.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceEvent:
    """One arrival: a workload requested at ``at`` seconds into the trace."""

    at: float
    workload: Workload

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("arrival time must be non-negative")


def _workload_to_record(workload: Workload) -> Dict[str, object]:
    if isinstance(workload, GemmWorkload):
        return {
            "kind": "gemm",
            "name": workload.name,
            "m": workload.m,
            "n": workload.n,
            "k": workload.k,
            "transposed_a": workload.transposed_a,
            "with_bias": workload.with_bias,
            "quantize": workload.quantize,
        }
    return {
        "kind": "conv",
        "name": workload.name,
        "in_height": workload.in_height,
        "in_width": workload.in_width,
        "in_channels": workload.in_channels,
        "out_channels": workload.out_channels,
        "kernel_h": workload.kernel_h,
        "kernel_w": workload.kernel_w,
        "stride": workload.stride,
        "padding": workload.padding,
        "with_bias": workload.with_bias,
        "quantize": workload.quantize,
    }


def _workload_from_record(record: Dict[str, object]) -> Workload:
    fields = dict(record)
    kind = fields.pop("kind", None)
    if kind == "gemm":
        return GemmWorkload(**fields)
    if kind == "conv":
        return ConvWorkload(**fields)
    raise ValueError(f"trace record has unknown workload kind {kind!r}")


def save_trace(path: Path, trace: Sequence[TraceEvent]) -> None:
    """Write ``trace`` as JSONL: one ``{"at": ..., "workload": ...}`` per line."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for event in trace:
            record = {"at": event.at, "workload": _workload_to_record(event.workload)}
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_trace(path: Path) -> List[TraceEvent]:
    """Load a JSONL trace written by :func:`save_trace` (order preserved)."""
    events: List[TraceEvent] = []
    path = Path(path)
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            events.append(
                TraceEvent(
                    at=float(record["at"]),
                    workload=_workload_from_record(record["workload"]),
                )
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"{path}:{lineno}: bad trace record: {error}") from error
    return events


# ----------------------------------------------------------------------
# Arrival processes.  Each returns `count` non-decreasing times (seconds).
# ----------------------------------------------------------------------
def _poisson_arrivals(rng: random.Random, count: int, rate: float) -> List[float]:
    now, times = 0.0, []
    for _ in range(count):
        now += rng.expovariate(rate)
        times.append(now)
    return times


def _diurnal_arrivals(rng: random.Random, count: int, rate: float) -> List[float]:
    """Non-homogeneous Poisson via thinning: intensity follows a day curve
    ``rate * (0.1 + 0.9 * (1 + sin) / 2)`` with a period sized so the trace
    spans about two "days" — deep valleys, sustained peaks."""
    period = 2.0 * count / rate / 2.0  # two periods across the nominal span
    now, times = 0.0, []
    while len(times) < count:
        now += rng.expovariate(rate)  # candidate from the max intensity
        phase = math.sin(2.0 * math.pi * now / period)
        acceptance = 0.1 + 0.9 * (1.0 + phase) / 2.0
        if rng.random() < acceptance:
            times.append(now)
    return times


def _burst_arrivals(rng: random.Random, count: int, rate: float) -> List[float]:
    """Correlated bursts: geometric clump sizes (mean 4) of near-simultaneous
    arrivals, separated by exponential idle gaps sized to keep the long-run
    rate at ``rate``."""
    mean_burst = 4.0
    gap_rate = rate / mean_burst
    now, times = 0.0, []
    while len(times) < count:
        now += rng.expovariate(gap_rate)
        burst = min(1 + int(rng.expovariate(1.0 / (mean_burst - 1.0))), count - len(times))
        for _ in range(burst):
            times.append(now)
            now += rng.expovariate(rate * 50.0)  # intra-burst jitter
    return times


# ----------------------------------------------------------------------
# Key samplers.  Each returns `count` indices into the workload pool.
# ----------------------------------------------------------------------
def _uniform_keys(rng: random.Random, count: int, pool_size: int) -> List[int]:
    return [rng.randrange(pool_size) for _ in range(count)]


def _zipf_keys(
    rng: random.Random, count: int, pool_size: int, exponent: float = 1.4
) -> List[int]:
    weights = zipf_weights(pool_size, exponent)
    indices = list(range(pool_size))
    return rng.choices(indices, weights=weights, k=count)


@dataclass(frozen=True)
class ReplayRegime:
    """A named traffic shape: an arrival process plus a key distribution."""

    name: str
    description: str
    arrivals: Callable[[random.Random, int, float], List[float]]
    keys: Callable[[random.Random, int, int], List[int]]


#: The built-in regimes (docs/SCENARIOS.md documents each row).
REGIMES: Dict[str, ReplayRegime] = {
    "poisson": ReplayRegime(
        name="poisson",
        description="Memoryless arrivals, uniform keys — the neutral baseline.",
        arrivals=_poisson_arrivals,
        keys=_uniform_keys,
    ),
    "diurnal": ReplayRegime(
        name="diurnal",
        description="Day-night intensity curve (thinned Poisson), uniform keys.",
        arrivals=_diurnal_arrivals,
        keys=_uniform_keys,
    ),
    "bursty": ReplayRegime(
        name="bursty",
        description="Correlated bursts of near-simultaneous arrivals.",
        arrivals=_burst_arrivals,
        keys=_uniform_keys,
    ),
    "hotkey": ReplayRegime(
        name="hotkey",
        description="Poisson arrivals with Zipf hot-key skew over the pool.",
        arrivals=_poisson_arrivals,
        keys=_zipf_keys,
    ),
}


def build_trace(
    regime: str,
    requests: int,
    rate: float,
    pool: Sequence[Workload],
    seed: int = 0,
) -> List[TraceEvent]:
    """Synthesise a trace: ``requests`` arrivals at nominal ``rate``/s drawn
    from ``regime``'s arrival process, keyed into ``pool`` by its sampler."""
    if regime not in REGIMES:
        raise ValueError(
            f"unknown regime {regime!r}; choose from {sorted(REGIMES)}"
        )
    if requests <= 0:
        raise ValueError("requests must be positive")
    if rate <= 0:
        raise ValueError("rate must be positive")
    if not pool:
        raise ValueError("workload pool must not be empty")
    shape = REGIMES[regime]
    rng = random.Random(seed)
    times = shape.arrivals(rng, requests, rate)
    keys = shape.keys(rng, requests, len(pool))
    return [TraceEvent(at=at, workload=pool[key]) for at, key in zip(times, keys)]


def default_pool(size: int = 24, seed: int = 0) -> List[Workload]:
    """The replay harness's default key space: small distinct GeMM/conv
    workloads from the seeded generator (milliseconds each to simulate)."""
    generator = WorkloadGenerator(
        seed=seed,
        families=("gemm", "transposed_gemm", "decode", "prefill"),
        max_gemm_m=16,
        max_gemm_n=16,
        max_gemm_k=24,
    )
    return generator.workload_pool(size)


# ----------------------------------------------------------------------
# The replay driver.
# ----------------------------------------------------------------------
@dataclass
class ReplayReport:
    """What one replay run measured, ready for JSON and the bench report."""

    regime: str
    requests: int
    duration_s: float
    pool_size: int
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    throughput_rps: float
    submitted: int
    coalesced: int
    cache_hits: int
    executed: int
    failed: int
    coalesce_rate: float
    cache_hit_rate: float
    #: Fraction of submissions that never reached a backend simulation.
    avoided_fraction: float
    extra_counters: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        payload = {
            "regime": self.regime,
            "requests": self.requests,
            "duration_s": round(self.duration_s, 6),
            "pool_size": self.pool_size,
            "latency_p50_ms": round(self.latency_p50_ms, 3),
            "latency_p95_ms": round(self.latency_p95_ms, 3),
            "latency_p99_ms": round(self.latency_p99_ms, 3),
            "latency_mean_ms": round(self.latency_mean_ms, 3),
            "throughput_rps": round(self.throughput_rps, 3),
            "submitted": self.submitted,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "failed": self.failed,
            "coalesce_rate": round(self.coalesce_rate, 4),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "avoided_fraction": round(self.avoided_fraction, 4),
        }
        if self.extra_counters:
            payload["extra_counters"] = dict(self.extra_counters)
        return payload

    def summary_line(self) -> str:
        return (
            f"regime={self.regime} requests={self.requests} "
            f"p50={self.latency_p50_ms:.1f}ms p99={self.latency_p99_ms:.1f}ms "
            f"coalesce={self.coalesce_rate:.0%} cache={self.cache_hit_rate:.0%} "
            f"avoided={self.avoided_fraction:.0%} "
            f"throughput={self.throughput_rps:.1f}/s"
        )


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile on an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[rank]


def _counter_delta(
    before: Dict[str, object], after: Dict[str, object]
) -> Dict[str, int]:
    deltas: Dict[str, int] = {}
    for key, value in after.items():
        if isinstance(value, bool) or not isinstance(value, int):
            continue
        previous = before.get(key, 0)
        deltas[key] = value - (previous if isinstance(previous, int) else 0)
    return deltas


def replay_trace(
    service: object,
    trace: Sequence[TraceEvent],
    *,
    regime: str = "trace",
    backend: str = "datamaestro",
    engine: str = "event",
    seed: int = 0,
    time_scale: float = 1.0,
    client_name: str = "replay",
    timeout: float = 300.0,
) -> ReplayReport:
    """Play ``trace`` against ``service`` in scaled real time and measure it.

    ``service`` is anything with the submission protocol shared by
    :class:`~repro.serve.client.ServiceClient` and
    :class:`~repro.cluster.service.ClusterService`:
    ``submit(job, client_name=...) -> ticket`` with ``ticket.result()`` and
    ``ticket.add_done_callback()``, and ``stats_dict()``.  Arrival gaps are multiplied by
    ``time_scale`` (use < 1 to compress a long trace into a short test run).

    Latency is measured per request from its (scheduled) submission to its
    completion callback; the avoidance counters come from the *delta* of the
    service's registry-backed stats across the run, so a shared long-lived
    service still reports per-run rates.
    """
    if not trace:
        raise ValueError("cannot replay an empty trace")
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    before = service.stats_dict()
    completions: List[Tuple[int, float]] = []
    submit_times: List[float] = []
    lock = threading.Lock()
    done = threading.Event()
    expected = len(trace)

    def stamp(index: int) -> Callable[[object], None]:
        def _cb(_ticket: object) -> None:
            now = time.monotonic()
            with lock:
                completions.append((index, now))
                if len(completions) == expected:
                    done.set()

        return _cb

    tickets = []
    start = time.monotonic()
    for index, event in enumerate(trace):
        target = start + event.at * time_scale
        delay = target - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        job = SimJob(
            workload=event.workload,
            backend=backend,
            engine=engine,
            seed=seed,
        )
        submit_times.append(time.monotonic())
        ticket = service.submit(job, client_name=client_name)
        ticket.add_done_callback(stamp(index))
        tickets.append(ticket)
    if not done.wait(timeout):
        raise TimeoutError(
            f"replay incomplete: {expected - len(completions)} of {expected} "
            f"requests still pending after {timeout}s"
        )
    end = time.monotonic()
    failures = 0
    for ticket in tickets:
        try:
            ticket.result(timeout=timeout)
        except Exception:
            failures += 1
    after = service.stats_dict()
    deltas = _counter_delta(before, after)

    latency_by_index = dict(completions)
    latencies_ms = sorted(
        (latency_by_index[i] - submit_times[i]) * 1000.0 for i in range(expected)
    )
    duration = max(end - start, 1e-9)
    submitted = deltas.get("submitted", expected)
    coalesced = deltas.get("coalesced", 0)
    cache_hits = deltas.get("cache_hits", 0) + deltas.get("journal_hits", 0)
    executed = deltas.get("executed", 0)
    known = {
        "submitted",
        "coalesced",
        "cache_hits",
        "journal_hits",
        "executed",
        "failed",
    }
    extra = {
        key: value
        for key, value in deltas.items()
        if key not in known and value
    }
    denominator = max(submitted, 1)
    return ReplayReport(
        regime=regime,
        requests=expected,
        duration_s=duration,
        pool_size=len({event.workload for event in trace}),
        latency_p50_ms=_percentile(latencies_ms, 0.50),
        latency_p95_ms=_percentile(latencies_ms, 0.95),
        latency_p99_ms=_percentile(latencies_ms, 0.99),
        latency_mean_ms=sum(latencies_ms) / len(latencies_ms),
        throughput_rps=expected / duration,
        submitted=submitted,
        coalesced=coalesced,
        cache_hits=cache_hits,
        executed=executed,
        failed=deltas.get("failed", failures),
        coalesce_rate=coalesced / denominator,
        cache_hit_rate=cache_hits / denominator,
        avoided_fraction=1.0 - executed / denominator,
        extra_counters=extra,
    )
