"""Prometheus text exposition (format 0.0.4) and snapshot mapping.

Two jobs live here:

* :func:`render` — serialize :class:`~repro.obs.metrics.MetricFamily`
  rows into the plain-text exposition format Prometheus scrapes
  (``# HELP`` / ``# TYPE`` headers, one ``name{labels} value`` line per
  sample, histograms as cumulative ``_bucket`` series with a ``+Inf``
  row plus ``_sum``/``_count``);
* :func:`snapshot_families` — map the structured ops snapshots the
  services already produce (:meth:`ServiceClient.snapshot` for the
  thread service, :meth:`ClusterService.snapshot` with its per-shard
  pong-frame aggregation) onto metric families.  This is what makes the
  ``/metrics`` endpoint *cross-process correct*: shard processes cannot
  share a registry with the parent, but their snapshots already travel
  over the supervisor's pong frames, so the exporter renders the
  aggregate instead of a partial parent-side view.

The two sources are unioned by the HTTP exporter: snapshot-derived
families carry the authoritative service counters (``repro_submitted_total``
etc.), while the process-wide registry contributes distinctly prefixed
families (``repro_engine_*``, ``repro_explore_*``, ``repro_build_info``) —
no name ever collides.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from .metrics import DEFAULT_LATENCY_BOUNDS, Histogram, MetricFamily, Sample

__all__ = [
    "CONTENT_TYPE",
    "SERVICE_COUNTERS",
    "cache_families",
    "render",
    "snapshot_families",
    "worker_families",
]

#: The Content-Type header value of the text exposition format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, bool):  # bool is an int subclass; render 0/1
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def render(families: Iterable[MetricFamily]) -> str:
    """Serialize ``families`` to the text exposition format."""
    lines: List[str] = []
    for family in families:
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for sample in family.samples:
            name = family.name + sample.suffix
            if sample.labels:
                rendered = ",".join(
                    f'{key}="{_escape_label_value(value)}"'
                    for key, value in sample.labels.items()
                )
                name = f"{name}{{{rendered}}}"
            lines.append(f"{name} {_format_value(sample.value)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Snapshot → families.
# ----------------------------------------------------------------------
def _counter(name: str, help: str, value, labels: Optional[Dict] = None) -> MetricFamily:
    return MetricFamily(
        name, "counter", help, (Sample(labels=labels or {}, value=value),)
    )


def _gauge(name: str, help: str, value, labels: Optional[Dict] = None) -> MetricFamily:
    return MetricFamily(name, "gauge", help, (Sample(labels=labels or {}, value=value),))


def _labelled_counter(name: str, help: str, rows: List[Sample]) -> MetricFamily:
    return MetricFamily(name, "counter", help, tuple(rows))


def _histogram_from_dict(
    name: str, help: str, summaries: List[Dict[str, object]]
) -> Optional[MetricFamily]:
    """Merge ``as_dict`` latency summaries into one exposition family."""
    merged: Optional[Histogram] = None
    for summary in summaries:
        if not isinstance(summary, dict):
            continue
        buckets = summary.get("buckets")
        if not isinstance(buckets, list) or len(buckets) < 2:
            continue
        if merged is None:
            bounds = tuple(
                float(row["le"]) for row in buckets if row.get("le") is not None
            )
            if not bounds:
                continue
            merged = Histogram(bounds, name=name, help=help)
        merged.merge_dict(summary)
    if merged is None:
        merged = Histogram(DEFAULT_LATENCY_BOUNDS, name=name, help=help)
    return merged.family()


#: The service counter table — the one definition of every admission
#: counter: ``(stats attribute, exposition name, help, scope)``.  ``common``
#: rows exist on both transports, ``thread`` rows only on the in-process
#: service, ``cluster`` rows only on the sharded one.  ``repro.serve.core
#: .Stats`` builds its counters from this table and the exposition rows
#: below are filtered from it, so a counter cannot be counted under one
#: name and scraped under another.  (It lives here rather than in
#: ``serve.core`` because ``obs`` is a leaf package: ``serve`` imports
#: ``obs``, never the reverse.)
SERVICE_COUNTERS = (
    ("submitted", "repro_submitted_total", "Jobs submitted to the service.", "common"),
    ("coalesced", "repro_coalesced_total", "Submissions that rode an identical in-flight job.", "common"),
    ("cache_hits", "repro_cache_hits_total", "Submissions resolved from the result cache.", "common"),
    ("journal_hits", "repro_journal_hits_total", "Submissions served from journal-replayed completions.", "cluster"),
    ("executed", "repro_executed_total", "Jobs actually simulated by a backend.", "common"),
    ("shard_cache_hits", "repro_shard_cache_hits_total", "Jobs a shard resolved from the shared cache.", "cluster"),
    ("failed", "repro_failed_total", "Jobs whose backend raised.", "common"),
    ("rejected", "repro_rejected_total", "Submissions bounced by the admission queue.", "thread"),
    ("cancelled", "repro_cancelled_total", "Admitted jobs abandoned unsettled by a non-draining close.", "common"),
    ("requeued", "repro_requeued_total", "In-flight jobs redispatched after a shard crash.", "cluster"),
    ("recovered", "repro_journal_recovered_total", "Unfinished journal entries replayed at startup.", "cluster"),
)


def _rows(scope: str):
    return tuple(row[:3] for row in SERVICE_COUNTERS if row[3] == scope)


_COMMON_COUNTERS = _rows("common")
_THREAD_ONLY_COUNTERS = _rows("thread")
# Restarts are the supervisor's count, not an admission counter.
_CLUSTER_ONLY_COUNTERS = _rows("cluster") + (
    ("restarts", "repro_shard_restarts_total", "Shard restarts performed by the supervisor."),
)


def cache_families(cache_stats: Dict[str, object]) -> List[MetricFamily]:
    """Families for one :meth:`ResultCache.stats` dict (also used by the
    cache's own registry callback — see ``ResultCache.register_metrics``)."""
    return [
        _gauge(
            "repro_result_cache_entries",
            "Entries in the on-disk result cache.",
            int(cache_stats.get("entries", 0)),
        ),
        _gauge(
            "repro_result_cache_size_bytes",
            "On-disk size of the result cache.",
            int(cache_stats.get("size_bytes", 0)),
        ),
        _counter(
            "repro_result_cache_lookup_hits_total",
            "Counted ResultCache.get hits of this process.",
            int(cache_stats.get("hits", 0)),
        ),
        _counter(
            "repro_result_cache_lookup_misses_total",
            "Counted ResultCache.get misses of this process.",
            int(cache_stats.get("misses", 0)),
        ),
    ]


def worker_families(per_worker: Dict[object, int]) -> List[MetricFamily]:
    """The per-worker-slot executed family (empty before the first job);
    also the thread service's own registry callback."""
    if not per_worker:
        return []
    return [
        _labelled_counter(
            "repro_worker_executed_total",
            "Jobs completed per worker slot.",
            [
                Sample(labels={"worker": worker}, value=int(count))
                for worker, count in sorted(per_worker.items())
            ],
        )
    ]


def _macro_families(macro: Dict[str, object]) -> List[MetricFamily]:
    return [
        _counter(
            "repro_macro_jumps_total",
            "Steady-span macro jumps taken by the event engine.",
            int(macro.get("jumps", 0)),
        ),
        _counter(
            "repro_macro_cycles_skipped_total",
            "Cycles bulk-advanced by the macro-step fast path.",
            int(macro.get("cycles_skipped", 0)),
        ),
    ]


def snapshot_families(snapshot: Dict[str, object]) -> List[MetricFamily]:
    """Map a service/cluster snapshot dict onto metric families.

    Accepts both shapes: the flat thread-service snapshot
    (``ServiceClient.snapshot()``) and the cluster snapshot with its
    nested ``stats`` counters and per-shard ``shards`` list.  Per-shard
    latency histograms are merged bucket-wise (all shards share the
    package-wide bounds) into one ``repro_latency_seconds`` family.
    """
    is_cluster = "shards" in snapshot
    counters = snapshot.get("stats", snapshot)
    assert isinstance(counters, dict)

    families: List[MetricFamily] = [
        _gauge(
            "repro_queue_depth",
            "Jobs admitted but not yet picked up by a worker.",
            int(snapshot.get("queue_depth", 0)),
        ),
        _gauge(
            "repro_inflight",
            "Unique jobs between admission and completion.",
            int(snapshot.get("inflight", 0)),
        ),
        _gauge(
            "repro_coalescing_hit_rate",
            "Fraction of submissions served by riding an in-flight duplicate.",
            float(counters.get("coalescing_hit_rate", 0.0)),
        ),
        _gauge(
            "repro_cache_hit_rate",
            "Fraction of submissions resolved from the cache (or journal).",
            float(counters.get("cache_hit_rate", 0.0)),
        ),
    ]
    for key, name, help in _COMMON_COUNTERS:
        families.append(_counter(name, help, int(counters.get(key, 0))))
    extra = _CLUSTER_ONLY_COUNTERS if is_cluster else _THREAD_ONLY_COUNTERS
    for key, name, help in extra:
        families.append(_counter(name, help, int(counters.get(key, 0))))

    latency_summaries: List[Dict[str, object]] = []
    macro_totals = {"jumps": 0, "cycles_skipped": 0}

    if is_cluster:
        shard_rows: List[Sample] = []
        alive_rows: List[Sample] = []
        depth_rows: List[Sample] = []
        for shard in snapshot.get("shards", []):
            index = shard.get("shard")
            labels = {"shard": index}
            alive_rows.append(Sample(labels=labels, value=1 if shard.get("alive") else 0))
            inner = shard.get("snapshot")
            if not isinstance(inner, dict):
                continue
            shard_rows.append(
                Sample(labels=labels, value=int(inner.get("executed", 0)))
            )
            depth_rows.append(
                Sample(labels=labels, value=int(inner.get("queue_depth", 0)))
            )
            latency = inner.get("latency")
            if isinstance(latency, dict):
                latency_summaries.append(latency)
            macro = inner.get("macro")
            if isinstance(macro, dict):
                macro_totals["jumps"] += int(macro.get("jumps", 0))
                macro_totals["cycles_skipped"] += int(macro.get("cycles_skipped", 0))
        families.append(
            _gauge(
                "repro_shard_count",
                "Configured shard processes.",
                int(snapshot.get("shard_count", 0)),
            )
        )
        families.append(
            MetricFamily(
                "repro_shard_alive",
                "gauge",
                "Liveness of each shard process (1 = alive).",
                tuple(alive_rows),
            )
        )
        if shard_rows:
            families.append(
                _labelled_counter(
                    "repro_shard_executed_total",
                    "Jobs executed per shard (from pong-frame snapshots).",
                    shard_rows,
                )
            )
        if depth_rows:
            families.append(
                MetricFamily(
                    "repro_shard_queue_depth",
                    "gauge",
                    "Queue depth per shard (from pong-frame snapshots).",
                    tuple(depth_rows),
                )
            )
    else:
        per_worker = snapshot.get("per_worker_executed")
        if isinstance(per_worker, dict):
            families.extend(worker_families(per_worker))
        latency = snapshot.get("latency")
        if isinstance(latency, dict):
            latency_summaries.append(latency)
        macro = snapshot.get("macro")
        if isinstance(macro, dict):
            macro_totals["jumps"] += int(macro.get("jumps", 0))
            macro_totals["cycles_skipped"] += int(macro.get("cycles_skipped", 0))

    families.extend(_macro_families(macro_totals))

    latency_family = _histogram_from_dict(
        "repro_latency_seconds",
        "Admission-to-completion latency of executed jobs.",
        latency_summaries,
    )
    if latency_family is not None:
        families.append(latency_family)

    cache_stats = snapshot.get("cache")
    if isinstance(cache_stats, dict):
        families.extend(cache_families(cache_stats))
    return families
