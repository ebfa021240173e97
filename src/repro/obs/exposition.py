"""Prometheus text exposition (format 0.0.4) and snapshot mapping.

Two jobs live here:

* :func:`render` — serialize :class:`~repro.obs.metrics.MetricFamily`
  rows into the plain-text exposition format Prometheus scrapes
  (``# HELP`` / ``# TYPE`` headers, one ``name{labels} value`` line per
  sample, histograms as cumulative ``_bucket`` series with a ``+Inf``
  row plus ``_sum``/``_count``);
* :func:`snapshot_families` — map the one ops-snapshot shape every
  admission core produces (``AdmissionCore.snapshot``, which
  :meth:`ServiceClient.snapshot` returns and :meth:`ClusterService.snapshot`
  extends with its shard rows) onto metric families.  In sharded mode the
  parent admits, settles and times every job, so its snapshot is already
  the cluster-wide count: shards keep no counters of their own.

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


def _latency_family(summary: object) -> MetricFamily:
    """The ``repro_latency_seconds`` family of one ``Histogram.as_dict``."""
    name = "repro_latency_seconds"
    help = "Admission-to-completion latency of executed jobs."
    buckets = summary.get("buckets") if isinstance(summary, dict) else None
    bounds = [row["le"] for row in buckets or () if row.get("le") is not None]
    histogram = Histogram(bounds or DEFAULT_LATENCY_BOUNDS, name=name, help=help)
    if bounds:
        histogram.merge_dict(summary)
    return histogram.family()


#: The service counter table — the one definition of every admission
#: counter: ``(stats attribute, exposition name, help, scope)``.  ``common``
#: rows exist on both transports, ``thread`` rows only on the in-process
#: service, ``cluster`` rows only on the sharded one.  ``repro.runtime
#: .admission.Stats`` builds its counters from this table and the exposition rows
#: below are filtered from it, so a counter cannot be counted under one
#: name and scraped under another.  (It lives here rather than beside the
#: core because ``obs`` is a leaf package: ``runtime`` imports ``obs``,
#: never the reverse.)
SERVICE_COUNTERS = (
    ("submitted", "repro_submitted_total", "Jobs submitted to the service.", "common"),
    ("coalesced", "repro_coalesced_total", "Submissions that rode an identical in-flight job.", "common"),
    ("cache_hits", "repro_cache_hits_total", "Submissions resolved from the result cache.", "common"),
    ("journal_hits", "repro_journal_hits_total", "Submissions served from journal-replayed completions.", "cluster"),
    ("executed", "repro_executed_total", "Jobs actually simulated by a backend.", "common"),
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
        _gauge(
            "repro_result_cache_held_entries",
            "Result-cache entries held in this process's memory.",
            int(cache_stats.get("held_entries", 0)),
        ),
        _gauge(
            "repro_result_cache_held_bytes",
            "Pickle bytes of the result-cache entries held in memory.",
            int(cache_stats.get("held_bytes", 0)),
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
    """The per-worker-slot executed family (empty before the first job)."""
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
    """Map one ops snapshot onto metric families.

    The shape is ``AdmissionCore.snapshot``'s on either transport; a
    cluster's adds ``shards`` (index, liveness, pid),
    ``shard_count`` and ``restarts``, and keys ``executed_by`` by shard
    instead of by worker slot.
    """
    is_cluster = "shards" in snapshot
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
            float(snapshot.get("coalescing_hit_rate", 0.0)),
        ),
        _gauge(
            "repro_cache_hit_rate",
            "Fraction of submissions resolved from the cache (or journal).",
            float(snapshot.get("cache_hit_rate", 0.0)),
        ),
    ]
    extra = _CLUSTER_ONLY_COUNTERS if is_cluster else _THREAD_ONLY_COUNTERS
    for key, name, help in _COMMON_COUNTERS + extra:
        families.append(_counter(name, help, int(snapshot.get(key, 0))))

    executed_by = snapshot.get("executed_by") or {}
    if is_cluster:
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
                tuple(
                    Sample(labels={"shard": shard["shard"]}, value=int(shard.get("alive", 0)))
                    for shard in snapshot["shards"]
                ),
            )
        )
        if executed_by:
            families.append(
                _labelled_counter(
                    "repro_shard_executed_total",
                    "Jobs executed per shard.",
                    [
                        Sample(labels={"shard": shard}, value=int(count))
                        for shard, count in sorted(executed_by.items())
                    ],
                )
            )
    else:
        families.extend(worker_families(executed_by))

    families.extend(_macro_families(snapshot.get("macro") or {}))
    families.append(_latency_family(snapshot.get("latency")))
    cache_stats = snapshot.get("cache")
    if isinstance(cache_stats, dict):
        families.extend(cache_families(cache_stats))
    return families
