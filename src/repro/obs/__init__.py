"""``repro.obs`` — the unified telemetry layer.

The ROADMAP's "Ops surface" item, built as one cross-cutting package the
serve, cluster, runtime-cache, exploration and engine layers all report
into (the DarkSide-20k DAQ lesson: a sharded system is only operable when
every stage exports rates, depths and health to a central monitor):

* :mod:`repro.obs.metrics` — thread-safe :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` primitives and the
  :class:`MetricsRegistry`; each service keeps its metrics in its own
  registry (``service.metrics``: ``service.collect()`` is its ``/metrics``
  rows and ``service.snapshot()`` a JSON view of the same objects; the
  cluster parent counts every shard's jobs) while :func:`get_registry`
  holds the process-wide metrics (build info, engine macro counters,
  exploration counters, cache callbacks);
* :mod:`repro.obs.exposition` — the Prometheus text renderer and the
  result-cache families;
* :mod:`repro.obs.http` — the stdlib-only :class:`MetricsServer`
  (``/metrics``, ``/snapshot``, ``/config``, ``/healthz``, dashboard);
  **disabled by default**, enabled by ``repro serve --metrics-port N``,
  the standalone ``repro metrics`` subcommand or ``REPRO_METRICS_PORT``;
* :mod:`repro.obs.trace` — per-job span timelines (submitted → queued →
  executing(dispatched) → write-back → settled, with
  engine macro-jump instants) recorded by a process-wide
  :class:`TraceRecorder` and exported as Chrome trace-event JSON
  (``--trace out.json`` / ``REPRO_TRACE``, Perfetto-viewable);
* :mod:`repro.obs.dashboard` — the single-file HTML ops dashboard the
  exporter serves at ``/``.

See ``docs/OBSERVABILITY.md`` for the metric name table, the trace span
glossary and the dashboard walkthrough.
"""

from .metrics import (
    Counter,
    DEFAULT_LATENCY_BOUNDS,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    Sample,
    get_registry,
)
from .exposition import CONTENT_TYPE, render
from .http import MetricsServer
from .trace import (
    TraceEvent,
    TraceRecorder,
    get_tracer,
    install_tracer,
    uninstall_tracer,
)

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "DEFAULT_LATENCY_BOUNDS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsServer",
    "Sample",
    "TraceEvent",
    "TraceRecorder",
    "get_registry",
    "get_tracer",
    "install_tracer",
    "render",
    "uninstall_tracer",
]
