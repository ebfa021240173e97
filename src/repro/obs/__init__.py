"""``repro.obs`` — the unified telemetry layer.

The ROADMAP's "Ops surface" item, built as one cross-cutting package the
serve, cluster, runtime-cache, exploration and engine layers all report
into (the DarkSide-20k DAQ lesson: a sharded system is only operable when
every stage exports rates, depths and health to a central monitor):

* :mod:`repro.obs.metrics` — thread-safe
  :class:`~repro.obs.metrics.Counter` / :class:`~repro.obs.metrics.Gauge` /
  :class:`~repro.obs.metrics.Histogram` primitives and the
  :class:`~repro.obs.metrics.MetricsRegistry`; each service keeps its
  metrics in its own registry (``service.metrics``: ``service.collect()`` is
  its ``/metrics`` rows and ``service.snapshot()`` a JSON view of the same
  objects; the cluster parent counts every shard's jobs) while
  :func:`~repro.obs.metrics.get_registry` holds the process-wide metrics
  (build info, engine macro counters, exploration counters, cache
  callbacks);
* :mod:`repro.obs.exposition` — the Prometheus text renderer and the
  result-cache families;
* :mod:`repro.obs.http` — the stdlib-only
  :class:`~repro.obs.http.MetricsServer` (``/metrics``, ``/snapshot``,
  ``/config``, ``/healthz``, dashboard);
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

from .trace import TraceRecorder, install_tracer, uninstall_tracer

__all__ = ["TraceRecorder", "install_tracer", "uninstall_tracer"]
