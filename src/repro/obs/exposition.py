"""Prometheus text exposition (format 0.0.4).

:func:`render` serializes :class:`~repro.obs.metrics.MetricFamily` rows
into the plain-text exposition format Prometheus scrapes (``# HELP`` /
``# TYPE`` headers, one ``name{labels} value`` line per sample,
histograms as cumulative ``_bucket`` series with a ``+Inf`` row plus
``_sum``/``_count``).  The families come from registries: a service's own
(``ServiceClient.collect``, which in sharded mode is the parent's — shards
keep no counters) and the process-wide one.  :func:`cache_families` is
the one mapping of a :meth:`ResultCache.stats` dict onto families, shared
by a service's ``collect`` and the cache's registry callback.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Union

from .metrics import MetricFamily, Sample

__all__ = ["CONTENT_TYPE", "cache_families", "render"]

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


#: ``(ResultCache.stats key, family, kind, help)`` per cache family.
_CACHE_ROWS = (
    ("entries", "repro_result_cache_entries", "gauge", "Entries in the on-disk result cache."),
    ("size_bytes", "repro_result_cache_size_bytes", "gauge", "On-disk size of the result cache."),
    (
        "held_entries",
        "repro_result_cache_held_entries",
        "gauge",
        "Result-cache entries held in this process's memory.",
    ),
    (
        "held_bytes",
        "repro_result_cache_held_bytes",
        "gauge",
        "Pickle bytes of the result-cache entries held in memory.",
    ),
    (
        "hits",
        "repro_result_cache_lookup_hits_total",
        "counter",
        "Counted ResultCache.get hits of this process.",
    ),
    (
        "misses",
        "repro_result_cache_lookup_misses_total",
        "counter",
        "Counted ResultCache.get misses of this process.",
    ),
)


def cache_families(cache_stats: Dict[str, object]) -> List[MetricFamily]:
    """Families for one :meth:`ResultCache.stats` dict."""
    return [
        MetricFamily(name, kind, help, (Sample(value=int(cache_stats.get(key, 0))),))
        for key, name, kind, help in _CACHE_ROWS
    ]
