"""Thread-safe metrics primitives and the registry they live in.

This is the substrate of the ``repro.obs`` telemetry layer: three
Prometheus-shaped primitives — :class:`Counter` (monotonic),
:class:`Gauge` (instantaneous, read from a callback) and
:class:`Histogram` (fixed cumulative bounds with in-bucket quantile
interpolation) — plus the :class:`MetricsRegistry` that names, stores and
collects them.

Two registry scopes exist by design:

* **per-service registries** — every
  :class:`~repro.serve.client.ServiceClient` /
  :class:`~repro.cluster.service.ClusterService` owns its own registry
  (``service.metrics``): the admission counters, macro totals, latency
  histogram and per-executor rows of its core, and the shell's gauges.
  Parallel services in one process (the test suite runs dozens) never
  merge counts, and ``service.snapshot()`` reads the same objects;
* **the process-wide registry** (:func:`get_registry`) — build info,
  engine counters and exploration counters;
  anything that is genuinely one-per-process registers here and the HTTP
  exporter renders it after the service's ``collect()``.

Every mutation takes the metric's lock; ``observe``/``inc`` are a few
hundred nanoseconds, cheap enough for the service's completion path.
The text renderer lives in :mod:`repro.obs.exposition`.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BOUNDS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Sample",
    "get_registry",
]

#: Legal metric names (Prometheus exposition grammar).
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Upper bucket bounds (seconds) shared by every latency histogram in the
#: package; roughly logarithmic from 1 ms to 30 s, which brackets every
#: workload the repo's cycle engines simulate.  The implicit final bucket
#: is +inf.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


@dataclass(frozen=True)
class Sample:
    """One exposition sample: ``<family><suffix>{labels} <value>``."""

    suffix: str = ""
    labels: Dict[str, str] = field(default_factory=dict)
    value: Union[int, float] = 0

    def __post_init__(self) -> None:
        # Labels arrive with arbitrary value types (shard indexes); pin
        # them to strings once so rendering and tests see one shape.
        object.__setattr__(
            self, "labels", {str(k): str(v) for k, v in self.labels.items()}
        )


@dataclass(frozen=True)
class MetricFamily:
    """One named family with its type, help text and samples."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str = ""
    samples: Tuple[Sample, ...] = ()

    def __post_init__(self) -> None:
        _check_name(self.name)
        if self.kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        object.__setattr__(self, "samples", tuple(self.samples))


class Counter:
    """Monotonically increasing count (int-preserving, thread-safe)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._lock = threading.Lock()
        self._value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Union[int, float]:
        return self._value

    def family(self) -> MetricFamily:
        return MetricFamily(
            self.name, self.kind, self.help, (Sample(value=self._value),)
        )

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Gauge:
    """Instantaneous value, read from a callback on every collect."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str, fn: Callable[[], Union[int, float]]
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.fn = fn

    @property
    def value(self) -> Union[int, float]:
        try:
            return self.fn()
        except Exception:  # noqa: BLE001 — a dead callback reads as 0
            return 0

    def family(self) -> MetricFamily:
        return MetricFamily(self.name, self.kind, self.help, (Sample(value=self.value),))

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-bucket histogram (Prometheus-style cumulative bounds).

    ``observe`` is a counter bump — cheap enough for the service's hot
    completion path — and ``quantile`` interpolates within the winning
    bucket, so percentile estimates stay stable without storing samples.

    Edge cases are defined, not artifacts: an empty histogram reports
    ``0.0`` for every quantile, a single sample reports that sample's
    bucket for every quantile (the effective rank is clamped to at least
    one observation, so ``q=0`` can no longer land in an empty leading
    bucket), out-of-range ``q`` raises ``ValueError``, and a histogram
    whose mass sits entirely past the last bound clamps to that bound.
    """

    kind = "histogram"

    def __init__(
        self,
        bounds: Tuple[float, ...] = DEFAULT_LATENCY_BOUNDS,
        name: str = "histogram",
        help: str = "",
    ) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted, got {bounds}")
        self.name = name
        self.help = help
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(bounds) + 1)  # final slot: > bounds[-1]
        self.total_seconds = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.total_seconds += value

    @property
    def mean(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def __eq__(self, other: object) -> bool:
        # Value equality keeps dataclasses holding a histogram comparable.
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.bounds == other.bounds
            and self.counts == other.counts
            and self.count == other.count
            and self.total_seconds == other.total_seconds
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(count={self.count}, "
            f"mean={self.mean:.6f}s)"
        )

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) via in-bucket interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        # Clamp the rank to >= 1 observation: q=0 means "the smallest
        # observed value's bucket", never an empty leading bucket's bound.
        rank = max(1.0, q * self.count)
        cumulative = 0
        lower = 0.0
        for index, bound in enumerate(self.bounds):
            previous = cumulative
            cumulative += self.counts[index]
            if cumulative >= rank:
                # counts[index] > 0 here: cumulative just crossed the rank.
                fraction = (rank - previous) / self.counts[index]
                return lower + fraction * (bound - lower)
            lower = bound
        return self.bounds[-1]  # everything landed in the overflow bucket

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean_seconds": self.mean,
            "sum_seconds": self.total_seconds,
            "p50_seconds": self.quantile(0.5),
            "p90_seconds": self.quantile(0.9),
            "p99_seconds": self.quantile(0.99),
            "buckets": [
                {"le": bound, "count": count}
                for bound, count in zip(self.bounds, self.counts)
            ]
            + [{"le": None, "count": self.counts[-1]}],
        }

    def family(self) -> MetricFamily:
        samples: List[Sample] = []
        cumulative = 0
        for bound, count in zip(self.bounds, self.counts):
            cumulative += count
            samples.append(Sample("_bucket", {"le": repr(float(bound))}, cumulative))
        samples.append(Sample("_bucket", {"le": "+Inf"}, self.count))
        samples.append(Sample("_sum", {}, self.total_seconds))
        samples.append(Sample("_count", {}, self.count))
        return MetricFamily(self.name, self.kind, self.help, tuple(samples))


_Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named home of a set of metrics; thread-safe get-or-create.

    ``counter``/``gauge``/``histogram`` return the existing metric when
    the name is already registered (and raise ``TypeError`` when it is
    registered as a different kind) — call sites can re-register
    idempotently instead of coordinating.  ``add_callback`` registers a
    named producer of extra :class:`MetricFamily` rows collected on every
    scrape; re-adding a name replaces the previous callback, keeping
    repeat construction (CLI runs in one process, test fixtures) safe.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: "OrderedDict[str, _Metric]" = OrderedDict()
        self._callbacks: "OrderedDict[str, Callable[[], Iterable[MetricFamily]]]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, kind: str, factory) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {kind}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, "counter", lambda: Counter(name, help))

    def gauge(
        self, name: str, help: str, fn: Callable[[], Union[int, float]]
    ) -> Gauge:
        return self._get_or_create(name, "gauge", lambda: Gauge(name, help, fn))

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: Tuple[float, ...] = DEFAULT_LATENCY_BOUNDS,
    ) -> Histogram:
        return self._get_or_create(
            name, "histogram", lambda: Histogram(bounds, name=name, help=help)
        )

    def add_callback(
        self, name: str, fn: Callable[[], Iterable[MetricFamily]]
    ) -> None:
        with self._lock:
            self._callbacks[name] = fn

    # ------------------------------------------------------------------
    def collect(self) -> List[MetricFamily]:
        """Every family this registry knows, in registration order."""
        with self._lock:
            metrics = list(self._metrics.values())
            callbacks = list(self._callbacks.values())
        families = [metric.family() for metric in metrics]
        for callback in callbacks:
            try:
                families.extend(callback())
            except Exception:  # noqa: BLE001 — one bad producer must not kill the scrape
                continue
        return families


# ----------------------------------------------------------------------
# The process-wide registry.
# ----------------------------------------------------------------------
_GLOBAL: Optional[MetricsRegistry] = None
_GLOBAL_LOCK = threading.Lock()


def _build_info_families() -> List[MetricFamily]:
    from .. import __version__

    return [
        MetricFamily(
            "repro_build_info",
            "gauge",
            "Package version of the running process.",
            (Sample(labels={"version": __version__}, value=1),),
        )
    ]


def get_registry() -> MetricsRegistry:
    """The process-wide registry (engine/explore/cache/build-info metrics)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            _GLOBAL = MetricsRegistry()
            _GLOBAL.add_callback("repro_build_info", _build_info_families)
        return _GLOBAL
