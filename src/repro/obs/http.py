"""The stdlib-only HTTP telemetry exporter.

:class:`MetricsServer` wraps :class:`http.server.ThreadingHTTPServer` (one
thread per scrape — concurrent Prometheus scrapers and dashboard polls
never serialize behind each other) and serves:

* ``/metrics`` — Prometheus text exposition: the service's own registry
  (``service.collect()``, one consistent cut; in cluster mode the parent
  counts every shard's jobs) followed by the process-wide registry
  (:func:`~repro.obs.metrics.get_registry`);
* ``/snapshot`` — ``service.snapshot()`` as JSON, a view of the same
  metric objects (what the dashboard and ``--stats-format json`` share);
* ``/config`` — :class:`~repro.config.RuntimeConfig` defaults vs runtime
  values, each field flagged ``overridden`` (the defaults-vs-runtime
  split of SNIPPETS Snippet 1, as JSON instead of a widget);
* ``/`` (and ``/dashboard``) — the zero-dependency live dashboard page;
* ``/healthz`` — liveness probe.

**Disabled by default**: nothing in the package constructs a server
unless ``--metrics-port`` / ``repro metrics`` / ``REPRO_METRICS_PORT``
asks for one, and the test suite asserts no socket is opened otherwise.
Port ``0`` binds an ephemeral port (the bound port is in :attr:`port` /
:attr:`url`); the default bind address is loopback — exposing telemetry
beyond the host is an explicit operator decision.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from .dashboard import DASHBOARD_HTML
from .exposition import CONTENT_TYPE, render
from .metrics import MetricsRegistry, get_registry

__all__ = ["MetricsServer"]


class MetricsServer:
    """Serve ``/metrics``, ``/snapshot``, ``/config`` and the dashboard.

    Parameters
    ----------
    service:
        The live service (a ``ServiceClient`` or ``ClusterService``):
        ``/metrics`` renders its ``collect()``, ``/snapshot`` its
        ``snapshot()``.  ``None`` serves registry families only and 404s
        ``/snapshot``.
    registry:
        Extra metrics collected into ``/metrics`` (default: the
        process-wide registry).
    host / port:
        Bind address; port ``0`` picks an ephemeral port.
    """

    def __init__(
        self,
        service=None,
        registry: Optional[MetricsRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.registry = registry if registry is not None else get_registry()
        self.host = host
        self.requested_port = port
        self.port: Optional[int] = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "MetricsServer":
        """Bind, spawn the serving thread, return self (idempotent)."""
        if self._server is not None:
            return self
        handler = self._make_handler()
        self._server = ThreadingHTTPServer((self.host, self.requested_port), handler)
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-http",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def url(self) -> str:
        if self.port is None:
            raise RuntimeError("metrics server not started")
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def render_metrics(self) -> str:
        """The current exposition body (service families + registry)."""
        families = []
        if self.service is not None:
            try:
                families.extend(self.service.collect())
            except Exception:  # noqa: BLE001 — a closing service must not 500 the scrape
                pass
        families.extend(self.registry.collect())
        return render(families)

    def _config_report(self) -> Dict[str, object]:
        from ..config import config_report

        return config_report()

    def _make_handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            # Telemetry must stay silent on stdout/stderr.
            def log_message(self, *_args) -> None:  # noqa: D102
                pass

            def _reply(self, status: int, content_type: str, body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _json(self, payload: object, status: int = 200) -> None:
                body = json.dumps(payload, default=str, indent=2).encode("utf-8")
                self._reply(status, "application/json; charset=utf-8", body)

            def do_GET(self) -> None:  # noqa: N802 — http.server API
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        self._reply(
                            200, CONTENT_TYPE, server.render_metrics().encode("utf-8")
                        )
                    elif path == "/snapshot":
                        if server.service is None:
                            self._json({"error": "no snapshot source"}, status=404)
                        else:
                            self._json(server.service.snapshot())
                    elif path == "/config":
                        self._json(server._config_report())
                    elif path in ("/", "/dashboard"):
                        self._reply(
                            200,
                            "text/html; charset=utf-8",
                            DASHBOARD_HTML.encode("utf-8"),
                        )
                    elif path == "/healthz":
                        self._reply(200, "text/plain; charset=utf-8", b"ok\n")
                    else:
                        self._json({"error": f"unknown path {path}"}, status=404)
                except BrokenPipeError:  # client went away mid-reply
                    pass
                except Exception as error:  # noqa: BLE001 — report, never crash the thread
                    try:
                        self._json({"error": str(error)}, status=500)
                    except Exception:  # noqa: BLE001
                        pass

        return Handler
