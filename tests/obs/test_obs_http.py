"""Tests for the stdlib HTTP metrics exporter."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.http import MetricsServer
from repro.obs.metrics import MetricFamily, MetricsRegistry, Sample

from test_obs_exposition import parse_exposition


def fetch(url, timeout=5):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


class FakeService:
    """The two calls the exporter makes of a service."""

    def __init__(self, snapshot):
        self._snapshot = snapshot

    def collect(self):
        return [
            MetricFamily(f"repro_{key}_total", "counter", "", (Sample(value=value),))
            for key, value in self._snapshot.items()
        ]

    def snapshot(self):
        return self._snapshot


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    registry.counter("repro_test_total", "test counter").inc(7)
    return registry


class TestMetricsServer:
    def test_metrics_endpoint_serves_valid_exposition(self, registry):
        with MetricsServer(registry=registry) as server:
            status, content_type, body = fetch(f"{server.url}/metrics")
        assert status == 200
        assert "version=0.0.4" in content_type
        families = parse_exposition(body.decode("utf-8"))
        assert "repro_test_total 7" in families["repro_test_total"]["samples"]

    def test_snapshot_endpoint_serves_snapshot_json(self, registry):
        snapshot = {"submitted": 3, "queue_depth": 1}
        with MetricsServer(FakeService(snapshot), registry=registry) as server:
            status, content_type, body = fetch(f"{server.url}/snapshot")
        assert status == 200
        assert "application/json" in content_type
        assert json.loads(body) == snapshot

    def test_snapshot_404_without_source(self, registry):
        with MetricsServer(registry=registry) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(f"{server.url}/snapshot")
            assert excinfo.value.code == 404

    def test_service_families_merged_into_metrics(self, registry):
        service = FakeService({"submitted": 9, "executed": 4})
        with MetricsServer(service, registry=registry) as server:
            _, _, body = fetch(f"{server.url}/metrics")
        families = parse_exposition(body.decode("utf-8"))
        # The service's families, then the registry's.
        assert "repro_submitted_total 9" in families["repro_submitted_total"]["samples"]
        assert "repro_test_total 7" in families["repro_test_total"]["samples"]

    def test_config_endpoint_reports_overrides(self, registry, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS_PORT", "9123")
        from repro import config

        monkeypatch.setattr(config, "_PINNED", None)
        with MetricsServer(registry=registry) as server:
            _, _, body = fetch(f"{server.url}/config")
        report = json.loads(body)
        field = report["fields"]["metrics_port"]
        assert field["env"] == "REPRO_METRICS_PORT"
        assert field["value"] == 9123
        assert field["overridden"] is True
        assert report["fields"]["trace_path"]["overridden"] is False

    def test_dashboard_served_at_root(self, registry):
        with MetricsServer(registry=registry) as server:
            status, content_type, body = fetch(f"{server.url}/")
        assert status == 200
        assert "text/html" in content_type
        assert b"/snapshot" in body  # the page polls the snapshot endpoint

    def test_healthz(self, registry):
        with MetricsServer(registry=registry) as server:
            status, _, body = fetch(f"{server.url}/healthz")
        assert status == 200 and b"ok" in body

    def test_unknown_path_404(self, registry):
        with MetricsServer(registry=registry) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(f"{server.url}/nope")
            assert excinfo.value.code == 404

    def test_raising_service_does_not_kill_metrics(self, registry):
        class Closing(FakeService):
            def collect(self):
                raise RuntimeError("service source died")

        with MetricsServer(Closing({}), registry=registry) as server:
            status, _, body = fetch(f"{server.url}/metrics")
        assert status == 200
        assert b"repro_test_total" in body

    def test_concurrent_scrapes(self, registry):
        results = []
        errors = []
        with MetricsServer(FakeService({"submitted": 1}), registry=registry) as server:

            def scrape():
                try:
                    for _ in range(5):
                        status, _, body = fetch(f"{server.url}/metrics")
                        parse_exposition(body.decode("utf-8"))
                        results.append(status)
                except Exception as error:  # noqa: BLE001 — collected for assert
                    errors.append(error)

            threads = [threading.Thread(target=scrape) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert results == [200] * 40

    def test_ephemeral_port_bound_and_reported(self, registry):
        with MetricsServer(registry=registry, port=0) as server:
            assert 0 < server.port <= 65535
            assert str(server.port) in server.url

    def test_start_is_idempotent(self, registry):
        server = MetricsServer(registry=registry)
        try:
            assert server.start() is server
            port = server.port
            server.start()
            assert server.port == port
        finally:
            server.close()

    def test_close_releases_port(self, registry):
        server = MetricsServer(registry=registry).start()
        url = server.url
        server.close()
        with pytest.raises(Exception):
            fetch(f"{url}/healthz", timeout=1)


class TestDisabledByDefault:
    def test_serve_cli_opens_no_socket_unless_requested(self, monkeypatch, stub_backend):
        """`repro serve` without --metrics-port must never build a server."""
        from repro import cli
        from repro.obs import http as obs_http

        def explode(*args, **kwargs):
            raise AssertionError("MetricsServer constructed without opt-in")

        monkeypatch.setattr(obs_http.MetricsServer, "__init__", explode)
        monkeypatch.delenv("REPRO_METRICS_PORT", raising=False)
        backend = stub_backend()
        code = cli.main(
            [
                "serve",
                "gemm:8x8x8",
                "--backend",
                backend.name,
                "--no-cache",
            ]
        )
        assert code == 0
