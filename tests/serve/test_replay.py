"""Arrival-trace replay: processes, traces, and the measuring driver."""

import random

import pytest

from repro.runtime import SimJob
from repro.serve import ServiceClient, ServiceConfig
from repro.serve.replay import (
    REGIMES,
    ReplayReport,
    TraceEvent,
    _burst_arrivals,
    _diurnal_arrivals,
    _poisson_arrivals,
    _zipf_keys,
    build_trace,
    default_pool,
    load_trace,
    replay_trace,
    save_trace,
)
from repro.workloads import ConvWorkload, GemmWorkload


class TestArrivalProcesses:
    @pytest.mark.parametrize(
        "process", [_poisson_arrivals, _diurnal_arrivals, _burst_arrivals]
    )
    def test_count_and_monotonicity(self, process, fuzz_seed):
        rng = random.Random(fuzz_seed)
        times = process(rng, 200, rate=500.0)
        assert len(times) == 200
        assert all(t >= 0 for t in times)
        assert times == sorted(times)

    def test_burst_arrivals_clump(self, fuzz_seed):
        """Correlated bursts: many consecutive gaps far below the mean gap."""
        rng = random.Random(fuzz_seed)
        times = _burst_arrivals(rng, 400, rate=100.0)
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean_gap = sum(gaps) / len(gaps)
        tiny = sum(1 for gap in gaps if gap < mean_gap / 10)
        assert tiny > len(gaps) / 3

    def test_zipf_keys_concentrate_on_the_head(self, fuzz_seed):
        rng = random.Random(fuzz_seed)
        keys = _zipf_keys(rng, 1000, pool_size=32)
        head_share = sum(1 for key in keys if key < 4) / len(keys)
        assert head_share > 0.5  # the top 4 of 32 keys dominate


class TestRegimes:
    def test_at_least_four_documented_regimes(self):
        assert len(REGIMES) >= 4
        assert {"poisson", "diurnal", "bursty", "hotkey"} <= set(REGIMES)
        for regime in REGIMES.values():
            assert regime.description

    def test_build_trace_validates_inputs(self):
        pool = [GemmWorkload(name="p", m=4, n=4, k=4)]
        with pytest.raises(ValueError, match="unknown regime"):
            build_trace("tsunami", 10, 100.0, pool)
        with pytest.raises(ValueError, match="requests"):
            build_trace("poisson", 0, 100.0, pool)
        with pytest.raises(ValueError, match="rate"):
            build_trace("poisson", 10, 0.0, pool)
        with pytest.raises(ValueError, match="pool"):
            build_trace("poisson", 10, 100.0, [])

    def test_build_trace_is_seed_deterministic(self, fuzz_seed):
        pool = default_pool(6, seed=fuzz_seed)
        first = build_trace("hotkey", 50, 300.0, pool, seed=fuzz_seed)
        again = build_trace("hotkey", 50, 300.0, pool, seed=fuzz_seed)
        assert first == again

    def test_default_pool_is_small_and_distinct(self, fuzz_seed):
        pool = default_pool(12, seed=fuzz_seed)
        assert len(pool) == 12
        assert len({w.scaled("key") for w in pool}) == 12


class TestTraceRoundTrip:
    def test_jsonl_round_trip_preserves_everything(self, tmp_path, fuzz_seed):
        pool = [
            GemmWorkload(name="g", m=4, n=5, k=6, transposed_a=True, quantize=True),
            ConvWorkload(
                name="c",
                in_height=6,
                in_width=5,
                in_channels=3,
                out_channels=4,
                stride=2,
                padding=1,
                with_bias=False,
            ),
        ]
        trace = build_trace("bursty", 20, 200.0, pool, seed=fuzz_seed)
        path = tmp_path / "trace.jsonl"
        save_trace(path, trace)
        assert load_trace(path) == trace

    def test_bad_records_name_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"at": 0.0, "workload": {"kind": "gemm", "name": "ok", '
            '"m": 2, "n": 2, "k": 2}}\n'
            '{"at": 0.1, "workload": {"kind": "tensor", "name": "bad"}}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_trace(path)

    def test_negative_arrival_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            TraceEvent(at=-0.5, workload=GemmWorkload(name="x", m=2, n=2, k=2))


class TestReplayDriver:
    def _client(self, stub_backend):
        backend = stub_backend()
        return backend, ServiceClient(config=ServiceConfig(max_workers=2))

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_replay_measures_a_trace(self, regime, stub_backend, tmp_path, fuzz_seed):
        """Every built-in regime runs to completion, and every submission is
        accounted for exactly once: coalesced, a cache hit, or executed."""
        backend = stub_backend()
        pool = [GemmWorkload(name=f"w{i}", m=4 + i, n=4, k=4) for i in range(4)]
        trace = build_trace(regime, 30, 2000.0, pool, seed=fuzz_seed)
        with ServiceClient(
            cache_dir=tmp_path, config=ServiceConfig(max_workers=2)
        ) as client:
            report = replay_trace(
                client, trace, regime=regime, backend=backend.name, timeout=60.0
            )
        assert isinstance(report, ReplayReport)
        assert report.regime == regime
        assert report.requests == 30
        assert report.submitted == 30
        assert report.failed == 0
        assert report.pool_size == len({event.workload for event in trace})
        assert report.latency_p50_ms <= report.latency_p99_ms
        assert report.throughput_rps > 0
        assert report.coalesced + report.cache_hits + report.executed == report.submitted
        # With a cache, each key reaches the backend at most once.
        assert report.executed == backend.calls <= report.pool_size
        assert report.avoided_fraction == pytest.approx(
            1.0 - report.executed / report.submitted, abs=1e-9
        )

    def test_hotkey_skew_avoids_most_executions(self, stub_backend, tmp_path, fuzz_seed):
        """Zipf skew + cache + coalescing: most submissions never reach the
        backend — at least half of them."""
        backend = stub_backend()
        pool = [GemmWorkload(name=f"hot{i}", m=4 + i, n=4, k=4) for i in range(16)]
        trace = build_trace("hotkey", 120, 4000.0, pool, seed=fuzz_seed)
        with ServiceClient(
            cache_dir=tmp_path, config=ServiceConfig(max_workers=2)
        ) as client:
            report = replay_trace(
                client, trace, regime="hotkey", backend=backend.name, timeout=60.0
            )
        assert report.executed == backend.calls
        assert report.executed <= len(pool)
        assert report.avoided_fraction >= 0.5
        assert report.coalesce_rate + report.cache_hit_rate > 0

    def test_summary_line_and_dict_agree(self, stub_backend, fuzz_seed):
        backend, client = self._client(stub_backend)
        pool = [GemmWorkload(name="only", m=4, n=4, k=4)]
        trace = build_trace("poisson", 5, 5000.0, pool, seed=fuzz_seed)
        with client:
            report = replay_trace(
                client, trace, regime="poisson", backend=backend.name, timeout=60.0
            )
        payload = report.as_dict()
        assert payload["regime"] == "poisson"
        assert payload["requests"] == 5
        assert "regime=poisson" in report.summary_line()
        assert f"requests={payload['requests']}" in report.summary_line()

    def test_rejects_empty_trace_and_bad_scale(self, stub_backend):
        backend, client = self._client(stub_backend)
        with client:
            with pytest.raises(ValueError, match="empty trace"):
                replay_trace(client, [])
            trace = [
                TraceEvent(at=0.0, workload=GemmWorkload(name="x", m=2, n=2, k=2))
            ]
            with pytest.raises(ValueError, match="time_scale"):
                replay_trace(client, trace, time_scale=0.0)

    def test_failed_jobs_are_counted_not_raised(self, stub_backend, fuzz_seed):
        backend = stub_backend(error=RuntimeError("backend exploded"))
        pool = [GemmWorkload(name=f"f{i}", m=3 + i, n=3, k=3) for i in range(3)]
        trace = build_trace("poisson", 6, 5000.0, pool, seed=fuzz_seed)
        with ServiceClient(config=ServiceConfig(max_workers=2)) as client:
            report = replay_trace(
                client, trace, regime="poisson", backend=backend.name, timeout=60.0
            )
        assert report.failed >= 1
        assert report.requests == 6


class TestTicketCallbacks:
    def test_callback_fires_after_completion(self, stub_backend):
        backend = stub_backend()
        fired = []
        with ServiceClient(config=ServiceConfig(max_workers=1)) as client:
            job = SimJob(
                workload=GemmWorkload(name="cb", m=4, n=4, k=4),
                backend=backend.name,
            )
            ticket = client.submit(job, client_name="cb")
            ticket.add_done_callback(fired.append)
            ticket.result(timeout=30.0)
        assert fired and fired[0] is ticket

    def test_callback_fires_immediately_when_already_done(self, stub_backend):
        backend = stub_backend()
        fired = []
        with ServiceClient(config=ServiceConfig(max_workers=1)) as client:
            job = SimJob(
                workload=GemmWorkload(name="late", m=4, n=4, k=4),
                backend=backend.name,
            )
            ticket = client.submit(job, client_name="cb")
            ticket.result(timeout=30.0)
            ticket.add_done_callback(fired.append)
        assert fired and fired[0] is ticket
