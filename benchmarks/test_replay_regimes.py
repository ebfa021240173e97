"""Replay benchmark: the service under four realistic arrival regimes.

Drives a 2-worker :class:`~repro.serve.client.ServiceClient` (fresh result
cache per regime) with each built-in arrival regime of
:mod:`repro.serve.replay` — ``poisson``, ``diurnal``, ``bursty`` and
``hotkey`` — over one seeded pool of small generated workloads, and records
every regime's :class:`~repro.serve.replay.ReplayReport` into the
``regimes`` section of ``BENCH_serve.json``:

* ``latency_p50_ms`` / ``latency_p99_ms`` — submit-to-outcome per request;
* ``coalesce_rate`` / ``cache_hit_rate`` — how duplicate pressure resolved;
* ``avoided_fraction`` — the share of submissions that never reached a
  backend simulation.

The headline claim — Zipf hot-key skew lets coalescing + caching avoid at
least half of all backend executions — is deterministic in expectation but
depends on the drawn trace, so the ≥ 50% bar is *enforced* only under
``REPRO_STRICT_BENCH=1`` (CI sets it); the measured fraction is recorded
always.  The trace seed follows ``REPRO_FUZZ_SEED``, so a surprising report
is reproducible with one env var.
"""

import json
import time

import pytest

from repro import __version__
from repro.config import get_config
from repro.serve import ServiceClient, ServiceConfig
from repro.serve.replay import REGIMES, build_trace, default_pool, replay_trace

#: Report file inside the ``bench_out`` directory (see conftest.py).
REPORT = "BENCH_serve.json"

REQUESTS = 120
POOL_SIZE = 16
RATE = 2000.0
#: Required hot-key avoidance under REPRO_STRICT_BENCH=1.
MIN_HOTKEY_AVOIDED = 0.5
STRICT_BENCH = get_config().strict_bench
FUZZ_SEED = get_config().fuzz_seed


@pytest.fixture(scope="module")
def regime_reports(tmp_path_factory, bench_out):
    """One replay run per built-in regime; extend BENCH_serve.json."""
    pool = default_pool(POOL_SIZE, seed=FUZZ_SEED)
    runs = {}
    wall_start = time.perf_counter()
    for regime in sorted(REGIMES):
        trace = build_trace(regime, REQUESTS, RATE, pool, seed=FUZZ_SEED)
        cache_dir = tmp_path_factory.mktemp(f"replay-bench-{regime}")
        with ServiceClient(
            cache_dir=cache_dir,
            config=ServiceConfig(max_workers=2, max_backlog=REQUESTS),
        ) as client:
            report = replay_trace(client, trace, regime=regime, timeout=300.0)
        runs[regime] = report.as_dict()
    section = {
        "package_version": __version__,
        "requests_per_regime": REQUESTS,
        "pool_size": POOL_SIZE,
        "nominal_rate_rps": RATE,
        "seed": FUZZ_SEED,
        "wall_seconds": time.perf_counter() - wall_start,
        "runs": runs,
        "strict_bench": STRICT_BENCH,
        "min_hotkey_avoided_enforced": MIN_HOTKEY_AVOIDED if STRICT_BENCH else None,
    }
    data = {}
    path = bench_out / REPORT
    if path.exists():
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            data = {}
    data["regimes"] = section
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return section


def test_every_regime_measured(regime_reports):
    """All four regimes ran to completion with a full report each."""
    assert set(regime_reports["runs"]) == set(REGIMES)
    assert len(regime_reports["runs"]) >= 4
    for regime, run in regime_reports["runs"].items():
        assert run["requests"] == REQUESTS, regime
        assert run["failed"] == 0, regime
        assert run["submitted"] == REQUESTS, regime
        for key in (
            "latency_p50_ms",
            "latency_p99_ms",
            "coalesce_rate",
            "cache_hit_rate",
            "avoided_fraction",
        ):
            assert key in run, (regime, key)
        assert 0 < run["latency_p50_ms"] <= run["latency_p99_ms"], regime


def test_avoidance_accounting_closes(regime_reports):
    """Per regime: coalesced + cached + executed covers every submission."""
    for regime, run in regime_reports["runs"].items():
        resolved = run["coalesced"] + run["cache_hits"] + run["executed"]
        assert resolved == run["submitted"], (regime, run)
        assert run["avoided_fraction"] == pytest.approx(
            1.0 - run["executed"] / run["submitted"], abs=1e-3
        ), regime


def test_hotkey_avoidance_recorded(regime_reports):
    """The hot-key run's avoidance is always recorded (gated separately)."""
    hotkey = regime_reports["runs"]["hotkey"]
    assert 0.0 <= hotkey["avoided_fraction"] <= 1.0
    # Executions are bounded by the key space: at most one per pool entry.
    assert hotkey["executed"] <= regime_reports["pool_size"]


@pytest.mark.skipif(
    not STRICT_BENCH,
    reason="hot-key avoidance bar enforced only under REPRO_STRICT_BENCH=1 "
    "(the measured fraction is always recorded in BENCH_serve.json)",
)
def test_hotkey_skew_avoids_half_the_backend_work(regime_reports):
    """Zipf skew + coalescing + cache must absorb >= 50% of submissions."""
    hotkey = regime_reports["runs"]["hotkey"]
    assert hotkey["avoided_fraction"] >= MIN_HOTKEY_AVOIDED, hotkey


def test_regimes_section_written(regime_reports, bench_out):
    data = json.loads((bench_out / REPORT).read_text(encoding="utf-8"))
    recorded = data["regimes"]
    assert set(recorded["runs"]) == set(regime_reports["runs"])
    assert recorded["seed"] == FUZZ_SEED
    for regime, run in regime_reports["runs"].items():
        assert recorded["runs"][regime]["avoided_fraction"] == (
            run["avoided_fraction"]
        )
