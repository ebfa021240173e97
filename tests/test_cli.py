"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import REPLAY_REGIMES, build_parser, main, parse_workload_spec
from repro.workloads import ConvWorkload, GemmWorkload


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_gemm_arguments(self):
        args = build_parser().parse_args(["simulate-gemm", "16", "16", "16", "--quantize"])
        assert (args.m, args.n, args.k) == (16, 16, 16)
        assert args.quantize and not args.transposed

    def test_the_regime_choices_are_the_replay_regimes(self):
        from repro.serve.replay import REGIMES

        assert REPLAY_REGIMES == tuple(REGIMES)

    def test_building_the_parser_loads_no_service_module(self):
        """A cold ``repro`` invocation pays for the service package only
        when a command uses it."""
        code = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser()\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.serve')))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestCommands:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table3" in out

    def test_suite_info(self, capsys):
        assert main(["suite-info"]) == 0
        out = capsys.readouterr().out
        assert "gemm" in out and "convolution" in out

    def test_experiment_fig4(self, capsys):
        assert main(["experiment", "fig4"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_simulate_gemm(self, capsys):
        assert main(["simulate-gemm", "16", "16", "16"]) == 0
        out = capsys.readouterr().out
        assert "utilization" in out
        assert "kernel cycles" in out

    def test_simulate_gemm_baseline_slower(self, capsys):
        main(["simulate-gemm", "16", "16", "32"])
        full_out = capsys.readouterr().out
        main(["simulate-gemm", "16", "16", "32", "--baseline"])
        base_out = capsys.readouterr().out

        def cycles(text):
            for line in text.splitlines():
                if "kernel cycles" in line:
                    return int(line.split("|")[1].strip())
            raise AssertionError("cycles not found")

        assert cycles(base_out) > cycles(full_out)

    def test_simulate_conv(self, capsys):
        assert main(
            ["simulate-conv", "8", "8", "8", "8", "--kernel", "3", "--padding", "1"]
        ) == 0
        assert "utilization" in capsys.readouterr().out

    def test_simulate_quantized_conv(self, capsys):
        assert main(["simulate-conv", "8", "8", "8", "8", "--quantize"]) == 0
        assert "utilization" in capsys.readouterr().out


class TestWorkloadSpecs:
    def test_gemm_spec(self):
        workload = parse_workload_spec("gemm:64x32x16:t:q")
        assert isinstance(workload, GemmWorkload)
        assert (workload.m, workload.n, workload.k) == (64, 32, 16)
        assert workload.transposed_a and workload.quantize

    def test_conv_spec_with_flags(self):
        workload = parse_workload_spec("conv:16x16x8x32:k5:s2:p2:q")
        assert isinstance(workload, ConvWorkload)
        assert workload.kernel_h == 5 and workload.stride == 2
        assert workload.padding == 2 and workload.quantize

    def test_invalid_specs_rejected(self):
        for bad in ("gemm:64x64", "conv:8x8x8", "fft:64", "gemm:8x8x8:z", "gemm"):
            with pytest.raises(ValueError):
                parse_workload_spec(bad)


class TestBatchAndSweep:
    def test_batch_cold_then_warm(self, tmp_path, capsys):
        argv = [
            "batch",
            "gemm:16x16x16",
            "conv:8x8x8x8:k3:p1",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "miss" in cold and "2 simulated" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "hit" in warm and "0 simulated" in warm and "2 cache hits" in warm

    def test_batch_on_shards_prints_what_in_process_prints(self, tmp_path, capsys):
        """``--jobs 2`` runs the batch on a two-shard cluster: the same
        table and the same ``runtime:`` line, cold and warm."""
        batch = ["batch", "gemm:8x8x8", "gemm:16x16x16"]
        printed = {}
        for jobs in ("1", "2"):
            assert main([*batch, "--jobs", jobs, "--no-cache"]) == 0
            printed[jobs] = capsys.readouterr().out
        assert printed["1"] == printed["2"] and "2 simulated" in printed["2"]

        cache = ["--cache-dir", str(tmp_path)]
        assert main([*batch, "--jobs", "2", *cache]) == 0
        assert "2 simulated, 0 cache hits" in capsys.readouterr().out
        for jobs in ("2", "1"):
            assert main([*batch, "--jobs", jobs, *cache]) == 0
            printed[jobs] = capsys.readouterr().out
        assert printed["1"] == printed["2"] and "0 simulated, 2 cache hits" in printed["2"]

    def test_batch_unknown_backend(self, capsys):
        assert main(["batch", "gemm:8x8x8", "--backend", "bogus", "--no-cache"]) == 2

    def test_batch_baseline_backend(self, capsys):
        assert (
            main(["batch", "gemm:16x16x16", "--backend", "baseline:feather", "--no-cache"])
            == 0
        )
        assert "baseline:feather" in capsys.readouterr().out

    def test_sweep_two_steps(self, capsys):
        argv = [
            "sweep",
            "gemm:16x16x32",
            "--steps",
            "1_baseline,6_full",
            "--no-cache",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1_baseline" in out and "6_full" in out

    def test_sweep_unknown_step(self, capsys):
        assert main(["sweep", "gemm:8x8x8", "--steps", "7_magic", "--no-cache"]) == 2

    def test_sweep_unknown_backend(self, capsys):
        assert main(["sweep", "gemm:8x8x8", "--backend", "bogus", "--no-cache"]) == 2
        assert "unknown backend" in capsys.readouterr().err


class TestExplore:
    def _argv(self, tmp_path, *extra):
        return [
            "explore",
            "--space",
            "gima_group",
            "--axis",
            "gima_group_size=16,64",
            "--workload",
            "gemm:16x16x16",
            "--budget",
            "4",
            "--cache-dir",
            str(tmp_path / "cache"),
            *extra,
        ]

    def test_explore_grid_prints_frontier(self, tmp_path, capsys):
        assert main(self._argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "gima_group_size=16" in out
        assert "best on cycles" in out

    def test_explore_warm_cache_simulates_nothing(self, tmp_path, capsys):
        assert main(self._argv(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "0 simulated" in out and "2 cache hits" in out

    def test_explore_journal_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "run.jsonl")
        argv = self._argv(tmp_path, "--journal", journal, "--strategy", "random")
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 simulated" in first
        assert main(argv + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "0 simulated" in resumed and "2 replayed from journal" in resumed

    def test_explore_resume_requires_journal(self, tmp_path, capsys):
        assert main(self._argv(tmp_path, "--resume")) == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_explore_writes_json_and_csv(self, tmp_path, capsys):
        import json as jsonlib

        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        argv = self._argv(
            tmp_path, "--json", str(json_path), "--csv", str(csv_path)
        )
        assert main(argv) == 0
        data = jsonlib.loads(json_path.read_text())
        assert data["num_evaluations"] == 2
        assert csv_path.read_text().startswith("gima_group_size")

    def test_explore_unknown_space(self, capsys):
        assert main(["explore", "--space", "hyperspace", "--no-cache"]) == 2
        assert "unknown search space" in capsys.readouterr().err

    def test_explore_unknown_strategy(self, capsys):
        assert main(["explore", "--strategy", "magic", "--no-cache"]) == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_explore_unknown_objective(self, capsys):
        assert main(["explore", "--objectives", "happiness", "--no-cache"]) == 2
        assert "unknown objective" in capsys.readouterr().err

    def test_explore_empty_space_is_an_error_not_a_traceback(self, capsys):
        # 48 divides neither 32 nor 64: every candidate is filtered out.
        argv = [
            "explore",
            "--space",
            "default",
            "--axis",
            "gima_group_size=48",
            "--no-cache",
        ]
        assert main(argv) == 2
        assert "no valid candidates" in capsys.readouterr().err

    def test_explore_non_positive_budget_rejected(self, capsys):
        assert main(["explore", "--budget", "0", "--no-cache"]) == 2
        assert "--budget must be positive" in capsys.readouterr().err

    def test_explore_typoed_axis_name_names_the_axis(self, capsys):
        argv = ["explore", "--axis", "data_fifo=2,4", "--no-cache"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unknown axes" in err and "data_fifo" in err

    def test_explore_resume_with_missing_journal_rejected(self, tmp_path, capsys):
        argv = self._argv(
            tmp_path, "--journal", str(tmp_path / "absent.jsonl"), "--resume"
        )
        assert main(argv) == 2
        assert "nothing to resume" in capsys.readouterr().err


class TestSelftest:
    def test_selftest_passes(self, tmp_path, capsys):
        assert main(["selftest", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "selftest ok" in out
        assert "[ok] second run served from cache" in out


class TestServe:
    def test_serve_coalesces_duplicate_stream(self, tmp_path, capsys):
        argv = [
            "serve",
            "gemm:16x16x16",
            "--repeat",
            "6",
            "--clients",
            "2",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "6 submitted" in out
        assert "1 simulated" in out
        assert "coalescing hit-rate" in out

    def test_serve_events_stream(self, capsys):
        argv = ["serve", "gemm:8x8x8", "--repeat", "2", "--no-cache", "--events"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "submitted" in out and "finished" in out

    def test_serve_warm_cache_second_run(self, tmp_path, capsys):
        argv = ["serve", "gemm:16x16x16", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 simulated" in out and "1 cache hits" in out

    def test_serve_on_shards_reports_the_parents_counts(self, capsys):
        """``--shards 2``: the stream runs on two shard processes, and the
        stats line, the summary and the ``--events`` stream read the parent."""
        argv = [
            "serve", "gemm:8x8x8", "gemm:16x16x16", "--repeat", "3", "--shards", "2",
            "--no-cache", "--progress-interval", "1000", "--stats-interval", "60",
            "--events",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "stats: queue=0 inflight=0 submitted=6" in out and "shards=2/2" in out
        assert "6 submitted" in out and "shards 2, restarts 0" in out
        lines = out.splitlines()
        assert sum("] submitted " in line for line in lines) == 6
        assert sum("] finished " in line for line in lines) >= 2  # two unique jobs

    def test_serve_rejects_bad_spec_and_bad_backend(self, capsys):
        assert main(["serve", "gemm:banana", "--no-cache"]) == 2
        capsys.readouterr()
        assert main(["serve", "gemm:8x8x8", "--backend", "nope", "--no-cache"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_serve_rejects_non_positive_repeat(self, capsys):
        assert main(["serve", "gemm:8x8x8", "--repeat", "0", "--no-cache"]) == 2
        assert "--repeat" in capsys.readouterr().err

    def test_serve_rejects_non_positive_workers_and_backlog(self, capsys):
        assert main(["serve", "gemm:8x8x8", "--workers", "0", "--no-cache"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert main(["serve", "gemm:8x8x8", "--backlog", "0", "--no-cache"]) == 2
        capsys.readouterr()


class TestReplay:
    def test_replay_hotkey_regime_summary(self, tmp_path, capsys):
        argv = [
            "replay",
            "--regime",
            "hotkey",
            "--requests",
            "12",
            "--rate",
            "2000",
            "--pool",
            "4",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "regime hotkey:" in out
        assert "replay: regime=hotkey requests=12" in out
        assert "avoided=" in out

    def test_replay_json_report_closes_accounting(self, tmp_path, capsys):
        argv = [
            "replay",
            "--regime",
            "poisson",
            "--requests",
            "8",
            "--rate",
            "2000",
            "--pool",
            "4",
            "--cache-dir",
            str(tmp_path),
            "--json",
        ]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["regime"] == "poisson"
        assert report["submitted"] == 8
        assert report["failed"] == 0
        assert (
            report["coalesced"] + report["cache_hits"] + report["executed"]
            == report["submitted"]
        )

    def test_replay_explicit_specs_replace_the_pool(self, tmp_path, capsys):
        argv = [
            "replay",
            "gemm:8x8x8",
            "gemm:8x8x16",
            "--regime",
            "bursty",
            "--requests",
            "6",
            "--rate",
            "2000",
            "--cache-dir",
            str(tmp_path),
            "--json",
        ]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pool_size"] == 2
        assert report["executed"] <= 2

    def test_replay_record_then_trace_file_round_trip(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        record = [
            "replay",
            "--regime",
            "poisson",
            "--requests",
            "5",
            "--rate",
            "2000",
            "--pool",
            "3",
            "--record",
            str(trace_path),
            "--no-cache",
        ]
        assert main(record) == 0
        out = capsys.readouterr().out
        assert f"recorded 5 events -> {trace_path}" in out
        replay = [
            "replay",
            "--trace-file",
            str(trace_path),
            "--no-cache",
            "--json",
        ]
        assert main(replay) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["regime"] == "trace"
        assert report["submitted"] == 5

    def test_replay_missing_trace_file_rejected(self, tmp_path, capsys):
        argv = ["replay", "--trace-file", str(tmp_path / "none.jsonl"), "--no-cache"]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_rejects_bad_arguments(self, capsys):
        assert main(["replay", "--requests", "0", "--no-cache"]) == 2
        assert "--requests" in capsys.readouterr().err
        assert main(["replay", "--rate", "-1", "--no-cache"]) == 2
        assert "--rate" in capsys.readouterr().err
        assert main(["replay", "--backend", "nope", "--no-cache"]) == 2
        assert "unknown backend" in capsys.readouterr().err
        assert main(["replay", "gemm:banana", "--no-cache"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_seed_defaults_to_fuzz_seed_knob(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FUZZ_SEED", "7")
        argv = [
            "replay",
            "--regime",
            "poisson",
            "--requests",
            "4",
            "--rate",
            "2000",
            "--pool",
            "3",
            "--no-cache",
            "--json",
        ]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["requests"] == 4


class TestCacheCommand:
    def _warm(self, tmp_path):
        assert main(["batch", "gemm:8x8x8", "gemm:8x8x16", "--cache-dir", str(tmp_path)]) == 0

    def test_cache_info(self, tmp_path, capsys):
        self._warm(tmp_path)
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "size_bytes" in out

    def test_cache_prune_by_entries(self, tmp_path, capsys):
        self._warm(tmp_path)
        capsys.readouterr()
        argv = ["cache", "prune", "--cache-dir", str(tmp_path), "--max-entries", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "pruned 1 entries" in out and "1 entries" in out

    def test_cache_prune_requires_a_bound(self, tmp_path, capsys):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert "--max-entries and/or --max-bytes" in capsys.readouterr().err

    def test_cache_clear(self, tmp_path, capsys):
        self._warm(tmp_path)
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 2 entries" in capsys.readouterr().out


class TestServeObservability:
    def test_stats_format_json_emits_parseable_lines(self, capsys):
        import json

        argv = [
            "serve",
            "gemm:8x8x8",
            "--repeat",
            "2",
            "--no-cache",
            "--stats-interval",
            "60",  # only the guaranteed end-of-stream record fires
            "--stats-format",
            "json",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        records = [
            json.loads(line) for line in out.splitlines() if line.startswith("{")
        ]
        assert len(records) >= 1
        final = records[-1]
        assert final["submitted"] == 2
        # Whether the duplicate coalesces depends on whether the first job
        # is still in-flight at the second submit — don't race on it; the
        # accounting must close either way.
        assert final["executed"] + final["coalesced"] == 2
        assert final["executed"] >= 1
        assert final["latency"]["count"] == final["executed"]

    def test_stats_format_text_stays_human(self, capsys):
        argv = [
            "serve",
            "gemm:8x8x8",
            "--no-cache",
            "--stats-interval",
            "60",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "submitted=1" in out
        assert "{" not in out.splitlines()[0]

    def test_serve_metrics_port_scrapeable_while_serving(self, capsys):
        import re
        import urllib.request

        argv = [
            "serve",
            "gemm:8x8x8",
            "--repeat",
            "3",
            "--no-cache",
            "--metrics-port",
            "0",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        match = re.search(r"metrics: (http://127\.0\.0\.1:\d+)/metrics", out)
        assert match, f"no metrics URL announced in: {out!r}"
        # The server is closed with the stream; the port must be released.
        with pytest.raises(Exception):
            urllib.request.urlopen(f"{match.group(1)}/healthz", timeout=1)

    def test_serve_rejects_out_of_range_metrics_port(self, capsys):
        argv = ["serve", "gemm:8x8x8", "--no-cache", "--metrics-port", "99999"]
        assert main(argv) == 2
        assert "--metrics-port" in capsys.readouterr().err

    def test_serve_trace_exports_chrome_json(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        argv = [
            "serve",
            "gemm:8x8x8",
            "--repeat",
            "3",
            "--no-cache",
            "--trace",
            str(trace_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and str(trace_path) in out
        document = json.loads(trace_path.read_text())
        events = document["traceEvents"]
        names = {event["name"] for event in events}
        # submit -> settle of the executed job, plus the coalesced riders.
        assert {"job", "queued", "executing", "coalesced"} <= names
        # Every opened job span settled (a late duplicate may open a
        # second span on the same track after the first one finished).
        job_edges = [e["ph"] for e in events if e["name"] == "job"]
        assert job_edges.count("b") >= 1
        assert job_edges.count("b") == job_edges.count("e")
        # Tracing is torn down with the run: nothing global leaks.
        from repro.obs.trace import get_tracer

        assert get_tracer() is None

    def test_trace_env_knob_enables_tracing(self, tmp_path, capsys, monkeypatch):
        from repro import config

        trace_path = tmp_path / "env-trace.json"
        monkeypatch.setenv("REPRO_TRACE", str(trace_path))
        monkeypatch.setattr(config, "_PINNED", None)
        assert main(["serve", "gemm:8x8x8", "--no-cache"]) == 0
        assert trace_path.exists()


class TestMetricsCommand:
    def test_metrics_once_prints_build_info(self, tmp_path, capsys):
        argv = ["metrics", "--once", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_build_info gauge" in out
        assert "repro_build_info{version=" in out
        assert "repro_result_cache_entries 0" in out

    def test_metrics_once_reflects_cache_contents(self, tmp_path, capsys):
        assert main(["batch", "gemm:8x8x8", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["metrics", "--once", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "repro_result_cache_entries 1" in out

    def test_metrics_once_leaves_the_process_registry_as_it_was(self, tmp_path, capsys):
        """``repro metrics`` renders the cache from a registry of its own, so
        a later exporter over a cached service in the same process declares
        each family once (a second ``# TYPE`` makes the scrape invalid)."""
        import urllib.request

        from repro.obs.http import MetricsServer
        from repro.serve import ServiceClient

        assert main(["metrics", "--once", "--cache-dir", str(tmp_path / "cli")]) == 0
        capsys.readouterr()
        with ServiceClient(cache_dir=tmp_path / "service") as service:
            with MetricsServer(service) as server:
                with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as response:
                    text = response.read().decode("utf-8")
        declared = [line.split()[2] for line in text.splitlines() if line.startswith("# TYPE ")]
        assert {"repro_result_cache_entries", "repro_build_info"} <= set(declared)
        assert sorted(declared) == sorted(set(declared))

    def test_metrics_serves_for_duration(self, tmp_path, capsys):
        import re
        import threading
        import urllib.request

        scraped = {}

        def run():
            scraped["code"] = main(
                [
                    "metrics",
                    "--port",
                    "0",
                    "--duration",
                    "3",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        import time

        deadline = time.monotonic() + 5
        url = None
        while time.monotonic() < deadline and url is None:
            out = capsys.readouterr().out
            match = re.search(r"metrics: (http://127\.0\.0\.1:\d+)/metrics", out)
            if match:
                url = match.group(1)
            else:
                time.sleep(0.05)
        assert url, "metrics URL never announced"
        with urllib.request.urlopen(f"{url}/metrics", timeout=5) as response:
            body = response.read().decode("utf-8")
        assert "repro_build_info" in body
        thread.join(timeout=10)
        assert scraped["code"] == 0

    def test_metrics_rejects_bad_port_and_duration(self, capsys):
        assert main(["metrics", "--port", "-1", "--once"]) == 2
        assert "--port" in capsys.readouterr().err
        assert main(["metrics", "--duration", "0"]) == 2
        assert "--duration" in capsys.readouterr().err


class TestUsageErrors:
    """The exit-code contract: an unusable argument is ``error: …`` on stderr
    and exit 2 — the checks live at the CLI boundary, not wherever deep in
    the run the value first hurts."""

    @pytest.mark.parametrize(
        "named, command",
        [
            ("--jobs", "batch gemm:8x8x8 --jobs -1 --no-cache"),
            ("dimensions", "simulate-gemm 0 16 16"),
            ("kernel", "simulate-conv 8 8 8 8 --kernel 0"),
            ("--population", "explore --population 0 --no-cache"),
            ("--max-entries", "cache prune --max-entries -1"),
            ("--max-bytes", "cache prune --max-bytes -1"),
            ("--workloads-per-group", "experiment fig7 --workloads-per-group 0"),
        ],
    )
    def test_no_argv_reaches_a_traceback(self, named, command, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(command.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["serve gemm:8x8x8", "replay --requests 2"])
    def test_a_backlog_for_a_sharded_service_is_a_usage_error(self, command, capsys):
        """A cluster's parent admits every job, so nothing would enforce the
        bound: ``--backlog`` beside ``--shards`` is refused before a shard starts."""
        argv = [*command.split(), "--shards", "1", "--backlog", "2", "--no-cache"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "--backlog" in err

    @pytest.mark.parametrize(
        "command",
        ["batch gemm:512x512x512", "simulate-gemm 512 512 512", "serve gemm:512x512x512"],
    )
    def test_a_workload_that_does_not_fit_is_a_usage_error(self, command, capsys):
        """Nothing tiles an oversize layer: the allocator's answer is the
        CLI's, as one line naming the workload, the operand and the size."""
        assert main([*command.split(), "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        for named in ("'cli_gemm_512x512x512'", "operand 'D'", "131072 B scratchpad"):
            assert named in err


class TestOneSpecTranslation:
    def test_simulate_and_batch_run_the_same_job(self, tmp_path, capsys):
        """``simulate-conv`` builds its workload through the spec parser, so
        the equivalent ``batch`` spec finds its result in the cache."""
        cache = ["--cache-dir", str(tmp_path)]
        assert main(["simulate-conv", "8", "8", "8", "8", "--padding", "1", *cache]) == 0
        assert "cli_conv_8x8x8_8_k3s1p1" in capsys.readouterr().out
        assert main(["batch", "conv:8x8x8x8:p1", *cache]) == 0
        assert "0 simulated, 1 cache hits" in capsys.readouterr().out


class TestSelftestCleansUp:
    def test_defaulted_cache_dir_is_removed(self, tmp_path, capsys, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["selftest", "--engine", "lockstep"]) == 0
        assert f"(cache: {tmp_path}" in capsys.readouterr().out
        assert list(tmp_path.glob("repro-selftest-*")) == []
