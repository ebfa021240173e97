"""Tier-1 checks of the benchmark harness itself, at tiny sizes (< 10 s)."""

import json
import sys
import threading
import time
from concurrent.futures import Future

import pytest

from bench import compare, harness, layers, run
from bench.workloads import (
    WORKLOADS,
    ClusterUnique,
    PassResult,
    ServeHotkey,
    Table3Transformer,
)
from repro.workloads import GemmWorkload

SPEC = json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class TinyTransformer(Table3Transformer):
    networks = ("BERT-Base",)
    crop_limits = {"max_gemm_m": 16, "max_gemm_n": 16, "max_gemm_k": 32}


class TinyServe(ServeHotkey):
    requests = 80
    pool_size = 16
    sequential = 30


class TinyCluster(ClusterUnique):
    kernels = (
        GemmWorkload(name="tiny_gemm", m=16, n=16, k=16),
        GemmWorkload(name="tiny_tgemm", m=16, n=16, k=16, transposed_a=True),
    )
    batch_per_bucket = 2
    sequential_per_bucket = 1


def ready(cls, seed, directory):
    workload = cls(seed, directory)
    workload.setup()
    return workload


# ----------------------------------------------------------------------
# BENCHMARK.json against the code.
# ----------------------------------------------------------------------
def test_names_follow_the_benchmark_json_rule():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert harness.NAME_RE.match(name), name
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert set(run.PINNED) == set(WORKLOADS)
    assert any(entry["name"] == "setup_s" for entry in SPEC["end_to_end"])
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])


def test_result_schema_of_a_tiny_sim_workload(tmp_path):
    workload = ready(TinyTransformer, 3, tmp_path)
    passes = [workload.run_pass(index) for index in range(3)]
    assert all(result.failed == 0 and result.attempted == 7 for result in passes)
    metrics = run.end_to_end(workload, passes, [(0.5, 1.0), (0.4, 2.0), (0.6, 2.0)], 64.0)
    assert set(metrics) == {entry["name"] for entry in SPEC["end_to_end"]}
    for summary in metrics.values():
        assert {"value", "raw", "median", "min", "max", "iqr", "n", "values"} <= set(summary)
        assert summary["value"] > 0
    assert (metrics["setup_s"]["value"], metrics["setup_s"]["raw"]) == (0.3, 0.5)
    assert metrics["jobs_per_s"]["value"] != metrics["jobs_per_s"]["raw"]  # host-speed corrected
    assert passes[0].notes["table3_util_err_pp"] == passes[2].notes["table3_util_err_pp"]

    measured, result, events = workload.layers(harness.SpanRecorder())
    assert result.failed == 0
    assert set(measured) <= {entry["name"] for entry in SPEC["per_layer"]}
    assert measured["obs.self_time_coverage"] >= 0.9
    assert measured["engine.share"] > 0.5
    assert events and all("ph" in event for event in events)


def test_digest_is_stable_across_runs_and_seeds(tmp_path):
    digests = []
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        directory = tmp_path / label
        directory.mkdir()
        rows = ready(TinyTransformer, seed, directory).run_pass(0).rows
        digests.append(harness.stats_digest(rows))
    assert digests[0] == digests[1] == digests[2]
    changed = {(key, cycles + 1, a, c) for key, cycles, a, c in rows}
    assert harness.stats_digest(changed) != digests[0]


def test_serve_pass_counts_every_request_and_checks_its_counters(tmp_path):
    workload = ready(TinyServe, 1, tmp_path)
    result = workload.run_pass(0)
    assert result.failed == 0
    assert result.attempted == 80 + 30 + 2  # requests + hits + two invariants
    assert result.notes["serve.executed"] == len(workload.jobs)
    assert len(result.latencies_ms) == 30
    # The same distinct set whatever the seed: only order and operands move.
    other = ready(TinyServe, 2, tmp_path)
    assert set(other.jobs) == set(workload.jobs)
    assert other.batch != workload.batch


def test_cluster_jobs_are_unique_and_balanced_across_shards(tmp_path):
    workload = ready(TinyCluster, 4, tmp_path)
    hashes = [job.job_hash() for job in workload.batch + workload.sequential]
    assert len(set(hashes)) == len(hashes) == 12
    sizes = [len(group) for group in workload_router(workload).values()]
    assert sizes == [4, 4]
    result = workload.run_pass(0)
    assert result.failed == 0 and result.jobs == 8
    assert result.notes["cluster.restarts"] == 0


def workload_router(workload):
    from repro.cluster import ShardRouter

    return ShardRouter(workload.shards).partition(job.job_hash() for job in workload.batch)


# ----------------------------------------------------------------------
# Measurement primitives.
# ----------------------------------------------------------------------
def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond():
    assert harness.percentile(range(1, 1001), 99) == 990
    assert harness.percentile(range(20), 50) == 9
    with pytest.raises(ValueError, match="beyond"):
        harness.percentile(range(999), 99)
    with pytest.raises(ValueError, match="beyond"):
        harness.percentile(range(19), 50)


def test_summary_reports_spread_and_sample_count():
    summary = harness.summarize([4.0, 1.0, 3.0, 2.0])
    assert (summary["median"], summary["min"], summary["max"], summary["n"]) == (2.5, 1.0, 4.0, 4)
    assert summary["iqr"] == pytest.approx(1.5)  # inclusive quartiles 1.75 and 3.25
    assert harness.summarize([7.0])["iqr"] == 0.0


def test_host_speed_correction_divides_by_the_measured_slowdown(monkeypatch):
    speed = harness.HostSpeed()
    durations = iter([0.06, 0.10])  # reference kernel: 1.5x, then 2.5x slow
    monkeypatch.setattr(
        speed, "probe", lambda: speed.probes.append(next(durations)) or speed.probes[-1]
    )
    result, seconds, factor = speed.timed(lambda value: value * 2, 21)
    assert result == 42 and seconds >= 0
    assert factor == pytest.approx((0.06 + 0.10) / 2 / harness.REFERENCE_KERNEL_S)


def test_latencies_are_corrected_sample_by_sample():
    result = PassResult()
    result.add_latency(0.002, 2.0)
    result.add_latency(0.003, 1.0)
    assert result.raw_latencies_ms == pytest.approx([2.0, 3.0])
    assert result.latencies_ms == pytest.approx([1.0, 3.0])


def test_reference_lookup_reports_a_positive_factor(tmp_path):
    lookup = harness.ReferenceLookup(tmp_path / "reference")
    assert all(lookup.factor() > 0 for _ in range(100))


def test_timed_process_waits_for_the_exit_and_refuses_a_failure():
    assert 0 < harness.timed_process([sys.executable, "-c", "pass"], 30.0) < 30.0
    with pytest.raises(RuntimeError, match="status 3"):
        harness.timed_process([sys.executable, "-c", "raise SystemExit(3)"], 30.0)
    with pytest.raises(TimeoutError):
        harness.timed_process([sys.executable, "-c", "import time; time.sleep(5)"], 0.2)


def test_bounded_turns_a_hang_into_a_timeout():
    assert harness.bounded(lambda value: value + 1, 1.0, 2) == 3
    with pytest.raises(TimeoutError):
        harness.bounded(threading.Event().wait, 0.05)
    with pytest.raises(KeyError):
        harness.bounded({}.__getitem__, 1.0, "missing")


def test_self_time_is_the_span_minus_its_children():
    recorder = harness.SpanRecorder()
    with recorder.span("outer", "job"):
        time.sleep(0.02)
        with recorder.span("inner", "job"):
            time.sleep(0.03)
    totals, own = recorder.totals(), recorder.self_times()
    assert own["inner"] == totals["inner"]
    assert own["outer"] == pytest.approx(totals["outer"] - totals["inner"])
    assert [event["args"]["parent"] for event in recorder.chrome_events()] == [-1, 0]


class SlowService:
    """Stands in for a service whose ``submit`` blocks the generator."""

    def __init__(self, submit_s):
        self.submit_s = submit_s

    def submit(self, job):
        time.sleep(self.submit_s)
        future = Future()
        future.set_result(job)
        return Ticket(future)


class Ticket:
    def __init__(self, future):
        self.future = future

    def add_done_callback(self, callback):
        self.future.add_done_callback(lambda _future: callback(self))

    def result(self, timeout=None):
        return self.future.result(timeout)


def test_open_loop_times_from_the_due_time_and_reports_lateness():
    due = [0.002 * index for index in range(10)]
    latencies, lateness, failed = harness.run_open_loop(SlowService(0.02), list(range(10)), due, 5.0)
    assert failed == 0 and len(latencies) == len(lateness) == 10
    # Each submit takes 20 ms but requests are due every 2 ms: the generator
    # falls behind, and that wait counts into the later requests' latency.
    assert lateness[-1] > 100.0 > lateness[0]
    assert all(a >= b for a, b in zip(latencies, lateness))
    on_time, late, _ = harness.run_open_loop(SlowService(0.0), [0, 1], [0.0, 0.05], 5.0)
    assert max(late) < 45.0 and max(on_time) < 45.0


# ----------------------------------------------------------------------
# compare.py verdicts.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "base, change, better, expected",
    [
        ([100, 101, 99], [100, 100, 101], "higher", "unchanged"),
        ([100, 101, 99], [80, 81, 79], "higher", "regressed"),
        ([100, 101, 99], [120, 121, 119], "higher", "improved"),
        ([100, 101, 99], [120, 121, 119], "lower", "regressed"),
        ([100, 140, 60], [101, 139, 61], "higher", "unresolved"),  # spread > bound
        ([100, 140, 60], [80, 120, 40], "higher", "unresolved"),  # worse, but overlapping
        ([100, 140, 60], [30, 20, 10], "higher", "regressed"),  # worse and disjoint
        ([5.0], [5.0], "lower", "unchanged"),
    ],
)
def test_verdict_of_one_pair(base, change, better, expected):
    assert compare.judge(base, change, better, 0.1) == expected


def test_verdict_of_many_pairs_needs_nine_wins_in_ten():
    base = [100 + index for index in range(10)]
    assert compare.judge(base, [value - 20 for value in base], "lower", 0.1, paired=True) == "improved"
    mixed = [value - 20 for value in base[:8]] + [value + 1 for value in base[8:]]
    assert compare.judge(base, mixed, "lower", 0.1, paired=True) != "improved"
    assert compare.judge(base, [value - 1 for value in base], "lower", 0.1, paired=True) == "unchanged"


def test_compare_flags_a_changed_digest(tmp_path):
    def document(digest, rate):
        metrics = {
            entry["name"]: {"value": rate, "values": [rate, rate]} for entry in SPEC["end_to_end"]
        }
        record = {"metrics": metrics, "stats_digest": digest}
        return {"workloads": {"table3_cnn": {"end_to_end": record}}}

    paths = []
    for name, digest in (("a", "x"), ("b", "x"), ("c", "y")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document(digest, 10.0)))
        paths.append(str(path))
    rows, agree = compare.compare(paths[:2], SPEC)
    assert agree and len(rows) == 2 + len(SPEC["end_to_end"])
    rows, agree = compare.compare([paths[0], paths[2]], SPEC)
    assert not agree and "DIFFERS" in rows[-1]


def test_decomposition_matches_the_facade():
    from repro.runtime import SimJob

    jobs = [SimJob(workload=GemmWorkload(name=f"tiny_{k}", m=16, n=16, k=k), seed=2) for k in (16, 32)]
    split = layers.decompose(harness.SpanRecorder(), jobs)
    assert split.mismatched == 0 and len(split.outcomes) == 2
    assert all(outcome.functional_match is True for outcome in split.outcomes)
    assert 0.9 <= split.metrics["obs.self_time_coverage"] <= 1.0
    tampered = split.outcomes[0]
    tampered.kernel_cycles += 1
    assert not layers.same_outcome(tampered, split.outcomes[1])
