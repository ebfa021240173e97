"""Run the benchmark: ``python3 bench/run.py`` (or ``python -m bench.run``).

With ``--workload NAME --trace 0|1`` this process makes one run of one
workload — timed passes with tracing off, or the traced pass — prints every
metric by name with its unit and ends with one JSON line
(``correct``/``attempted``/``failed``/``metrics``); that is the form
``BENCHMARK.json`` names.  Without one of the two it runs each selected
workload in a fresh process per mode, tracing off first, and ``--out FILE``
collects everything (provenance, per-pass values, spread) into one file with
``trace-<workload>.json`` beside it.  Exit status is non-zero when any
operation failed or a pinned statistics digest did not match.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from bench import harness, layers  # noqa: E402 — needs the path set up above
from bench.workloads import WORKLOADS, PassResult, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PINNED = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))

#: Fresh-process set-ups timed per run; the median is ``setup_s``.
SETUP_PROBES = 5
#: All caches, journals and scratch files of a run live under here.
SCRATCH = ROOT / ".bench_tmp"


def scratch_dir(label: str) -> Path:
    directory = SCRATCH / f"{label}-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=False)
    return directory


def drop_scratch(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another run's directory is still in there


def child_command(workload: str, seed: int) -> List[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed)]


# ----------------------------------------------------------------------
# One run of one workload.
# ----------------------------------------------------------------------
def probe_setup(workload: str, seed: int) -> float:
    """Seconds a fresh process needs until its first timed call could start."""
    started = time.perf_counter()
    process = subprocess.Popen(
        child_command(workload, seed) + ["--setup-only"], stdout=subprocess.PIPE, text=True
    )
    try:
        line = harness.bounded(process.stdout.readline, 120.0)
        elapsed = time.perf_counter() - started
        if line.strip() != "ready" or process.wait(timeout=60.0) != 0:
            raise RuntimeError(f"set-up probe of {workload} failed")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    return elapsed


def probe_setups(workload: str, seed: int) -> List[Tuple[float, float]]:
    """``(raw seconds, speed factor)`` of each of the run's set-up probes, a
    reference start before and after every one."""
    probes = []
    before = harness.reference_start()
    for _ in range(SETUP_PROBES):
        seconds = probe_setup(workload, seed)
        after = harness.reference_start()
        probes.append((seconds, (before + after) / 2.0 / harness.REFERENCE_START_S))
        before = after
    return probes


def timed_passes(workload: Workload, seconds: float) -> List[PassResult]:
    """Whole passes, at least two, for as long as another one fits."""
    passes: List[PassResult] = []
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass(len(passes)))
        elapsed = time.perf_counter() - started
        if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def end_to_end(
    workload: Workload,
    passes: List[PassResult],
    setup: List[Tuple[float, float]],
    rss: float,
) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics: ``value`` is the median of the per-pass (or
    per-probe) samples; ``raw`` is the same figure before the host-speed
    correction.  ``setup`` holds the seconds of each fresh-process set-up and
    the speed factor the reference starts around it gave.
    """
    tail = workload.tail_percentile
    pooled = [ms for result in passes for ms in result.latencies_ms]
    # A percentile is reported only where the pooled samples leave ten beyond
    # it; these raise otherwise.
    harness.percentile(pooled, 50)
    harness.percentile(pooled, tail)

    def rank(pct: float, raw: bool) -> List[float]:
        return [
            harness.nearest_rank(
                sorted(result.raw_latencies_ms if raw else result.latencies_ms), pct
            )
            for result in passes
        ]

    corrected = {
        "setup_s": [seconds / factor for seconds, factor in setup],
        "sim_cycles_per_s": [result.cycles / result.wall_s for result in passes],
        "jobs_per_s": [result.jobs / result.wall_s for result in passes],
        "latency_p50_ms": rank(50, raw=False),
        "latency_tail_ms": rank(tail, raw=False),
        "peak_rss_mb": [rss],
    }
    raw = {
        "setup_s": [seconds for seconds, _factor in setup],
        "sim_cycles_per_s": [result.cycles / result.raw_wall_s for result in passes],
        "jobs_per_s": [result.jobs / result.raw_wall_s for result in passes],
        "latency_p50_ms": rank(50, raw=True),
        "latency_tail_ms": rank(tail, raw=True),
        "peak_rss_mb": [rss],
    }
    metrics = {}
    for name, values in corrected.items():
        metrics[name] = harness.summarize(values)
        metrics[name]["value"] = metrics[name]["median"]
        metrics[name]["raw"] = statistics.median(raw[name])
    metrics["latency_tail_ms"]["percentile"] = tail
    metrics["latency_tail_ms"]["samples"] = len(pooled)
    return metrics


def verdict(name: str, results: List[PassResult]) -> Dict[str, object]:
    """Failure counts and the pinned-digest check over some passes."""
    rows = set().union(*(result.rows for result in results))
    digest = harness.stats_digest(rows)
    attempted = sum(result.attempted for result in results) + 1
    failed = sum(result.failed for result in results)
    if digest != PINNED[name]:
        failed += 1
        print(
            f"bench: {name}: simulated statistics digest {digest} "
            f"differs from the pinned {PINNED[name]}",
            file=sys.stderr,
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "stats_digest": digest,
    }


def traced_run(workload: Workload, out: Optional[str]) -> Dict[str, object]:
    """The traced pass and the per-layer measurements of one workload."""
    recorder = harness.SpanRecorder()
    measured, result, program_events = workload.layers(recorder)
    record = verdict(workload.name, [result])
    measured["cli.import_ms"] = layers.cli_import_ms()
    measured["failed_share"] = record["failed_share"]
    unknown = set(measured) - {spec["name"] for spec in SPEC["per_layer"]}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # One metric list serves all workloads: a layer this one never enters
    # did no work, and reports 0.
    record["metrics"] = {
        spec["name"]: {"value": measured.get(spec["name"], 0), "unit": spec["unit"]}
        for spec in SPEC["per_layer"]
    }
    if out:
        recorder.export(Path(out).with_name(f"trace-{workload.name}.json"), program_events)
    return record


def timed_run(workload: Workload, seed: int, seconds: float) -> Dict[str, object]:
    """The untraced passes and the end-to-end metrics of one workload."""
    passes = timed_passes(workload, seconds)
    # Before the set-up probes: they are children too, and would count.
    rss = harness.peak_rss_mb()
    record = verdict(workload.name, passes)
    record["passes"] = len(passes)
    record["notes"] = passes[-1].notes
    record["metrics"] = end_to_end(workload, passes, probe_setups(workload.name, seed), rss)
    for spec in SPEC["end_to_end"]:
        record["metrics"][spec["name"]]["unit"] = spec["unit"]
    return record


def run_one(args: argparse.Namespace) -> int:
    """One run: one workload, one mode, this process."""
    name = args.workload
    directory = scratch_dir(name)
    try:
        workload = WORKLOADS[name](args.seed, directory)
        workload.setup()
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            record = traced_run(workload, args.out)
        else:
            record = timed_run(workload, args.seed, args.seconds)
    finally:
        drop_scratch(directory)

    for metric, entry in record["metrics"].items():
        detail = ""
        if "n" in entry:
            detail = "  (raw {raw:.6g}; n={n} min={min:.6g} max={max:.6g} iqr={iqr:.3g})".format(**entry)
        print(f"{name:<20} {metric:<34} {entry['value']:>16.6f} {entry['unit']:<6}{detail}")
    print(
        f"{name:<20} failed {record['failed']} of {record['attempted']} operations; "
        f"stats_digest {record['stats_digest']}"
    )
    if args.out:
        section = "per_layer" if args.trace else "end_to_end"
        document = {
            "schema": 1,
            "provenance": harness.provenance(args.seed),
            "workloads": {name: {"why": workload.why, section: record}},
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    metric: {"value": entry["value"], "unit": entry["unit"]}
                    for metric, entry in record["metrics"].items()
                },
            }
        )
    )
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# Every selected workload, each mode in a process of its own.
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    directory = scratch_dir("all")
    document: Dict[str, object] = {"schema": 1, "workloads": {name: {} for name in names}}
    failed = False
    try:
        for name in names:
            for mode in modes:
                part = directory / f"{name}-{mode}.json"
                command = child_command(name, args.seed) + [
                    "--seconds", str(args.seconds), "--trace", str(mode), "--out", str(part),
                ]
                child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
                # The child's last line is the driver's JSON; the rest is for people.
                print("\n".join(child.stdout.splitlines()[:-1]), flush=True)
                failed |= child.returncode != 0
                if part.exists():
                    loaded = json.loads(part.read_text(encoding="utf-8"))
                    document["provenance"] = loaded["provenance"]
                    document["workloads"][name].update(loaded["workloads"][name])
        if args.out:
            out = Path(args.out)
            out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
            for trace in directory.glob("trace-*.json"):
                shutil.move(str(trace), str(out.with_name(trace.name)))
    finally:
        drop_scratch(directory)
    print("benchmark:", "FAILED (see the messages above)" if failed else "ok")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=SPEC["run_seconds"],
        help="time the untraced passes of one run may take (at least two are made)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="write the full result (and trace files beside it) here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload and (args.trace is not None or args.setup_only):
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
