"""Engine benchmark: lockstep vs event-driven vs macro-stepped wall time.

Measures the simulation engines on

* a **bandwidth-bound** kernel — the prefetch-disabled ablation baseline on a
  32-cycle-latency memory, i.e. the configuration where the accelerator pays
  the full memory round trip for every word and most cycles are idle waits
  the next-event scheduler can skip; and
* a **compute-bound** kernel — the default evaluation system running a dense
  64x64x64 GeMM at >99 % utilization.  Nothing is idle here, so the
  next-event scheduler alone cannot help (PR 3 measured ~1.00x); the
  steady-span macro-step fast path must instead bulk-replay whole periodic
  tile groups.  This kernel is timed on three variants: ``lockstep``,
  ``event_nomacro`` (the event engine with macro-stepping disabled — PR 3's
  behaviour) and ``event`` (macro-stepping on, the default);
* a **conv crop** — ResNet-18's 3x3 stride-1 layer cropped as Table III
  crops it, equally dense, but with A and B rotating through their bank
  groups on every tile, so the macro-stepper has to verify them by isolation
  rather than by tiling.  Same three variants, same bar, and the event run
  must report at least one macro jump: conv silently falling back to
  per-cycle stepping fails here.

The bars are ratios between engines that share one per-cycle step path, so
they are stated as "the shortcut must not lose": the event engine must not be
slower than lockstep on either kernel, and macro-stepping must not be slower
than the same engine with it switched off (``event_nomacro``; ``>= 1.5x``
under ``REPRO_STRICT_BENCH=1``), with *identical* cycle counts everywhere.
A bar of "N x lockstep" would punish every speed-up of the step path itself
— lockstep is pure step path, so it gains the most — which is why absolute
speed lives in ``bench/`` (``python3 bench/run.py --workload table3_cnn``)
and not here.  Results (wall-times, simulated cycles/second, ratios) are
still written to ``BENCH_engine.json`` under ``$REPRO_BENCH_OUT``; the
compute-bound entry's ``speedup`` field is the macro-vs-lockstep ratio and
``speedup_vs_event_nomacro`` the macro-on-vs-off ratio.
"""

import dataclasses
import json
import time

import pytest

from repro import __version__
from repro.compiler import compile_workload
from repro.config import get_config
from repro.core.params import FeatureSet
from repro.engine import EventDrivenEngine
from repro.system import AcceleratorSystem, datamaestro_evaluation_system
from repro.workloads import ConvWorkload, GemmWorkload

#: Report file inside the ``bench_out`` directory (see conftest.py).
REPORT = "BENCH_engine.json"

#: Timing repetitions; engines are measured in alternation and the best of N
#: is recorded, so scheduler noise and thermal drift hit both equally.
ROUNDS = 5

#: The event engine must not be slower than the lockstep oracle.
MIN_EVENT_VS_LOCKSTEP = 1.0
#: Macro-stepping on vs off on the compute-bound kernel.  The default bar
#: only forbids a loss, so a timer hiccup on a loaded machine cannot fail a
#: build with no code change; ``REPRO_STRICT_BENCH=1`` (CI) asks for a real
#: win (measured: ~2.5x, see BENCH_engine.json, where the actual ratio is
#: always recorded regardless of the bar).
STRICT_BENCH = get_config().strict_bench
MIN_MACRO_VS_NOMACRO = 1.5 if STRICT_BENCH else 1.0


def _bandwidth_bound():
    design = datamaestro_evaluation_system()
    slow_memory = dataclasses.replace(design.memory, read_latency=32)
    design = dataclasses.replace(design, name="bench_engine_slow_mem", memory=slow_memory)
    features = dataclasses.replace(FeatureSet.all_enabled(), fine_grained_prefetch=False)
    workload = GemmWorkload(name="bench_engine_bw", m=32, n=32, k=128)
    return workload, design, features


def _compute_bound():
    design = datamaestro_evaluation_system()
    workload = GemmWorkload(name="bench_engine_cb", m=64, n=64, k=64)
    return workload, design, FeatureSet.all_enabled()


def _conv_crop():
    design = datamaestro_evaluation_system()
    workload = ConvWorkload(
        name="bench_engine_conv", in_height=14, in_width=14, in_channels=32,
        out_channels=32, kernel_h=3, kernel_w=3, stride=1, padding=1,
    )
    return workload, design, FeatureSet.all_enabled()


def _engine_for(variant):
    if variant == "event_nomacro":
        return EventDrivenEngine(macro_stepping=False)
    return variant


def _timed_run(program, design, variant):
    system = AcceleratorSystem(design)
    engine = _engine_for(variant)
    start = time.perf_counter()
    result = system.run(program, engine=engine)
    elapsed = time.perf_counter() - start
    return elapsed, result.streaming_cycles, system.steady_stats().get("jumps", 0)


def _run_kernel(label, builder, variants):
    """Measure every variant, interleaved round by round; keep the best of N."""
    workload, design, features = builder()
    program = compile_workload(workload, design, features)
    best = {variant: float("inf") for variant in variants}
    cycles = {}
    jumps = {}
    _timed_run(program, design, "event")  # warm-up (imports, allocator)
    for _ in range(ROUNDS):
        for variant in variants:
            elapsed, simulated, jumps[variant] = _timed_run(program, design, variant)
            best[variant] = min(best[variant], elapsed)
            cycles[variant] = simulated
    reference = cycles[variants[0]]
    assert all(count == reference for count in cycles.values()), (
        "engines diverged on cycle count"
    )
    entry = {
        "kernel": workload.name,
        "class": label,
        "simulated_cycles": reference,
        "macro_jumps": jumps["event"],
    }
    for variant in variants:
        entry[variant] = {
            "seconds": best[variant],
            "cycles": cycles[variant],
            "cycles_per_second": cycles[variant] / best[variant],
        }
    entry["speedup"] = best["lockstep"] / best["event"]
    if "event_nomacro" in variants:
        entry["speedup_vs_event_nomacro"] = best["event_nomacro"] / best["event"]
    return entry


@pytest.fixture(scope="module")
def bench_results(bench_out):
    results = {
        "package_version": __version__,
        "rounds": ROUNDS,
        "bandwidth_bound": _run_kernel(
            "bandwidth_bound", _bandwidth_bound, ("lockstep", "event")
        ),
        "compute_bound": _run_kernel(
            "compute_bound",
            _compute_bound,
            ("lockstep", "event_nomacro", "event"),
        ),
        "conv_crop": _run_kernel(
            "conv_crop", _conv_crop, ("lockstep", "event_nomacro", "event")
        ),
    }
    (bench_out / REPORT).write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return results


def test_bandwidth_bound_speedup(bench_results):
    """Skipping idle spans must not cost more than stepping them."""
    entry = bench_results["bandwidth_bound"]
    assert entry["speedup"] >= MIN_EVENT_VS_LOCKSTEP, (
        f"event engine {entry['speedup']:.2f}x lockstep on the "
        f"bandwidth-bound kernel (required: {MIN_EVENT_VS_LOCKSTEP}x)"
    )


def _assert_macro_wins(entry):
    kernel = entry["class"]
    assert entry["macro_jumps"] >= 1, f"macro path never engaged on {kernel}"
    ratio = entry["speedup_vs_event_nomacro"]
    assert ratio >= MIN_MACRO_VS_NOMACRO, (
        f"macro-stepped event engine {ratio:.2f}x the plain event engine "
        f"on the {kernel} kernel (required: {MIN_MACRO_VS_NOMACRO}x)"
    )


def test_compute_bound_macro_speedup(bench_results):
    """Macro-stepping on must engage, and not be slower than off."""
    _assert_macro_wins(bench_results["compute_bound"])


def test_conv_crop_macro_speedup(bench_results):
    """The same bar where the operand streams rotate (verified by isolation)."""
    _assert_macro_wins(bench_results["conv_crop"])


def test_compute_bound_beats_lockstep(bench_results):
    """Nor may the default engine lose to the oracle on dense kernels."""
    entry = bench_results["compute_bound"]
    assert entry["speedup"] >= MIN_EVENT_VS_LOCKSTEP, (
        f"event engine {entry['speedup']:.2f}x lockstep on the "
        f"compute-bound kernel (required: {MIN_EVENT_VS_LOCKSTEP}x)"
    )


def test_bench_report_written(bench_results, bench_out):
    data = json.loads((bench_out / REPORT).read_text(encoding="utf-8"))
    assert data["bandwidth_bound"]["speedup"] == bench_results["bandwidth_bound"]["speedup"]
    assert data["compute_bound"]["simulated_cycles"] > 0
    assert "event_nomacro" in data["compute_bound"]
