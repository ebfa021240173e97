"""The step path's oracle: a reference that is not the step path itself.

Lockstep, event and macro all call the same ``AcceleratorSystem.step``, so
the parity suite cannot see an error all three share, and
``credit_stall_cycles`` reaches neither ``SimulationResult`` nor the parity
suite's deep-state check.  ``fixtures/step_stats.json`` was written by the
commit *before* the step path was reworked around parked streamers and the
one-record word (regenerate with ``python tests/system/test_step_identity.py``;
only ever do that on purpose — a moved digest is a behaviour change).

It covers four sets, each under ``engine="event"`` and ``engine="lockstep"``:

* ``fig7_ladder`` — the 27 jobs of the benchmark of that name (ladder steps
  1, 2 and 6 × three workloads per group);
* ``resnet18`` — the 12 ResNet-18 crops of ``table3_cnn``;
* ``generated`` — 40 seeded generator workloads × features all on / all off;
* ``transformer`` — the 15 ViT-B/16 and BERT-Base crops of
  ``table3_transformer`` (GeMMs with ``k`` up to 512, whose long steady runs
  the macro-stepper replays as chained jumps), added with their entries
  written by the commit before span replay moved to slice assignments.

A fifth set, ``designs``, leaves the default design: it was written by the
commit before the address FIFO became two counters and the crossbar started
filling the data FIFOs, from FIFO depths down to 1, a 5-cycle memory and a
32-bank scratchpad — 10 seeded generator workloads × the six ablation steps
under ``event``, steps 1 and 6 also under ``lockstep``.

Per run the fixture holds the 32-bit heads of one sha256 per field below, in
order, so a mismatch names the run and the field.  Lockstep steps every cycle
(≈ 6k cycles/s): its ``fig7_ladder``, ``resnet18`` and ``transformer`` sets
run under ``REPRO_FULL_SUITE`` only.

``fixtures/steady_stats.json`` pins the macro-stepper's decisions the same
way: per ``event`` run of every set, the 64-bit head of one sha256 of
``system.steady_stats()`` — boundaries, attempts, jumps, periods, skipped
cycles, how each stream was verified, every bail by reason and what bound
each ``too_short`` bail.  A change to how a span is verified or replayed
that claims the same decisions holds this file unchanged; it was last
written by the commit that let a span run past a stream's last generated
bundle (bounded by the issues the stream has left) and added
``short_bounds``.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.network_perf import representative_crop
from repro.compiler import compile_workload
from repro.config import get_config
from repro.core import FeatureSet
from repro.core.params import ablation_feature_sets
from repro.system import AcceleratorSystem, datamaestro_evaluation_system
from repro.workloads import (
    WorkloadGenerator,
    benchmark_networks,
    stratified_subset,
    synthetic_suite,
)

FIXTURE = Path(__file__).parent / "fixtures" / "step_stats.json"
STEADY_FIXTURE = FIXTURE.with_name("steady_stats.json")
DESIGN = datamaestro_evaluation_system()
ENGINES = ("event", "lockstep")
FIELDS = (
    "cycles",
    "channels",
    "streamers",
    "accelerators",
    "memory_counters",
    "ports",
    "banks",
    "last_grant",
    "outputs",
)
HEAD = 8  # hex characters kept per field
#: Lockstep over these sets is the slow half; tier-1 keeps the generated one.
FULL_SUITE_ONLY = {
    ("fig7_ladder", "lockstep"),
    ("resnet18", "lockstep"),
    ("transformer", "lockstep"),
}
#: The networks of the ``transformer`` set, and their crops' GeMM depth cap.
TRANSFORMERS = ("ViT-B-16", "BERT-Base")
TRANSFORMER_CROP_LIMITS = {"max_gemm_k": 512}
#: (data, address) FIFO depths of the ``designs`` set, applied to all five ports.
FIFO_DEPTHS = ((1, 1), (1, 2), (2, 2), (2, 8), (4, 3), (8, 1))
#: The ablation steps the ``designs`` set also runs under lockstep.
DESIGNS_LOCKSTEP_STEPS = ("1_baseline", "6_full")


def run_sets():
    """Set name -> [(run key, workload, features)], in a fixed order."""
    ladder = ablation_feature_sets()
    networks = benchmark_networks()
    crops = {}
    for workload in networks["ResNet-18"].unique_workloads():
        crop = representative_crop(workload)
        crops.setdefault(crop.name, crop)
    transformer_crops = {}
    for network in TRANSFORMERS:
        for workload in networks[network].unique_workloads():
            crop = representative_crop(workload, **TRANSFORMER_CROP_LIMITS)
            transformer_crops.setdefault(crop.name, crop)
    switches = (("on", FeatureSet.all_enabled()), ("off", FeatureSet.all_disabled()))
    return {
        "fig7_ladder": [
            (f"{step}/{workload.name}", workload, ladder[step])
            for workloads in synthetic_suite().values()
            for workload in stratified_subset(list(workloads), 3)
            for step in ("1_baseline", "2_prefetch", "6_full")
        ],
        "resnet18": [
            (name, crop, FeatureSet.all_enabled()) for name, crop in crops.items()
        ],
        "generated": [
            (f"{workload.name}|{label}", workload, features)
            for workload in WorkloadGenerator(seed=2026).workload_pool(40)
            for label, features in switches
        ],
        "transformer": [
            (name, crop, FeatureSet.all_enabled())
            for name, crop in transformer_crops.items()
        ],
    }


def designs():
    """Label -> design, for the ``designs`` set."""

    def with_depths(design, data, address):
        streamers = tuple(
            replace(s, data_buffer_depth=data, address_buffer_depth=address)
            for s in design.streamers
        )
        return replace(design, streamers=streamers)

    by_label = {
        f"d{data}a{address}": with_depths(DESIGN, data, address)
        for data, address in FIFO_DEPTHS
    }
    slow = by_label["d1a1"]
    by_label["d1a1_lat5"] = replace(slow, memory=replace(slow.memory, read_latency=5))
    by_label["banks32"] = datamaestro_evaluation_system(num_banks=32, gima_group_size=8)
    return by_label


def design_runs(engine):
    """[(run key, workload, features, design)] of the ``designs`` set."""
    ladder = ablation_feature_sets()
    steps = list(ladder) if engine == "event" else DESIGNS_LOCKSTEP_STEPS
    workloads = WorkloadGenerator(seed=777).workload_pool(10)
    return [
        (f"{label}/{step}/{workload.name}", workload, ladder[step], design)
        for label, design in designs().items()
        for workload in workloads
        for step in steps
    ]


def field_values(system, result):
    """Everything a stepped cycle counts or moves, field by field (see FIELDS)."""
    memory = system.memory
    streamers = [system.streamers[port] for port in result.metadata["active_ports"]]
    return (
        (result.kernel_cycles, result.streaming_cycles),
        [sorted(s.channel_statistics().items()) for s in streamers],
        [(port, stats.as_dict()) for port, stats in result.streamer_stats.items()],
        (
            system.gemm_core.mac_cycles,
            system.gemm_core.stall_cycles,
            system.quantizer.stall_cycles,
            system.quantizer.tiles_processed,
        ),
        # The memory's counters as step_stats.json recorded them: under
        # these names, and with the zero ones left out.
        sorted(
            (name, value)
            for name, value in (
                ("bank_conflicts", memory.total_conflicts),
                ("word_reads", memory.total_reads),
                ("word_writes", memory.total_writes),
                ("dma_word_reads", memory.dma_reads),
                ("dma_word_writes", memory.dma_writes),
            )
            if value
        ),
        [(name, memory.requester_stats(name)) for name in memory._requesters],
        [(bank.read_count, bank.write_count) for bank in memory.scratchpad.banks],
        sorted(memory._last_grant.items()),
        [(name, value.tobytes()) for name, value in sorted(result.outputs.items())],
    )


def run_digest(workload, features, engine, design=DESIGN):
    """The run's field heads, concatenated, and the head of its
    ``steady_stats()`` digest (the planner's decisions)."""
    program = compile_workload(workload, design, features)
    system = AcceleratorSystem(design)
    result = system.run(program, engine=engine)
    heads = "".join(
        hashlib.sha256(repr(value).encode()).hexdigest()[:HEAD]
        for value in field_values(system, result)
    )
    steady = json.dumps(system.steady_stats(), sort_keys=True)
    return heads, hashlib.sha256(steady.encode()).hexdigest()[: 2 * HEAD]


def cases():
    return [
        pytest.param(
            name,
            engine,
            marks=pytest.mark.skipif(
                (name, engine) in FULL_SUITE_ONLY and not get_config().full_suite,
                reason="lockstep over the large sets runs under REPRO_FULL_SUITE=1",
            ),
        )
        for name in ("fig7_ladder", "resnet18", "generated", "transformer")
        for engine in ENGINES
    ]


def assert_run_matches(digest, golden, steady, where):
    """A run's field heads against ``golden``; under ``event`` (``steady`` is
    its pinned planner digest) its planner decisions too."""
    heads, decisions = digest
    for index, field in enumerate(FIELDS):
        span = slice(index * HEAD, (index + 1) * HEAD)
        assert heads[span] == golden[span], f"{where} differs in field {field!r}"
    if steady is not None:
        assert decisions == steady, f"{where}: the planner's decisions moved"


def steady_golden(name, engine):
    """Run key -> pinned planner digest; empty under lockstep (no planner)."""
    if engine != "event":
        return {}
    steady = json.loads(STEADY_FIXTURE.read_text())[name]
    assert list(steady) == list(json.loads(FIXTURE.read_text())[name][engine])
    return steady


@pytest.mark.parametrize("name, engine", cases())
def test_every_stepped_statistic_matches_the_fixture(name, engine):
    golden = json.loads(FIXTURE.read_text())[name][engine]
    steady = steady_golden(name, engine)
    entries = run_sets()[name]
    assert [key for key, _, _ in entries] == list(golden), f"{name}: run list moved"
    for key, workload, features in entries:
        digest = run_digest(workload, features, engine)
        where = f"{name}/{engine}: run {key!r}"
        assert_run_matches(digest, golden[key], steady.get(key), where)


@pytest.mark.parametrize("engine", ENGINES)
def test_every_stepped_statistic_matches_the_fixture_across_designs(engine):
    golden = json.loads(FIXTURE.read_text())["designs"][engine]
    steady = steady_golden("designs", engine)
    entries = design_runs(engine)
    assert [key for key, *_ in entries] == list(golden), "designs: run list moved"
    for key, workload, features, design in entries:
        digest = run_digest(workload, features, engine, design)
        where = f"designs/{engine}: run {key!r}"
        assert_run_matches(digest, golden[key], steady.get(key), where)


def test_both_engines_pin_the_same_statistics():
    """Event and lockstep agree on every field, so the fixture says it twice."""
    golden = json.loads(FIXTURE.read_text())
    across = golden.pop("designs")
    assert sum(len(runs) for by_engine in golden.values() for runs in by_engine.values()) == 268
    for name, by_engine in golden.items():
        assert by_engine["event"] == by_engine["lockstep"], name
    assert len(across["event"]) + len(across["lockstep"]) == 640
    for key, heads in across["lockstep"].items():
        assert across["event"][key] == heads, key


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    runs = {
        name: {
            engine: {
                key: run_digest(workload, features, engine)
                for key, workload, features in entries
            }
            for engine in ENGINES
        }
        for name, entries in run_sets().items()
    }
    runs["designs"] = {
        engine: {
            key: run_digest(workload, features, engine, design)
            for key, workload, features, design in design_runs(engine)
        }
        for engine in ENGINES
    }
    golden = {
        name: {
            engine: {key: heads for key, (heads, _) in by_key.items()}
            for engine, by_key in by_engine.items()
        }
        for name, by_engine in runs.items()
    }
    steady = {
        name: {key: decisions for key, (_, decisions) in by_engine["event"].items()}
        for name, by_engine in runs.items()
    }
    FIXTURE.write_text(json.dumps(golden, indent=0) + "\n")
    STEADY_FIXTURE.write_text(json.dumps(steady, indent=0) + "\n")
    print(f"wrote {sum(len(r) for s in golden.values() for r in s.values())} digests to {FIXTURE}")
    print(f"wrote {sum(len(r) for r in steady.values())} digests to {STEADY_FIXTURE}")
