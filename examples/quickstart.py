#!/usr/bin/env python3
"""Quickstart: stream data with a single DataMaestro, then run a full kernel.

Part 1 uses one read-mode DataMaestro standalone: it programs the N-D affine
AGU, streams a small tensor out of a multi-banked scratchpad and shows the
wide words the accelerator would receive.

Part 2 uses the complete evaluation system of the paper (five DataMaestros +
GeMM core + quantizer) through the ``repro.runtime`` simulation service: it
declares a 16x16x16 GeMM as a :class:`SimJob`, lets the :class:`Simulator`
compile/run/verify it, and prints the utilization and memory-access
statistics from the uniform :class:`SimOutcome`.

Part 2 also demonstrates engine selection (docs/ENGINE.md): the same job is
re-run on the legacy ``lockstep`` loop and compared against the default
event-driven scheduler — identical cycles, distinct cache identities.

Part 3 goes one step further: it hands the same runtime to the
``repro.explore`` design-space exploration engine (docs/EXPLORE.md) and
searches two design-time parameters jointly, printing the Pareto frontier
over cycles and modelled energy.

Part 4 runs a duplicate-heavy request burst through the simulation
service (docs/SERVE.md): identical in-flight submissions
coalesce onto one backend simulation, lifecycle events stream back, and
the service drains cleanly on close — including what happens when the
bounded admission queue pushes back.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import SimJob, Simulator
from repro.core import (
    DataMaestro,
    FeatureSet,
    StreamerDesign,
    StreamerMode,
    StreamerRuntimeConfig,
)
from repro.memory import BankGeometry, MemorySubsystem
from repro.workloads import GemmWorkload


def part1_standalone_streamer():
    print("=" * 70)
    print("Part 1: one read-mode DataMaestro streaming a 4x16 int8 tensor")
    print("=" * 70)

    geometry = BankGeometry(num_banks=8, bank_width_bytes=8, bank_depth=64)
    memory = MemorySubsystem(geometry)

    # Place a small 4x16 int8 tensor row-major at address 0.
    tensor = np.arange(4 * 16, dtype=np.int8).reshape(4, 16)
    memory.scratchpad.backdoor_write(0, tensor.view(np.uint8).reshape(-1), group_size=8)

    # A 2-channel read streamer: each wide word is one 16-byte tensor row.
    design = StreamerDesign(
        name="demo",
        mode=StreamerMode.READ,
        num_channels=2,
        spatial_bounds=(2,),
        temporal_dims=2,
    )
    streamer = DataMaestro(design, geometry, group_size_options=[8, 1])
    streamer.configure(
        StreamerRuntimeConfig(
            base_address=0,
            temporal_bounds=(4,),      # four rows
            temporal_strides=(16,),    # 16 bytes apart
            spatial_strides=(8,),      # two 8-byte channels per row
            bank_group_size=8,         # fully interleaved
        )
    )

    cycles = 0
    while not streamer.done:
        streamer.begin_cycle()
        memory.deliver()
        if streamer.output_valid():
            word = streamer.pop_output().view(np.int8)
            print(f"  cycle {cycles:2d}: streamed row {word[:6]} ... {word[-3:]}")
        streamer.generate_addresses()
        streamer.issue_requests(memory)
        memory.step()
        cycles += 1
    print(f"  streamed {streamer.words_streamed} wide words in {cycles} cycles\n")


def part2_full_system():
    print("=" * 70)
    print("Part 2: 16x16x16 GeMM on the five-DataMaestro evaluation system")
    print("=" * 70)

    # Describe *what* to simulate; the Simulator decides how (compilation,
    # execution, optional caching — pass cache_dir=... to make reruns free).
    simulator = Simulator()
    job = SimJob(
        workload=GemmWorkload(name="quickstart_gemm", m=16, n=16, k=16),
        features=FeatureSet.all_enabled(),
    )
    print("  job:", job.describe())

    outcome = simulator.simulate(job)
    print(f"  functional match vs numpy: {outcome.functional_match}")
    print(f"  ideal compute cycles : {outcome.ideal_compute_cycles}")
    print(f"  measured cycles      : {outcome.kernel_cycles}")
    print(f"  GeMM-core utilization: {outcome.utilization:.2%}")
    print(f"  scratchpad accesses  : {outcome.memory_accesses} words")
    print(f"  bank conflicts       : {outcome.bank_conflicts}")
    # The full cycle-level SimulationResult rides along for deep dives.
    result = outcome.result
    for port, stats in result.streamer_stats.items():
        print(
            f"    port {port}: {stats.words_streamed} wide words, "
            f"{stats.requests_granted} word requests"
        )

    # Engine selection (docs/ENGINE.md): the default "event" engine skips
    # provably idle cycles; "lockstep" is the legacy per-cycle loop.  They
    # are parity-tested to agree, and the engine is part of the job hash so
    # cached outcomes from different engines never collide.
    lockstep = simulator.simulate(job.with_updates(engine="lockstep"))
    print(
        f"  engine check: event={outcome.kernel_cycles} cycles, "
        f"lockstep={lockstep.kernel_cycles} cycles "
        f"(identical: {outcome.kernel_cycles == lockstep.kernel_cycles}, "
        f"distinct cache keys: {outcome.job_hash != lockstep.job_hash})"
    )


def part3_design_space_exploration():
    print("=" * 70)
    print("Part 3: joint design-space exploration (see docs/EXPLORE.md)")
    print("=" * 70)

    from repro.explore import (
        ExplorationEngine,
        GridStrategy,
        ParameterAxis,
        SearchSpace,
        parse_objectives,
    )

    # Two design-time axes of the paper's Table II, searched jointly; pass
    # Simulator(cache_dir=...) to make repeated explorations incremental.
    space = SearchSpace(
        axes=(
            ParameterAxis.make("data_fifo_depth", (2, 8)),
            ParameterAxis.make("gima_group_size", (16, 64)),
        ),
        name="quickstart",
    )
    engine = ExplorationEngine(
        space=space,
        strategy=GridStrategy(),
        objectives=parse_objectives("cycles,energy_pj"),
        workloads=[GemmWorkload(name="quickstart_explore", m=16, n=16, k=16)],
    )
    report = engine.run(budget=space.size())
    print(f"  evaluated {len(report.evaluations)} designs "
          f"({report.simulated} simulated)")
    print("  Pareto frontier (cycles vs modelled energy):")
    for evaluation in report.frontier:
        print(
            f"    {evaluation.candidate.key()}: "
            f"{int(evaluation.metrics['cycles'])} cycles, "
            f"{evaluation.metrics['energy_pj']:.0f} pJ"
        )


def part4_simulation_service():
    print("=" * 70)
    print("Part 4: the simulation service (see docs/SERVE.md)")
    print("=" * 70)

    from repro.serve import QueueFullError, ServiceClient, ServiceConfig

    job = SimJob(
        workload=GemmWorkload(name="quickstart_serve", m=32, n=32, k=32),
        features=FeatureSet.all_enabled(),
    )
    config = ServiceConfig(max_workers=2, max_backlog=16)
    events = []  # on_event hears every lifecycle edge as a ServiceEvent
    with ServiceClient(config=config, on_event=events.append) as client:
        # Submit → coalesce: a burst of identical jobs in one batch costs
        # exactly one backend simulation; every caller gets the same outcome.
        outcomes = client.run([job] * 8, client_name="quickstart")
        stats = client.stats()
        print(f"  submitted {stats['submitted']} identical jobs, "
              f"simulated {stats['executed']}, coalesced {stats['coalesced']} "
              f"(hit-rate {stats['coalescing_hit_rate']:.0%})")
        print(f"  all callers share one outcome object: "
              f"{all(o is outcomes[0] for o in outcomes)}")

        # Stream: every lifecycle edge reached on_event as it happened.
        kinds = [event.kind for event in events]
        print(f"  event stream: {' -> '.join(dict.fromkeys(kinds))}")

        # Backpressure: the admission queue is bounded.  submit() fails
        # fast with a typed error; client.run()/submit_wait() would wait.
        tiny = ServiceConfig(max_workers=1, max_backlog=16)
        print(f"  backlog bound {tiny.max_backlog}: overflowing submit() "
              f"raises {QueueFullError.__name__} (run() waits instead)")
    # leaving the context drains: queued + running jobs finished first
    print("  drained and closed cleanly")


if __name__ == "__main__":
    part1_standalone_streamer()
    part2_full_system()
    part3_design_space_exploration()
    part4_simulation_service()
