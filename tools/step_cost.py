#!/usr/bin/env python3
"""Work counts of the simulator's per-stepped-cycle path — counts, not seconds.

Runs one (ablation step, synthetic-suite workload) kernel under the event
engine with a ``sys.setprofile`` hook and prints what a stepped cycle and a
memory word cost in *work*, which repeats exactly on any machine:

* Python calls per stepped cycle — ``call`` events of functions defined by
  the ``repro`` package (dataclass-generated ``__init__``\\ s included) while
  the engine drives the kernel, over the number of ``AcceleratorSystem.step``
  calls;
* numpy calls per stepped cycle — Python frames in ``numpy.*`` plus
  ``c_call`` events on numpy callables (the rule of the ``setup`` mode
  below), over the same cycles;
* records allocated per memory word — constructions of the word-level record
  types (``MemoryRequest``, of which ``MemoryResponse`` is an alias, and
  ``BankLocation``) over the words the streamers requested;
* ``Fifo`` method calls per memory word — every call into a
  :class:`repro.sim.fifo.Fifo` (properties and ``__len__`` included) over
  the same words: the address FIFOs are counters and the memory fills the
  read data FIFOs itself, so write-mode words and the quantizer queue are
  what is left;
* container operations per memory word — ``c_call`` events on methods of a
  ``deque``, ``list`` or ``dict`` and on ``bytes.join``, over the same
  words: what a word costs in queue traffic, which moving words as rows
  divides by the channels a row holds;
* issue visits per request — channels holding an address (and, writing,
  data) each time a streamer's issue phase is entered, over requests issued;
* per streamer, the share of stepped cycles in which its issue phase was not
  entered at all (a parked streamer costs nothing).

The ``setup`` mode counts the other half of a short job: the work that does
not depend on how many words the kernel moves.  It runs the first
:data:`SETUP_JOBS` jobs of the serve pool (``repro.serve.replay.default_pool``,
what ``serve_hotkey`` misses on) through the DataMaestro backend, once to warm
the design-level tables and once under the hook, and counts per job, from
``compile_workload`` to the outcome — compile, system construction,
``load_program``, each streamer's first address window, read-back, verify and
the outcome, but not the cycles stepped:

* ``repro`` Python calls, as above;
* numpy calls — Python frames in ``numpy.*`` plus ``c_call`` events on numpy
  callables (module functions, array and generator methods).

The ``step`` mode reads the same run for the cycles stepped: ``repro`` and
numpy calls inside the engine's ``drive`` (the first windows aside, which
``setup`` counts) over the ``AcceleratorSystem.step`` calls — the
per-stepped-cycle cost of a serve-pool miss, which is a few cycles long and
never parks.

The ``jump`` mode counts a macro jump's work: it runs the 12 ResNet-18
crops of the ``table3_cnn`` benchmark under the event engine and counts,
inside the steady-span planner's ``_prepare`` (verify and plan, one call per
attempt) and ``_commit`` (the replay, one call per jump), ``repro`` and numpy
calls by the rules of the ``setup`` mode, per jump taken.

Run from the repository root::

    python tools/step_cost.py 2_prefetch conv_h16_w16_c32_k16_f7x7_s1
    python tools/step_cost.py 1_baseline conv_h14_w14_c16_k32_f5x5_s2 --json
    python tools/step_cost.py 6_full conv_h14_w14_c16_k32_f5x5_s2
    python tools/step_cost.py setup
    python tools/step_cost.py step
    python tools/step_cost.py jump

Standard library only; ``tests/engine/test_step_budget.py``,
``tests/engine/test_jump_budget.py`` and
``tests/system/test_setup_budget.py`` hold the numbers to a budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import deque
from pathlib import Path
from typing import Dict

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Word-level record types whose constructions are counted, by class name.
RECORD_TYPES = ("MemoryRequest", "BankLocation")


def measure(step: str, workload_name: str, seed: int = 0) -> Dict[str, object]:
    """Simulate one kernel under the counting hook; return its work counts."""
    from repro.compiler import compile_workload
    from repro.core.params import ablation_feature_sets
    from repro.engine import EventDrivenEngine
    from repro.engine import steady  # noqa: F401 — else the first boundary imports it
    from repro.sim.fifo import Fifo
    from repro.system import AcceleratorSystem, datamaestro_evaluation_system
    from repro.workloads import synthetic_suite

    workloads = {w.name: w for group in synthetic_suite().values() for w in group}
    if workload_name not in workloads:
        raise SystemExit(f"error: no synthetic-suite workload named {workload_name!r}")
    steps = ablation_feature_sets()
    if step not in steps:
        raise SystemExit(f"error: unknown ablation step {step!r}; one of {sorted(steps)}")
    design = datamaestro_evaluation_system()
    program = compile_workload(workloads[workload_name], design, steps[step], seed=seed)
    system = AcceleratorSystem(design)

    system_step = AcceleratorSystem.step.__code__
    counts = {
        "calls": 0, "numpy": 0, "stepped": 0, "visits": 0, "fifo": 0, "containers": 0
    }
    records = dict.fromkeys(RECORD_TYPES, 0)
    entered: Dict[str, int] = {}

    def hook(frame, event, arg):
        if event == "c_call":
            counts["numpy"] += _is_numpy(arg)
            counts["containers"] += _is_container(arg)
            return
        if event != "call":
            return
        code = frame.f_code
        module = frame.f_globals.get("__name__", "")
        if module.startswith("numpy"):
            counts["numpy"] += 1
            return
        if not module.startswith("repro."):
            return
        counts["calls"] += 1
        name = code.co_name
        if frame.f_globals["__name__"] == Fifo.__module__:
            counts["fifo"] += isinstance(frame.f_locals.get("self"), Fifo)
        elif name == "__init__":
            kind = type(frame.f_locals.get("self")).__name__
            if kind in records:
                records[kind] += 1
        elif code is system_step:
            counts["stepped"] += 1
        elif name == "issue_requests":
            streamer = frame.f_locals["self"]
            entered[streamer.name] = entered.get(streamer.name, 0) + 1
            # The address FIFOs hold bundles_generated - requests_issued, a
            # write word waits in the data FIFOs until it is issued.
            issued = streamer.requests_issued
            if issued < streamer.bundles_generated and (
                streamer.is_read or issued < streamer.words_streamed
            ):
                counts["visits"] += len(streamer.ports)

    class Counted(EventDrivenEngine):
        def drive(self, target, **kwargs):
            sys.setprofile(hook)  # here, not earlier: loading is not step-path work
            try:
                return super().drive(target, **kwargs)
            finally:
                sys.setprofile(None)

    result = system.run(program, engine=Counted())
    stepped = counts["stepped"]
    issued = sum(s.requests_issued for s in result.streamer_stats.values())
    return {
        "step": step,
        "workload": workload_name,
        "cycles": result.streaming_cycles,
        "stepped_cycles": stepped,
        "calls": counts["calls"],
        "calls_per_stepped_cycle": counts["calls"] / stepped,
        "numpy_calls": counts["numpy"],
        "numpy_calls_per_stepped_cycle": counts["numpy"] / stepped,
        "requests_issued": issued,
        "records": dict(records),
        "records_per_word": sum(records.values()) / issued,
        "fifo_calls": counts["fifo"],
        "fifo_calls_per_word": counts["fifo"] / issued,
        "container_ops": counts["containers"],
        "container_ops_per_word": counts["containers"] / issued,
        "issue_visits": counts["visits"],
        "issue_visits_per_request": counts["visits"] / issued,
        "parked_share": {
            port: 1.0 - entered.get(system.streamers[port].name, 0) / stepped
            for port in result.metadata["active_ports"]
        },
    }


#: Serve-pool jobs the ``setup`` mode counts.
SETUP_JOBS = 24

#: Setup stages, in job order; work outside the named calls is ``outcome``.
SETUP_STAGES = ("compile", "build", "load", "first windows", "read-back", "outcome")


def _is_numpy(function) -> bool:
    """Whether a C callable belongs to numpy (a function or a bound method)."""
    module = getattr(function, "__module__", None)
    if module is None:
        module = type(getattr(function, "__self__", None)).__module__
    return module.startswith("numpy")


def _is_container(function) -> bool:
    """Whether a C callable is a method of a ``deque``, ``list`` or
    ``dict``, or ``bytes.join``."""
    owner = getattr(function, "__self__", None)
    if isinstance(owner, (deque, list, dict)):
        return True
    return isinstance(owner, bytes) and function.__name__ == "join"


def measure_setup(jobs: int = SETUP_JOBS, seed: int = 0) -> Dict[str, object]:
    """Count the fixed per-job work of ``jobs`` serve-pool jobs and the work
    of their stepped cycles (see above)."""
    from repro.compiler.mapper import compile_workload, extract_outputs
    from repro.core.agu import spatial_offsets
    from repro.core.csr import csr_address_map
    from repro.core.streamer import DataMaestro
    from repro.engine.event import EventDrivenEngine
    from repro.runtime.backends import DataMaestroBackend
    from repro.runtime.job import SimJob
    from repro.serve.replay import default_pool
    from repro.system import AcceleratorSystem

    batch = [SimJob(workload=workload, seed=seed) for workload in default_pool(jobs)]
    backend = DataMaestroBackend()
    # Warm the design-level tables from this batch's own designs: a table hit
    # on an equal but distinct design object costs one ``__eq__`` call more,
    # so tables another caller warmed would move the counts.
    csr_address_map.cache_clear()
    spatial_offsets.cache_clear()
    for job in batch:
        backend.execute(job)

    drive = EventDrivenEngine.drive.__code__
    system_step = AcceleratorSystem.step.__code__
    window = DataMaestro._refill_window.__code__
    markers = {
        compile_workload.__code__: "compile",
        AcceleratorSystem.__init__.__code__: "build",
        AcceleratorSystem.load_program.__code__: "load",
        extract_outputs.__code__: "read-back",
        AcceleratorSystem.verify_outputs.__code__: "read-back",
    }
    counts = {stage: {"repro": 0, "numpy": 0} for stage in SETUP_STAGES}
    stepping = {"repro": 0, "numpy": 0, "stepped": 0}
    #: (frame, stage) of the marked calls in progress; stage ``None`` (the
    #: engine's drive) counts nothing but a streamer's first window.
    scopes: list = []
    windowed: set = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code is drive:
                scopes.append((frame, None))
            elif code is window:
                streamer = id(frame.f_locals["self"])
                if streamer not in windowed:
                    windowed.add(streamer)
                    scopes.append((frame, "first windows"))
            elif not scopes and code in markers:
                scopes.append((frame, markers[code]))
            stage = scopes[-1][1] if scopes else "outcome"
            module = frame.f_globals.get("__name__", "")
            if stage is None:
                if module.startswith("repro."):
                    stepping["repro"] += 1
                    stepping["stepped"] += code is system_step
                elif module.startswith("numpy"):
                    stepping["numpy"] += 1
            elif module.startswith("repro."):
                counts[stage]["repro"] += 1
            elif module.startswith("numpy"):
                counts[stage]["numpy"] += 1
        elif event == "return":
            if scopes and scopes[-1][0] is frame:
                scopes.pop()
        elif event == "c_call":
            stage = scopes[-1][1] if scopes else "outcome"
            if _is_numpy(arg):
                if stage is None:
                    stepping["numpy"] += 1
                else:
                    counts[stage]["numpy"] += 1

    for job in batch:
        windowed.clear()
        sys.setprofile(hook)
        try:
            backend.execute(job)
        finally:
            sys.setprofile(None)
    repro = sum(stage["repro"] for stage in counts.values())
    numpy = sum(stage["numpy"] for stage in counts.values())
    return {
        "jobs": len(batch),
        "repro_calls": repro,
        "numpy_calls": numpy,
        "repro_calls_per_job": repro / len(batch),
        "numpy_calls_per_job": numpy / len(batch),
        "stages": counts,
        "stepped_cycles": stepping["stepped"],
        "step_calls": stepping["repro"],
        "step_calls_per_stepped_cycle": stepping["repro"] / stepping["stepped"],
        "step_numpy_calls": stepping["numpy"],
        "step_numpy_calls_per_stepped_cycle": stepping["numpy"] / stepping["stepped"],
    }


#: What the ``jump`` mode counts, by the planner method that does it.
JUMP_STAGES = ("prepare", "commit")


def measure_jump(seed: int = 0) -> Dict[str, object]:
    """Count the work of every macro jump over the ResNet-18 crops of
    ``table3_cnn`` (see above)."""
    from repro.analysis.network_perf import representative_crop
    from repro.compiler import compile_workload
    from repro.core import FeatureSet
    from repro.engine.event import EventDrivenEngine
    from repro.engine.steady import SteadySpanPlanner
    from repro.system import AcceleratorSystem, datamaestro_evaluation_system
    from repro.workloads import benchmark_networks

    crops = {}
    for workload in benchmark_networks()["ResNet-18"].unique_workloads():
        crop = representative_crop(workload)
        crops.setdefault(crop.name, crop)
    design = datamaestro_evaluation_system()
    stages = {
        SteadySpanPlanner._prepare.__code__: "prepare",
        SteadySpanPlanner._commit.__code__: "commit",
    }
    counts = {stage: {"repro": 0, "numpy": 0, "calls": 0} for stage in JUMP_STAGES}
    #: (frame, stage) of the planner call in progress.
    scopes: list = []

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if not scopes and code in stages:
                scopes.append((frame, stages[code]))
                counts[stages[code]]["calls"] += 1
            if scopes:
                module = frame.f_globals.get("__name__", "")
                if module.startswith("repro."):
                    counts[scopes[-1][1]]["repro"] += 1
                elif module.startswith("numpy"):
                    counts[scopes[-1][1]]["numpy"] += 1
        elif event == "return":
            if scopes and scopes[-1][0] is frame:
                scopes.pop()
        elif event == "c_call" and scopes and _is_numpy(arg):
            counts[scopes[-1][1]]["numpy"] += 1

    class Counted(EventDrivenEngine):
        def drive(self, target, **kwargs):
            sys.setprofile(hook)  # loading is not jump work
            try:
                return super().drive(target, **kwargs)
            finally:
                sys.setprofile(None)

    jumps = skipped = cycles = 0
    for crop in crops.values():
        program = compile_workload(crop, design, FeatureSet.all_enabled(), seed=seed)
        system = AcceleratorSystem(design)
        result = system.run(program, engine=Counted())
        stats = system.steady_stats()
        jumps += stats["jumps"]
        skipped += stats["cycles_skipped"]
        cycles += result.kernel_cycles
    repro = sum(stage["repro"] for stage in counts.values())
    numpy = sum(stage["numpy"] for stage in counts.values())
    return {
        "crops": len(crops),
        "cycles": cycles,
        "cycles_skipped": skipped,
        "jumps": jumps,
        "stages": counts,
        "repro_calls": repro,
        "numpy_calls": numpy,
        "repro_calls_per_jump": repro / jumps,
        "numpy_calls_per_jump": numpy / jumps,
    }


def render_jump(report: Dict[str, object]) -> str:
    jumps = report["jumps"]
    lines = [
        f"jump cost of the {report['crops']} ResNet-18 crops of table3_cnn",
        f"  jumps {jumps} ({report['cycles_skipped']:,} of "
        f"{report['cycles']:,} cycles)",
        f"  {'stage':<10}{'calls':>7}{'repro calls':>14}{'numpy calls':>14}"
        "  (per jump)",
    ]
    for stage, count in report["stages"].items():
        lines.append(
            f"  {stage:<10}{count['calls']:>7}{count['repro'] / jumps:>14.1f}"
            f"{count['numpy'] / jumps:>14.1f}"
        )
    lines.append(
        f"  {'total':<10}{'':>7}{report['repro_calls_per_jump']:>14.1f}"
        f"{report['numpy_calls_per_jump']:>14.1f}"
    )
    return "\n".join(lines)


def render_setup(report: Dict[str, object]) -> str:
    jobs = report["jobs"]
    lines = [
        f"setup cost of {jobs} serve-pool jobs (per job)",
        f"  {'stage':<16}{'repro calls':>12}{'numpy calls':>13}",
    ]
    for stage, count in report["stages"].items():
        lines.append(
            f"  {stage:<16}{count['repro'] / jobs:>12.1f}{count['numpy'] / jobs:>13.1f}"
        )
    lines.append(
        f"  {'total':<16}{report['repro_calls_per_job']:>12.1f}"
        f"{report['numpy_calls_per_job']:>13.1f}"
    )
    return "\n".join(lines)


def render_step(report: Dict[str, object]) -> str:
    jobs = report["jobs"]
    return "\n".join(
        [
            f"step cost of {jobs} serve-pool jobs",
            f"  stepped cycles           {report['stepped_cycles']:>10,} "
            f"({report['stepped_cycles'] / jobs:.1f} per job)",
            f"  python calls             {report['step_calls']:>10,} "
            f"({report['step_calls_per_stepped_cycle']:.1f} per stepped cycle)",
            f"  numpy calls              {report['step_numpy_calls']:>10,} "
            f"({report['step_numpy_calls_per_stepped_cycle']:.1f} per stepped cycle)",
        ]
    )


def render(report: Dict[str, object]) -> str:
    records = ", ".join(f"{k} {v}" for k, v in report["records"].items() if v)
    parked = "  ".join(f"{p} {s:.1%}" for p, s in report["parked_share"].items())
    return "\n".join(
        [
            f"step cost of {report['step']}/{report['workload']}",
            f"  cycles                   {report['cycles']:>10,} "
            f"({report['stepped_cycles']:,} stepped)",
            f"  python calls             {report['calls']:>10,} "
            f"({report['calls_per_stepped_cycle']:.1f} per stepped cycle)",
            f"  numpy calls              {report['numpy_calls']:>10,} "
            f"({report['numpy_calls_per_stepped_cycle']:.2f} per stepped cycle)",
            f"  memory words requested   {report['requests_issued']:>10,} "
            f"({report['issue_visits_per_request']:.2f} issue visits per request)",
            f"  records allocated        {sum(report['records'].values()):>10,} "
            f"({report['records_per_word']:.2f} per word: {records or 'none'})",
            f"  Fifo method calls        {report['fifo_calls']:>10,} "
            f"({report['fifo_calls_per_word']:.2f} per word)",
            f"  container operations     {report['container_ops']:>10,} "
            f"({report['container_ops_per_word']:.2f} per word)",
            f"  stepped cycles parked    {parked}",
        ]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "step",
        help="ablation step, e.g. 2_prefetch; 'setup' / 'step' for a serve-pool "
        "job's setup / stepped cycles; 'jump' for table3_cnn's macro jumps",
    )
    parser.add_argument(
        "workload", nargs="?", help="synthetic-suite workload name (not with setup)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="print the raw counts")
    args = parser.parse_args(argv)
    if args.step == "jump":
        if args.workload is not None:
            parser.error("jump takes no workload")
        report = measure_jump(seed=args.seed)
        print(json.dumps(report) if args.json else render_jump(report))
        return 0
    if args.step in ("setup", "step"):
        if args.workload is not None:
            parser.error(f"{args.step} takes no workload")
        report = measure_setup(seed=args.seed)
        text = render_setup(report) if args.step == "setup" else render_step(report)
        print(json.dumps(report) if args.json else text)
        return 0
    if args.workload is None:
        parser.error("a workload is required with an ablation step")
    report = measure(args.step, args.workload, args.seed)
    print(json.dumps(report) if args.json else render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
