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
  ``deque``, ``list`` or ``dict`` and on ``bytes.join`` made by ``repro``
  code (not by numpy's, which move with the numpy release), over the same
  words: what a word costs in queue traffic, which moving words as rows
  divides by the channels a row holds;
* issue visits per request — channels holding an address (and, writing,
  data) each time a streamer's issue phase is entered, over requests issued;
* per streamer, the share of stepped cycles in which its issue phase was not
  entered at all (a parked streamer costs nothing);
* ``repro`` bytecodes per stepped cycle — ``opcode`` trace events (see the
  ``ledger`` mode below).

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

The ``ledger`` mode holds the layers a change to the grant path moves, one
row per (layer, path), every count a total over the path and exact on any
machine:

* ``step`` — what a stepped cycle costs inside the engine's ``drive``, a
  streamer's first address window aside: over the :data:`SETUP_JOBS`
  serve-pool jobs, and over each of :data:`LEDGER_KERNELS` (Fig. 7's 7x7
  convolution, contended and clean);
* ``first windows`` — each streamer's first ``_refill_window`` over the
  serve-pool jobs;

and four columns: ``repro`` calls and numpy calls (the rules of the
``setup`` mode), container operations (the rule of the step counts above),
and **repro bytecodes** — ``opcode`` trace events (``frame.f_trace_opcodes``)
in frames of the ``repro`` package, a count that moves with the work an
interpreted line does and not only with the calls it makes.  Bytecodes, and
``repro`` calls where a CPython release inlines comprehensions, are counts of
one interpreter version; numpy calls move with the numpy release.

Every mode but ``jump`` counts under one hook (``_Ledger``).

Run from the repository root::

    python tools/step_cost.py 2_prefetch conv_h16_w16_c32_k16_f7x7_s1
    python tools/step_cost.py 1_baseline conv_h14_w14_c16_k32_f5x5_s2 --json
    python tools/step_cost.py 6_full conv_h14_w14_c16_k32_f5x5_s2
    python tools/step_cost.py setup
    python tools/step_cost.py step
    python tools/step_cost.py jump
    python tools/step_cost.py ledger

Standard library only; ``tests/engine/test_step_budget.py``,
``tests/engine/test_jump_budget.py``, ``tests/system/test_setup_budget.py``
and ``tests/engine/test_ledger.py`` hold the numbers to a budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import deque
from functools import partial
from pathlib import Path
from typing import Dict

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Word-level record types whose constructions are counted, by class name.
RECORD_TYPES = ("MemoryRequest", "BankLocation")


def measure(
    step: str,
    workload_name: str,
    seed: int = 0,
    bytecodes: bool = False,
) -> Dict[str, object]:
    """Simulate one kernel under the counting hook; return its work counts
    (with ``bytecodes``, its ``repro`` bytecodes too).  The kernel runs once
    unhooked first, so the design-level tables and metrics it fills on first
    use are there whatever ran before in the process."""
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
    AcceleratorSystem(design).run(program, engine=EventDrivenEngine())
    system = AcceleratorSystem(design)

    counts = {"visits": 0, "fifo": 0}
    records = dict.fromkeys(RECORD_TYPES, 0)
    entered: Dict[str, int] = {}

    def on_call(frame, code):
        name = code.co_name
        if frame.f_globals["__name__"] == Fifo.__module__:
            counts["fifo"] += isinstance(frame.f_locals.get("self"), Fifo)
        elif name == "__init__":
            kind = type(frame.f_locals.get("self")).__name__
            if kind in records:
                records[kind] += 1
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

    # Loading is not step-path work: only the engine's drive is counted.
    ledger = _Ledger(bytecodes=bytecodes, on_call=on_call)
    result = ledger.run(partial(system.run, program, engine=EventDrivenEngine()))
    driven = {
        column: sum(stage[column] for stage in ledger.counts.values())
        for column in LEDGER_COLUMNS
    }
    stepped = ledger.stepped
    issued = sum(s.requests_issued for s in result.streamer_stats.values())
    report = {
        "step": step,
        "workload": workload_name,
        "cycles": result.streaming_cycles,
        "stepped_cycles": stepped,
        "calls": driven["repro"],
        "calls_per_stepped_cycle": driven["repro"] / stepped,
        "numpy_calls": driven["numpy"],
        "numpy_calls_per_stepped_cycle": driven["numpy"] / stepped,
        "requests_issued": issued,
        "records": dict(records),
        "records_per_word": sum(records.values()) / issued,
        "fifo_calls": counts["fifo"],
        "fifo_calls_per_word": counts["fifo"] / issued,
        "container_ops": driven["containers"],
        "container_ops_per_word": driven["containers"] / issued,
        "issue_visits": counts["visits"],
        "issue_visits_per_request": counts["visits"] / issued,
        "parked_share": {
            port: 1.0 - entered.get(system.streamers[port].name, 0) / stepped
            for port in result.metadata["active_ports"]
        },
        "stages": ledger.counts,
    }
    if bytecodes:
        report["bytecodes"] = driven["bytecodes"]
        report["bytecodes_per_stepped_cycle"] = driven["bytecodes"] / stepped
    return report


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


def _warm_pool(jobs: int, seed: int):
    """The first ``jobs`` serve-pool jobs and a backend that has run them
    once, so that the design-level tables hold this batch's own designs: a
    table hit on an equal but distinct design object costs one ``__eq__``
    call more, so tables another caller warmed would move the counts."""
    from repro.core.agu import spatial_offsets
    from repro.core.csr import csr_address_map
    from repro.runtime.backends import DataMaestroBackend
    from repro.runtime.job import SimJob
    from repro.serve.replay import default_pool

    batch = [SimJob(workload=workload, seed=seed) for workload in default_pool(jobs)]
    backend = DataMaestroBackend()
    csr_address_map.cache_clear()
    spatial_offsets.cache_clear()
    for job in batch:
        backend.execute(job)
    return batch, backend


def measure_setup(jobs: int = SETUP_JOBS, seed: int = 0) -> Dict[str, object]:
    """Count the fixed per-job work of ``jobs`` serve-pool jobs and the work
    of their stepped cycles (see above)."""
    from repro.compiler.mapper import compile_workload, extract_outputs
    from repro.system import AcceleratorSystem

    batch, backend = _warm_pool(jobs, seed)
    markers = {
        compile_workload.__code__: "compile",
        AcceleratorSystem.__init__.__code__: "build",
        AcceleratorSystem.load_program.__code__: "load",
        extract_outputs.__code__: "read-back",
        AcceleratorSystem.verify_outputs.__code__: "read-back",
    }
    ledger = _Ledger(markers, outside="outcome", bytecodes=False)
    for job in batch:
        ledger.run(backend.execute, job)
    counts = {
        stage: {column: ledger.counts[stage][column] for column in ("repro", "numpy")}
        for stage in SETUP_STAGES
    }
    stepping = ledger.counts["step"]
    repro = sum(stage["repro"] for stage in counts.values())
    numpy = sum(stage["numpy"] for stage in counts.values())
    return {
        "jobs": len(batch),
        "repro_calls": repro,
        "numpy_calls": numpy,
        "repro_calls_per_job": repro / len(batch),
        "numpy_calls_per_job": numpy / len(batch),
        "stages": counts,
        "stepped_cycles": ledger.stepped,
        "step_calls": stepping["repro"],
        "step_calls_per_stepped_cycle": stepping["repro"] / ledger.stepped,
        "step_numpy_calls": stepping["numpy"],
        "step_numpy_calls_per_stepped_cycle": stepping["numpy"] / ledger.stepped,
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


#: The kernels whose stepped cycles the ``ledger`` mode counts beside the
#: serve pool's: Fig. 7's contended step, where the per-word grant path runs,
#: and its last, where almost every row is granted whole (the 5x5 budget conv
#: is :func:`measure`'s, held by the step budget).
LEDGER_KERNELS = (
    ("2_prefetch", "conv_h16_w16_c32_k16_f7x7_s1"),
    ("6_full", "conv_h16_w16_c32_k16_f7x7_s1"),
)

#: The ledger's columns, in order.
LEDGER_COLUMNS = ("repro", "numpy", "containers", "bytecodes")


class _Ledger:
    """Counts work by stage under a profile hook and, with ``bytecodes``, a
    trace hook at once: inside the engine's ``drive`` is ``step``, but a
    streamer's first ``_refill_window`` is ``first windows``; outside
    ``drive``, a call of one of the ``markers`` codes opens its stage, and
    the rest is ``outside`` (``None``: not counted).  ``on_call(frame,
    code)`` sees every ``repro`` call counted."""

    def __init__(
        self, markers=(), outside=None, bytecodes: bool = True, on_call=None
    ) -> None:
        from repro.core.streamer import DataMaestro
        from repro.engine.event import EventDrivenEngine
        from repro.system import AcceleratorSystem

        self.drive = EventDrivenEngine.drive.__code__
        self.window = DataMaestro._refill_window.__code__
        self.system_step = AcceleratorSystem.step.__code__
        self.markers = dict(markers)
        self.outside = outside
        self.bytecodes = bytecodes
        self.on_call = on_call
        stages = {"step", "first windows", *self.markers.values(), outside} - {None}
        self.counts = {stage: dict.fromkeys(LEDGER_COLUMNS, 0) for stage in stages}
        self.stepped = 0
        #: (frame, stage) of the scopes in progress, innermost last.
        self.scopes: list = []
        self.windowed: set = set()
        self.tracers = {stage: self._tracer(stage) for stage in self.counts}

    def run(self, function, *args):
        """Call ``function(*args)`` under the hooks; each call starts a job,
        whose streamers' first windows are new."""
        self.windowed.clear()
        sys.setprofile(self.profile)
        if self.bytecodes:
            sys.settrace(self.trace)
        try:
            return function(*args)
        finally:
            sys.settrace(None)
            sys.setprofile(None)

    def profile(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code is self.drive:
                self.scopes.append((frame, "step"))
            elif code is self.window and self.scopes:
                streamer = id(frame.f_locals["self"])
                if streamer not in self.windowed:
                    self.windowed.add(streamer)
                    self.scopes.append((frame, "first windows"))
            elif not self.scopes and code in self.markers:
                self.scopes.append((frame, self.markers[code]))
            stage = self.scopes[-1][1] if self.scopes else self.outside
            if stage is None:
                return
            counts = self.counts[stage]
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                counts["repro"] += 1
                self.stepped += code is self.system_step
                if self.on_call is not None:
                    self.on_call(frame, code)
            elif module.startswith("numpy"):
                counts["numpy"] += 1
        elif event == "return":
            if self.scopes and self.scopes[-1][0] is frame:
                self.scopes.pop()
        elif event == "c_call":
            stage = self.scopes[-1][1] if self.scopes else self.outside
            if stage is not None:
                counts = self.counts[stage]
                counts["numpy"] += _is_numpy(arg)
                if frame.f_globals.get("__name__", "").startswith("repro."):
                    counts["containers"] += _is_container(arg)

    def trace(self, frame, event, arg):
        # The trace hook sees a call before the profile hook enters its
        # scope, so it names the frame's stage itself (only ``drive``'s are
        # traced).
        code = frame.f_code
        if code is self.drive:
            stage = "step"
        elif not self.scopes or self.scopes[0][1] != "step":
            return None
        elif code is self.window and id(frame.f_locals["self"]) not in self.windowed:
            stage = "first windows"
        else:
            stage = self.scopes[-1][1]
        if not frame.f_globals.get("__name__", "").startswith("repro."):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self.tracers[stage]

    def _tracer(self, stage: str):
        """The local trace function counting ``stage``'s bytecodes."""
        counts = self.counts[stage]

        def opcode(frame, event, arg):
            if event == "opcode":
                counts["bytecodes"] += 1
            return opcode

        return opcode


def measure_ledger(seed: int = 0) -> Dict[str, object]:
    """Count the ledger's rows (see above): ``rows`` maps ``(layer, path)``
    to its column totals and the ``per`` unit they divide by."""
    rows: Dict[tuple, dict] = {}
    pool = f"serve pool ({SETUP_JOBS} jobs)"
    batch, backend = _warm_pool(SETUP_JOBS, seed)
    ledger = _Ledger()
    for job in batch:
        ledger.run(backend.execute, job)
    rows["step", pool] = dict(ledger.counts["step"], per=ledger.stepped)
    rows["first windows", pool] = dict(ledger.counts["first windows"], per=len(batch))

    for step, name in LEDGER_KERNELS:
        report = measure(step, name, seed, bytecodes=True)
        rows["step", f"{step}/{name}"] = dict(
            report["stages"]["step"], per=report["stepped_cycles"]
        )
    return {"rows": rows}


def render_ledger(report: Dict[str, object]) -> str:
    lines = [
        "work ledger (per stepped cycle for step, per job for first windows)",
        f"  {'layer':<15}{'path':<42}{'per':>7}"
        + "".join(f"{column:>12}" for column in LEDGER_COLUMNS),
    ]
    for (layer, path), row in report["rows"].items():
        lines.append(
            f"  {layer:<15}{path:<42}{row['per']:>7}"
            + "".join(f"{row[column] / row['per']:>12.1f}" for column in LEDGER_COLUMNS)
        )
    return "\n".join(lines)


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
    bytecodes = []
    if "bytecodes" in report:
        bytecodes = [
            f"  repro bytecodes          {report['bytecodes']:>10,} "
            f"({report['bytecodes_per_stepped_cycle']:.1f} per stepped cycle)"
        ]
    return "\n".join(
        [
            f"step cost of {report['step']}/{report['workload']}",
            f"  cycles                   {report['cycles']:>10,} "
            f"({report['stepped_cycles']:,} stepped)",
            f"  python calls             {report['calls']:>10,} "
            f"({report['calls_per_stepped_cycle']:.1f} per stepped cycle)",
            f"  numpy calls              {report['numpy_calls']:>10,} "
            f"({report['numpy_calls_per_stepped_cycle']:.2f} per stepped cycle)",
            *bytecodes,
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
        "job's setup / stepped cycles; 'jump' for table3_cnn's macro jumps; "
        "'ledger' for the step and first-window layers",
    )
    parser.add_argument(
        "workload", nargs="?", help="synthetic-suite workload name (not with setup)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="print the raw counts")
    args = parser.parse_args(argv)
    if args.step == "ledger":
        if args.workload is not None:
            parser.error("ledger takes no workload")
        report = measure_ledger(seed=args.seed)
        rows = [list(key) + [row] for key, row in report["rows"].items()]
        print(json.dumps(rows) if args.json else render_ledger(report))
        return 0
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
    report = measure(args.step, args.workload, args.seed, bytecodes=True)
    print(json.dumps(report) if args.json else render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
