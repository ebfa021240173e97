"""The steady-span protocol, unit by unit.

The planner (:mod:`repro.engine.steady`) reads no component's private
state: each unit — the memory, a streamer, the GeMM core, the quantizer —
declares its period counters and its part of the signature, checks its own
cadence and window, and replays its own periods.  The structure gate keeps
it that way; the differential tests capture a real tile boundary and check,
one unit at a time, that a jump leaves exactly the state lockstep stepping
over the same cycles leaves, so a replay bug names its unit.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.compiler import compile_workload
from repro.core.params import FeatureSet
from repro.engine import steady
from repro.system import AcceleratorSystem, datamaestro_evaluation_system
from repro.workloads import ConvWorkload, GemmWorkload

DESIGN = datamaestro_evaluation_system()


def test_the_planner_reads_no_private_state():
    """No ``obj._name`` on anything but the planner itself, and no
    ``getattr``/``setattr`` with a private name: a unit's representation is
    the unit's business."""
    tree = ast.parse(Path(steady.__file__).read_text())
    offences = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                offences.append(f"line {node.lineno}: .{node.attr}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "setattr", "delattr", "hasattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and str(node.args[1].value).startswith("_")
        ):
            call = f"{node.func.id}({node.args[1].value!r})"
            offences.append(f"line {node.lineno}: {call}")
    assert not offences, offences
    # ``self`` is the planner in every method that names a private attribute.
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name != "SteadySpanPlanner":
            for inner in ast.walk(node):
                assert not (
                    isinstance(inner, ast.Attribute) and inner.attr.startswith("_")
                ), f"{node.name} line {inner.lineno}: .{inner.attr}"


# ----------------------------------------------------------------------
# Per-unit differential tests: a jump against lockstep, unit by unit.
# ----------------------------------------------------------------------
WORKLOADS = {
    "conv3x3_s1": ConvWorkload(
        name="macro_conv3x3_s1", in_height=14, in_width=14, in_channels=32,
        out_channels=32, kernel_h=3, kernel_w=3, stride=1, padding=1,
    ),
    "quantized_gemm": GemmWorkload(
        name="macro_q", m=128, n=128, k=128, quantize=True
    ),
}
#: Jumps compared per workload: the first, and one chained onto it.
JUMPS = 2


def words(items):
    return [None if word is None else bytes(word) for word in items]


def memory_state(system):
    memory = system.memory
    return {
        "counters": (
            memory.cycle,
            memory.total_reads,
            memory.total_writes,
            memory.total_conflicts,
            memory.pending_requests,
        ),
        "in_flight": [
            (ready, [port.name for port in ports])
            for ready, ports in memory.period_signature()
        ],
        # What each word-grant entry hands over: the cursors it leaves.
        "handovers": [
            [(stream.name, low, cursors) for stream, low, cursors in owners]
            for _, _, owners in memory._in_flight
            if owners.__class__ is list
        ],
        "last_grant": sorted(memory._last_grant.items()),
        "requesters": list(memory._requesters),
        "banks": [(b.read_count, b.write_count) for b in memory.scratchpad.banks],
        "storage": memory.scratchpad.storage.tobytes(),
    }


def channel_words(streamer, row):
    """A held row as its channels' words, however the streamer holds it:
    one wide word, or (a read row filled channel by channel) a list."""
    if isinstance(row, list):
        return words(row)
    return words(row[part] for part in streamer.parts)


def streamer_state(system):
    state = {}
    for name, streamer in system.streamers.items():
        state[name] = {
            "counters": (
                streamer.words_streamed,
                streamer.bundles_generated,
                streamer.requests_issued,
                streamer.credit_stall_cycles,
                streamer.max_addr_occupancy,
                streamer._popped_this_cycle,
            ),
            "ports": [
                (port.name, port.granted, port.retries, port.delivered, len(port.pending))
                for port in streamer.ports
            ],
            "rows": (
                streamer.rows_granted,
                streamer.channel_grants,
                streamer.rows_delivered,
                streamer.channel_deliveries,
                streamer.fill_mark,
                [channel_words(streamer, row) for row in streamer.rows],
            ),
            "fifos": [
                (fifo.total_pushes, fifo.total_pops, fifo.max_occupancy)
                + tuple(words(fifo.entries))
                for fifo in streamer.fifos
            ],
        }
    return state


def gemm_state(system):
    gemm = system.gemm_core
    return (gemm.mac_cycles, gemm.stall_cycles, gemm.tiles_completed, gemm._k_index)


def quantizer_state(system):
    quantizer = system.quantizer
    queue = quantizer._pending
    return (
        quantizer.tiles_processed,
        quantizer.stall_cycles,
        queue.total_pushes,
        queue.total_pops,
        queue.max_occupancy,
        words(queue.entries),
    )


UNITS = {
    "memory": memory_state,
    "streamers": streamer_state,
    "gemm": gemm_state,
    "quantizer": quantizer_state,
}


#: The entry points :func:`spy` wraps, on either side of a span.
SPIED = (
    "compute_tiles_batch", "replay_span", "pop_word", "replay_tiles", "push_input"
)


def spy(obj, method, log, argument=False):
    """Record what ``obj.method`` returns (or its first argument) in ``log``."""
    original = getattr(obj, method)

    def recorded(*args, **kwargs):
        value = original(*args, **kwargs)
        log.append(args[0] if argument else value)
        return value

    setattr(obj, method, recorded)


def span_outputs(system, replayed):
    """Spy on what each unit hands on while a span runs: the words a read
    streamer pops, the tiles the core computes, the words the quantizer
    rescales — through the replay's entry points when ``replayed``."""
    logs = {"gemm": [], "quantizer": []}
    spy(system.gemm_core, "compute_tiles_batch", logs["gemm"])
    for name, streamer in system.streamers.items():
        if streamer.is_read:
            logs[name] = []
            spy(streamer, "replay_span" if replayed else "pop_word", logs[name])
    if replayed:
        spy(system.quantizer, "replay_tiles", logs["quantizer"])
    elif system.quantizer.output_sink is not None:
        sink = system.quantizer.output_sink
        spy(sink, "push_input", logs["quantizer"], argument=True)
    return logs


def unit_states(system, logs):
    """Every unit's state, each with the words it handed on over the span."""
    for unit in (system.gemm_core, system.quantizer, *system.streamers.values()):
        for method in SPIED:
            unit.__dict__.pop(method, None)
        if unit in system.streamers.values():
            unit.settle()

    def handed_on(name):
        items = logs.get(name, [])
        return b"".join(np.ascontiguousarray(item).tobytes() for item in items)

    states = {name: unit(system) for name, unit in UNITS.items()}
    states["gemm"] = (states["gemm"], handed_on("gemm"))
    states["quantizer"] = (states["quantizer"], handed_on("quantizer"))
    for name, streamer in states["streamers"].items():
        streamer["popped"] = handed_on(name)
    return states


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def jumps(request):
    """Per jump, every unit's state after the replay and after stepping the
    same cycles from the same boundary: two systems on one program step
    together until the planner stages a plan on one of them."""
    workload = WORKLOADS[request.param]
    program = compile_workload(workload, DESIGN, FeatureSet.all_enabled())
    planned, stepped = AcceleratorSystem(DESIGN), AcceleratorSystem(DESIGN)
    planned.load_program(program)
    stepped.load_program(program)
    states = []
    while len(states) < JUMPS:
        assert planned.step() and stepped.step(), f"{workload.name}: no {JUMPS} jumps"
        span = planned.steady_span(10**9)
        if span:
            replayed = span_outputs(planned, replayed=True)
            lockstep = span_outputs(stepped, replayed=False)
            planned.advance_active(span)
            for _ in range(span):
                stepped.step()
            pairs = zip(
                unit_states(planned, replayed).items(),
                unit_states(stepped, lockstep).values(),
            )
            states.append({name: (mine, theirs) for (name, mine), theirs in pairs})
    assert planned.steady_stats()["periods_replayed"] >= JUMPS * steady.MIN_PERIODS
    return request.param, states


@pytest.mark.parametrize("unit", sorted(UNITS))
def test_a_jump_leaves_each_unit_as_lockstep_does(jumps, unit):
    name, states = jumps
    for number, state in enumerate(states, 1):
        replayed, stepped = state[unit]
        assert replayed == stepped, f"{name}: jump {number} moved the {unit} apart"
