"""An oracle for the memory's grant bookkeeping, checked after every grant
and every delivery.

A stream owns its channels' cursors: ``rows_granted`` / ``rows_delivered``
(the lowest, every channel's while they agree) and ``channel_grants`` /
``channel_deliveries`` (each channel's, only while they differ).  A read
stream's lowest grant cursor comes from its completed rows, and a bank
counts a stream's grants from the cursors, not word by word.  So this test
wraps ``arbitrate`` and ``deliver`` and, after every call, checks them
against what it recounts on its own:

* ``rows_granted == min(port.granted)``, and ``channel_grants`` is held
  exactly while ``min != max``;
* a read stream's rows below ``rows_granted`` are wide words (``bytes``)
  and the rows from it up to the highest cursor are channel-word lists;
* ``pending_requests`` is every channel's issued-but-not-granted words plus
  the by-name requests queued;
* each channel's grants and deliveries — read through its port and through
  its stream — are the in-flight entries that named its port when granted
  and when handed over (plus a macro jump's rows, from its plan), and
  ``channel_deliveries`` is held exactly while the deliveries differ;
* at random cycles and at the end, each bank's read and write counts are
  the words granted there: the window row each grant took (or a jump's grant
  rows), counted one word at a time.

It runs on the small ``fig7_ladder`` points of steps ① and ② (bank conflicts
not yet mitigated: skewed, contended cycles) and on generated workloads at
every ablation step.  The step-identity runs cannot see a cursor that is
only conservative (a stream left on the per-word path one cycle longer grants
the same words); this oracle can.
"""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_workload
from repro.core.params import ablation_feature_sets
from repro.system import AcceleratorSystem, datamaestro_evaluation_system
from repro.workloads import (
    ConvWorkload,
    GemmWorkload,
    stratified_subset,
    synthetic_suite,
)

DESIGN = datamaestro_evaluation_system()
STEPS = ablation_feature_sets()
#: The ladder's steps without bank-conflict mitigation.
CONTENDED = ("1_baseline", "2_prefetch")
#: Points per workload group, as the ``fig7_ladder`` benchmark takes them.
PER_GROUP = 3
#: The ladder's largest point: 17.5k stepped cycles at step ①, left out.
LARGEST = "conv_h16_w16_c32_k16_f7x7_s1"


def check_bookkeeping(system):
    memory = system.memory
    streams = [stream for stream in system.streamers.values() if stream.ports]
    pending = sum(len(port.pending) for port in memory._requesters.values())
    for stream in streams:
        cursors = [port.granted for port in stream.ports]
        low, high = min(cursors), max(cursors)
        assert stream.rows_granted == low, (stream.name, cursors)
        assert (stream.channel_grants is None) == (low == high), (stream.name, cursors)
        pending += len(cursors) * stream.requests_issued - sum(cursors)
        if stream.is_read:
            words = stream.words_streamed
            rows = list(stream.rows)
            assert len(rows) == high - words, (stream.name, cursors, words)
            assert all(row.__class__ is bytes for row in rows[: low - words])
            assert all(row.__class__ is list for row in rows[low - words :])
    assert memory.pending_requests == pending


class Recount:
    """Every stream channel's grants and deliveries and every bank's
    accesses, counted from the in-flight entries as the memory makes and
    hands them over, the window row each grant took, and a macro jump's plan
    — never from the cursors it checks."""

    def __init__(self, system, seed):
        self.system = system
        self.memory = system.memory
        self.streams = self.channels = None  # the program's, once loaded
        self.granted = Counter()
        self.delivered = Counter()
        banks = system.memory.geometry.num_banks
        self.accesses = {True: [0] * banks, False: [0] * banks}
        self.random = random.Random(seed)

    def load(self):
        if self.streams is None:
            streamers = self.system.streamers.values()
            self.streams = [stream for stream in streamers if stream.ports]
            self.channels = {
                port: (stream, column)
                for stream in self.streams
                for column, port in enumerate(stream.ports)
            }

    def grants(self, before):
        """Count the entries an ``arbitrate`` appended past ``before``."""
        self.load()
        for _, ports, _ in list(self.memory._in_flight)[before:]:
            for port in ports:
                stream, column = self.channels[port]
                step = self.granted[port]
                banks = stream.window[step - stream.window_start][0]
                self.accesses[stream.is_read][banks[column]] += 1
                self.granted[port] += 1

    def deliveries(self, entries):
        """Count the ``entries`` a ``deliver`` handed over."""
        self.load()
        for _, ports, _ in entries:
            self.delivered.update(ports)

    def jump(self, plan):
        """Count a macro jump's grants and deliveries from its plan."""
        for span in plan.streams:
            rows = span.delta * plan.periods
            banks = span.grants[0]
            assert banks.shape == (rows, len(span.streamer.ports))
            for port in span.streamer.ports:
                self.granted[port] += rows
                self.delivered[port] += rows
            counts = self.accesses[span.streamer.is_read]
            for bank, count in enumerate(np.bincount(banks.ravel()).tolist()):
                counts[bank] += count

    def check(self):
        for stream in self.streams:
            ports = stream.ports
            grants, deliveries = map(list, stream.cursors())
            assert grants == [self.granted[port] for port in ports], stream.name
            assert deliveries == [self.delivered[port] for port in ports], stream.name
            assert grants == [port.granted for port in ports], stream.name
            assert deliveries == [port.delivered for port in ports], stream.name
            assert stream.rows_delivered == min(deliveries), stream.name
            aligned = min(deliveries) == max(deliveries)
            assert (stream.channel_deliveries is None) == aligned, stream.name
        if self.random.random() < 0.05:
            self.check_banks()

    def check_banks(self):
        stores = self.memory.scratchpad.banks
        assert [bank.read_count for bank in stores] == self.accesses[True]
        assert [bank.write_count for bank in stores] == self.accesses[False]


def run_checked(workload, step, seed=0):
    """Simulate ``workload`` at ablation ``step`` with the oracle after
    every arbitration and delivery; return the grants of each arbitration."""
    program = compile_workload(workload, DESIGN, STEPS[step], seed=seed)
    system = AcceleratorSystem(DESIGN)
    memory = system.memory
    recount = Recount(system, seed)
    arbitrate, deliver, advance_active = (
        memory.arbitrate, memory.deliver, system.advance_active
    )
    calls = []

    def checked_arbitrate():
        before = len(memory._in_flight)
        granted = arbitrate()
        recount.grants(before)
        check_bookkeeping(system)
        recount.check()
        calls.append(granted)
        return granted

    def checked_deliver():
        before = list(memory._in_flight)
        count = deliver()
        recount.deliveries(before[: len(before) - len(memory._in_flight)])
        recount.check()
        return count

    def checked_advance_active(cycles):
        recount.jump(system._steady._plan)
        advance_active(cycles)
        recount.check()

    memory.arbitrate, memory.deliver = checked_arbitrate, checked_deliver
    system.advance_active = checked_advance_active
    result = system.run(program)
    assert system.verify_outputs(result)
    recount.check_banks()
    return calls


LADDER = [
    (step, workload)
    for workloads in synthetic_suite().values()
    for workload in stratified_subset(list(workloads), PER_GROUP)
    for step in CONTENDED
    if workload.name != LARGEST
]


@pytest.mark.parametrize(
    "step, workload", LADDER, ids=[f"{s}/{w.name}" for s, w in LADDER]
)
def test_fig7_ladder_points_keep_their_grant_bookkeeping(step, workload):
    calls = run_checked(workload, step)
    assert sum(calls) > 0


workloads = st.one_of(
    st.builds(
        GemmWorkload,
        name=st.just("oracle_gemm"),
        m=st.sampled_from([8, 16, 24, 32]),
        n=st.sampled_from([8, 16, 24, 32]),
        k=st.sampled_from([8, 16, 32, 48]),
        transposed_a=st.booleans(),
        quantize=st.booleans(),
    ),
    st.builds(
        ConvWorkload,
        name=st.just("oracle_conv"),
        in_height=st.integers(4, 10),
        in_width=st.integers(4, 10),
        in_channels=st.sampled_from([8, 16]),
        out_channels=st.sampled_from([8, 16]),
        kernel_h=st.sampled_from([1, 3]),
        kernel_w=st.sampled_from([1, 3]),
        stride=st.sampled_from([1, 2]),
        padding=st.sampled_from([0, 1]),
    ),
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workload=workloads, step=st.sampled_from(sorted(STEPS)), seed=st.integers(0, 3))
def test_generated_workloads_keep_their_grant_bookkeeping(workload, step, seed):
    run_checked(workload, step, seed)
