"""An oracle for the memory's grant bookkeeping, checked after every grant.

A stream keeps its grant cursors twice: each channel's ``port.granted``, and
the stream-wide ``rows_granted`` (the lowest) and ``aligned`` (every channel
there) that :meth:`MemorySubsystem.arbitrate` reads to pick the whole-row
path.  A read stream's cursor comes from its completed rows, not from its
ports, so this test wraps ``arbitrate`` and, after every call, checks the
one against the other for every stream:

* ``rows_granted == min(port.granted)`` and ``aligned == (min == max)``;
* a read stream's rows below ``rows_granted`` are wide words (``bytes``)
  and the rows from it up to the highest cursor are channel-word lists;
* ``pending_requests`` is every channel's issued-but-not-granted words plus
  the by-name requests queued.

It runs on the small ``fig7_ladder`` points of steps ① and ② (bank conflicts
not yet mitigated: skewed, contended cycles) and on generated workloads at
every ablation step.  The step-identity runs cannot see a cursor that is
only conservative (a stream left on the per-word path one cycle longer grants
the same words); this oracle can.
"""

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
        assert stream.aligned == (low == high), (stream.name, cursors)
        pending += len(cursors) * stream.requests_issued - sum(cursors)
        if stream.is_read:
            words = stream.words_streamed
            rows = list(stream.rows)
            assert len(rows) == high - words, (stream.name, cursors, words)
            assert all(row.__class__ is bytes for row in rows[: low - words])
            assert all(row.__class__ is list for row in rows[low - words :])
    assert memory.pending_requests == pending


def run_checked(workload, step, seed=0):
    """Simulate ``workload`` at ablation ``step`` with the oracle after
    every arbitration; return the number of arbitrations checked."""
    program = compile_workload(workload, DESIGN, STEPS[step], seed=seed)
    system = AcceleratorSystem(DESIGN)
    memory = system.memory
    arbitrate = memory.arbitrate
    calls = []

    def checked():
        granted = arbitrate()
        check_bookkeeping(system)
        calls.append(granted)
        return granted

    memory.arbitrate = checked
    result = system.run(program)
    assert system.verify_outputs(result)
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
