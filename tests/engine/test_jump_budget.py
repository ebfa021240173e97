"""A work budget for a macro jump that repeats exactly.

``tools/step_cost.py jump`` runs the 12 ResNet-18 crops of ``table3_cnn``
(19 jumps over 27,472 of their 28,836 cycles) and counts, under
``sys.setprofile`` and by the rules of the ``setup`` mode, ``repro`` Python
calls and numpy calls inside the steady-span planner's ``_prepare`` (verify
and plan) and ``_commit`` (the replay) — counts, not seconds, so the budget
holds on any runner.  Per jump, parent 752d184 → int8 tile products with
int32 accumulation, span words placed by slices, one lean decode per span
and row bitmasks instead of sorts:

=========  =============  =============
stage      repro calls    numpy calls
=========  =============  =============
prepare    67.0 → 91.2    126.0 → 67.3
commit     123.0 → 53.0   276.0 → 112.2
total      190.0 → 144.2  402.0 → 179.5
=========  =============  =============

``_prepare`` makes more ``repro`` calls than it did: each span's addresses
are evaluated as whole passes through its inner loops, and each stream's
rows become bitmasks, in functions of their own.  It makes fewer numpy
calls, and ``_commit`` fewer of both: the words a write channel holds are
gathered without a comprehension per channel, a span's rows still waiting
are converted once for every channel, and a bank's last grant is looked up
in the span's tail.  Then, from parent ea17a9b, words moved as rows: a
replay rebuilds one deque of rows per streamer instead of each channel's
queues, and the counters that move are listed once, when the span is
planned (``_commit`` 53.0 → 49.9 ``repro`` and 112.2 → 104.9 numpy calls,
``_prepare`` 91.2 → 87.4 and 67.3 → 66.1; 144.2 → 137.3 and 179.5 → 170.9
in all).  Then, from parent fdb9743, a span that lies inside one pass of
its AGU's inner loops is decoded step by step, with no pass table, its bank
masks are shifted straight into ``uint64``, the remapper's group size is
read without a property call, and the replay places and takes a span's
words through one function (``_prepare`` 87.4 → 83.4 ``repro`` and 66.1 →
62.1 numpy calls, ``_commit`` 49.9 → 47.4 and 104.9 → 104.9; 137.3 →
130.7 and 170.9 → 166.9 in all).  Then, from parent c6d03ef, a bank counts
a stream's grants from its grant cursors, so a span's replay no longer counts
them with a ``np.bincount`` per stream, it points the arbiter only for an
isolated stream, and the planner counts each stream's rows in its replay
loop, not in a comprehension (``_commit`` 104.9 → 96.9 numpy and 47.4 →
46.4 ``repro`` calls; 166.9 → 158.9 and 130.7 → 129.7 in all).  The budget
is the last count, rounded up to the next tenth.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "step_cost.py"
#: ``repro`` and numpy calls per jump, as measured (see the table).
REPRO_CALLS_PER_JUMP = 129.8
NUMPY_CALLS_PER_JUMP = 159.0


@pytest.fixture(scope="module")
def step_cost():
    spec = importlib.util.spec_from_file_location("step_cost", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def report(step_cost):
    return step_cost.measure_jump()


def test_a_jump_stays_within_its_work_budget(step_cost, report):
    assert (report["crops"], report["jumps"]) == (12, 19)
    assert report["cycles_skipped"] == 27472
    # One plan per jump: no table3_cnn attempt bails.
    assert [stage["calls"] for stage in report["stages"].values()] == [19, 19]
    assert report["repro_calls_per_jump"] <= REPRO_CALLS_PER_JUMP, report["stages"]
    assert report["numpy_calls_per_jump"] <= NUMPY_CALLS_PER_JUMP, report["stages"]
    assert report["repro_calls"] == sum(s["repro"] for s in report["stages"].values())
    assert step_cost.render_jump(report).startswith(
        "jump cost of the 12 ResNet-18 crops of table3_cnn"
    )


def test_the_counts_repeat_exactly(step_cost, report):
    assert step_cost.measure_jump() == report
