"""A work budget for a short job's fixed cost that repeats exactly.

``tools/step_cost.py setup`` runs the first 24 serve-pool jobs
(``default_pool``, what ``serve_hotkey`` misses on: a few cycles and about a
hundred memory words each) and counts, per job and outside the cycles
stepped, ``repro`` Python calls and numpy calls under ``sys.setprofile`` —
counts, not seconds, so the budget holds on any runner.  Per job, parent
20285db → one scratchpad array, design-level CSR maps and spatial offsets,
channels built only where the kernel uses them, a lean first window and a
compile without ``np.pad``:

=================  ===================  ===================
stage              repro calls          numpy calls
=================  ===================  ===================
compile            437.7 → 143.0        157.6 → 57.5
build              99.0 → 101.0         65.0 → 2.0
load               1058.7 → 373.0       73.0 → 30.3
first windows      86.7 → 33.0          73.3 → 18.3
read-back          10.0 → 13.0          37.0 → 23.0
outcome            133.0 → 114.3        0.0 → 0.0
total              1825.0 → 777.4       405.9 → 131.2
compile (einsum)   143.0 → 143.0        57.5 → 64.5
build (752d184)    100.0 → 100.0        2.0 → 4.0
load (752d184)     323.0 → 330.4        29.3 → 29.3
windows (752d184)  25.7 → 35.3          18.3 → 27.3
total (752d184)    649.8 → 666.8        137.2 → 148.2
windows (fdb9743)  49.0 → 35.7          38.3 → 25.7
total (fdb9743)    745.1 → 739.1        159.2 → 146.5
=================  ===================  ===================

The parent bound its channels' memory ports at the first issue, inside the
stepped cycles; they are bound at load now, so ``load`` counts them.  The
budget is half the parent's totals.  The last rows came later.  First, the
compile's int32 reference GeMM and convolution taps became ``np.einsum``
calls (about 3x faster than the int32 ``np.matmul`` on a 48³ GeMM, at 7
more numpy calls per job).  Then, from parent 752d184, the scratchpad
gained a view of one opaque word per wordline, and each streamer's AGU
evaluates an address window as whole passes through its inner loops, its
extreme addresses once at ``configure``, so that a macro jump decodes a
span at half the cost.  Then, from parent fdb9743, a window that lies
inside one pass of the AGU's inner loops is evaluated step by step, with no
pass table, and its bank masks are shifted straight into ``uint64``; the
first windows are held at their new count (``FIRST_WINDOWS``).  A streamer
resets its stream state in one method that construction and ``configure``
share, two calls per streamer in ``load`` (393.0 → 400.4 there).

``tools/step_cost.py step`` reads the same run for the other half: ``repro``
and numpy calls inside the engine's ``drive``, first windows aside, per
stepped cycle (189 cycles over the 24 jobs).  The budget holds both at their
last measured value:

===================================  =======================  ===========
change                               calls per stepped cycle  numpy calls
===================================  =======================  ===========
one issue decision per streamer      191.6 → 138.7            —
words as bytes, a GeMM tile at once  138.7 → 137.3            30.1 → 17.9
a channel is a data FIFO and a port  137.3 → 125.1            17.9 → 17.9
a word is a tuple, not a record      125.1 → 108.7            17.9 → 17.9
the planner over its units           108.7 → 104.4            17.9 → 17.9
the AGU a function of the step       104.4 → 102.7            17.9 → 17.9
a tile one matmul, not an einsum     102.7 → 102.7            17.9 → 16.6
int8 tiles, lean write grants        102.7 → 90.3             16.6 → 12.0
words moved as rows                  90.3 → 63.5              12.0 → 11.1
one in-flight entry per grant cycle  63.5 → 63.5              11.1 → 11.1
cursors on the stream, one visit     63.5 → 52.1              11.1 → 11.1
===================================  =======================  ===========

A word is a slice of the scratchpad's ``bytearray`` taken at the grant and
a pop joins them with one ``np.frombuffer``; the GeMM core pops its words
and computes each tile once, at its last k-step.  Since words move as rows,
issue appends nothing, a grant of a whole row is one gather and one
in-flight entry, delivery only counts, and the core pops rows as bytes.  A stream's write grant
stores its word in ``arbitrate`` itself (``MemoryBank.write``, with its
``np.asarray``, is for by-name requests).  What is left is the tile
computation, the datapath extensions and the quantizer.  A streamer holds each channel as
its data FIFO and its memory port, and the memory counts in plain int
attributes, so no per-channel object or name-keyed counter sits on the path;
a memory word is a tuple, so no record is built for it either.

The last row moved the channels' grant and delivery cursors from the ports
to the streamer and visits each streamer once a cycle.  A drained streamer
now parks instead of leaving the live list, so the statistics settle its
parked cycles, and each streamer's statistics read its cursors through one
call: ``outcome`` 45.0 → 54.0 ``repro`` calls per job (739.1 → 748.1 in
all), against 11.4 fewer per stepped cycle.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "step_cost.py"
#: Per-job counts at the parent commit (see the table above).
PARENT = {"repro_calls_per_job": 1825.0, "numpy_calls_per_job": 405.9}
#: ``repro`` and numpy calls per stepped cycle of the same jobs, as measured.
STEP_CALLS_PER_STEPPED_CYCLE = 52.2
STEP_NUMPY_CALLS_PER_STEPPED_CYCLE = 11.2
#: ``repro`` and numpy calls per job of a streamer's first address window.
FIRST_WINDOWS = {"repro": 35.7, "numpy": 25.7}


@pytest.fixture(scope="module")
def step_cost():
    spec = importlib.util.spec_from_file_location("step_cost", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def report(step_cost):
    return step_cost.measure_setup()


@pytest.mark.parametrize("count", sorted(PARENT))
def test_a_short_job_stays_within_its_setup_budget(report, count):
    assert report["jobs"] == 24
    assert report[count] <= 0.5 * PARENT[count], report["stages"]


def test_first_windows_stay_within_their_budget(report):
    stage = report["stages"]["first windows"]
    for count, budget in FIRST_WINDOWS.items():
        assert stage[count] / report["jobs"] <= budget, report["stages"]


def test_a_stepped_cycle_stays_within_its_budget(step_cost, report):
    assert report["stepped_cycles"] == 189
    assert report["step_calls_per_stepped_cycle"] <= STEP_CALLS_PER_STEPPED_CYCLE
    assert (
        report["step_numpy_calls_per_stepped_cycle"]
        <= STEP_NUMPY_CALLS_PER_STEPPED_CYCLE
    )
    assert step_cost.render_step(report).startswith("step cost of 24 serve-pool jobs")


def test_every_stage_is_counted(step_cost, report):
    assert list(report["stages"]) == list(step_cost.SETUP_STAGES)
    # Each stage is reached by every job, and the totals are their sums.
    assert all(stage["repro"] >= report["jobs"] for stage in report["stages"].values())
    assert report["repro_calls"] == sum(s["repro"] for s in report["stages"].values())
    assert report["numpy_calls"] == sum(s["numpy"] for s in report["stages"].values())
    assert step_cost.render_setup(report).startswith("setup cost of 24 serve-pool jobs")


def test_the_counts_repeat_exactly(step_cost, report):
    assert step_cost.measure_setup() == report
