"""A work budget for the per-stepped-cycle path that repeats exactly.

``tools/step_cost.py`` counts Python calls, numpy calls, word records,
``Fifo`` method calls, container operations and channel visits under
``sys.setprofile`` — counts,
not seconds, so the budget holds on any runner.  Measured on
``conv_h14_w14_c16_k32_f5x5_s2`` (parent f4874ba → the address FIFO as two
counters and the crossbar filling the data FIFOs):

============  ======================  =====================  ===================
step          calls per stepped cycle budget (0.6 x parent)  Fifo calls per word
============  ======================  =====================  ===================
2_prefetch    164.0 → 79.5            98.4                   4.23 → 0.24
1_baseline    101.1 → 52.3            60.7                   4.29 → 0.26
============  ======================  =====================  ===================

Numpy calls per stepped cycle, parent 3fa8c72 → words moved as bytes-like
copies (a slice of the scratchpad's ``bytearray`` at the grant, one
``np.frombuffer`` per pop) and each GeMM tile computed once, at its last
k-step, then parent 6f7da5d → a macro jump verified and replayed in linear
numpy passes (a tile is one batched ``np.matmul``, not an ``einsum``, and
the commutation check one ``np.bincount``, not ``np.unique`` and
``np.intersect1d``), then parent 752d184 → a tile one int8 ``einsum``
accumulated in int32 (seven numpy calls a tile more, with its dispatcher's
generator) and a stream's write grant storing its word with no
``np.asarray`` per word (32 a tile fewer), the address window evaluated as
whole passes through the AGU's inner loops; the budget is the last count,
rounded up to the next hundredth:

=================================  ============  ============
change                             2_prefetch    1_baseline
=================================  ============  ============
words as bytes, a tile at once     26.34 → 2.91  12.67 → 1.51
linear-time jumps                  2.89 → 2.80   1.51 → 1.46
int8 tiles, lean write grants      2.80 → 2.36   1.46 → 1.26
=================================  ============  ============

Calls per stepped cycle, parent 755e1a2 → a channel held as its data FIFO
and its memory port (no per-channel object) and the memory's counters as
plain attributes, then parent a22ead8 → a memory word as a tuple with one
in-flight batch per grant cycle, then parent 78c36bb → the steady-span
planner as a protocol over the units (each lists its period counters once
per program and signs its own state at a boundary, with no generator and
no name lookup per counter), then parent 8fcc656 → the AGU as a function
of the step (no dual counters rippled per bundle; the streamer's
``bundles_generated`` is the one stream position), then parent 6f7da5d →
linear-time jumps (no Python call moved), then parent 752d184 → a
stream's write grant stored in ``arbitrate`` itself, not through
``MemoryBank.write``; the budget is the last count:

===============================  ===========  ===========
change                           2_prefetch   1_baseline
===============================  ===========  ===========
a channel is a FIFO and a port   68.5 → 53.1  46.4 → 39.1
a word is a tuple, not a record  53.1 → 37.8  39.1 → 31.8
the planner over its units       37.8 → 35.8  31.8 → 28.9
the AGU a function of the step   35.8 → 34.0  28.9 → 28.0
linear-time jumps                33.9 → 33.9  28.0 → 28.0
lean write grants                33.9 → 32.8  28.0 → 27.5
===============================  ===========  ===========

Then parent ea17a9b → words moved as rows: a channel's pending words are
rows of its streamer's address window between its grant cursor and the
issue cursor, a streamer holds its words once per row, a cycle whose head
rows name no bank twice grants each row whole (one gather, one in-flight
entry), and the GeMM core pops rows as bytes.  ``6_full`` is the clean-cycle
row; the budget is the last count, rounded up to the next tenth (calls) or
hundredth (numpy calls), and the container operations per word — ``c_call``
events on ``deque``, ``list`` and ``dict`` methods and ``bytes.join`` — are
held exactly:

==========  =============  ============  ======================
step        calls          numpy calls   container ops per word
==========  =============  ============  ======================
2_prefetch  32.8 → 31.8    2.36 → 0.62   7.86 → 4.13
1_baseline  27.5 → 27.0    1.26 → 0.43   8.19 → 2.59
6_full      35.5 → 33.9    3.79 → 1.88   1.54 → 0.26
==========  =============  ============  ======================

Then parent fdb9743 → one in-flight entry per word-grant cycle (its ports in
grant order and the owners to hand over to, not one entry per word), a read
stream's lowest grant cursor from its completed rows (not a ``min`` / ``max``
over its ports), a window's bank masks without an ``astype`` and no
property call per decoded window; the budget is the last count, rounded up
as above, and the container operations are held exactly:

==========  =============  ============  ======================
step        calls          numpy calls   container ops per word
==========  =============  ============  ======================
2_prefetch  31.8 → 31.8    0.62 → 0.60   4.13 → 2.48
1_baseline  27.0 → 27.0    0.43 → 0.42   2.59 → 2.09
6_full      33.9 → 33.8    1.88 → 1.80   0.26 → 0.22
==========  =============  ============  ======================

Container operations are then counted only where ``repro`` code makes them
(numpy's own list traffic moves with the numpy release): 36,067 → 36,052 on
``1_baseline`` and 3,742 → 3,741 on ``6_full``; no per-word figure above
moves.

Then parent c6d03ef → the stream, not its ports, holds its channels' grant
and delivery cursors (a row granted whole is one cursor bump, its delivery
another), a bank counts a stream's grants from those cursors instead of one
word at a time, and the system visits each streamer once a cycle to
generate, issue and park it; the budget is the last count, rounded up as
above, and the container operations are held exactly:

==========  =============  ============  ======================
step        calls          numpy calls   container ops per word
==========  =============  ============  ======================
2_prefetch  31.8 → 25.4    0.60 → 0.60   2.48 → 2.49
1_baseline  27.0 → 21.3    0.42 → 0.42   2.09 → 2.09
6_full      33.8 → 26.4    1.80 → 1.76   0.22 → 0.22
==========  =============  ============  ======================

A word-grant cycle now hands each write stream that moved to its in-flight
entry as well, with the cursors its acknowledgements leave (a per-port count
before): 42,920 → 42,971 container operations on ``2_prefetch`` and 3,741 →
3,752 on ``6_full``; a macro jump that moves an aligned stream's words builds
no dict view to place them, 3,752 → 3,749 on ``6_full``.  ``measure`` runs
the kernel once unhooked before it counts, whatever ran before in the
process; no count above moved with that.

Issue appends nothing and delivery only counts, so a data FIFO is counts
over its streamer's rows and no ``Fifo`` method is left on the step path
(the quantizer's queue moves in jumps here).  On ``2_prefetch`` the C and D
streamers sit at a fixpoint for most of every tile (95 % of stepped cycles
here), and a parked streamer is not entered at all.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "step_cost.py"
WORKLOAD = "conv_h14_w14_c16_k32_f5x5_s2"
#: Calls per stepped cycle, as measured (see the last table).
CALLS = {"2_prefetch": 25.5, "1_baseline": 21.3, "6_full": 26.5}
#: Numpy calls per stepped cycle, as measured (see the last table).
NUMPY_CALLS = {"2_prefetch": 0.61, "1_baseline": 0.42, "6_full": 1.77}
#: Container operations over the kernel, exactly (see the last table).
CONTAINER_OPS = {"2_prefetch": 42971, "1_baseline": 36052, "6_full": 3749}


@pytest.fixture(scope="module")
def step_cost():
    spec = importlib.util.spec_from_file_location("step_cost", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("step", sorted(CALLS))
def test_a_stepped_cycle_stays_within_its_work_budget(step_cost, step):
    report = step_cost.measure(step, WORKLOAD)
    assert report["stepped_cycles"] <= report["cycles"]
    assert report["calls_per_stepped_cycle"] <= CALLS[step], report
    assert report["numpy_calls_per_stepped_cycle"] <= NUMPY_CALLS[step], report
    assert report["records_per_word"] == 0, report["records"]
    assert report["container_ops"] == CONTAINER_OPS[step], report
    assert report["fifo_calls_per_word"] <= 0.5, report
    assert report["issue_visits_per_request"] <= 1.5, report
    if step == "2_prefetch":
        # C (init words) and D (results) move once per tile and wait otherwise.
        assert min(report["parked_share"][port] for port in "CD") >= 0.85, report
    assert step_cost.render(report).startswith(f"step cost of {step}/{WORKLOAD}")


def test_the_counts_repeat_exactly(step_cost):
    first = step_cost.measure("2_prefetch", WORKLOAD)
    assert step_cost.measure("2_prefetch", WORKLOAD) == first
