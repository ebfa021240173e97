"""The work ledger of the grant path's layers, held on every runner.

``tools/step_cost.py ledger`` counts, under a profile and a trace hook at
once, the ``step`` layer (inside the engine's ``drive``, each streamer's
first address window aside) over the 24 serve-pool jobs and over Fig. 7's
7x7 convolution at ``2_prefetch`` (contended) and ``6_full`` (almost every
row granted whole), and the ``first windows`` layer
over the serve-pool jobs: ``repro`` calls, numpy calls, container operations
and ``repro`` bytecodes (``opcode`` trace events).  Per stepped cycle
(``step``) or per job (``first windows``), parent fdb9743 → one in-flight
entry per word-grant cycle, a read stream's grant cursor from its completed
rows, and first windows without a pass table for a window inside one pass or
an ``astype`` for its bank masks:

==============================================  =============  =============
row                                             bytecodes      containers
==============================================  =============  =============
step, serve pool (24 jobs)                      4115.5→3640.2  56.3 → 41.3
first windows, serve pool (24 jobs)             2200.9→1851.9  3.0 → 0.0
step, 2_prefetch/conv_h16_w16_c32_k16_f7x7_s1   4257.8→3211.1  56.2 → 35.6
==============================================  =============  =============

``first windows`` also fell from 49.0 to 35.7 ``repro`` and from 38.3 to 25.7
numpy calls per job; the ``step`` rows' calls did not move.  A change that
moves a row sets its new totals here and says why.

Then parent c6d03ef → the stream owns its channels' grant and delivery
cursors (a row granted whole is one cursor bump, its delivery another, and a
per-channel list lives only while the channels differ), a bank counts a
stream's grants from those cursors, and each streamer is visited once a
cycle to generate, issue and park; per stepped cycle:

==============================================  =============  =============
row                                             bytecodes      repro calls
==============================================  =============  =============
step, serve pool (24 jobs)                      3640.2→3043.3  63.5 → 52.1
step, 2_prefetch/conv_h16_w16_c32_k16_f7x7_s1   3211.1→2818.7  29.5 → 23.8
step, 6_full/conv_h16_w16_c32_k16_f7x7_s1       2090.1→1387.2  31.8 → 24.6
==============================================  =============  =============

The ``6_full`` row is new here (its parent counts are the left column).  A
kernel row runs its kernel once unhooked before it counts, so the tables a
design fills on first use are warm whichever tests ran before in the
process (without that, the ``6_full`` row read 6 ``repro`` calls more when
it ran first).  The first windows did not move.  Numpy calls fell on
``6_full`` (919 → 887: a macro jump counts no bank accesses) and did not
move elsewhere; container operations rose by one per word-grant cycle that
moves a write stream, which now hands its acknowledgement cursors to the
in-flight entry (7,813 → 7,879, 345,720 → 345,820 and 12,878 → 12,898),
and fell on ``6_full`` by one per jump that moves an aligned stream's words,
which builds no dict view to place them (12,898 → 12,886).

Which columns hold exactly where: the stepped cycles or jobs a row covers
and its container operations (made by ``repro`` code) do not depend on the
interpreter, and are held exactly on every runner.  Bytecodes are a count of
one CPython version (3.10 and 3.12 compile the same lines to other
bytecodes), and so are ``repro`` calls (3.12 inlines list comprehensions,
PEP 709): both are held exactly on :data:`MEASURED_ON`, the version they were
measured on, and ``repro`` calls are a bound elsewhere.  Numpy calls count
numpy's own Python frames, which move with the numpy release: a bound
everywhere, as in the step and setup budgets.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "step_cost.py"
POOL = "serve pool (24 jobs)"
#: The CPython version the ``repro`` and ``bytecodes`` totals were measured on.
MEASURED_ON = (3, 11)
#: Each row's totals and the stepped cycles (``step``) or jobs it covers.
LEDGER = {
    ("step", POOL): {
        "repro": 9849, "numpy": 2103, "containers": 7879, "bytecodes": 575178,
        "per": 189,
    },
    ("first windows", POOL): {
        "repro": 856, "numpy": 616, "containers": 0, "bytecodes": 44446, "per": 24
    },
    ("step", "2_prefetch/conv_h16_w16_c32_k16_f7x7_s1"): {
        "repro": 230786, "numpy": 1892, "containers": 345820,
        "bytecodes": 27338616, "per": 9699,
    },
    ("step", "6_full/conv_h16_w16_c32_k16_f7x7_s1"): {
        "repro": 19325, "numpy": 887, "containers": 12886,
        "bytecodes": 1091762, "per": 787,
    },
}


@pytest.fixture(scope="module")
def step_cost():
    spec = importlib.util.spec_from_file_location("step_cost", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def report(step_cost):
    return step_cost.measure_ledger()


@pytest.mark.parametrize("row", list(LEDGER), ids=" / ".join)
def test_every_ledger_row_holds_its_counts(report, row):
    counted, held = report["rows"][row], LEDGER[row]
    assert counted["per"] == held["per"], counted
    assert counted["containers"] == held["containers"], counted
    assert counted["repro"] <= held["repro"], counted
    assert counted["numpy"] <= held["numpy"], counted


@pytest.mark.skipif(
    sys.version_info[:2] != MEASURED_ON,
    reason="bytecodes and repro calls are counts of the CPython version "
    "they were measured on (3.11)",
)
@pytest.mark.parametrize("row", list(LEDGER), ids=" / ".join)
def test_bytecodes_and_calls_hold_exactly_where_measured(report, row):
    counted, held = report["rows"][row], LEDGER[row]
    assert (counted["repro"], counted["bytecodes"]) == (
        held["repro"], held["bytecodes"]
    ), counted


def test_the_ledger_has_its_rows_and_renders_them(step_cost, report):
    assert list(report["rows"]) == list(LEDGER)
    text = step_cost.render_ledger(report)
    assert text.startswith("work ledger") and len(text.splitlines()) == 2 + len(LEDGER)
