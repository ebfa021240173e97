"""Macro-step (steady-span) fast-path parity on its adversarial corners.

The vectorized fast path (:mod:`repro.engine.steady`) must stay
bit-identical to lockstep exactly where its assumptions are most fragile:

* **single-cycle kernels** — ``tiles_k == 1`` completes an output tile on
  every firing cycle, so boundary bookkeeping runs at maximum rate;
* **steady state broken mid-span by a bank conflict** — a stream whose
  bank pattern rotates is verified by *isolation* (never contended, skew-free,
  every row on distinct banks, footprint shared with nobody), everything
  else by exact tiling; the corners here are the ones where a rule really
  truncates or bails: a row that starts to self-conflict mid-span, a
  rotating stream drifting into another stream's bank group, a skewed
  stream, an arbiter pointer that differs between the two boundaries
  (conflict counts, per-bank counters and the arbiter's pointers are part
  of the parity assertion);
* **spans that do not commute** — a word written twice, or read and
  written, inside one span must bail rather than replay as one gather and
  one scatter;
* **conv layers** — the ResNet-18 crop shapes, whose A/B operands rotate
  through their bank groups on every tile, must engage the fast path;
* **deadlocks** — a kernel that streams steadily (and macro-jumps) before
  starving must raise the same :class:`SimulationLimitError` at the same
  cycle with the same report as lockstep, including mid-kernel budget
  exhaustion that lands inside what would have been a steady span.

It also pins down the protocol plumbing: the fast path engages on the
compute-bound kernel (this is the PR's performance claim), stays inert
under ``macro_stepping=False``, and reports its activity via
``steady_stats``.
"""

import dataclasses

import numpy as np
import pytest

from repro.compiler import compile_workload
from repro.core.csr import encode_runtime_config
from repro.core.params import FeatureSet
from repro.core.streamer import DataMaestro
from repro.engine import EventDrivenEngine, steady, supports_macro_protocol
from repro.sim import SimulationLimitError
from repro.system import AcceleratorSystem, datamaestro_evaluation_system
from repro.workloads import ConvWorkload, GemmWorkload

from test_parity import (
    assert_deep_state_identical,
    assert_parity,
    assert_results_identical,
    run_engine,
)

DESIGN = datamaestro_evaluation_system()


def compute_bound_workload():
    """The benchmark kernel: dense 64x64x64 GeMM, >99% utilization."""
    return GemmWorkload(name="macro_cb", m=64, n=64, k=64)


def reprogrammed(workload, **ports):
    """``workload`` compiled for DESIGN with some streamers' CSRs rewritten.

    ``ports`` maps a port name to :class:`StreamerRuntimeConfig` field
    updates.  The operands then no longer match the oracle, which parity
    does not need: both engines stream the same (wrong) bytes.
    """
    program = compile_workload(workload, DESIGN, FeatureSet.all_enabled())
    for port, updates in ports.items():
        config = program.streamer_configs[port].with_updates(**updates)
        program.streamer_configs[port] = config
        program.csr_writes[port] = encode_runtime_config(
            DESIGN.streamer(port), config, list(DESIGN.group_size_options())
        )
    return program


def run_both(make_program, system_class=AcceleratorSystem):
    """Lockstep on a plain system vs event on ``system_class``; deep parity."""
    reference = AcceleratorSystem(DESIGN)
    lockstep = reference.run(make_program(), engine="lockstep")
    system = system_class(DESIGN)
    event = system.run(make_program(), engine="event")
    assert_results_identical(lockstep, event)
    assert_deep_state_identical(reference, system)
    return system.steady_stats(), event


# ----------------------------------------------------------------------
# Single-cycle kernels: a tile boundary on every firing cycle.
# ----------------------------------------------------------------------
class TestSingleCycleKernels:
    @pytest.mark.parametrize(
        "workload",
        [
            GemmWorkload(name="macro_single_tile", m=8, n=8, k=8),
            GemmWorkload(name="macro_k8", m=64, n=64, k=8),
            GemmWorkload(name="macro_m8", m=8, n=64, k=64),
            GemmWorkload(name="macro_k8_quant", m=32, n=32, k=8, quantize=True),
        ],
        ids=lambda workload: workload.name,
    )
    def test_parity(self, workload):
        assert_parity(workload)


# ----------------------------------------------------------------------
# Steady state broken mid-span by bank conflicts.
# ----------------------------------------------------------------------
class TestConflictBrokenSteadyState:
    def test_conflicting_steady_state_is_exact(self):
        """The kernel both macro-jumps and arbitrates recurring conflicts.

        The compute-bound GeMM's 32-channel write burst conflicts 16x on
        every tile, so it must be verified by exact tiling, while its B
        operand shifts banks each tile inside a bank group of its own and is
        verified by isolation; parity on conflict counts, per-streamer retry
        statistics and per-bank state proves both rules exact.
        """
        workload = compute_bound_workload()
        system_l, lockstep = run_engine("lockstep", workload)
        system_e, event = run_engine("event", workload)
        assert_results_identical(lockstep, event)
        assert_deep_state_identical(system_l, system_e)
        assert event.bank_conflicts > 0, "corner needs recurring conflicts"
        assert event.streamer_stats["D"].bank_conflict_retries > 0
        assert event.streamer_stats["B"].bank_conflict_retries == 0
        stats = system_e.steady_stats()
        assert stats["jumps"] >= 1, "fast path never engaged"
        assert stats["tiled_streams"] >= 1, "D conflicts: it can only tile"
        assert stats["isolated_streams"] >= 1, "B rotates: it can only be isolated"

    def test_group_interleaved_variants(self):
        """Sweep addressing-mode configs so bank patterns differ."""
        for group_size in (64, 16, 1):
            design = dataclasses.replace(
                DESIGN, name=f"macro_gima_{group_size}"
            )
            workload = GemmWorkload(
                name=f"macro_gima_{group_size}", m=32, n=32, k=64
            )
            assert_parity(workload, design=design)

    def test_row_self_conflict_mid_span_truncates(self):
        """An isolated stream whose rows start to self-conflict mid-kernel.

        A is reprogrammed non-interleaved with a channel stride of 255
        words: channel ``c`` sits in bank ``16 + c`` except while the word
        offset inside the bank is below 7, where neighbouring channels share
        a bank.  That happens on tiles 24-31 only, so the first jump must
        stop right before tile 24 and the per-cycle loop must arbitrate the
        conflicts.  They leave A's channels skewed, and a skewed stream is
        no longer isolated: the jump after the conflicts verifies A by
        tiling (its banks no longer move).
        """
        stats, event = run_both(
            lambda: reprogrammed(
                compute_bound_workload(),
                A=dict(
                    base_address=(16 * 256 + 232) * 8,
                    bank_group_size=1,
                    spatial_strides=(255 * 8,),
                    temporal_strides=(8, 0, 64),
                ),
            )
        )
        assert event.streamer_stats["A"].bank_conflict_retries > 0
        assert stats["jumps"] >= 2, "one jump before the conflicts, one after"
        assert stats["periods_replayed"] <= 64 - 8, "tiles 24-31 must be stepped"
        # D tiles in every jump; any further tiled verdict is skewed A's.
        assert stats["tiled_streams"] > stats["jumps"]
        assert stats["isolated_streams"] >= 3

    def test_rotating_stream_drifting_into_another_bank_group_bails(self):
        """Footprints that intersect later must stop the jump now.

        B is reprogrammed fully interleaved, starting on banks 40-47 and
        drifting one bank down per tile — into A's group (banks 16-31)
        around tile 9.  While the planner watches, neither stream is ever
        contended; jumping on that evidence would skip the conflicts.
        """
        stats, event = run_both(
            lambda: reprogrammed(
                compute_bound_workload(),
                B=dict(
                    base_address=(64 * 130 + 40) * 8,
                    bank_group_size=64,
                    temporal_strides=(512, 504, 4032),
                ),
            )
        )
        assert stats["bails"].get("bank_overlap", 0) >= 1
        assert stats["jumps"] == 0, "B never tiles and is never alone"
        assert event.streamer_stats["A"].bank_conflict_retries > 0
        assert event.streamer_stats["B"].bank_conflict_retries > 0

    def test_arbiter_pointers_that_differ_bail(self):
        """2-bank groups: every stream conflicts, the pointers settle late."""
        design = datamaestro_evaluation_system(gima_group_size=2)
        workload = GemmWorkload(name="macro_arbiter", m=64, n=64, k=64, quantize=True)
        system_l, lockstep = run_engine("lockstep", workload, design=design)
        system_e, event = run_engine("event", workload, design=design)
        assert_results_identical(lockstep, event)
        assert_deep_state_identical(system_l, system_e)
        stats = system_e.steady_stats()
        assert stats["bails"].get("arbiter_state", 0) >= 1
        assert stats["jumps"] >= 1, "the next boundary must chain a jump"
        assert stats["isolated_streams"] == 0

    @pytest.mark.parametrize("bank, bails", [(3, 1), (20, 0)], ids=["tiled", "isolated"])
    def test_arbiter_pointers_compared_on_tiled_banks_only(self, bank, bails):
        """A pointer that changed matters where streams arbitrate (D's banks
        0-15), not on an isolated stream's banks (A's 16-31)."""

        class Falsified(AcceleratorSystem):
            """Rewrites the pointer on ``bank`` in the first boundary record."""

            def steady_span(self, limit):
                span = super().steady_span(limit)
                planner = self._steady
                if (
                    planner is not None
                    and len(planner._history) == 1
                    and not planner.stats.attempts
                ):
                    record = planner._history[-1]
                    planner._history[-1] = record[:3] + ({**record[3], bank: "nobody"},)
                return span

        plain, _ = run_both(lambda: reprogrammed(compute_bound_workload()))
        stats, _ = run_both(
            lambda: reprogrammed(compute_bound_workload()), system_class=Falsified
        )
        assert stats["bails"].get("arbiter_state", 0) == bails
        assert stats["jumps"] >= 1
        if not bails:
            assert stats == plain


# ----------------------------------------------------------------------
# Span accesses that do not commute: one gather plus one scatter would
# reorder a word's accesses.
# ----------------------------------------------------------------------
class TestNonCommutingSpan:
    def test_a_word_written_twice_in_a_span_bails(self):
        """D's outer stride is 0, so every row of 8 output tiles lands on
        the same 8 tile slots: a span inside a row writes each word once
        and jumps, a span across rows would write a word twice."""
        stats, _ = run_both(
            lambda: reprogrammed(
                compute_bound_workload(), D=dict(temporal_strides=(256, 0))
            )
        )
        assert stats["bails"].get("write_collision", 0) >= 1, stats
        assert stats["jumps"] >= 1, "spans inside a row still jump"

    def test_a_word_read_and_written_in_a_span_bails(self):
        """A reads from D's base, so the operand words A gathers over a span
        include the results D scatters over it."""
        stats, _ = run_both(
            lambda: reprogrammed(compute_bound_workload(), A=dict(base_address=0))
        )
        assert stats["bails"].get("read_write_overlap", 0) >= 1, stats
        assert stats["jumps"] >= 1, "spans whose words never meet still jump"


# ----------------------------------------------------------------------
# Conv layers: rotating operand streams, one bank group each.
# ----------------------------------------------------------------------
class TestConvEngages:
    @pytest.mark.parametrize(
        "workload",
        [
            ConvWorkload(name="macro_conv3x3_s1", in_height=14, in_width=14,
                         in_channels=32, out_channels=32, kernel_h=3, kernel_w=3,
                         stride=1, padding=1),
            ConvWorkload(name="macro_conv3x3_s2", in_height=27, in_width=27,
                         in_channels=32, out_channels=32, kernel_h=3, kernel_w=3,
                         stride=2, padding=1),
            ConvWorkload(name="macro_conv1x1_s2", in_height=27, in_width=27,
                         in_channels=32, out_channels=32, kernel_h=1, kernel_w=1,
                         stride=2, padding=0),
            ConvWorkload(name="macro_conv7x7_s2", in_height=27, in_width=27,
                         in_channels=3, out_channels=32, kernel_h=7, kernel_w=7,
                         stride=2, padding=3),
        ],
        ids=lambda workload: workload.name,
    )
    def test_conv_jumps(self, workload):
        system_l, lockstep = run_engine("lockstep", workload)
        system_e, event = run_engine("event", workload)
        assert_results_identical(lockstep, event)
        assert_deep_state_identical(system_l, system_e)
        stats = system_e.steady_stats()
        assert stats["jumps"] >= 1, stats
        assert stats["bails"].get("bank_pattern", 0) == 0, stats
        assert stats["cycles_skipped"] > event.streaming_cycles // 2
        # A, B and C rotate alone in their groups; D conflicts and tiles.
        assert stats["isolated_streams"] == 3 * stats["jumps"]
        assert stats["tiled_streams"] == stats["jumps"]

    def test_chained_jumps_under_a_small_row_cap(self, monkeypatch):
        """Two periods per jump: per-bank counters and arbiter pointers are
        rebuilt dozens of times in one kernel and must stay exact."""
        monkeypatch.setattr(steady, "MAX_ROWS", 2 * 36)
        workload = ConvWorkload(
            name="macro_conv_chained", in_height=14, in_width=14, in_channels=32,
            out_channels=32, kernel_h=3, kernel_w=3, stride=1, padding=1,
        )
        system_l, lockstep = run_engine("lockstep", workload)
        system_e, event = run_engine("event", workload)
        assert_results_identical(lockstep, event)
        assert_deep_state_identical(system_l, system_e)
        stats = system_e.steady_stats()
        assert stats["jumps"] >= 20
        assert stats["periods_replayed"] == 2 * stats["jumps"]


# ----------------------------------------------------------------------
# Chained jumps: a span that MAX_ROWS capped goes on from its own end.
# ----------------------------------------------------------------------
class ChainSpy(AcceleratorSystem):
    """Records each jump as (start cycle, cycles) and the planner's answer
    at each jump's end as (cycle, span, bails it added); ``at_end`` tells
    whether the current question is asked at a jump's end."""

    def __init__(self, design):
        super().__init__(design)
        self.jumps = []
        self.at_ends = []
        self.at_end = False

    def advance_active(self, cycles):
        self.jumps.append((self._cycles, cycles))
        super().advance_active(cycles)

    def steady_span(self, limit):
        at_end = self.at_end = bool(self.jumps) and self._cycles == sum(self.jumps[-1])
        before = dict(self.steady_stats().get("bails", {})) if at_end else None
        span = super().steady_span(limit)
        if at_end:
            bails = self.steady_stats()["bails"]
            added = {k: v - before.get(k, 0) for k, v in bails.items() if v != before.get(k, 0)}
            self.at_ends.append((self._cycles, span, added))
        return span


def run_spied(make_program):
    """Lockstep vs event on a :class:`ChainSpy`: results, deep state and
    every streamer's channel statistics identical."""
    reference = AcceleratorSystem(DESIGN)
    lockstep = reference.run(make_program(), engine="lockstep")
    system = ChainSpy(DESIGN)
    event = system.run(make_program(), engine="event")
    assert_results_identical(lockstep, event)
    assert_deep_state_identical(reference, system)
    for name, streamer in reference.streamers.items():
        assert streamer.channel_statistics() == system.streamers[name].channel_statistics()
    return system, event


class TestChainedJumps:
    def test_a_capped_jump_chains_at_its_end(self):
        """The ViT/BERT crop shape: ``MAX_ROWS`` caps the first jump at 32
        tiles, and the second goes on from its end without stepping a tile
        to re-observe the period (the planner used to step 64 cycles more)."""
        workload = GemmWorkload(name="macro_crop", m=64, n=64, k=512, with_bias=True)
        system, event = run_spied(
            lambda: compile_workload(workload, DESIGN, FeatureSet.all_enabled())
        )
        stats = system.steady_stats()
        assert event.kernel_cycles == 4099
        assert stats["jumps"] == 2
        assert event.kernel_cycles - stats["cycles_skipped"] == 259
        (start, cycles), (chained, _) = system.jumps
        assert chained == start + cycles

    def test_a_chained_plan_that_bails_steps_a_tile(self, monkeypatch):
        """A's rows start to self-conflict on tile 24 (see
        ``test_row_self_conflict_mid_span_truncates``); with four tiles per
        jump the chained plan meets them, bails on ``bank_pattern``, and the
        per-cycle loop takes over until the next boundary."""
        monkeypatch.setattr(steady, "MAX_ROWS", 32)
        system, event = run_spied(
            lambda: reprogrammed(
                compute_bound_workload(),
                A=dict(
                    base_address=(16 * 256 + 232) * 8,
                    bank_group_size=1,
                    spatial_strides=(255 * 8,),
                    temporal_strides=(8, 0, 64),
                ),
            )
        )
        assert event.streamer_stats["A"].bank_conflict_retries > 0
        bailed = [(cycle, bails) for cycle, _, bails in system.at_ends if bails]
        assert [bails for _, bails in bailed] == [{"bank_pattern": 1}]
        assert any(span for _, span, _ in system.at_ends), "other jumps chain"
        # No jump at the bail: the next one starts after stepped cycles.
        cycle = bailed[0][0]
        assert min(start for start, _ in system.jumps if start >= cycle) > cycle

    def test_a_pointer_the_replay_cannot_know_reads_as_differing(self, monkeypatch):
        """A bank an isolated stream granted in a capped span's last period
        has no pointer one period back that the replay derived.  Should the
        chained plan verify that stream by tiling (forced here: A's span is
        not isolated at a jump's end), those banks' pointers count as
        differing, and it bails ``arbiter_state`` instead of jumping."""
        monkeypatch.setattr(steady, "MAX_ROWS", 64)
        plan_span = DataMaestro.plan_span
        system = ChainSpy(DESIGN)

        def tiled_at_an_end(streamer, *args):
            span = plan_span(streamer, *args)
            if span is not None and streamer.name == "A" and system.at_end:
                span.isolated = False
            return span

        monkeypatch.setattr(DataMaestro, "plan_span", tiled_at_an_end)
        reference = AcceleratorSystem(DESIGN)
        lockstep = reference.run(reprogrammed(compute_bound_workload()), engine="lockstep")
        event = system.run(reprogrammed(compute_bound_workload()), engine="event")
        assert_results_identical(lockstep, event)
        assert_deep_state_identical(reference, system)
        *chained, (_, last, _) = system.at_ends
        assert len(chained) >= 5 and last == 0
        assert all(span == 0 and bails == {"arbiter_state": 1} for _, span, bails in chained)


# ----------------------------------------------------------------------
# Stream ends: a span runs to the issues a stream has left.
# ----------------------------------------------------------------------
def head_workload():
    """The ``vit_head`` crop: 8 output tiles, and C and D streams that run
    4-5 tiles ahead of the core."""
    return GemmWorkload(name="macro_head", m=1, n=64, k=512, with_bias=True)


def one_deep_address_fifos():
    return dataclasses.replace(
        DESIGN,
        streamers=tuple(
            dataclasses.replace(streamer, address_buffer_depth=1)
            for streamer in DESIGN.streamers
        ),
    )


class TestStreamEnd:
    def test_a_span_runs_past_a_streams_last_bundle(self):
        """The C stream generates its last bundle inside the span; issue
        timing, credit stalls and address-FIFO peaks still match lockstep."""
        system_l, lockstep = run_engine("lockstep", head_workload())
        system_e, event = run_engine("event", head_workload())
        assert_results_identical(lockstep, event)
        assert_deep_state_identical(system_l, system_e)
        for name, streamer in system_l.streamers.items():
            other = system_e.streamers[name]
            assert streamer.channel_statistics() == other.channel_statistics(), name
            assert streamer.bundles_generated == other.bundles_generated, name
        stats = system_e.steady_stats()
        assert stats["jumps"] >= 1, stats
        assert stats["bails"].get("too_short", 0) == 0, stats

    def test_one_deep_address_fifos_never_run_out(self, monkeypatch):
        """The queued address a span leaves is then the AGU's last, so no
        span runs a stream's AGU out."""
        ends = []
        replay = DataMaestro.replay_span

        def recorded(streamer, span, periods, *args):
            ends.append(
                (span.runs_out(periods), span.generated + periods * span.delta,
                 streamer.total_bundles)
            )
            return replay(streamer, span, periods, *args)

        monkeypatch.setattr(DataMaestro, "replay_span", recorded)
        design = one_deep_address_fifos()
        for workload in (head_workload(), compute_bound_workload()):
            assert_parity(workload, design)
        assert ends
        for runs_out, end, total in ends:
            assert not runs_out and end <= total, (end, total)

    def test_each_too_short_bail_names_its_bound(self):
        system, _ = run_engine(
            "event", compute_bound_workload(), features=FeatureSet.all_disabled()
        )
        stats = system.steady_stats()
        assert stats["short_bounds"] == {"stream_end": 1, "tiles": 5}
        assert sum(stats["short_bounds"].values()) == stats["bails"]["too_short"]


# ----------------------------------------------------------------------
# Deadlocks and budget exhaustion around the fast path.
# ----------------------------------------------------------------------
class TestDeadlockAndBudget:
    def starved_after_steady_program(self):
        """A's AGU holds half its bundles: steady streaming, then starvation."""
        return reprogrammed(
            compute_bound_workload(), A=dict(temporal_bounds=(8, 8, 4))
        )

    def test_deadlock_after_steady_phase_identical(self):
        errors = {}
        stats = {}
        for engine in ("lockstep", "event"):
            system = AcceleratorSystem(DESIGN)
            with pytest.raises(SimulationLimitError) as excinfo:
                system.run(
                    self.starved_after_steady_program(),
                    max_cycles=5_000,
                    engine=engine,
                )
            errors[engine] = excinfo.value
            stats[engine] = system.steady_stats()
        assert errors["lockstep"].cycles == errors["event"].cycles == 5_000
        assert errors["lockstep"].detail == errors["event"].detail
        # The deadlock must have been preceded by real macro jumps,
        # otherwise this corner degenerates to the plain deadlock test.
        assert stats["event"]["jumps"] >= 1

    def test_budget_exhaustion_inside_steady_phase(self):
        """A budget that expires mid-steady-state must error identically."""
        workload = compute_bound_workload()
        errors = {}
        for engine in ("lockstep", "event"):
            system = AcceleratorSystem(DESIGN)
            program = compile_workload(
                workload, DESIGN, FeatureSet.all_enabled()
            )
            with pytest.raises(SimulationLimitError) as excinfo:
                system.run(program, max_cycles=300, engine=engine)
            errors[engine] = excinfo.value
        assert errors["lockstep"].cycles == errors["event"].cycles == 300
        assert errors["lockstep"].detail == errors["event"].detail


# ----------------------------------------------------------------------
# Protocol plumbing.
# ----------------------------------------------------------------------
class TestMacroProtocol:
    def test_fast_path_engages_on_compute_bound(self):
        system, result = run_engine("event", compute_bound_workload())
        stats = system.steady_stats()
        assert stats["jumps"] >= 1
        assert stats["cycles_skipped"] > result.streaming_cycles // 2, (
            "fast path must cover the majority of a compute-bound kernel"
        )

    def test_macro_stepping_disable_matches(self):
        """macro_stepping=False reproduces PR 3's pure next-event engine."""
        workload = compute_bound_workload()
        program = compile_workload(workload, DESIGN, FeatureSet.all_enabled())
        plain = AcceleratorSystem(DESIGN)
        result_plain = plain.run(
            program, engine=EventDrivenEngine(macro_stepping=False)
        )
        # The planner is created lazily on first steady_span(); with
        # macro-stepping off it never exists at all.
        assert plain.steady_stats() == {}
        fast = AcceleratorSystem(DESIGN)
        result_fast = fast.run(program, engine="event")
        assert fast.steady_stats()["jumps"] >= 1
        assert_results_identical(result_plain, result_fast)

    @pytest.mark.parametrize(
        "workload",
        [
            compute_bound_workload(),
            ConvWorkload(name="macro_conv_crop", in_height=14, in_width=14,
                         in_channels=32, out_channels=32, kernel_h=3, kernel_w=3,
                         stride=1, padding=1),
        ],
        ids=["compute_bound", "conv_crop"],
    )
    def test_lockstep_macro_off_and_on_agree(self, workload):
        """The three engine variants of a dense kernel finish identically,
        and only the macro-stepped one jumps."""
        program = compile_workload(workload, DESIGN, FeatureSet.all_enabled())
        results = {}
        jumps = {}
        for variant, engine in (
            ("lockstep", "lockstep"),
            ("macro_off", EventDrivenEngine(macro_stepping=False)),
            ("macro_on", "event"),
        ):
            system = AcceleratorSystem(DESIGN)
            results[variant] = system.run(program, engine=engine)
            jumps[variant] = system.steady_stats().get("jumps", 0)
        assert_results_identical(results["lockstep"], results["macro_off"])
        assert_results_identical(results["lockstep"], results["macro_on"])
        assert jumps["macro_off"] == 0
        assert jumps["macro_on"] >= 1, jumps

    def test_planner_retires_once_every_group_failed(self):
        """With all features off no boundary group of the conv ever verifies;
        after the last one is retired the planner stops looking."""
        from repro.core.params import ablation_feature_sets

        workload = ConvWorkload(
            name="macro_retired", in_height=14, in_width=14, in_channels=32,
            out_channels=32, kernel_h=3, kernel_w=3, stride=1, padding=1,
        )
        features = ablation_feature_sets()["1_baseline"]
        system_l, lockstep = run_engine("lockstep", workload, features=features)
        system_e, event = run_engine("event", workload, features=features)
        assert_results_identical(lockstep, event)
        assert_deep_state_identical(system_l, system_e)
        stats = system_e.steady_stats()
        assert stats["bails"] == {"bank_pattern": steady.MAX_GROUP, "retired": 1}
        assert stats["attempts"] == steady.MAX_GROUP
        assert stats["boundaries"] > 2 * steady.MAX_GROUP
        assert stats["jumps"] == 0

    def test_system_advertises_macro_protocol(self):
        assert supports_macro_protocol(AcceleratorSystem(DESIGN))

    def test_steady_span_zero_off_boundary(self):
        system = AcceleratorSystem(DESIGN)
        program = compile_workload(
            compute_bound_workload(), DESIGN, FeatureSet.all_enabled()
        )
        system.load_program(program)
        assert system.steady_span(1_000_000) == 0  # no tile completed yet
        system.step()
        # One step cannot complete a tile (the pipeline is still filling).
        assert system.steady_span(1_000_000) == 0

    def test_steady_stats_shape(self):
        system, _ = run_engine("event", compute_bound_workload())
        stats = system.steady_stats()
        assert set(stats) == {
            "boundaries",
            "attempts",
            "jumps",
            "periods_replayed",
            "cycles_skipped",
            "isolated_streams",
            "tiled_streams",
            "bails",
            "short_bounds",
        }
        assert stats["isolated_streams"] + stats["tiled_streams"] >= stats["jumps"]
        assert stats["boundaries"] >= stats["attempts"] >= stats["jumps"]


class TestBankMasks:
    """The planner's row bitmasks, against sets, on both sides of the
    64-bank word."""

    @pytest.mark.parametrize("num_banks", [8, 64, 65, 200])
    def test_masks_name_each_rows_banks(self, num_banks):
        rng = np.random.default_rng(num_banks)
        banks = rng.integers(0, num_banks, size=(300, 8))
        banks[::3] = [rng.permutation(num_banks)[:8] for _ in range(100)]
        masks = steady.bank_masks(banks.astype(np.int32), num_banks)
        distinct = np.bitwise_count(masks).sum(axis=1) == banks.shape[1]
        assert distinct.tolist() == [len(set(row)) == len(row) for row in banks.tolist()]
        assert 0 < distinct.sum() < len(banks)
        for rows in (slice(0, 1), slice(0, 40), slice(None)):
            named = {bank for row in banks[rows].tolist() for bank in row}
            footprint = steady.footprint(masks[rows])
            assert footprint == sum(1 << bank for bank in named)
