"""End-to-end tests of the exploration engine: reproducibility, caching,
journal checkpoint/resume, and report output."""

import json

import pytest

from repro.core import FeatureSet
from repro.explore import (
    ExplorationEngine,
    GROUP_DIVIDES_BANKS,
    JournalError,
    JournalMismatchError,
    ParameterAxis,
    RunJournal,
    SearchSpace,
    bank_count_space,
    datamaestro_builder,
    fifo_depth_space,
    gima_group_space,
    make_strategy,
    parse_objectives,
)
from repro.runtime import Simulator
from repro.workloads import GemmWorkload

WORKLOADS = [GemmWorkload(name="engine_gemm", m=16, n=16, k=16)]
OBJECTIVES = parse_objectives("cycles,energy_pj,area")


def small_space() -> SearchSpace:
    return SearchSpace(
        axes=(
            ParameterAxis.make("data_fifo_depth", (2, 8)),
            ParameterAxis.make("gima_group_size", (16, 64)),
        ),
        constraints=(GROUP_DIVIDES_BANKS,),
        name="engine_small",
    )


def make_engine(strategy="grid", simulator=None, seed=0, **kwargs):
    return ExplorationEngine(
        space=small_space(),
        strategy=make_strategy(strategy, objectives=OBJECTIVES, **kwargs),
        objectives=OBJECTIVES,
        workloads=WORKLOADS,
        simulator=simulator,
        seed=seed,
    )


def frontier_fingerprint(report):
    return [(e.candidate.key(), e.metrics) for e in report.frontier]


class TestDeterminism:
    def test_fixed_seed_reproducible_frontier(self):
        first = make_engine("random", seed=4).run(budget=3)
        second = make_engine("random", seed=4).run(budget=3)
        assert frontier_fingerprint(first) == frontier_fingerprint(second)
        assert [e.candidate.key() for e in first.evaluations] == [
            e.candidate.key() for e in second.evaluations
        ]

    def test_grid_explores_whole_space(self):
        report = make_engine("grid").run(budget=10)
        assert len(report.evaluations) == 4  # full small space
        assert 1 <= len(report.frontier) <= 4
        assert report.simulated == 4

    def test_budget_caps_evaluations(self):
        report = make_engine("grid").run(budget=2)
        assert len(report.evaluations) == 2

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            make_engine("grid").run(budget=0)

    def test_objectives_required(self):
        with pytest.raises(ValueError):
            ExplorationEngine(
                space=small_space(),
                strategy=make_strategy("grid"),
                objectives=(),
                workloads=WORKLOADS,
            )


class TestCaching:
    def test_warm_cache_rerun_simulates_nothing(self, tmp_path):
        cold = make_engine("grid", simulator=Simulator(cache_dir=tmp_path))
        cold_report = cold.run(budget=10)
        assert cold_report.simulated == 4

        warm = make_engine("grid", simulator=Simulator(cache_dir=tmp_path))
        warm_report = warm.run(budget=10)
        assert warm_report.simulated == 0
        assert warm_report.cache_hits == 4
        assert frontier_fingerprint(warm_report) == frontier_fingerprint(cold_report)


class TestJournal:
    def test_journal_records_every_evaluation(self, tmp_path):
        path = tmp_path / "run.jsonl"
        report = make_engine("grid").run(budget=10, journal=path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["strategy"] == "grid"
        assert len(lines) - 1 == len(report.evaluations)

    def test_resume_after_interruption_matches_fresh_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        fresh = make_engine("random", seed=7).run(budget=4, journal=path)
        assert fresh.simulated == 4

        # Interrupt: drop the last full record and truncate the one before.
        lines = path.read_text().splitlines(True)
        path.write_text("".join(lines[:3]) + lines[3][:20])

        resumed = make_engine("random", seed=7).run(
            budget=4, journal=path, resume=True
        )
        assert frontier_fingerprint(resumed) == frontier_fingerprint(fresh)
        assert [e.candidate.key() for e in resumed.evaluations] == [
            e.candidate.key() for e in fresh.evaluations
        ]
        assert resumed.replayed_from_journal == 2
        assert resumed.simulated == 2

    def test_complete_journal_resumes_without_simulation(self, tmp_path):
        path = tmp_path / "run.jsonl"
        make_engine("grid").run(budget=10, journal=path)
        resumed = make_engine("grid").run(budget=10, journal=path, resume=True)
        assert resumed.simulated == 0
        assert resumed.replayed_from_journal == len(resumed.evaluations) == 4

    def test_resume_with_different_seed_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        make_engine("random", seed=1).run(budget=2, journal=path)
        with pytest.raises(JournalMismatchError):
            make_engine("random", seed=2).run(budget=2, journal=path, resume=True)

    def test_resume_with_different_space_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        make_engine("grid").run(budget=2, journal=path)
        other = ExplorationEngine(
            space=SearchSpace(
                axes=(ParameterAxis.make("num_banks", (32, 64)),), name="other"
            ),
            strategy=make_strategy("grid"),
            objectives=OBJECTIVES,
            workloads=WORKLOADS,
        )
        with pytest.raises(JournalMismatchError):
            other.run(budget=2, journal=path, resume=True)

    def test_missing_journal_load_rejected(self, tmp_path):
        with pytest.raises(JournalError):
            RunJournal(tmp_path / "absent.jsonl").load()

    def test_fresh_run_refuses_to_overwrite_existing_journal(self, tmp_path):
        # Forgetting --resume must not wipe a checkpoint.
        path = tmp_path / "run.jsonl"
        make_engine("grid").run(budget=2, journal=path)
        before = path.read_text()
        with pytest.raises(JournalError, match="already exists"):
            make_engine("grid").run(budget=2, journal=path)
        assert path.read_text() == before  # checkpoint untouched

    def test_resume_with_different_population_rejected(self, tmp_path):
        # Population changes parent selection; the header must pin it.
        path = tmp_path / "run.jsonl"
        make_engine("evolutionary", population=4, seed=1).run(budget=3, journal=path)
        with pytest.raises(JournalMismatchError):
            make_engine("evolutionary", population=2, seed=1).run(
                budget=3, journal=path, resume=True
            )

    def test_resume_with_missing_journal_rejected(self, tmp_path):
        # A mistyped --journal path must not silently restart a long run.
        path = tmp_path / "absent.jsonl"
        with pytest.raises(JournalError, match="nothing to resume"):
            make_engine("grid").run(budget=3, journal=path, resume=True)
        assert not path.exists()

    def test_header_pins_package_version(self, tmp_path):
        path = tmp_path / "run.jsonl"
        make_engine("grid").run(budget=2, journal=path)
        header = json.loads(path.read_text().splitlines()[0])
        from repro import __version__

        assert header["package_version"] == __version__
        # A journal written by a different package version must not replay:
        # the cycle model may have changed underneath the recorded metrics.
        doctored = header | {"package_version": "0.0.1"}
        lines = path.read_text().splitlines(True)
        path.write_text(json.dumps(doctored, sort_keys=True) + "\n" + "".join(lines[1:]))
        with pytest.raises(JournalMismatchError):
            make_engine("grid").run(budget=2, journal=path, resume=True)

    def test_mid_file_corruption_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        make_engine("grid").run(budget=10, journal=path)
        lines = path.read_text().splitlines(True)
        lines[1] = "garbage that is not json\n"
        path.write_text("".join(lines))
        with pytest.raises(JournalError):
            RunJournal(path).load()


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return make_engine("grid").run(budget=10)

    def test_frontier_members_are_non_dominated(self, report):
        from repro.explore import dominates

        for member in report.frontier:
            assert not any(
                dominates(other, member, report.objectives)
                for other in report.evaluations
            )

    def test_best_is_on_first_objective(self, report):
        best = report.best()
        assert best.metrics["cycles"] == min(
            e.metrics["cycles"] for e in report.evaluations
        )

    def test_json_roundtrip(self, report, tmp_path):
        path = tmp_path / "report.json"
        report.to_json(path)
        data = json.loads(path.read_text())
        assert data["strategy"] == "grid"
        assert data["num_evaluations"] == 4
        assert len(data["frontier"]) == len(report.frontier)

    def test_csv_output(self, report, tmp_path):
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(report.evaluations)
        header = lines[0].split(",")
        assert "data_fifo_depth" in header
        assert "cycles" in header and "on_frontier" in header

    def test_metrics_cover_all_objectives(self, report):
        for evaluation in report.evaluations:
            for spec in report.objectives:
                assert spec.name in evaluation.metrics
            assert evaluation.metrics["energy_pj"] > 0
            assert evaluation.metrics["area"] > 0


class TestProposalShortfall:
    def test_under_spent_budget_reported_exactly(self):
        """Small space + large budget: shortfall == budget - evaluations."""
        with pytest.warns(RuntimeWarning, match="under-spend"):
            report = make_engine("random").run(budget=10)
        # The space holds 4 valid candidates (2 axes x 2 values).
        assert len(report.evaluations) == 4
        assert report.proposal_shortfall == 10 - 4
        assert report.as_dict()["proposal_shortfall"] == 6

    def test_fully_spent_budget_reports_zero(self):
        report = make_engine("grid").run(budget=4)
        assert report.proposal_shortfall == 0


class TestDesignClaims:
    """The design-time choices DESIGN.md calls out, measured: one grid walk
    of a single-axis space on the default exploration kernel (GeMM
    64x64x96) per claim."""

    @staticmethod
    def utilization_by_value(space, features=None):
        if features is not None:
            space.builder = datamaestro_builder(base_features=features)
        report = ExplorationEngine(
            space=space,
            strategy=make_strategy("grid"),
            objectives=parse_objectives("utilization"),
        ).run(budget=space.size())
        (axis,) = space.axes
        # One point per axis value, in axis order.
        assert [e.candidate[axis.name] for e in report.evaluations] == list(axis.values)
        return {e.candidate[axis.name]: e.metrics["utilization"] for e in report.evaluations}

    def test_data_fifo_depth_8_absorbs_arbitration_jitter(self):
        # Under a shared fully-interleaved address space (addressing-mode
        # switching off): that is where bank-conflict jitter exists for the
        # FIFOs to absorb.  With per-operand bank groups the A/B streams are
        # conflict-free and even a depth-1 FIFO sustains one word per cycle.
        features = FeatureSet.all_enabled().with_updates(addressing_mode_switching=False)
        by_depth = self.utilization_by_value(fifo_depth_space((1, 2, 4, 8)), features)
        assert by_depth[8] > by_depth[1]
        assert by_depth[8] == max(by_depth.values())
        assert by_depth[8] > 0.8

    def test_every_bank_count_keeps_the_core_busy(self):
        by_banks = self.utilization_by_value(bank_count_space((32, 64, 128)))
        assert all(utilization > 0.8 for utilization in by_banks.values())

    def test_small_gima_groups_are_best(self):
        # Groups of 8/16 banks (of 64) give every operand its own bank group;
        # with 2 groups (32) or one (64 == fully interleaved) operands share
        # banks and conflicts reappear.  Backs the evaluation system's
        # choice of 16-bank groups.
        by_group = self.utilization_by_value(gima_group_space((8, 16, 32, 64)))
        best = max(by_group, key=lambda group: (by_group[group], -group))
        assert best in (8, 16)
        assert by_group[best] > 0.95
        assert min(by_group[32], by_group[64]) < by_group[16]
